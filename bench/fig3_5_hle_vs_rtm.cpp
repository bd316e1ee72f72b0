// Figure 3.5 — the two lock-elision mechanisms (native HLE vs the
// RTM-based equivalent used for abort counting) perform comparably.
//
// Expected shape: for each lock and mix, the HLE-based and RTM-based
// speedups over the standard lock track each other closely.
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Figure 3.5",
                  "HLE-based vs RTM-based lock elision (8 threads).\n"
                  "Expect: the two mechanisms give comparable speedups "
                  "for both locks at every point.");
  harness::Table table({"mix", "lock", "tree-size", "hle-speedup",
                        "rtm-speedup"});
  for (const auto& mix : kMixes) {
    for (const LockSel lock : {LockSel::kTtas, LockSel::kMcs}) {
      for (const std::size_t size : kTreeSizesSmall) {
        RbPoint p;
        p.size = size;
        p.update_pct = mix.update_pct;
        p.lock = lock;
        p.scheme = locks::ElisionPolicy::standard();
        const auto std_stats = run_rb_point(p);
        p.scheme = locks::ElisionPolicy::hle();
        const auto hle_stats = run_rb_point(p);
        p.scheme = locks::ElisionPolicy::rtm_elide();
        const auto rtm_stats = run_rb_point(p);
        table.add_row({mix.name, lock_sel_name(lock), harness::fmt_int(size),
                       harness::fmt(hle_stats.throughput() /
                                    std_stats.throughput(), 2),
                       harness::fmt(rtm_stats.throughput() /
                                    std_stats.throughput(), 2)});
      }
    }
  }
  table.print();
  return 0;
}
