// Figure 3.4 — HLE speedup over the standard version of each lock, for
// three contention levels (lookups-only / 20% updates / 100% updates),
// TTAS vs MCS, at 4 and 8 threads.
//
// Expected shape: TTAS gains from HLE across the spectrum (largest on
// mid-size trees); MCS gains nothing (speedup ~1 or below everywhere).
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Figure 3.4",
                  "HLE speedup vs the standard version of each lock, by "
                  "contention level.\n"
                  "Expect: TTAS speedups > 1 (largest without contention); "
                  "MCS ~1 everywhere.");
  for (const int threads : {4, 8}) {
    std::printf("\n-- %d threads --\n", threads);
    harness::Table table({"mix", "lock", "tree-size", "hle-speedup"});
    for (const auto& mix : kMixes) {
      for (const LockSel lock : {LockSel::kTtas, LockSel::kMcs}) {
        for (const std::size_t size : kTreeSizesSmall) {
          RbPoint p;
          p.size = size;
          p.update_pct = mix.update_pct;
          p.threads = threads;
          p.lock = lock;
          p.scheme = locks::ElisionPolicy::standard();
          const auto std_stats = run_rb_point(p);
          p.scheme = locks::ElisionPolicy::hle();
          const auto hle_stats = run_rb_point(p);
          table.add_row({mix.name, lock_sel_name(lock),
                         harness::fmt_int(size),
                         harness::fmt(hle_stats.throughput() /
                                      std_stats.throughput(), 2)});
        }
      }
    }
    table.print();
  }
  return 0;
}
