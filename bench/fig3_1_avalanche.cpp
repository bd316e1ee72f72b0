// Figure 3.1 — the HLE avalanche effect: speedup over the standard lock,
// average execution attempts per critical section, and the fraction of
// operations completing non-speculatively, as a function of tree size.
// 8 threads, 10% insert / 10% delete / 80% lookup.
//
// Expected shape: the HLE'd MCS lock executes virtually everything
// non-speculatively (~2 attempts/op, no speedup); TTAS recovers (2-3.5
// attempts at high conflict, speculative fraction growing with tree size).
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Figure 3.1",
                  "Avalanche effect, 8 threads, 10i/10d/80l.\n"
                  "Expect: MCS-HLE ~fully non-speculative with ~2 "
                  "attempts/op and ~1x speedup; TTAS-HLE recovers "
                  "(non-spec fraction well below 1, real speedup).");

  harness::Table table({"lock", "tree-size", "speedup-vs-std",
                        "attempts-per-op", "nonspec-frac",
                        "arrival-lock-held-frac"});
  for (const LockSel lock : {LockSel::kTtas, LockSel::kMcs}) {
    for (const std::size_t size : kTreeSizes) {
      RbPoint p;
      p.size = size;
      p.update_pct = 20;
      p.lock = lock;

      p.scheme = locks::ElisionPolicy::standard();
      const auto std_stats = run_rb_point(p);

      double arrival_held = 0.0;
      p.scheme = locks::ElisionPolicy::hle();
      p.arrival_held_frac = &arrival_held;
      const auto hle_stats = run_rb_point(p);

      table.add_row({lock_sel_name(lock), harness::fmt_int(size),
                     harness::fmt(hle_stats.throughput() /
                                  std_stats.throughput(), 2),
                     harness::fmt(hle_stats.attempts_per_op(), 2),
                     harness::fmt(hle_stats.nonspec_fraction(), 3),
                     lock == LockSel::kTtas
                         ? harness::fmt(arrival_held, 3)
                         : std::string("-")});
    }
  }
  table.print();
  return 0;
}
