// Figure 5.3 — abort analysis under the software-assisted schemes at high
// contention (50% insert / 50% delete): execution attempts per operation
// and the fraction of non-speculative completions.
//
// Expected shape: HLE-SCM converges to ~1 attempt as the tree grows and
// completes (nearly) everything speculatively, unlike plain HLE on MCS;
// on TTAS, HLE-SCM needs the fewest attempts at the contended end.
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Figure 5.3",
                  "Impact of aborts under the software-assisted schemes "
                  "(8 threads, 50i/50d).\n"
                  "Expect: HLE-SCM attempts/op converge to ~1 with tree "
                  "size, non-spec fraction ~0; HLE-MCS stays at ~2 "
                  "attempts and ~1 non-spec.");
  std::printf("\n-- MCS: HLE vs HLE-SCM --\n");
  {
    harness::Table table({"tree-size", "HLE att/op", "HLE nonspec",
                          "HLE-SCM att/op", "HLE-SCM nonspec",
                          "SCM-speedup-vs-HLE"});
    for (const std::size_t size : kTreeSizesSmall) {
      RbPoint p;
      p.size = size;
      p.update_pct = 100;
      p.lock = LockSel::kMcs;
      p.scheme = locks::ElisionPolicy::hle();
      const auto hle = run_rb_point(p);
      p.scheme = locks::ElisionPolicy::hle_scm();
      const auto scm = run_rb_point(p);
      table.add_row({harness::fmt_int(size),
                     harness::fmt(hle.attempts_per_op(), 2),
                     harness::fmt(hle.nonspec_fraction(), 3),
                     harness::fmt(scm.attempts_per_op(), 2),
                     harness::fmt(scm.nonspec_fraction(), 3),
                     harness::fmt(scm.throughput() / hle.throughput(), 2)});
    }
    table.print();
  }
  std::printf("\n-- TTAS: the software-assisted schemes --\n");
  {
    harness::Table table({"tree-size", "scheme", "att/op", "nonspec-frac",
                          "speedup-vs-HLE"});
    for (const std::size_t size : kTreeSizesSmall) {
      RbPoint p;
      p.size = size;
      p.update_pct = 100;
      p.lock = LockSel::kTtas;
      p.scheme = locks::ElisionPolicy::hle();
      const auto hle = run_rb_point(p);
      for (const auto& policy :
           {locks::ElisionPolicy::hle_scm(), locks::ElisionPolicy::opt_slr(),
            locks::ElisionPolicy::opt_slr_scm()}) {
        p.scheme = policy;
        const auto s = run_rb_point(p);
        table.add_row({harness::fmt_int(size), policy.name(),
                       harness::fmt(s.attempts_per_op(), 2),
                       harness::fmt(s.nonspec_fraction(), 3),
                       harness::fmt(s.throughput() / hle.throughput(), 2)});
      }
    }
    table.print();
  }
  return 0;
}
