// Ablation — Algorithm 3 as designed (HLE nested in an RTM transaction,
// preserving the "lock is held" illusion) vs the evaluated workaround
// (reading the lock and aborting when held), which the paper was forced
// into because Haswell cannot nest HLE inside RTM (Ch. 4 Remark).
//
// Expected: comparable performance — supporting the paper's premise that
// the workaround faithfully represents the intended design.
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

namespace {

using namespace elision;

harness::RunStats run_variant(bool nested, std::size_t size, int update_pct) {
  harness::RbPoint p;
  p.size = size;
  p.update_pct = update_pct;
  p.lock = harness::LockSel::kTtas;
  p.scheme = nested ? locks::ElisionPolicy::hle_scm_nested()
                    : locks::ElisionPolicy::hle_scm();
  p.duration_sec = 0.002;
  p.seeds = 1;
  p.tsx.allow_hle_in_rtm = nested;  // the hardware capability the design needs
  return harness::run_rb_point(p);
}

}  // namespace

int main() {
  using namespace elision;
  harness::banner("Ablation: SCM nested-HLE design vs RTM workaround "
                  "(Ch. 4 Remark)",
                  "8 threads, TTAS main lock.\n"
                  "Expect: the workaround used in the paper's evaluation "
                  "performs comparably to the intended nested design.");
  harness::Table table({"tree-size", "update-pct", "workaround Mops/s",
                        "nested Mops/s", "ratio"});
  for (const std::size_t size : {64ULL, 2048ULL}) {
    for (const int update : {20, 100}) {
      const auto workaround = run_variant(false, size, update);
      const auto nested = run_variant(true, size, update);
      table.add_row({harness::fmt_int(size), harness::fmt_int(update),
                     harness::fmt(workaround.throughput() / 1e6, 2),
                     harness::fmt(nested.throughput() / 1e6, 2),
                     harness::fmt(nested.throughput() /
                                  workaround.throughput(), 2)});
    }
  }
  table.print();
  return 0;
}
