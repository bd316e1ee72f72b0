// Chapter 6 — HLE-compatible fair locks. Shows (a) the unadjusted ticket
// and CLH locks never elide (every speculative attempt aborts on the
// XRELEASE mismatch), (b) the adjusted versions elide and behave like the
// MCS lock under HLE (including the avalanche), and (c) SCM restores their
// concurrency while preserving fairness.
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Chapter 6 fair locks",
                  "Ticket/CLH HLE adjustments (8 threads, 10i/10d/80l).\n"
                  "Expect: unadjusted ticket/CLH fully non-speculative "
                  "under HLE; adjusted versions match MCS dynamics; "
                  "HLE-SCM rescues all fair locks.");
  harness::Table table({"lock", "tree-size", "scheme", "speedup-vs-std",
                        "att/op", "nonspec-frac"});
  for (const LockSel lock :
       {LockSel::kTicket, LockSel::kClh, LockSel::kTicketAdj,
        LockSel::kClhAdj, LockSel::kMcs}) {
    for (const std::size_t size : {64ULL, 2048ULL, 32768ULL}) {
      RbPoint p;
      p.size = size;
      p.update_pct = 20;
      p.lock = lock;
      p.scheme = locks::ElisionPolicy::standard();
      const double std_thr = run_rb_point(p).throughput();
      for (const auto& policy :
           {locks::ElisionPolicy::hle(), locks::ElisionPolicy::hle_scm()}) {
        p.scheme = policy;
        const auto stats = run_rb_point(p);
        table.add_row({lock_sel_name(lock), harness::fmt_int(size),
                       policy.name(),
                       harness::fmt(stats.throughput() / std_thr, 2),
                       harness::fmt(stats.attempts_per_op(), 2),
                       harness::fmt(stats.nonspec_fraction(), 3)});
      }
    }
  }
  table.print();
  return 0;
}
