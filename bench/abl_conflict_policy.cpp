// Ablation — conflict-management policy: Haswell's requestor-wins vs the
// TLR-style oldest-wins (Ch. 8 related work; Rajwar & Goodman serialize
// conflicting transactions in hardware, which is what SCM approximates in
// software).
//
// The experiment: SLR with NO conflict management, pure transactional
// retries on a contended tree. Under requestor-wins, conflicting retries
// keep killing each other (the livelock-proneness the paper cites as
// motivation for SCM); under oldest-wins the oldest transaction always
// survives, so hardware alone restores much of what SCM provides — and
// adding SCM on top of oldest-wins buys little.
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Ablation: conflict policy (requestor-wins vs oldest-wins)",
                  "opt-SLR and opt-SLR-SCM on a contended tree under both "
                  "hardware policies, 8 threads, 50i/50d.\n"
                  "Expect: oldest-wins narrows the gap SCM closes — TLR-"
                  "style hardware serialization is the hardware analogue "
                  "of the paper's software scheme.");
  harness::Table table({"tree-size", "policy", "scheme", "Mops/s", "att/op",
                        "nonspec"});
  for (const std::size_t size : {16ULL, 128ULL, 2048ULL}) {
    for (const auto policy : {tsx::ConflictPolicy::kRequestorWins,
                              tsx::ConflictPolicy::kOldestWins}) {
      for (const auto& scheme :
           {locks::ElisionPolicy::opt_slr(),
            locks::ElisionPolicy::opt_slr_scm()}) {
        RbPoint p;
        p.size = size;
        p.update_pct = 100;
        p.lock = LockSel::kTtas;
        p.scheme = scheme;
        p.duration_sec = 0.002;
        p.seeds = 1;
        p.tsx.conflict_policy = policy;
        const auto stats = run_rb_point(p);
        table.add_row(
            {harness::fmt_int(size),
             policy == tsx::ConflictPolicy::kRequestorWins ? "req-wins"
                                                           : "oldest-wins",
             scheme.name(),
             harness::fmt(stats.throughput() / 1e6, 2),
             harness::fmt(stats.attempts_per_op(), 2),
             harness::fmt(stats.nonspec_fraction(), 3)});
      }
    }
  }
  table.print();
  return 0;
}
