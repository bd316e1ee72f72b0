// Figure 5.4 — STAMP results: run time of each application under the six
// schemes, normalized to the standard (non-speculative) version of the
// lock, plus attempts/op and the non-speculative fraction.
//
// Expected shape: MCS gains nothing from plain HLE but up to ~2.5x from
// HLE-SCM; TTAS gains up to ~2x from HLE on intruder; optimistic SLR is
// the overall best on most applications.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "stamp/common.hpp"

int main() {
  using namespace elision;
  harness::banner("Figure 5.4",
                  "STAMP, 8 threads: normalized run time (lower is "
                  "better), attempts per critical section, non-spec "
                  "fraction.\n"
                  "Expect: HLE-MCS ~1.0 everywhere; HLE-SCM and opt-SLR "
                  "well below 1; intruder the best plain-HLE TTAS case.");
  const double scale = harness::env_duration_scale();

  // Every (lock, app, scheme) cell is an independent simulation. Build the
  // whole job grid up front — the standard-scheme baseline followed by the
  // six evaluated schemes per app — fan it out across host threads
  // (ELISION_HOST_THREADS; defaults to 1), and print from the in-order
  // results, so the tables are byte-identical at any host-thread count.
  std::vector<stamp::StampJob> jobs;
  for (const auto lock : {stamp::LockKind::kTtas, stamp::LockKind::kMcs}) {
    for (const char* app : stamp::kAllAppNames) {
      stamp::StampConfig cfg;
      cfg.lock = lock;
      cfg.scale = 0.25 * scale;
      jobs.push_back({app, cfg});
      for (const auto& policy : locks::kAllSixPolicies) {
        cfg.policy = policy;
        jobs.push_back({app, cfg});
      }
    }
  }
  const std::vector<stamp::StampResult> results =
      stamp::run_apps(jobs, harness::env_host_threads());

  std::size_t j = 0;
  for (const auto lock : {stamp::LockKind::kTtas, stamp::LockKind::kMcs}) {
    std::printf("\n-- %s lock --\n", stamp::lock_name(lock));
    harness::Table table({"app", "scheme", "norm-time", "att/op",
                          "nonspec-frac"});
    // The paper's seven configurations plus the labyrinth extension.
    for (const char* app : stamp::kAllAppNames) {
      const auto& base = results[j++];
      for (const auto& policy : locks::kAllSixPolicies) {
        const auto& r = results[j++];
        table.add_row({app, policy.name(),
                       harness::fmt(static_cast<double>(r.elapsed_cycles) /
                                    static_cast<double>(base.elapsed_cycles), 3),
                       harness::fmt(r.attempts_per_op(), 2),
                       harness::fmt(r.nonspec_fraction(), 3)});
      }
    }
    table.print();
  }
  return 0;
}
