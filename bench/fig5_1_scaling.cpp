// Figure 5.1 — thread scaling on a 128-node tree under moderate contention
// (20% updates), normalized to a single thread running with NO locking.
//
// Expected shape: the software-assisted schemes scale with the thread
// count; plain HLE-MCS does not scale at all; the MCS/TTAS gap closes
// under SCM/SLR.
#include <cstdio>

#include "ds/rbtree.hpp"
#include "harness/rb_workload.hpp"
#include "harness/report.hpp"
#include "support/rng.hpp"

namespace {

// Single thread, no locking at all: the normalization baseline.
double no_lock_baseline() {
  using namespace elision;
  ds::RbTree tree(128 * 4 + 256);
  support::Xoshiro256 fill(42);
  std::size_t filled = 0;
  while (filled < 128) {
    if (tree.unsafe_insert(fill.next_below(256))) ++filled;
  }
  tree.unsafe_distribute_free_lists(1);
  harness::BenchConfig cfg;
  cfg.threads = 1;
  cfg.duration_sec = 0.0015;
  cfg.duration_scale = harness::env_duration_scale();
  const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(256);
    const auto dice = static_cast<int>(rng.next_below(100));
    if (dice < 10) {
      tree.insert(ctx, key);
    } else if (dice < 20) {
      tree.erase(ctx, key);
    } else {
      tree.contains(ctx, key);
    }
    return locks::RegionResult{.speculative = false, .attempts = 1};
  });
  return stats.throughput();
}

}  // namespace

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Figure 5.1",
                  "Scheme scaling on a 128-node tree, 10i/10d/80l, "
                  "normalized to 1 thread with no locking.\n"
                  "Expect: SCM/SLR schemes scale with threads; HLE-MCS "
                  "flat; the MCS vs TTAS gap closes under the software-"
                  "assisted schemes.");
  const double base = no_lock_baseline();
  for (const LockSel lock : {LockSel::kTtas, LockSel::kMcs}) {
    std::printf("\n-- %s lock --\n", lock_sel_name(lock));
    harness::Table table({"scheme", "1-thread", "2-threads", "4-threads",
                          "8-threads"});
    for (const auto& policy :
         {locks::ElisionPolicy::standard(), locks::ElisionPolicy::hle(),
          locks::ElisionPolicy::hle_scm(), locks::ElisionPolicy::opt_slr(),
          locks::ElisionPolicy::opt_slr_scm()}) {
      std::vector<std::string> row{policy.name()};
      for (const int threads : {1, 2, 4, 8}) {
        RbPoint p;
        p.size = 128;
        p.update_pct = 20;
        p.threads = threads;
        p.lock = lock;
        p.scheme = policy;
        row.push_back(harness::fmt(run_rb_point(p).throughput() / base, 2));
      }
      table.add_row(std::move(row));
    }
    table.print();
  }
  return 0;
}
