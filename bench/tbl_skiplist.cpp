// Extension table — the skiplist data-structure benchmark: like the
// red-black tree sweep but with the skiplist's transactional footprint
// (taller read paths, no rebalancing writes). Confirms the paper's
// conclusions are not an artifact of the tree's write pattern.
#include <cstdio>

#include "ds/skiplist.hpp"
#include "harness/rb_workload.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "support/rng.hpp"

namespace {

using namespace elision;
using namespace elision::harness;

template <typename Lock>
harness::RunStats run_sl(locks::ElisionPolicy policy, std::size_t size,
                         int update_pct, ds::SkipList& sl) {
  Lock lock;
  locks::CriticalSection<Lock> cs(policy, lock);
  harness::BenchConfig cfg;
  cfg.duration_scale = harness::env_duration_scale();
  const std::uint64_t domain = size * 2;
  const int half = update_pct / 2;
  return harness::run_workload(cfg, [&, half, update_pct](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(domain);
    const auto dice = static_cast<int>(rng.next_below(100));
    return cs.run(ctx, [&] {
      if (dice < half) {
        sl.insert(ctx, key);
      } else if (dice < update_pct) {
        sl.erase(ctx, key);
      } else {
        sl.contains(ctx, key);
      }
    });
  });
}

}  // namespace

int main() {
  harness::banner("Skiplist benchmark (extension)",
                  "The tree results, cross-checked on a skiplist: "
                  "HLE-MCS flat, SCM restores concurrency, 8 threads.");
  harness::Table table({"mix", "lock", "size", "scheme", "Mops/s",
                        "att/op", "nonspec"});
  for (const auto& mix : kMixes) {
    for (const std::size_t size : {128ULL, 4096ULL}) {
      for (const bool mcs : {false, true}) {
        for (const auto& policy : locks::kAllSixPolicies) {
          ds::SkipList sl(size * 4 + 64);
          support::Xoshiro256 fill(42);
          std::size_t filled = 0;
          while (filled < size) {
            if (sl.unsafe_insert(fill.next_below(size * 2))) ++filled;
          }
          sl.unsafe_distribute_free_lists(8);
          const auto stats =
              mcs ? run_sl<locks::McsLock>(policy, size, mix.update_pct, sl)
                  : run_sl<locks::TtasLock>(policy, size, mix.update_pct, sl);
          table.add_row({mix.name, mcs ? "MCS" : "TTAS",
                         harness::fmt_int(size), policy.name(),
                         harness::fmt(stats.throughput() / 1e6, 2),
                         harness::fmt(stats.attempts_per_op(), 2),
                         harness::fmt(stats.nonspec_fraction(), 3)});
        }
      }
    }
  }
  table.print();
  return 0;
}
