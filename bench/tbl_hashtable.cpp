// Section 5.2's second data-structure benchmark: the hash table. The paper
// reports its results are comparable to the red-black tree's short-
// transaction regime; this bench reproduces that comparison.
#include <cstdio>
#include <memory>

#include "ds/hashtable.hpp"
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
harness::RunStats run_ht(locks::ElisionPolicy policy, std::size_t size,
                         int update_pct, ds::HashTable& ht) {
  Lock lock;
  locks::CriticalSection<Lock> cs(policy, lock);
  harness::BenchConfig cfg;
  cfg.threads = 8;
  cfg.duration_sec = 0.0015;
  cfg.duration_scale = harness::env_duration_scale();
  const std::uint64_t domain = size * 2;
  return harness::run_workload(cfg, [&, update_pct](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(domain);
    const auto dice = static_cast<int>(rng.next_below(100));
    return cs.run(ctx, [&] {
      if (dice < update_pct / 2) {
        ht.insert(ctx, key, key);
      } else if (dice < update_pct) {
        ht.erase(ctx, key);
      } else {
        ht.contains(ctx, key);
      }
    });
  });
}

}  // namespace

int main() {
  harness::banner("Hash-table benchmark (Sec 5.2)",
                  "Short-transaction data structure, 8 threads.\n"
                  "Expect: same qualitative picture as the small-tree "
                  "red-black results — HLE-MCS flat, SCM restores "
                  "concurrency for both locks.");
  harness::Table table({"mix", "lock", "size", "scheme", "Mops/s",
                        "att/op", "nonspec"});
  for (const auto& mix : kMixes) {
    for (const std::size_t size : {64ULL, 1024ULL}) {
      for (const bool mcs : {false, true}) {
        for (const auto& policy : locks::kAllSixPolicies) {
          ds::HashTable ht(512, size * 4 + 512);
          support::Xoshiro256 fill(42);
          std::size_t filled = 0;
          while (filled < size) {
            if (ht.unsafe_insert(fill.next_below(size * 2), 1)) ++filled;
          }
          const auto stats =
              mcs ? run_ht<locks::McsLock>(policy, size, mix.update_pct, ht)
                  : run_ht<locks::TtasLock>(policy, size, mix.update_pct, ht);
          table.add_row({mix.name, mcs ? "MCS" : "TTAS",
                         harness::fmt_int(size),
                         policy.name(),
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
