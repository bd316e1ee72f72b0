// Randomized property tests of the engine's transactional guarantees:
// atomicity, isolation/opacity, and progress, under every scheme, with
// spurious aborts enabled and randomized workload shapes. These sweep many
// seeds (deterministically) and check invariants rather than exact outputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ds/rbtree.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "support/rng.hpp"
#include "tsx/shared.hpp"

namespace elision {
namespace {

sim::MachineConfig machine_with_seed(std::uint64_t seed) {
  sim::MachineConfig m;
  m.seed = seed;
  return m;
}

// ---------------------------------------------------------------------------
// Atomicity: transfers between random cells conserve the total sum.
// ---------------------------------------------------------------------------

class TransferFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TransferFuzz, SumConservedUnderRandomTransfers) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  constexpr int kCells = 24;
  constexpr std::int64_t kInitial = 100;
  std::vector<support::CacheAligned<tsx::Shared<std::int64_t>>> cells(kCells);
  for (auto& c : cells) c.value.unsafe_set(kInitial);

  sim::Scheduler sched(machine_with_seed(seed));
  tsx::Engine eng(sched);  // default config: spurious aborts ON
  locks::TtasLock lock;
  // Use a different scheme per seed to cover the whole matrix over the
  // parameter sweep.
  const locks::ElisionPolicy policy =
      locks::kAllSixPolicies[seed % std::size(locks::kAllSixPolicies)];
  locks::CriticalSection<locks::TtasLock> cs(policy, lock);

  for (int t = 0; t < 6; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 120; ++k) {
        const auto from = st.rng().next_below(kCells);
        const auto to = st.rng().next_below(kCells);
        const auto amount = static_cast<std::int64_t>(st.rng().next_below(7));
        cs.run(ctx, [&] {
          auto& a = cells[from].value;
          auto& b = cells[to].value;
          const std::int64_t av = a.load(ctx);
          a.store(ctx, av - amount);
          b.store(ctx, b.load(ctx) + amount);
        });
      }
    });
  }
  sched.run();
  std::int64_t sum = 0;
  for (auto& c : cells) sum += c.value.unsafe_get();
  EXPECT_EQ(sum, kCells * kInitial) << "scheme " << policy.name();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferFuzz, ::testing::Range(0, 18));

// ---------------------------------------------------------------------------
// Opacity: committed transactions only see invariant-consistent states.
// ---------------------------------------------------------------------------

class InvariantFuzz : public ::testing::TestWithParam<int> {};

TEST_P(InvariantFuzz, CommittedReadersSeeConsistentSnapshots) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  // Writers keep cells[0..3] all equal inside their critical sections but
  // break the invariant transiently; committed speculative readers must
  // never observe a mix.
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> cells(4);
  bool torn = false;

  sim::Scheduler sched(machine_with_seed(seed * 977 + 3));
  tsx::Engine eng(sched);
  locks::TtasLock lock;
  const locks::ElisionPolicy policy =
      locks::kAllSixPolicies[(seed + 2) % std::size(locks::kAllSixPolicies)];
  locks::CriticalSection<locks::TtasLock> cs(policy, lock);

  for (int t = 0; t < 3; ++t) {
    sched.spawn([&](sim::SimThread& st) {  // writers
      auto& ctx = eng.context(st);
      for (int k = 0; k < 80; ++k) {
        cs.run(ctx, [&] {
          const std::uint64_t next = cells[0].value.load(ctx) + 1;
          for (auto& c : cells) {
            c.value.store(ctx, next);
            ctx.engine().compute(ctx, 30 + st.rng().next_below(60));
          }
        });
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    sched.spawn([&](sim::SimThread& st) {  // readers
      auto& ctx = eng.context(st);
      for (int k = 0; k < 120; ++k) {
        std::uint64_t seen[4];
        cs.run(ctx, [&] {
          for (int i = 0; i < 4; ++i) {
            seen[i] = cells[i].value.load(ctx);
            ctx.engine().compute(ctx, 20 + st.rng().next_below(40));
          }
        });
        for (int i = 1; i < 4; ++i) {
          if (seen[i] != seen[0]) torn = true;
        }
      }
    });
  }
  sched.run();
  EXPECT_FALSE(torn) << "scheme " << policy.name();
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(cells[i].value.unsafe_get(), cells[0].value.unsafe_get());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantFuzz, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Structural soundness: random tree workloads under random machine shapes.
// ---------------------------------------------------------------------------

class TreeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TreeFuzz, TreeStaysValidUnderRandomMachines) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  support::Xoshiro256 meta(seed * 31 + 7);
  sim::MachineConfig m;
  m.seed = meta.next();
  m.n_cores = 1 + static_cast<unsigned>(meta.next_below(6));
  m.smt_per_core = 1 + static_cast<unsigned>(meta.next_below(2));
  m.yield_slack_cycles = meta.next_below(3) == 0 ? 200 : 0;
  const int threads = 2 + static_cast<int>(meta.next_below(7));
  const std::size_t size = 8u << meta.next_below(5);
  const int update_pct = 20 + static_cast<int>(meta.next_below(81));

  ds::RbTree tree(size * 4 + 128);
  support::Xoshiro256 fill(meta.next());
  std::size_t filled = 0;
  while (filled < size) {
    if (tree.unsafe_insert(fill.next_below(size * 2))) ++filled;
  }
  tree.unsafe_distribute_free_lists(threads);

  sim::Scheduler sched(m);
  tsx::Engine eng(sched);
  locks::McsLock lock;
  const locks::ElisionPolicy policy =
      locks::kAllSixPolicies[seed % std::size(locks::kAllSixPolicies)];
  locks::CriticalSection<locks::McsLock> cs(policy, lock);
  for (int t = 0; t < threads; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 80; ++k) {
        const std::uint64_t key = st.rng().next_below(size * 2);
        const auto dice = static_cast<int>(st.rng().next_below(100));
        cs.run(ctx, [&] {
          if (dice < update_pct / 2) {
            tree.insert(ctx, key);
          } else if (dice < update_pct) {
            tree.erase(ctx, key);
          } else {
            tree.contains(ctx, key);
          }
        });
      }
    });
  }
  sched.run();
  std::string why;
  EXPECT_TRUE(tree.unsafe_validate(&why))
      << why << " (seed " << seed << ", scheme " << policy.name()
      << ", threads " << threads << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeFuzz, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Mixed direct + transactional traffic (lock-free counters next to
// critical sections) must never lose updates.
// ---------------------------------------------------------------------------

class MixedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MixedFuzz, DirectRmwAndTransactionsInterleave) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  support::CacheAligned<tsx::Shared<std::uint64_t>> tx_counter;
  support::CacheAligned<tsx::Shared<std::uint64_t>> direct_counter;
  sim::Scheduler sched(machine_with_seed(seed * 131 + 1));
  tsx::Engine eng(sched);
  constexpr int kThreads = 6, kIters = 150;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < kIters; ++k) {
        if (st.rng().next_below(2) == 0) {
          // Transactional increment with a direct-RMW fallback.
          const unsigned status = eng.run_transaction(ctx, [&] {
            tx_counter.value.store(ctx, tx_counter.value.load(ctx) + 1);
          });
          if (status != tsx::kCommitted) tx_counter.value.fetch_add(ctx, 1);
        } else {
          direct_counter.value.fetch_add(ctx, 1);
        }
      }
    });
  }
  sched.run();
  EXPECT_EQ(tx_counter.value.unsafe_get() + direct_counter.value.unsafe_get(),
            kThreads * kIters);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedFuzz, ::testing::Range(0, 10));

}  // namespace
}  // namespace elision
