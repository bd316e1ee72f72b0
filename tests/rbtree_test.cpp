// Red-black tree tests: oracle comparison against std::set, invariant
// validation, and parameterized concurrent sweeps across all schemes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "ds/rbtree.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "support/rng.hpp"

namespace elision::ds {
namespace {

sim::MachineConfig quiet_machine() {
  sim::MachineConfig m;
  m.n_cores = 8;
  m.smt_per_core = 1;
  return m;
}

tsx::TsxConfig quiet_tsx() {
  tsx::TsxConfig t;
  t.spurious_per_begin = 0;
  t.spurious_per_access = 0;
  return t;
}

// Runs a body on a single simulated thread.
void run_single(const std::function<void(tsx::Ctx&)>& body) {
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) { body(eng.context(st)); });
  sched.run();
}

TEST(RbTree, EmptyTreeBehaviour) {
  RbTree tree(16);
  run_single([&](tsx::Ctx& ctx) {
    EXPECT_FALSE(tree.contains(ctx, 1));
    EXPECT_FALSE(tree.erase(ctx, 1));
    EXPECT_TRUE(tree.insert(ctx, 1));
    EXPECT_TRUE(tree.contains(ctx, 1));
    EXPECT_FALSE(tree.insert(ctx, 1));  // duplicate
    EXPECT_TRUE(tree.erase(ctx, 1));
    EXPECT_FALSE(tree.contains(ctx, 1));
  });
  EXPECT_EQ(tree.unsafe_size(), 0u);
  EXPECT_TRUE(tree.unsafe_validate());
}

TEST(RbTree, AscendingInsertStaysBalancedish) {
  RbTree tree(600);
  run_single([&](tsx::Ctx& ctx) {
    for (std::uint64_t k = 1; k <= 512; ++k) {
      ASSERT_TRUE(tree.insert(ctx, k));
    }
    for (std::uint64_t k = 1; k <= 512; ++k) {
      EXPECT_TRUE(tree.contains(ctx, k));
    }
  });
  std::string why;
  EXPECT_TRUE(tree.unsafe_validate(&why)) << why;
  EXPECT_EQ(tree.unsafe_size(), 512u);
}

TEST(RbTree, DescendingInsertThenFullErase) {
  RbTree tree(600);
  run_single([&](tsx::Ctx& ctx) {
    for (std::uint64_t k = 512; k >= 1; --k) ASSERT_TRUE(tree.insert(ctx, k));
    for (std::uint64_t k = 1; k <= 512; ++k) ASSERT_TRUE(tree.erase(ctx, k));
  });
  EXPECT_EQ(tree.unsafe_size(), 0u);
  EXPECT_TRUE(tree.unsafe_validate());
}

TEST(RbTree, RandomOracleAgainstStdSet) {
  RbTree tree(2100);
  std::set<std::uint64_t> oracle;
  support::Xoshiro256 rng(77);
  run_single([&](tsx::Ctx& ctx) {
    for (int i = 0; i < 6000; ++i) {
      const std::uint64_t key = rng.next_below(2048);
      const int op = static_cast<int>(rng.next_below(3));
      if (op == 0) {
        EXPECT_EQ(tree.insert(ctx, key), oracle.insert(key).second);
      } else if (op == 1) {
        EXPECT_EQ(tree.erase(ctx, key), oracle.erase(key) == 1);
      } else {
        EXPECT_EQ(tree.contains(ctx, key), oracle.count(key) == 1);
      }
      if (i % 500 == 0) {
        std::string why;
        ASSERT_TRUE(tree.unsafe_validate(&why)) << why << " at op " << i;
      }
    }
  });
  std::string why;
  EXPECT_TRUE(tree.unsafe_validate(&why)) << why;
  const auto keys = tree.unsafe_keys();
  const std::vector<std::uint64_t> expect(oracle.begin(), oracle.end());
  EXPECT_EQ(keys, expect);
}

TEST(RbTree, UnsafeInsertMatchesTransactionalInsert) {
  RbTree a(300), b(300);
  support::Xoshiro256 rng(5);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(rng.next_below(500));
  for (const auto k : keys) a.unsafe_insert(k);
  run_single([&](tsx::Ctx& ctx) {
    for (const auto k : keys) b.insert(ctx, k);
  });
  EXPECT_EQ(a.unsafe_keys(), b.unsafe_keys());
  EXPECT_TRUE(a.unsafe_validate());
  EXPECT_TRUE(b.unsafe_validate());
}

TEST(RbTree, KeysComeOutSorted) {
  RbTree tree(300);
  support::Xoshiro256 rng(11);
  for (int i = 0; i < 200; ++i) tree.unsafe_insert(rng.next());
  const auto keys = tree.unsafe_keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(RbTree, AbortedOperationRollsBackCompletely) {
  // A transactional insert that aborts mid-rebalance must leave the tree
  // (and the allocator free list) exactly as before.
  RbTree tree(64);
  for (std::uint64_t k = 0; k < 20; ++k) tree.unsafe_insert(k * 3);
  const auto before = tree.unsafe_keys();
  run_single([&](tsx::Ctx& ctx) {
    const unsigned st = ctx.engine().run_transaction(ctx, [&] {
      tree.insert(ctx, 100);
      tree.erase(ctx, 0);
      ctx.engine().xabort(ctx, 1);
    });
    EXPECT_NE(st, tsx::kCommitted);
  });
  EXPECT_EQ(tree.unsafe_keys(), before);
  std::string why;
  EXPECT_TRUE(tree.unsafe_validate(&why)) << why;
}

// ---------------------------------------------------------------------------
// Parameterized concurrent sweeps: scheme x lock x tree size x update mix
// ---------------------------------------------------------------------------

struct SweepParam {
  locks::ElisionPolicy policy;
  bool mcs;  // false: TTAS
  std::size_t size;
  int update_pct;  // percent of ops that are insert+delete (split evenly)
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  std::string s = p.policy.name();
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s + (p.mcs ? "_MCS_" : "_TTAS_") + std::to_string(p.size) + "_u" +
         std::to_string(p.update_pct);
}

class RbTreeConcurrent : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RbTreeConcurrent, InvariantsHoldUnderConcurrency) {
  const SweepParam p = GetParam();
  RbTree tree(p.size * 4 + 64);
  support::Xoshiro256 fill(42);
  std::size_t filled = 0;
  while (filled < p.size) {
    if (tree.unsafe_insert(fill.next_below(p.size * 2))) ++filled;
  }
  tree.unsafe_distribute_free_lists(8);
  const std::size_t initial = tree.unsafe_size();

  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  std::int64_t net_inserts = 0;
  std::uint64_t ops = 0;

  auto run_with = [&](auto& lock) {
    using Lock = std::remove_reference_t<decltype(lock)>;
    locks::CriticalSection<Lock> cs(p.policy, lock);
    for (int t = 0; t < 8; ++t) {
      sched.spawn([&](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        auto& rng = st.rng();
        for (int k = 0; k < 60; ++k) {
          const std::uint64_t key = rng.next_below(p.size * 2);
          const auto dice = static_cast<int>(rng.next_below(100));
          bool did_insert = false, did_erase = false;
          cs.run(ctx, [&] {
            did_insert = did_erase = false;
            if (dice < p.update_pct / 2) {
              did_insert = tree.insert(ctx, key);
            } else if (dice < p.update_pct) {
              did_erase = tree.erase(ctx, key);
            } else {
              tree.contains(ctx, key);
            }
          });
          net_inserts += did_insert ? 1 : 0;
          net_inserts -= did_erase ? 1 : 0;
          ++ops;
        }
      });
    }
    sched.run();
  };

  if (p.mcs) {
    locks::McsLock lock;
    run_with(lock);
  } else {
    locks::TtasLock lock;
    run_with(lock);
  }

  EXPECT_EQ(ops, 8u * 60u);
  std::string why;
  ASSERT_TRUE(tree.unsafe_validate(&why)) << why;
  EXPECT_EQ(static_cast<std::int64_t>(tree.unsafe_size()),
            static_cast<std::int64_t>(initial) + net_inserts);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (const auto& policy : locks::kAllSixPolicies) {
    for (const bool mcs : {false, true}) {
      for (const std::size_t size : {16ULL, 256ULL}) {
        for (const int update : {20, 100}) {
          out.push_back({policy, mcs, size, update});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RbTreeConcurrent,
                         ::testing::ValuesIn(sweep_params()), param_name);

}  // namespace
}  // namespace elision::ds
