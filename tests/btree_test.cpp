// B+tree tests: oracle comparison against std::map (point ops and range
// scans), structural invariant validation, abort rollback, and concurrent
// sweeps under the two-mode locks with shared-mode lookups/scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ds/btree.hpp"
#include "locks/schemes.hpp"
#include "locks/shared_mcs_lock.hpp"
#include "locks/shared_ttas_lock.hpp"
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

void run_single(const std::function<void(tsx::Ctx&)>& body) {
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) { body(eng.context(st)); });
  sched.run();
}

TEST(BplusTree, EmptyTreeBehaviour) {
  BplusTree tree(16);
  run_single([&](tsx::Ctx& ctx) {
    std::uint64_t v = 0;
    EXPECT_FALSE(tree.lookup(ctx, 1, &v));
    EXPECT_FALSE(tree.erase(ctx, 1));
    std::uint64_t sum = 7;
    EXPECT_EQ(tree.range_sum(ctx, 0, 10, &sum), 0u);
    EXPECT_EQ(sum, 0u);
    EXPECT_TRUE(tree.insert(ctx, 1, 10));
    EXPECT_TRUE(tree.lookup(ctx, 1, &v));
    EXPECT_EQ(v, 10u);
    EXPECT_FALSE(tree.insert(ctx, 1, 99));  // duplicate: value unchanged
    EXPECT_TRUE(tree.lookup(ctx, 1, &v));
    EXPECT_EQ(v, 10u);
    EXPECT_TRUE(tree.erase(ctx, 1));
    EXPECT_FALSE(tree.lookup(ctx, 1, &v));
  });
  EXPECT_EQ(tree.unsafe_size(), 0u);
  EXPECT_TRUE(tree.unsafe_validate());
}

TEST(BplusTree, AscendingInsertSplitsCleanly) {
  BplusTree tree(300);
  run_single([&](tsx::Ctx& ctx) {
    for (std::uint64_t k = 1; k <= 512; ++k) {
      ASSERT_TRUE(tree.insert(ctx, k, k * 2));
    }
    std::uint64_t v = 0;
    for (std::uint64_t k = 1; k <= 512; ++k) {
      ASSERT_TRUE(tree.lookup(ctx, k, &v));
      EXPECT_EQ(v, k * 2);
    }
  });
  std::string why;
  EXPECT_TRUE(tree.unsafe_validate(&why)) << why;
  EXPECT_EQ(tree.unsafe_size(), 512u);
}

TEST(BplusTree, DescendingInsertThenFullErase) {
  BplusTree tree(300);
  run_single([&](tsx::Ctx& ctx) {
    for (std::uint64_t k = 512; k >= 1; --k) {
      ASSERT_TRUE(tree.insert(ctx, k, k));
    }
    for (std::uint64_t k = 1; k <= 512; ++k) ASSERT_TRUE(tree.erase(ctx, k));
  });
  EXPECT_EQ(tree.unsafe_size(), 0u);
  std::string why;
  EXPECT_TRUE(tree.unsafe_validate(&why)) << why;
}

TEST(BplusTree, RandomOracleAgainstStdMap) {
  BplusTree tree(2100);
  std::map<std::uint64_t, std::uint64_t> oracle;
  support::Xoshiro256 rng(77);
  run_single([&](tsx::Ctx& ctx) {
    for (int i = 0; i < 6000; ++i) {
      const std::uint64_t key = rng.next_below(2048);
      const std::uint64_t val = rng.next();
      const int op = static_cast<int>(rng.next_below(4));
      if (op == 0) {
        EXPECT_EQ(tree.insert(ctx, key, val),
                  oracle.emplace(key, val).second);
      } else if (op == 1) {
        EXPECT_EQ(tree.erase(ctx, key), oracle.erase(key) == 1);
      } else if (op == 2) {
        std::uint64_t got = 0;
        const auto it = oracle.find(key);
        EXPECT_EQ(tree.lookup(ctx, key, &got), it != oracle.end());
        if (it != oracle.end()) {
          EXPECT_EQ(got, it->second);
        }
      } else {
        // Range scan oracle: up to 16 keys >= key.
        std::uint64_t got_sum = 0;
        const std::size_t got_n = tree.range_sum(ctx, key, 16, &got_sum);
        std::uint64_t want_sum = 0;
        std::size_t want_n = 0;
        for (auto it = oracle.lower_bound(key);
             it != oracle.end() && want_n < 16; ++it, ++want_n) {
          want_sum += it->second;
        }
        EXPECT_EQ(got_n, want_n);
        EXPECT_EQ(got_sum, want_sum);
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
  std::vector<std::uint64_t> expect;
  for (const auto& [k, v] : oracle) expect.push_back(k);
  EXPECT_EQ(keys, expect);
}

TEST(BplusTree, UnsafeInsertMatchesTransactionalInsert) {
  BplusTree a(300), b(300);
  support::Xoshiro256 rng(5);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(rng.next_below(500));
  for (const auto k : keys) a.unsafe_insert(k, k + 1);
  run_single([&](tsx::Ctx& ctx) {
    for (const auto k : keys) b.insert(ctx, k, k + 1);
  });
  EXPECT_EQ(a.unsafe_keys(), b.unsafe_keys());
  EXPECT_TRUE(a.unsafe_validate());
  EXPECT_TRUE(b.unsafe_validate());
}

TEST(BplusTree, KeysComeOutSorted) {
  BplusTree tree(300);
  support::Xoshiro256 rng(11);
  for (int i = 0; i < 200; ++i) tree.unsafe_insert(rng.next(), 1);
  const auto keys = tree.unsafe_keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(BplusTree, AbortedOperationRollsBackCompletely) {
  // A transactional insert that aborts mid-split must leave the tree (and
  // the node free lists) exactly as before.
  BplusTree tree(64);
  for (std::uint64_t k = 0; k < 40; ++k) tree.unsafe_insert(k * 3, k);
  const auto before = tree.unsafe_keys();
  run_single([&](tsx::Ctx& ctx) {
    const unsigned st = ctx.engine().run_transaction(ctx, [&] {
      tree.insert(ctx, 100, 1);
      tree.erase(ctx, 0);
      ctx.engine().xabort(ctx, 1);
    });
    EXPECT_NE(st, tsx::kCommitted);
  });
  EXPECT_EQ(tree.unsafe_keys(), before);
  std::string why;
  EXPECT_TRUE(tree.unsafe_validate(&why)) << why;
}

TEST(BplusTree, RangeSumWalksTheLeafChain) {
  BplusTree tree(300);
  run_single([&](tsx::Ctx& ctx) {
    for (std::uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(tree.insert(ctx, k, 1));
    }
    std::uint64_t sum = 0;
    // A scan crossing many leaves: 100 keys from 50.
    EXPECT_EQ(tree.range_sum(ctx, 50, 100, &sum), 100u);
    EXPECT_EQ(sum, 100u);
    // Scan past the end.
    EXPECT_EQ(tree.range_sum(ctx, 150, 100, &sum), 50u);
    EXPECT_EQ(sum, 50u);
  });
}

// ---------------------------------------------------------------------------
// Concurrent sweeps: two-mode locks, shared-mode lookups and scans
// ---------------------------------------------------------------------------

struct SweepParam {
  locks::ElisionPolicy policy;
  bool mcs;  // false: Shared-TTAS, true: Shared-MCS
  std::size_t size;
  int update_pct;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  std::string s = p.policy.slug();
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s + (p.mcs ? "_smcs_" : "_sttas_") + std::to_string(p.size) + "_u" +
         std::to_string(p.update_pct);
}

class BplusTreeConcurrent : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BplusTreeConcurrent, InvariantsHoldWithSharedModeReaders) {
  const SweepParam p = GetParam();
  BplusTree tree(p.size * 4 + 64);
  support::Xoshiro256 fill(42);
  std::size_t filled = 0;
  while (filled < p.size) {
    if (tree.unsafe_insert(fill.next_below(p.size * 2), fill.next())) {
      ++filled;
    }
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
          if (dice < p.update_pct / 2) {
            cs.run_exclusive(ctx, [&] {
              did_insert = tree.insert(ctx, key, key);
            });
          } else if (dice < p.update_pct) {
            cs.run_exclusive(ctx, [&] { did_erase = tree.erase(ctx, key); });
          } else if (dice % 2 == 0) {
            cs.run_shared(ctx, [&] {
              std::uint64_t v;
              tree.lookup(ctx, key, &v);
            });
          } else {
            cs.run_shared(ctx, [&] {
              std::uint64_t sum;
              tree.range_sum(ctx, key, 16, &sum);
            });
          }
          net_inserts += did_insert ? 1 : 0;
          net_inserts -= did_erase ? 1 : 0;
          ++ops;
        }
      });
    }
    sched.run();
  };

  if (p.mcs) {
    locks::SharedMcsLock lock;
    run_with(lock);
  } else {
    locks::SharedTtasLock lock;
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

INSTANTIATE_TEST_SUITE_P(Sweep, BplusTreeConcurrent,
                         ::testing::ValuesIn(sweep_params()), param_name);

}  // namespace
}  // namespace elision::ds
