// Hash table tests: oracle comparison, upsert semantics, concurrent sweeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ds/hashtable.hpp"
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

void run_single(const std::function<void(tsx::Ctx&)>& body) {
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) { body(eng.context(st)); });
  sched.run();
}

TEST(HashTable, BasicInsertLookupErase) {
  HashTable ht(64, 128);
  run_single([&](tsx::Ctx& ctx) {
    EXPECT_TRUE(ht.insert(ctx, 1, 100));
    EXPECT_FALSE(ht.insert(ctx, 1, 200));  // duplicate key
    std::uint64_t v = 0;
    EXPECT_TRUE(ht.lookup(ctx, 1, &v));
    EXPECT_EQ(v, 100u);
    EXPECT_FALSE(ht.lookup(ctx, 2, &v));
    EXPECT_TRUE(ht.erase(ctx, 1));
    EXPECT_FALSE(ht.erase(ctx, 1));
    EXPECT_FALSE(ht.contains(ctx, 1));
  });
  EXPECT_EQ(ht.unsafe_size(), 0u);
}

TEST(HashTable, UpsertAddInsertsThenAccumulates) {
  HashTable ht(64, 128);
  run_single([&](tsx::Ctx& ctx) {
    EXPECT_EQ(ht.upsert_add(ctx, 7, 5), 5u);
    EXPECT_EQ(ht.upsert_add(ctx, 7, 3), 8u);
    EXPECT_EQ(ht.upsert_add(ctx, 8, 1), 1u);
    std::uint64_t v = 0;
    EXPECT_TRUE(ht.lookup(ctx, 7, &v));
    EXPECT_EQ(v, 8u);
  });
  EXPECT_EQ(ht.unsafe_size(), 2u);
}

TEST(HashTable, ChainsHandleBucketCollisions) {
  HashTable ht(1, 64);  // a single bucket: everything chains
  run_single([&](tsx::Ctx& ctx) {
    for (std::uint64_t k = 1; k <= 40; ++k) {
      ASSERT_TRUE(ht.insert(ctx, k, k * 10));
    }
    for (std::uint64_t k = 1; k <= 40; ++k) {
      std::uint64_t v = 0;
      ASSERT_TRUE(ht.lookup(ctx, k, &v));
      EXPECT_EQ(v, k * 10);
    }
    // Erase from the middle, head, and tail of the chain.
    EXPECT_TRUE(ht.erase(ctx, 20));
    EXPECT_TRUE(ht.erase(ctx, 40));
    EXPECT_TRUE(ht.erase(ctx, 1));
    EXPECT_FALSE(ht.contains(ctx, 20));
    EXPECT_TRUE(ht.contains(ctx, 2));
  });
  EXPECT_EQ(ht.unsafe_size(), 37u);
}

TEST(HashTable, RandomOracleAgainstStdUnorderedMap) {
  HashTable ht(256, 1100);
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  support::Xoshiro256 rng(123);
  run_single([&](tsx::Ctx& ctx) {
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t key = rng.next_below(1024);
      switch (rng.next_below(4)) {
        case 0: {
          const bool inserted = ht.insert(ctx, key, key + 1);
          EXPECT_EQ(inserted, oracle.emplace(key, key + 1).second);
          break;
        }
        case 1:
          EXPECT_EQ(ht.erase(ctx, key), oracle.erase(key) == 1);
          break;
        case 2: {
          std::uint64_t v = 0;
          const bool found = ht.lookup(ctx, key, &v);
          const auto it = oracle.find(key);
          EXPECT_EQ(found, it != oracle.end());
          if (found) {
            EXPECT_EQ(v, it->second);
          }
          break;
        }
        default: {
          const std::uint64_t nv = ht.upsert_add(ctx, key, 2);
          auto [it, fresh] = oracle.emplace(key, 2);
          if (!fresh) it->second += 2;
          EXPECT_EQ(nv, it->second);
          break;
        }
      }
    }
  });
  EXPECT_EQ(ht.unsafe_size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    std::uint64_t got = 0;
    ASSERT_TRUE(ht.unsafe_lookup(k, &got)) << k;
    EXPECT_EQ(got, v);
  }
}

TEST(HashTable, AbortRollsBackInsertAndAllocator) {
  HashTable ht(64, 128);
  run_single([&](tsx::Ctx& ctx) {
    ht.insert(ctx, 1, 1);
    const unsigned st = ctx.engine().run_transaction(ctx, [&] {
      ht.insert(ctx, 2, 2);
      ht.erase(ctx, 1);
      ctx.engine().xabort(ctx, 9);
    });
    EXPECT_NE(st, tsx::kCommitted);
    EXPECT_TRUE(ht.contains(ctx, 1));
    EXPECT_FALSE(ht.contains(ctx, 2));
  });
  EXPECT_EQ(ht.unsafe_size(), 1u);
}

struct HtParam {
  locks::ElisionPolicy policy;
  bool mcs;
};

std::string ht_param_name(const ::testing::TestParamInfo<HtParam>& info) {
  std::string s = info.param.policy.name();
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s + (info.param.mcs ? "_MCS" : "_TTAS");
}

class HashTableConcurrent : public ::testing::TestWithParam<HtParam> {};

TEST_P(HashTableConcurrent, ValueSumConserved) {
  // Every operation adds exactly 1 to some key; the final sum of all values
  // must equal the operation count regardless of scheme/interleaving.
  const auto p = GetParam();
  HashTable ht(256, 2048);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = 8, kIters = 80;

  auto run_with = [&](auto& lock) {
    using Lock = std::remove_reference_t<decltype(lock)>;
    locks::CriticalSection<Lock> cs(p.policy, lock);
    for (int t = 0; t < kThreads; ++t) {
      sched.spawn([&](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        auto& rng = st.rng();
        for (int k = 0; k < kIters; ++k) {
          const std::uint64_t key = rng.next_below(64) + 1;
          cs.run(ctx, [&] { ht.upsert_add(ctx, key, 1); });
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

  std::uint64_t sum = 0;
  for (std::uint64_t k = 1; k <= 64; ++k) {
    std::uint64_t v = 0;
    if (ht.unsafe_lookup(k, &v)) sum += v;
  }
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kIters);
}

std::vector<HtParam> ht_params() {
  std::vector<HtParam> out;
  for (const auto& policy : locks::kAllSixPolicies) {
    for (const bool mcs : {false, true}) out.push_back({policy, mcs});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, HashTableConcurrent,
                         ::testing::ValuesIn(ht_params()), ht_param_name);

}  // namespace
}  // namespace elision::ds
