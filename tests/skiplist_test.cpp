// Skiplist tests: oracle comparison, structure validation, rollback safety,
// and concurrent sweeps across schemes.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ds/skiplist.hpp"
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

TEST(SkipList, EmptyBehaviour) {
  SkipList sl(16);
  run_single([&](tsx::Ctx& ctx) {
    EXPECT_FALSE(sl.contains(ctx, 5));
    EXPECT_FALSE(sl.erase(ctx, 5));
    EXPECT_TRUE(sl.insert(ctx, 5));
    EXPECT_FALSE(sl.insert(ctx, 5));
    EXPECT_TRUE(sl.contains(ctx, 5));
    EXPECT_TRUE(sl.erase(ctx, 5));
    EXPECT_FALSE(sl.contains(ctx, 5));
  });
  EXPECT_EQ(sl.unsafe_size(), 0u);
  EXPECT_TRUE(sl.unsafe_validate());
}

TEST(SkipList, OracleAgainstStdSet) {
  SkipList sl(1100);
  std::set<std::uint64_t> oracle;
  support::Xoshiro256 rng(321);
  run_single([&](tsx::Ctx& ctx) {
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t key = rng.next_below(1024);
      switch (rng.next_below(3)) {
        case 0:
          EXPECT_EQ(sl.insert(ctx, key), oracle.insert(key).second);
          break;
        case 1:
          EXPECT_EQ(sl.erase(ctx, key), oracle.erase(key) == 1);
          break;
        default:
          EXPECT_EQ(sl.contains(ctx, key), oracle.count(key) == 1);
      }
      if (i % 1000 == 0) {
        std::string why;
        ASSERT_TRUE(sl.unsafe_validate(&why)) << why;
      }
    }
  });
  const auto keys = sl.unsafe_keys();
  const std::vector<std::uint64_t> expect(oracle.begin(), oracle.end());
  EXPECT_EQ(keys, expect);
  EXPECT_TRUE(sl.unsafe_validate());
}

TEST(SkipList, UnsafeAndTransactionalInsertsInterop) {
  SkipList sl(300);
  for (std::uint64_t k = 0; k < 100; k += 2) sl.unsafe_insert(k);
  run_single([&](tsx::Ctx& ctx) {
    for (std::uint64_t k = 1; k < 100; k += 2) {
      EXPECT_TRUE(sl.insert(ctx, k));
    }
    for (std::uint64_t k = 0; k < 100; ++k) {
      EXPECT_TRUE(sl.contains(ctx, k)) << k;
    }
  });
  EXPECT_EQ(sl.unsafe_size(), 100u);
  EXPECT_TRUE(sl.unsafe_validate());
}

TEST(SkipList, AbortRollsBackStructure) {
  SkipList sl(64);
  for (std::uint64_t k = 0; k < 20; ++k) sl.unsafe_insert(k * 5);
  const auto before = sl.unsafe_keys();
  run_single([&](tsx::Ctx& ctx) {
    const unsigned st = ctx.engine().run_transaction(ctx, [&] {
      sl.insert(ctx, 101);
      sl.erase(ctx, 0);
      sl.erase(ctx, 50);
      ctx.engine().xabort(ctx, 4);
    });
    EXPECT_NE(st, tsx::kCommitted);
  });
  EXPECT_EQ(sl.unsafe_keys(), before);
  std::string why;
  EXPECT_TRUE(sl.unsafe_validate(&why)) << why;
}

struct SlParam {
  locks::ElisionPolicy policy;
  bool mcs;
};

std::string sl_name(const ::testing::TestParamInfo<SlParam>& info) {
  std::string s = info.param.policy.name();
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s + (info.param.mcs ? "_MCS" : "_TTAS");
}

class SkipListConcurrent : public ::testing::TestWithParam<SlParam> {};

TEST_P(SkipListConcurrent, StructureSurvivesConcurrency) {
  const auto p = GetParam();
  constexpr std::size_t kSize = 128;
  SkipList sl(kSize * 4 + 64);
  support::Xoshiro256 fill(42);
  std::size_t filled = 0;
  while (filled < kSize) {
    if (sl.unsafe_insert(fill.next_below(kSize * 2))) ++filled;
  }
  sl.unsafe_distribute_free_lists(8);
  const std::size_t initial = sl.unsafe_size();

  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  std::int64_t net = 0;
  auto worker = [&](auto& cs) {
    for (int t = 0; t < 8; ++t) {
      sched.spawn([&](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        for (int k = 0; k < 60; ++k) {
          const std::uint64_t key = st.rng().next_below(kSize * 2);
          const auto dice = st.rng().next_below(100);
          bool ins = false, del = false;
          cs.run(ctx, [&] {
            ins = del = false;
            if (dice < 25) {
              ins = sl.insert(ctx, key);
            } else if (dice < 50) {
              del = sl.erase(ctx, key);
            } else {
              sl.contains(ctx, key);
            }
          });
          net += (ins ? 1 : 0) - (del ? 1 : 0);
        }
      });
    }
    sched.run();
  };
  if (p.mcs) {
    locks::McsLock lock;
    locks::CriticalSection<locks::McsLock> cs(p.policy, lock);
    worker(cs);
  } else {
    locks::TtasLock lock;
    locks::CriticalSection<locks::TtasLock> cs(p.policy, lock);
    worker(cs);
  }
  std::string why;
  ASSERT_TRUE(sl.unsafe_validate(&why)) << why;
  EXPECT_EQ(static_cast<std::int64_t>(sl.unsafe_size()),
            static_cast<std::int64_t>(initial) + net);
}

std::vector<SlParam> sl_params() {
  std::vector<SlParam> out;
  for (const auto& policy : locks::kAllSixPolicies) {
    for (const bool mcs : {false, true}) out.push_back({policy, mcs});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SkipListConcurrent,
                         ::testing::ValuesIn(sl_params()), sl_name);

}  // namespace
}  // namespace elision::ds
