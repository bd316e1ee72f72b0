// Binary-heap tests: oracle comparison, rollback, and the "no parallelism
// to expose" property under elision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "ds/binheap.hpp"
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

TEST(BinHeap, EmptyBehaviour) {
  BinHeap heap(8);
  run_single([&](tsx::Ctx& ctx) {
    std::uint64_t k = 0;
    EXPECT_FALSE(heap.pop_min(ctx, &k));
    EXPECT_FALSE(heap.peek_min(ctx, &k));
    EXPECT_TRUE(heap.push(ctx, 5));
    EXPECT_TRUE(heap.peek_min(ctx, &k));
    EXPECT_EQ(k, 5u);
    EXPECT_TRUE(heap.pop_min(ctx, &k));
    EXPECT_EQ(k, 5u);
    EXPECT_FALSE(heap.pop_min(ctx, &k));
  });
}

TEST(BinHeap, FullRejectsPush) {
  BinHeap heap(3);
  run_single([&](tsx::Ctx& ctx) {
    EXPECT_TRUE(heap.push(ctx, 3));
    EXPECT_TRUE(heap.push(ctx, 1));
    EXPECT_TRUE(heap.push(ctx, 2));
    EXPECT_FALSE(heap.push(ctx, 4));
    std::uint64_t k = 0;
    EXPECT_TRUE(heap.pop_min(ctx, &k));
    EXPECT_EQ(k, 1u);
  });
}

TEST(BinHeap, OracleAgainstStdPriorityQueue) {
  BinHeap heap(600);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      oracle;
  support::Xoshiro256 rng(17);
  run_single([&](tsx::Ctx& ctx) {
    for (int i = 0; i < 4000; ++i) {
      if (oracle.size() < 500 && rng.next_below(2) == 0) {
        const std::uint64_t k = rng.next_below(10000);
        EXPECT_TRUE(heap.push(ctx, k));
        oracle.push(k);
      } else if (!oracle.empty()) {
        std::uint64_t k = 0;
        ASSERT_TRUE(heap.pop_min(ctx, &k));
        EXPECT_EQ(k, oracle.top());
        oracle.pop();
      }
      if (i % 500 == 0) {
        std::string why;
        ASSERT_TRUE(heap.unsafe_validate(&why)) << why;
      }
    }
  });
  EXPECT_EQ(heap.unsafe_size(), oracle.size());
}

TEST(BinHeap, AbortRollsBack) {
  BinHeap heap(64);
  for (std::uint64_t k = 10; k > 0; --k) heap.unsafe_push(k);
  run_single([&](tsx::Ctx& ctx) {
    const unsigned st = ctx.engine().run_transaction(ctx, [&] {
      std::uint64_t k = 0;
      heap.pop_min(ctx, &k);
      heap.push(ctx, 0);
      ctx.engine().xabort(ctx, 2);
    });
    EXPECT_NE(st, tsx::kCommitted);
  });
  EXPECT_EQ(heap.unsafe_size(), 10u);
  std::uint64_t k = 0;
  run_single([&](tsx::Ctx& ctx) {
    EXPECT_TRUE(heap.peek_min(ctx, &k));
  });
  EXPECT_EQ(k, 1u);
  EXPECT_TRUE(heap.unsafe_validate());
}

TEST(BinHeap, ConcurrentMixedOpsKeepHeapValid) {
  // Heavy conflicts by design; the schemes must stay correct.
  for (const auto& policy :
       {locks::ElisionPolicy::standard(), locks::ElisionPolicy::hle(),
        locks::ElisionPolicy::hle_scm(), locks::ElisionPolicy::opt_slr()}) {
    BinHeap heap(4096);
    for (std::uint64_t k = 0; k < 256; ++k) heap.unsafe_push(k * 13 % 997);
    locks::TtasLock lock;
    locks::CriticalSection<locks::TtasLock> cs(policy, lock);
    sim::Scheduler sched(quiet_machine());
    tsx::Engine eng(sched, quiet_tsx());
    std::int64_t net = 0;
    for (int t = 0; t < 8; ++t) {
      sched.spawn([&](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        for (int i = 0; i < 50; ++i) {
          const bool do_push = st.rng().next_below(2) == 0;
          const std::uint64_t key = st.rng().next_below(10000);
          bool pushed = false, popped = false;
          cs.run(ctx, [&] {
            pushed = popped = false;
            if (do_push) {
              pushed = heap.push(ctx, key);
            } else {
              std::uint64_t out = 0;
              popped = heap.pop_min(ctx, &out);
            }
          });
          net += (pushed ? 1 : 0) - (popped ? 1 : 0);
        }
      });
    }
    sched.run();
    std::string why;
    ASSERT_TRUE(heap.unsafe_validate(&why))
        << why << " under " << policy.name();
    EXPECT_EQ(static_cast<std::int64_t>(heap.unsafe_size()), 256 + net);
  }
}

TEST(BinHeap, ElisionCannotParallelizeTheHeap) {
  // Every operation writes near the root: true conflicts everywhere. HLE
  // must not collapse below the standard lock, but it cannot beat it much
  // either — there is no concurrency to expose.
  auto throughput = [&](locks::ElisionPolicy policy) {
    BinHeap heap(1 << 14);
    for (std::uint64_t k = 0; k < 4096; ++k) heap.unsafe_push(k * 31 % 65536);
    locks::TtasLock lock;
    locks::CriticalSection<locks::TtasLock> cs(policy, lock);
    sim::Scheduler sched(quiet_machine());
    tsx::Engine eng(sched, quiet_tsx());
    std::uint64_t ops = 0;
    for (int t = 0; t < 8; ++t) {
      sched.spawn([&](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        while (!st.stop_requested()) {
          const bool do_push = st.rng().next_below(2) == 0;
          const std::uint64_t key = st.rng().next_below(65536);
          cs.run(ctx, [&] {
            if (do_push) {
              heap.push(ctx, key);
            } else {
              std::uint64_t out = 0;
              heap.pop_min(ctx, &out);
            }
          });
          ++ops;
        }
      });
    }
    sched.run_for(300000);
    return static_cast<double>(ops);
  };
  const double standard = throughput(locks::ElisionPolicy::standard());
  const double scm = throughput(locks::ElisionPolicy::hle_scm());
  // SCM serializes gracefully: within 2x of the plain lock in either
  // direction (no crowd speedup, no collapse).
  EXPECT_GT(scm, standard * 0.5);
  EXPECT_LT(scm, standard * 2.5);
}

}  // namespace
}  // namespace elision::ds
