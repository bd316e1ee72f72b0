// Region-driver semantics: attempt accounting, mode restoration, behaviour
// of every scheme over every HLE-compatible lock, and scheme/lock
// interactions not covered elsewhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {
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

TEST(Region, ModeRestoredAfterSpeculativeRegion) {
  TtasLock lock;
  tsx::Shared<std::uint64_t> x(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    hle_region(ctx, lock, [&] { x.store(ctx, 1); });
    EXPECT_EQ(ctx.mode(), tsx::ElisionMode::kStandard);
    EXPECT_FALSE(eng.xtest(ctx));
  });
  sched.run();
}

TEST(Region, AttemptAccountingSpeculative) {
  // A clean speculative completion is exactly one attempt, under every
  // scheme.
  for (const ElisionPolicy& policy : kAllSixPolicies) {
    if (policy.scheme == Scheme::kStandard) continue;
    TtasLock lock;
    CriticalSection<TtasLock> cs(policy, lock);
    tsx::Shared<std::uint64_t> x(0);
    sim::Scheduler sched(quiet_machine());
    tsx::Engine eng(sched, quiet_tsx());
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      const auto r = cs.run(ctx, [&] { x.store(ctx, 1); });
      EXPECT_TRUE(r.speculative) << policy.name();
      EXPECT_EQ(r.attempts, 1) << policy.name();
    });
    sched.run();
  }
}

TEST(Region, AttemptAccountingOnCapacityGiveUp) {
  // A hopeless (capacity) body: HLE = 1 failed speculation + 1 standard;
  // opt-SLR detects no-RETRY and also serializes after one attempt.
  constexpr std::size_t kLines = 600;
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> big(kLines);
  for (const ElisionPolicy& policy :
       {ElisionPolicy::hle(), ElisionPolicy::opt_slr()}) {
    TtasLock lock;
    CriticalSection<TtasLock> cs(policy, lock);
    sim::Scheduler sched(quiet_machine());
    tsx::Engine eng(sched, quiet_tsx());
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      const auto r = cs.run(ctx, [&] {
        for (auto& b : big) b.value.store(ctx, b.value.load(ctx) + 1);
      });
      EXPECT_FALSE(r.speculative) << policy.name();
      EXPECT_EQ(r.attempts, 2) << policy.name();
    });
    sched.run();
  }
  for (auto& b : big) EXPECT_EQ(b.value.unsafe_get(), 2u);
}

// Every scheme over every HLE-compatible lock: correctness matrix.
template <typename Lock>
void scheme_lock_matrix() {
  for (const ElisionPolicy& policy : kAllSixPolicies) {
    Lock lock;
    CriticalSection<Lock> cs(policy, lock);
    tsx::Shared<std::uint64_t> counter(0);
    sim::Scheduler sched(quiet_machine());
    tsx::Engine eng(sched, quiet_tsx());
    constexpr int kThreads = 6, kIters = 60;
    for (int t = 0; t < kThreads; ++t) {
      sched.spawn([&](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        for (int k = 0; k < kIters; ++k) {
          cs.run(ctx, [&] { counter.store(ctx, counter.load(ctx) + 1); });
        }
      });
    }
    sched.run();
    EXPECT_EQ(counter.unsafe_get(), kThreads * kIters)
        << Lock::kName << " under " << policy.name();
  }
}

TEST(Region, MatrixTtas) { scheme_lock_matrix<TtasLock>(); }
TEST(Region, MatrixMcs) { scheme_lock_matrix<McsLock>(); }
TEST(Region, MatrixTicketAdjusted) { scheme_lock_matrix<TicketLockAdjusted>(); }
TEST(Region, MatrixClhAdjusted) { scheme_lock_matrix<ClhLockAdjusted>(); }
// The unadjusted fair locks also stay correct under every scheme — they
// just never elide.
TEST(Region, MatrixTicketUnadjusted) { scheme_lock_matrix<TicketLock>(); }
TEST(Region, MatrixClhUnadjusted) { scheme_lock_matrix<ClhLock>(); }

TEST(Region, UnadjustedTicketNeverSpeculatesUnderHle) {
  TicketLock lock;
  CriticalSection<TicketLock> cs(ElisionPolicy::hle(), lock);
  tsx::Shared<std::uint64_t> x(0);
  std::uint64_t spec = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 4; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 40; ++k) {
        if (cs.run(ctx, [&] { x.store(ctx, x.load(ctx) + 1); }).speculative) {
          ++spec;
        }
      }
    });
  }
  sched.run();
  EXPECT_EQ(spec, 0u);
  EXPECT_EQ(x.unsafe_get(), 160u);
}

TEST(Region, ScmOverAdjustedFairLocksKeepsFifoUnderGiveUp) {
  // When SCM's speculation becomes hopeless (capacity), every thread ends
  // up taking the adjusted ticket lock non-speculatively; FIFO order (and
  // hence completion) must be preserved.
  TicketLockAdjusted lock;
  CriticalSection<TicketLockAdjusted> cs(ElisionPolicy::hle_scm(), lock);
  constexpr std::size_t kLines = 600;
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> big(kLines);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 4; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      cs.run(ctx, [&] {
        for (auto& b : big) b.value.store(ctx, b.value.load(ctx) + 1);
      });
    });
  }
  sched.run();
  for (auto& b : big) EXPECT_EQ(b.value.unsafe_get(), 4u);
}

TEST(Region, RtmElideCountsAbortsHleCannot) {
  // The Ch. 3 Remark: the RTM-based mechanism exposes abort statistics.
  // Two conflicting threads under kRtmElide must leave engine-visible
  // conflict-abort counts.
  TtasLock lock;
  CriticalSection<TtasLock> cs(ElisionPolicy::rtm_elide(), lock);
  tsx::Shared<std::uint64_t> hot(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 4; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 50; ++k) {
        cs.run(ctx, [&] { hot.store(ctx, hot.load(ctx) + 1); });
      }
    });
  }
  sched.run();
  EXPECT_EQ(hot.unsafe_get(), 200u);
  EXPECT_GT(eng.total_stats().aborts, 0u);
}

TEST(Region, BackoffClampsPathologicalBase) {
  // Regression: `base << failures` wraps modulo 2^64 for large bases — for
  // base = 2^60 and shift 10 it wraps to exactly 0, which next_below()
  // rejects (and which would mean "no backoff" precisely when the caller
  // asked for the longest one). The clamp must keep every wait in
  // [1, kMaxBackoffBoundCycles] without overflowing the shift.
  const std::uint64_t bases[] = {
      1, 1000, std::uint64_t{1} << 60, ~std::uint64_t{0}};
  for (const std::uint64_t base : bases) {
    sim::Scheduler sched(quiet_machine());
    tsx::Engine eng(sched, quiet_tsx());
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      RetryParams p;
      p.backoff_base_cycles = base;
      for (const int failures : {0, 1, 10, 64, 1000}) {
        const std::uint64_t before = st.now();
        detail::backoff(ctx, p, failures);
        const std::uint64_t waited = st.now() - before;
        EXPECT_GE(waited, 1u) << "base=" << base << " failures=" << failures;
        EXPECT_LE(waited, detail::kMaxBackoffBoundCycles)
            << "base=" << base << " failures=" << failures;
      }
    });
    sched.run();
  }
}

TEST(Region, BodySideEffectsReplayOnRetry) {
  // Host-side (non-simulated) body effects replay on every attempt: the
  // caller contract is that bodies are idempotent apart from simulated
  // state. Verify the attempt count equals the number of executions.
  TtasLock lock;
  CriticalSection<TtasLock> cs(ElisionPolicy::hle_scm(), lock);
  tsx::Shared<std::uint64_t> hot(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  std::uint64_t executions = 0, attempts = 0;
  for (int t = 0; t < 4; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 50; ++k) {
        const auto r = cs.run(ctx, [&] {
          ++executions;
          hot.store(ctx, hot.load(ctx) + 1);
        });
        attempts += static_cast<std::uint64_t>(r.attempts);
      }
    });
  }
  sched.run();
  EXPECT_EQ(executions, attempts);
  EXPECT_EQ(hot.unsafe_get(), 200u);
}

}  // namespace
}  // namespace elision::locks
