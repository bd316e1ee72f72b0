// Tests of software-assisted conflict management (Ch. 4, Algorithm 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "locks/mcs_lock.hpp"
#include "locks/scm.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {
namespace {

using tsx::Ctx;

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

TEST(Scm, UncontendedCommitsSpeculatively) {
  TtasLock main;
  McsLock aux;
  tsx::Shared<std::uint64_t> data(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    const auto r = scm_region(ctx, main, aux, ScmParams{}, [&] {
      data.store(ctx, data.load(ctx) + 1);
    });
    EXPECT_TRUE(r.speculative);
    EXPECT_EQ(r.attempts, 1);
  });
  sched.run();
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(Scm, NonConflictingThreadsAllSpeculative) {
  TtasLock main;
  McsLock aux;
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> slots(8);
  int nonspec = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int i = 0; i < 8; ++i) {
    sched.spawn([&, i](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 60; ++k) {
        const auto r = scm_region(ctx, main, aux, ScmParams{}, [&] {
          slots[i].value.store(ctx, slots[i].value.load(ctx) + 1);
        });
        if (!r.speculative) ++nonspec;
      }
    });
  }
  sched.run();
  EXPECT_EQ(nonspec, 0);
  for (auto& s : slots) EXPECT_EQ(s.value.unsafe_get(), 60u);
}

TEST(Scm, ConflictingThreadsProgressWithoutTakingMainLock) {
  // The livelock-prevention argument of Ch. 4: repeatedly conflicting
  // threads serialize on the auxiliary lock and keep committing
  // speculatively; the main lock is (almost) never taken.
  TtasLock main;
  McsLock aux;
  tsx::Shared<std::uint64_t> hot(0);
  std::uint64_t ops = 0, nonspec = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = 8, kIters = 150;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < kIters; ++k) {
        const auto r = scm_region(ctx, main, aux, ScmParams{}, [&] {
          hot.store(ctx, hot.load(ctx) + 1);
        });
        ++ops;
        if (!r.speculative) ++nonspec;
      }
    });
  }
  sched.run();
  EXPECT_EQ(hot.unsafe_get(), kThreads * kIters);  // no lost updates
  EXPECT_EQ(ops, static_cast<std::uint64_t>(kThreads) * kIters);
  // Virtually everything completes speculatively through the aux-lock path.
  EXPECT_LT(static_cast<double>(nonspec) / static_cast<double>(ops), 0.05);
}

TEST(Scm, HopelessAbortShortCircuitsToMainLock) {
  // Regression: a capacity abort's status lacks the RETRY bit — retrying
  // can never succeed. scm_region used to serialize max_retries hopeless
  // re-executions on the aux lock anyway; now it must go straight to the
  // main lock after the first failure.
  TtasLock main;
  McsLock aux;
  constexpr std::size_t kLines = 600;  // > 512: always capacity-aborts
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> big(kLines);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ScmParams p;
    p.max_retries = 3;
    const auto r = scm_region(ctx, main, aux, p, [&] {
      for (auto& b : big) b.value.store(ctx, b.value.load(ctx) + 1);
    });
    EXPECT_FALSE(r.speculative);
    EXPECT_EQ(r.last_abort, tsx::AbortCause::kCapacity);
    // Exactly 1 speculative attempt + 1 non-speculative completion: no
    // doomed retries, no aux-lock episode.
    EXPECT_EQ(r.attempts, 2);
  });
  sched.run();
  for (auto& b : big) EXPECT_EQ(b.value.unsafe_get(), 1u);
}

TEST(Scm, GivesUpAndTakesMainLockAfterMaxRetries) {
  // Retryable (conflict) aborts still go through the full aux-lock episode:
  // a disturber thread keeps writing the hot line non-transactionally, so
  // every speculative re-execution conflict-aborts (with RETRY set), and the
  // aux holder must fall back to the main lock after max_retries failures.
  TtasLock main;
  McsLock aux;
  tsx::Shared<std::uint64_t> hot(0);
  bool done = false;  // host-side: invisible to conflict detection
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    while (!done) hot.store(ctx, hot.load(ctx) + 1);
  });
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ScmParams p;
    p.max_retries = 3;
    const auto r = scm_region(ctx, main, aux, p, [&] {
      // Long window: several re-reads of the contended line make a commit
      // between two disturber stores impossible.
      for (int i = 0; i < 20; ++i) {
        hot.store(ctx, hot.load(ctx) + 1);
      }
    });
    done = true;
    EXPECT_FALSE(r.speculative);
    EXPECT_EQ(r.last_abort, tsx::AbortCause::kConflict);
    // 1 initial + 3 aux-serialized retries + 1 non-speculative completion.
    EXPECT_EQ(r.attempts, 5);
  });
  sched.run();
  EXPECT_GE(hot.unsafe_get(), 20u);
}

TEST(Scm, AuxiliaryLockReleasedAfterEpisode) {
  TtasLock main;
  McsLock aux;
  tsx::Shared<std::uint64_t> hot(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  // Two conflicting threads, then verify the aux lock ends free.
  for (int t = 0; t < 2; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 50; ++k) {
        scm_region(ctx, main, aux, ScmParams{}, [&] {
          hot.store(ctx, hot.load(ctx) + 1);
        });
      }
    });
  }
  sched.run();
  sim::Scheduler sched2(quiet_machine());
  tsx::Engine eng2(sched2, quiet_tsx());
  bool aux_free = false;
  sched2.spawn([&](sim::SimThread& st) {
    auto& ctx = eng2.context(st);
    aux_free = !aux.is_held(ctx);
  });
  sched2.run();
  EXPECT_TRUE(aux_free);
}

TEST(Scm, SpeculatorsUnaffectedByConflictingGroup) {
  // The essence of SCM: threads 0-1 conflict on `hot`; threads 2-5 work on
  // disjoint data. The conflicting pair must not disturb the others — no
  // avalanche, everyone else stays fully speculative.
  TtasLock main;
  McsLock aux;
  tsx::Shared<std::uint64_t> hot(0);
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> slots(6);
  std::vector<std::uint64_t> nonspec(6, 0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int i = 0; i < 6; ++i) {
    sched.spawn([&, i](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 100; ++k) {
        const auto r = scm_region(ctx, main, aux, ScmParams{}, [&] {
          if (i < 2) {
            hot.store(ctx, hot.load(ctx) + 1);
          } else {
            slots[i].value.store(ctx, slots[i].value.load(ctx) + 1);
          }
        });
        if (!r.speculative) ++nonspec[i];
      }
    });
  }
  sched.run();
  EXPECT_EQ(hot.unsafe_get(), 200u);
  for (int i = 2; i < 6; ++i) {
    EXPECT_EQ(slots[i].value.unsafe_get(), 100u);
    EXPECT_EQ(nonspec[i], 0u) << "disjoint thread " << i << " serialized";
  }
}

TEST(Scm, NestedHleVariantPreservesIllusion) {
  TtasLock main;
  McsLock aux;
  tsx::Shared<std::uint64_t> data(0);
  tsx::TsxConfig cfg = quiet_tsx();
  cfg.allow_hle_in_rtm = true;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, cfg);
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ScmParams p;
    p.nested_hle = true;
    const auto r = scm_region(ctx, main, aux, p, [&] {
      // Inside the critical section the main lock must appear held, exactly
      // like native HLE ("one can plug our scheme into a legacy lock-based
      // application").
      EXPECT_TRUE(main.is_held(ctx));
      data.store(ctx, 42);
    });
    EXPECT_TRUE(r.speculative);
  });
  sched.run();
  EXPECT_EQ(data.unsafe_get(), 42u);
}

TEST(Scm, NestedHleVariantUnderConflicts) {
  TtasLock main;
  McsLock aux;
  tsx::Shared<std::uint64_t> hot(0);
  tsx::TsxConfig cfg = quiet_tsx();
  cfg.allow_hle_in_rtm = true;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, cfg);
  constexpr int kThreads = 6, kIters = 100;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      ScmParams p;
      p.nested_hle = true;
      for (int k = 0; k < kIters; ++k) {
        scm_region(ctx, main, aux, p, [&] {
          hot.store(ctx, hot.load(ctx) + 1);
        });
      }
    });
  }
  sched.run();
  EXPECT_EQ(hot.unsafe_get(), kThreads * kIters);
}

TEST(Scm, WorksWithMcsMainLock) {
  McsLock main;
  McsLock aux;
  tsx::Shared<std::uint64_t> hot(0);
  std::uint64_t nonspec = 0, ops = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 8; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 100; ++k) {
        const auto r = scm_region(ctx, main, aux, ScmParams{}, [&] {
          hot.store(ctx, hot.load(ctx) + 1);
        });
        ++ops;
        if (!r.speculative) ++nonspec;
      }
    });
  }
  sched.run();
  EXPECT_EQ(hot.unsafe_get(), 800u);
  // SCM rescues the fair lock: overwhelmingly speculative despite conflicts.
  EXPECT_LT(static_cast<double>(nonspec) / static_cast<double>(ops), 0.05);
}

TEST(Scheme, RunnerDispatchesAllSchemes) {
  for (const ElisionPolicy& policy : kAllSixPolicies) {
    TtasLock main;
    CriticalSection<TtasLock> cs(policy, main);
    tsx::Shared<std::uint64_t> counter(0);
    sim::Scheduler sched(quiet_machine());
    tsx::Engine eng(sched, quiet_tsx());
    for (int t = 0; t < 4; ++t) {
      sched.spawn([&](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        for (int k = 0; k < 50; ++k) {
          cs.run(ctx, [&] {
            counter.store(ctx, counter.load(ctx) + 1);
          });
        }
      });
    }
    sched.run();
    EXPECT_EQ(counter.unsafe_get(), 200u) << policy.name();
  }
}

}  // namespace
}  // namespace elision::locks
