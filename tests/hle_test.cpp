// Tests of the HLE interface (XACQUIRE/XRELEASE), the elision region
// driver, and the avalanche mechanics of Ch. 3.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "locks/mcs_lock.hpp"
#include "locks/region.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/shared.hpp"
#include "tsx/telemetry.hpp"

namespace elision::tsx {
namespace {

sim::MachineConfig quiet_machine() {
  sim::MachineConfig m;
  m.n_cores = 8;
  m.smt_per_core = 1;
  return m;
}

TsxConfig quiet_tsx() {
  TsxConfig t;
  t.spurious_per_begin = 0;
  t.spurious_per_access = 0;
  return t;
}

void run_threads(std::vector<std::function<void(Ctx&)>> bodies,
                 TsxConfig tcfg = quiet_tsx()) {
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, tcfg);
  for (auto& body : bodies) {
    sched.spawn([&eng, body = std::move(body)](sim::SimThread& st) {
      body(eng.context(st));
    });
  }
  sched.run();
}

// ---------------------------------------------------------------------------
// XACQUIRE / XRELEASE primitives
// ---------------------------------------------------------------------------

TEST(Hle, ElisionGivesIllusionWithoutWriting) {
  Shared<std::uint64_t> lock(0);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    const std::uint64_t old = lock.xacquire_exchange(ctx, 1);
    EXPECT_EQ(old, 0u);
    EXPECT_TRUE(ctx.engine().xtest(ctx));
    // The thread sees the lock as held...
    EXPECT_EQ(lock.load(ctx), 1u);
    // ...but memory was never written.
    EXPECT_EQ(lock.unsafe_get(), 0u);
    lock.xrelease_store(ctx, 0);  // restores original: commits
    EXPECT_FALSE(ctx.engine().xtest(ctx));
    ctx.set_mode(ElisionMode::kStandard);
  }});
  EXPECT_EQ(lock.unsafe_get(), 0u);
}

TEST(Hle, ReleaseMustRestoreOriginalValue) {
  Shared<std::uint64_t> lock(0);
  TxStats stats;
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ctx.set_mode(ElisionMode::kSpeculative);
    bool aborted = false;
    try {
      lock.xacquire_exchange(ctx, 1);
      lock.xrelease_store(ctx, 2);  // wrong value: must abort
    } catch (const TxAbortException& e) {
      aborted = true;
      EXPECT_EQ(e.cause, AbortCause::kHleMismatch);
    }
    EXPECT_TRUE(aborted);
    ctx.set_mode(ElisionMode::kStandard);
  });
  sched.run();
  EXPECT_EQ(
      eng.total_stats()
          .aborts_by_cause[static_cast<int>(AbortCause::kHleMismatch)],
      1u);
}

TEST(Hle, ReleaseToDifferentAddressAborts) {
  Shared<std::uint64_t> lock(0), other(0);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    bool aborted = false;
    try {
      lock.xacquire_exchange(ctx, 1);
      other.xrelease_store(ctx, 0);  // not the elided address
    } catch (const TxAbortException& e) {
      aborted = true;
      EXPECT_EQ(e.cause, AbortCause::kHleMismatch);
    }
    EXPECT_TRUE(aborted);
    ctx.set_mode(ElisionMode::kStandard);
  }});
}

TEST(Hle, ElidedFetchAddAndCasRelease) {
  // The adjusted ticket lock pattern: XACQUIRE F&A then XRELEASE CAS that
  // undoes it (Algorithm 5).
  Shared<std::uint64_t> next(7);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    const std::uint64_t current = next.xacquire_fetch_add(ctx, 1);
    EXPECT_EQ(current, 7u);
    EXPECT_EQ(next.load(ctx), 8u);  // illusion
    EXPECT_TRUE(next.xrelease_compare_exchange(ctx, current + 1, current));
    EXPECT_FALSE(ctx.engine().xtest(ctx));
    ctx.set_mode(ElisionMode::kStandard);
  }});
  EXPECT_EQ(next.unsafe_get(), 7u);  // state fully restored
}

TEST(Hle, ElidedCasReleaseFailsOnWrongExpected) {
  Shared<std::uint64_t> word(7);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    word.xacquire_fetch_add(ctx, 1);
    // Expected doesn't match the illusion: the CAS fails, no abort.
    EXPECT_FALSE(word.xrelease_compare_exchange(ctx, 99, 7));
    EXPECT_TRUE(ctx.engine().xtest(ctx));
    // Correct release afterwards.
    EXPECT_TRUE(word.xrelease_compare_exchange(ctx, 8, 7));
    ctx.set_mode(ElisionMode::kStandard);
  }});
}

TEST(Hle, StandardModeExecutesRmwForReal) {
  Shared<std::uint64_t> lock(0);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kStandard);
    EXPECT_EQ(lock.xacquire_exchange(ctx, 1), 0u);
    EXPECT_EQ(lock.unsafe_get(), 1u);  // memory actually written
    lock.xrelease_store(ctx, 0);
  }});
  EXPECT_EQ(lock.unsafe_get(), 0u);
}

TEST(Hle, HleInsideRtmAbortsOnHaswell) {
  Shared<std::uint64_t> lock(0);
  TsxConfig cfg = quiet_tsx();
  cfg.allow_hle_in_rtm = false;  // Haswell behaviour (Ch. 4 Remark)
  unsigned st = kCommitted;
  run_threads(
      {[&](Ctx& ctx) {
        st = ctx.engine().run_transaction(ctx, [&] {
          ctx.set_mode(ElisionMode::kSpeculative);
          lock.xacquire_exchange(ctx, 1);
        });
        ctx.set_mode(ElisionMode::kStandard);
      }},
      cfg);
  EXPECT_NE(st, kCommitted);
}

TEST(Hle, HleInsideRtmWorksWhenAllowed) {
  Shared<std::uint64_t> lock(0);
  Shared<std::uint64_t> data(0);
  TsxConfig cfg = quiet_tsx();
  cfg.allow_hle_in_rtm = true;  // the paper's intended SCM design
  unsigned st = 0;
  run_threads(
      {[&](Ctx& ctx) {
        st = ctx.engine().run_transaction(ctx, [&] {
          ctx.set_mode(ElisionMode::kSpeculative);
          lock.xacquire_exchange(ctx, 1);
          EXPECT_EQ(lock.load(ctx), 1u);  // illusion inside the RTM tx
          data.store(ctx, 42);
          lock.xrelease_store(ctx, 0);
          // Still inside the outer RTM transaction after the release.
          EXPECT_TRUE(ctx.engine().xtest(ctx));
        });
        ctx.set_mode(ElisionMode::kStandard);
      }},
      cfg);
  EXPECT_EQ(st, kCommitted);
  EXPECT_EQ(data.unsafe_get(), 42u);
  EXPECT_EQ(lock.unsafe_get(), 0u);
}

// ---------------------------------------------------------------------------
// Abort checkpoints (Engine::checkpoint)
// ---------------------------------------------------------------------------

// What a victim thread can observe after a conflict abort.
struct AfterAbort {
  unsigned status = 0;
  bool continued = false;  // the aborted code ran on past the abort
  bool in_tx = true;
  AbortCause cause = AbortCause::kNone;
  support::LineId conflict_line = 0;
  int conflict_thread = -1;
  std::uint64_t now = 0;
  bool lock_line_read = true;  // reader bits
  bool x_line_read = true;
  int data_writer = 0;  // writer slot
  std::uint64_t data_seen = 0;  // a fresh transaction's read of `data`
  std::uint64_t data_in_memory = 0;
  std::uint64_t lock_in_memory = 0;
  int abort_events = 0;  // telemetry kTxAbort events of the victim
  TelemetryEvent abort_event{};

  friend bool operator==(const AfterAbort& a, const AfterAbort& b) {
    return a.status == b.status && a.continued == b.continued &&
           a.in_tx == b.in_tx && a.cause == b.cause &&
           a.conflict_line == b.conflict_line &&
           a.conflict_thread == b.conflict_thread && a.now == b.now &&
           a.lock_line_read == b.lock_line_read &&
           a.x_line_read == b.x_line_read && a.data_writer == b.data_writer &&
           a.data_seen == b.data_seen &&
           a.data_in_memory == b.data_in_memory &&
           a.lock_in_memory == b.lock_in_memory &&
           a.abort_events == b.abort_events &&
           a.abort_event.timestamp == b.abort_event.timestamp &&
           a.abort_event.line == b.abort_event.line &&
           a.abort_event.other_thread == b.abort_event.other_thread &&
           a.abort_event.cause == b.abort_event.cause;
  }
};

// An HLE transaction elides `lock`, buffers a write to `data` and reads
// `x`; a second thread then stores to `x` non-transactionally, and the
// victim's next access takes the conflict abort — inside a checkpoint, or
// thrown to a catch.
AfterAbort conflict_abort(bool checkpointed) {
  Shared<std::uint64_t> lock(0);
  support::CacheAligned<Shared<std::uint64_t>> data, x;
  Telemetry tel;
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, quiet_tsx());
  eng.set_telemetry(&tel);
  AfterAbort a;
  int victim = -1;
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    victim = ctx.id();
    const auto phase = [&] {
      lock.xacquire_exchange(ctx, 1);
      data.value.store(ctx, 5);
      (void)x.value.load(ctx);
      eng.compute(ctx, 2000);  // the other thread's store lands here
      (void)x.value.load(ctx);
      a.continued = true;
    };
    ctx.set_mode(ElisionMode::kSpeculative);
    if (checkpointed) {
      a.status = eng.checkpoint(ctx, phase);
    } else {
      try {
        phase();
        a.status = kCommitted;
      } catch (const TxAbortException& e) {
        a.status = e.status;
      }
    }
    ctx.set_mode(ElisionMode::kStandard);
    a.in_tx = ctx.in_tx();
    a.cause = ctx.last_abort_cause();
    a.conflict_line = ctx.last_conflict_line();
    a.conflict_thread = ctx.last_conflict_thread();
    a.now = st.now();
    LineTable& t = eng.line_table();
    a.lock_line_read =
        t.find(support::line_of(&lock))->readers.test(ctx.id());
    a.x_line_read =
        t.find(support::line_of(&x.value))->readers.test(ctx.id());
    a.data_writer = t.find(support::line_of(&data.value))->writer;
    a.data_in_memory = data.value.unsafe_get();
    a.lock_in_memory = lock.unsafe_get();
    // A leftover write-buffer entry would show through here.
    eng.run_transaction(ctx, [&] { a.data_seen = data.value.load(ctx); });
  });
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    eng.compute(ctx, 500);
    x.value.store(ctx, 9);
  });
  sched.run();
  for (const TelemetryEvent& e : tel.merged()) {
    if (e.kind == EventKind::kTxAbort && e.thread == victim) {
      ++a.abort_events;
      a.abort_event = e;
    }
  }
  return a;
}

TEST(Checkpoint, AbortReturnsRolledBackLikeAThrownAbort) {
  const AfterAbort thrown = conflict_abort(false);
  const AfterAbort returned = conflict_abort(true);
  EXPECT_TRUE(returned == thrown);
  EXPECT_EQ(returned.status, status::kConflict | status::kRetry);
  EXPECT_FALSE(returned.continued);
  EXPECT_FALSE(returned.in_tx);
  EXPECT_EQ(returned.cause, AbortCause::kConflict);
  EXPECT_NE(returned.conflict_line, 0u);
  EXPECT_EQ(returned.conflict_thread, 1);
  EXPECT_FALSE(returned.lock_line_read);
  EXPECT_FALSE(returned.x_line_read);
  EXPECT_EQ(returned.data_writer, kNoThread);
  EXPECT_EQ(returned.data_seen, 0u);
  EXPECT_EQ(returned.data_in_memory, 0u);
  EXPECT_EQ(returned.lock_in_memory, 0u);
  if constexpr (kTelemetryCompiled) {
    EXPECT_EQ(returned.abort_events, 1);
    EXPECT_EQ(returned.abort_event.cause, AbortCause::kConflict);
    EXPECT_EQ(returned.abort_event.line, returned.conflict_line);
    EXPECT_EQ(returned.abort_event.other_thread, 1);
  }
}

TEST(Checkpoint, ZeroStatusAbortIsNotACommit) {
  // An HLE mismatch carries status 0, like Haswell's.
  Shared<std::uint64_t> lock(0);
  unsigned st = kCommitted;
  AbortCause cause = AbortCause::kNone;
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    st = ctx.engine().checkpoint(ctx, [&] {
      lock.xacquire_exchange(ctx, 1);
      lock.xrelease_store(ctx, 2);
    });
    ctx.set_mode(ElisionMode::kStandard);
    cause = ctx.last_abort_cause();
  }});
  EXPECT_EQ(st, 0u);
  EXPECT_EQ(cause, AbortCause::kHleMismatch);
}

TEST(Checkpoint, DisarmedAfterThePhaseCompletes) {
  Shared<std::uint64_t> lock(0);
  unsigned st = 0;
  bool threw = false;
  run_threads({[&](Ctx& ctx) {
    auto& eng = ctx.engine();
    ctx.set_mode(ElisionMode::kSpeculative);
    st = eng.checkpoint(ctx, [&] { lock.xacquire_exchange(ctx, 1); });
    EXPECT_TRUE(eng.xtest(ctx));
    try {
      eng.xabort(ctx, 3);  // a body abort after the phase
    } catch (const TxAbortException& e) {
      threw = true;
      EXPECT_EQ(e.cause, AbortCause::kExplicit);
      EXPECT_EQ(status::code_of(e.status), 3);
    }
    ctx.set_mode(ElisionMode::kStandard);
  }});
  EXPECT_EQ(st, kCommitted);
  EXPECT_TRUE(threw);
}

TEST(Checkpoint, BodyReturnsEarlyAndRunTransactionReportsTheAbort) {
  unsigned st = kCommitted;
  bool returned_early = false;
  run_threads({[&](Ctx& ctx) {
    auto& eng = ctx.engine();
    st = eng.run_transaction(ctx, [&] {
      if (eng.checkpoint(ctx, [&] { eng.xabort(ctx, 4); }) != kCommitted) {
        returned_early = true;
      }
    });
    EXPECT_FALSE(eng.xtest(ctx));
  }});
  EXPECT_TRUE(returned_early);
  EXPECT_EQ(st, status::with_code(status::kExplicit | status::kRetry, 4));
}

TEST(Checkpoint, NestedAbortReachesTheOutermostTransaction) {
  unsigned st = kCommitted;
  bool inner_continued = false;
  bool outer_continued = false;
  run_threads({[&](Ctx& ctx) {
    auto& eng = ctx.engine();
    st = eng.run_transaction(ctx, [&] {
      eng.run_transaction(ctx, [&] {
        eng.checkpoint(ctx, [&] { eng.xabort(ctx, 9); });
        inner_continued = true;
      });
      outer_continued = true;
    });
  }});
  EXPECT_FALSE(inner_continued);
  EXPECT_FALSE(outer_continued);
  EXPECT_EQ(st, status::with_code(
                    status::kExplicit | status::kRetry | status::kNested, 9));
}

// ---------------------------------------------------------------------------
// The HLE region driver
// ---------------------------------------------------------------------------

TEST(HleRegion, UncontendedRegionCommitsSpeculatively) {
  locks::TtasLock lock;
  Shared<std::uint64_t> data(0);
  run_threads({[&](Ctx& ctx) {
    const auto r = locks::hle_region(ctx, lock, [&] {
      data.store(ctx, data.load(ctx) + 1);
    });
    EXPECT_TRUE(r.speculative);
    EXPECT_EQ(r.attempts, 1);
  }});
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(HleRegion, ConcurrentDisjointRegionsAllSpeculative) {
  locks::TtasLock lock;
  std::vector<support::CacheAligned<Shared<std::uint64_t>>> slots(8);
  std::vector<std::function<void(Ctx&)>> bodies;
  int nonspec = 0;
  for (int i = 0; i < 8; ++i) {
    bodies.push_back([&, i](Ctx& ctx) {
      for (int k = 0; k < 50; ++k) {
        const auto r = locks::hle_region(ctx, lock, [&] {
          slots[i].value.store(ctx, slots[i].value.load(ctx) + 1);
        });
        if (!r.speculative) ++nonspec;
      }
    });
  }
  run_threads(std::move(bodies));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(slots[i].value.unsafe_get(), 50u);
  EXPECT_EQ(nonspec, 0);  // nothing conflicts: full elision
}

TEST(HleRegion, AbortFallsBackToStandardRun) {
  locks::TtasLock lock;
  Shared<std::uint64_t> data(0);
  TsxConfig cfg = quiet_tsx();
  cfg.spurious_per_begin = 1.0;  // every speculative attempt dies instantly
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, cfg);
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    const auto r = locks::hle_region(ctx, lock, [&] {
      data.store(ctx, data.load(ctx) + 1);
    });
    EXPECT_FALSE(r.speculative);
    EXPECT_EQ(r.attempts, 2);  // one aborted speculation + one standard run
  });
  sched.run();
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(HleRegion, AvalancheOneAcquisitionAbortsAllSpeculators) {
  // Three speculating threads, entirely disjoint data, plus one thread that
  // acquires the lock non-transactionally mid-window. Even though no data
  // conflicts exist, the acquisition invalidates the lock line in every
  // speculator's read set, aborting all of them (the avalanche of Ch. 3).
  locks::TtasLock lock;
  Shared<std::uint64_t> hot(0);
  std::vector<support::CacheAligned<Shared<std::uint64_t>>> cold(3);
  std::vector<locks::RegionResult> results(3);
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, quiet_tsx());
  for (int i = 0; i < 3; ++i) {
    sched.spawn([&, i](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      results[i] = locks::hle_region(ctx, lock, [&] {
        (void)cold[i].value.load(ctx);
        ctx.engine().compute(ctx, 3000);  // long speculative window
        cold[i].value.store(ctx, 1);
      });
    });
  }
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ctx.engine().compute(ctx, 500);  // land inside the speculative windows
    ctx.set_mode(ElisionMode::kStandard);
    lock.lock(ctx);
    hot.store(ctx, 1);
    lock.unlock(ctx);
  });
  sched.run();
  // Every speculator was aborted despite touching disjoint data...
  const auto stats = eng.total_stats();
  EXPECT_EQ(stats.aborts_by_cause[static_cast<int>(AbortCause::kConflict)],
            3u);
  // ...and every operation still completed (speculatively after recovery or
  // non-speculatively), with more than one attempt.
  for (const auto& r : results) {
    EXPECT_GE(r.attempts, 2);
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(cold[i].value.unsafe_get(), 1u);
}

TEST(HleRegion, TtasReentersSpeculationAfterLockRelease) {
  // A speculator aborted by a lock acquisition re-issues its TAS (which
  // fails), spins, and re-enters speculation once the lock is free — the
  // TTAS recovery of Ch. 3. With a long-held lock, the speculator should
  // still complete speculatively after release.
  locks::TtasLock lock;
  Shared<std::uint64_t> a(0), b(0);
  locks::RegionResult r{};
  run_threads({
      [&](Ctx& ctx) {
        // Holder: grabs the lock for real for a long time.
        ctx.set_mode(ElisionMode::kStandard);
        lock.lock(ctx);
        a.store(ctx, 1);
        ctx.engine().compute(ctx, 20000);
        lock.unlock(ctx);
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 1000);  // arrive while the lock is held
        r = locks::hle_region(ctx, lock, [&] {
          b.store(ctx, b.load(ctx) + 1);
        });
      },
  });
  EXPECT_TRUE(r.speculative);
  EXPECT_EQ(b.unsafe_get(), 1u);
}

TEST(HleRegion, RtmElideRegionEquivalentSemantics) {
  locks::TtasLock lock;
  Shared<std::uint64_t> data(0);
  run_threads({[&](Ctx& ctx) {
    const auto r = locks::rtm_elide_region(ctx, lock, [&] {
      data.store(ctx, data.load(ctx) + 1);
    });
    EXPECT_TRUE(r.speculative);
  }});
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(HleRegion, RtmElideAbortsWhenLockHeld) {
  locks::TtasLock lock;
  Shared<std::uint64_t> data(0);
  locks::RegionResult r{};
  run_threads({
      [&](Ctx& ctx) {
        ctx.set_mode(ElisionMode::kStandard);
        lock.lock(ctx);
        ctx.engine().compute(ctx, 5000);
        lock.unlock(ctx);
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 500);
        r = locks::rtm_elide_region(ctx, lock, [&] {
          data.store(ctx, data.load(ctx) + 1);
        });
      },
  });
  // The second thread observed the held lock, aborted, and either retried
  // speculatively after release or serialized; either way it completed.
  EXPECT_EQ(data.unsafe_get(), 1u);
  EXPECT_GE(r.attempts, 1);
}

}  // namespace
}  // namespace elision::tsx
