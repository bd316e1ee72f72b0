// Differential tests of the scheduler's switch-bound batching
// (docs/simulator.md, "The per-access fast path"): a host-speed optimization
// that must never change simulated results. Every workload here runs twice —
// batching on and off (the per-access ready-queue read, kept only as this
// reference) — and the two runs must agree on every virtual-time
// observable: ops, attempts, elapsed cycles, transaction counters per abort
// cause, and the final simulated memory image. Shapes cover 1..256 simulated
// threads (both sides of the ready queue's 16->17 group boundary) and both
// yield-slack regimes.
//
// Batching off is also the unparked reference for spin-waits: parking a
// steady spin-wait off the fiber schedule (docs/simulator.md, "Spin-waits")
// needs batching, so the spin-heavy shapes below compare parked against
// unparked runs, telemetry included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/abort.hpp"

namespace elision::harness {
namespace {

struct ShapeRun {
  RunStats stats;
  std::vector<std::uint64_t> words;  // final simulated memory image
};

// An RB-tree-shaped access pattern in miniature: a handful of strided loads
// (re-reading the first line) followed by a store, under a TTAS lock elided
// with HLE+SCM so the run produces real commits, aborts and lemming-effect
// episodes to compare.
//
// `words` is caller-owned and shared by the on/off runs of a pair: line ids
// are real addresses >> 6, so the two runs must simulate the *same* array
// or heap-placement differences (L1 set mapping, line sharing) would
// diverge them for reasons that have nothing to do with batching.
ShapeRun run_shape(std::vector<std::uint64_t>& words, int threads,
                   std::uint64_t slack, bool batch) {
  BenchConfig cfg;
  cfg.threads = threads;
  cfg.duration_sec = 0.0002;
  cfg.machine.n_cores = 8;
  cfg.machine.smt_per_core = 2;
  cfg.machine.yield_slack_cycles = slack;
  cfg.machine.seed = 7;
  cfg.machine.batch_switch_bound = batch;

  locks::TtasLock lock;
  locks::CriticalSection<locks::TtasLock> cs(locks::ElisionPolicy::hle_scm(),
                                             lock);
  std::fill(words.begin(), words.end(), 0);
  ShapeRun out;
  out.stats = run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::size_t base = rng.next_below(words.size());
    return cs.run(ctx, [&] {
      auto& eng = ctx.engine();
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < 6; ++i) {
        std::size_t idx = base + i * 17;
        while (idx >= words.size()) idx -= words.size();
        sum += eng.load(ctx, &words[idx]);
      }
      sum += eng.load(ctx, &words[base]);  // repeat access to a read line
      eng.store(ctx, &words[base], sum + 1);
    });
  });
  out.words = words;
  return out;
}

void expect_identical(const ShapeRun& on, const ShapeRun& off,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(on.stats.ops, off.stats.ops);
  EXPECT_EQ(on.stats.spec_ops, off.stats.spec_ops);
  EXPECT_EQ(on.stats.nonspec_ops, off.stats.nonspec_ops);
  EXPECT_EQ(on.stats.attempts, off.stats.attempts);
  EXPECT_EQ(on.stats.elapsed_cycles, off.stats.elapsed_cycles);
  EXPECT_EQ(on.stats.tx.begins, off.stats.tx.begins);
  EXPECT_EQ(on.stats.tx.commits, off.stats.tx.commits);
  EXPECT_EQ(on.stats.tx.aborts, off.stats.tx.aborts);
  for (int c = 0; c < static_cast<int>(tsx::AbortCause::kCauseCount); ++c) {
    EXPECT_EQ(on.stats.tx.aborts_by_cause[c], off.stats.tx.aborts_by_cause[c])
        << "cause " << to_string(static_cast<tsx::AbortCause>(c));
  }
  EXPECT_EQ(on.words, off.words) << "final memory image diverged";
}

TEST(FastPathDifferential, IdenticalSimulationAcrossSizesAndSlack) {
  std::vector<std::uint64_t> words(512);
  for (const int threads : {1, 2, 16, 17, 64, 256}) {
    for (const std::uint64_t slack : {std::uint64_t{0}, std::uint64_t{200}}) {
      const ShapeRun on = run_shape(words, threads, slack, true);
      const ShapeRun off = run_shape(words, threads, slack, false);
      const std::string what =
          "threads=" + std::to_string(threads) +
          " slack=" + std::to_string(slack);
      expect_identical(on, off, what.c_str());

      // The runs must have simulated something worth comparing.
      EXPECT_GT(on.stats.ops, 0u) << what;
      EXPECT_GT(on.stats.tx.begins, 0u) << what;
    }
  }
}

// Spin-heavy shapes: a short critical section under a fair or TTAS lock,
// elided with HLE or HLE-SCM, so most threads spend the run in the locks'
// spin-waits (the queue locks' PAUSE loops, TTAS's wait for a free word,
// the drivers' waits after an abort). With batching on they park; batching
// off runs every iteration as a fiber switch.
//
// The lock is constructed afresh for each run at the same address: its
// words' line ids, like the data's, must match across the pair.
template <typename Lock>
ShapeRun run_spin_shape(std::vector<std::uint64_t>& words, void* lock_storage,
                        int threads, const locks::ElisionPolicy& policy,
                        bool batch) {
  BenchConfig cfg;
  cfg.threads = threads;
  cfg.duration_sec = 0.0001;
  cfg.machine.n_cores = static_cast<unsigned>(std::max(1, threads / 2));
  cfg.machine.smt_per_core = 2;
  cfg.machine.seed = 11;
  cfg.machine.batch_switch_bound = batch;
  cfg.telemetry = true;

  Lock* lock = new (lock_storage) Lock();
  std::fill(words.begin(), words.end(), 0);
  ShapeRun out;
  {
    locks::CriticalSection<Lock> cs(policy, *lock);
    out.stats = run_workload(cfg, [&](tsx::Ctx& ctx) {
      const std::size_t base = ctx.thread().rng().next_below(words.size());
      return cs.run(ctx, [&] {
        auto& eng = ctx.engine();
        const std::uint64_t v = eng.load(ctx, &words[base]);
        eng.store(ctx, &words[base], v + 1);
        eng.store(ctx, &words[(base + 8) % words.size()], v);
      });
    });
  }
  lock->~Lock();
  out.words = words;
  return out;
}

template <typename Lock>
void spin_differential(const char* name) {
  std::vector<std::uint64_t> words(64);
  struct alignas(64) Storage {
    unsigned char bytes[sizeof(Lock)];
  };
  const auto storage = std::make_unique<Storage>();
  for (const locks::ElisionPolicy& policy :
       {locks::ElisionPolicy::hle(), locks::ElisionPolicy::hle_scm()}) {
    for (const int threads : {8, 64, 256}) {
      const ShapeRun on =
          run_spin_shape<Lock>(words, storage.get(), threads, policy, true);
      const ShapeRun off =
          run_spin_shape<Lock>(words, storage.get(), threads, policy, false);
      const std::string what = std::string(name) + "/" +
                               policy.spec() +
                               " threads=" + std::to_string(threads);
      expect_identical(on, off, what.c_str());
      EXPECT_EQ(on.stats.nonspec_ops, off.stats.nonspec_ops) << what;
      EXPECT_EQ(on.stats.telemetry_events, off.stats.telemetry_events)
          << what;
      EXPECT_EQ(on.stats.telemetry_dropped, off.stats.telemetry_dropped)
          << what;
      ASSERT_EQ(on.stats.episodes.size(), off.stats.episodes.size()) << what;
      for (std::size_t e = 0; e < on.stats.episodes.size(); ++e) {
        const tsx::AvalancheEpisode& a = on.stats.episodes[e];
        const tsx::AvalancheEpisode& b = off.stats.episodes[e];
        EXPECT_TRUE(a.trigger_thread == b.trigger_thread &&
                    a.start == b.start && a.end == b.end &&
                    a.victims == b.victims && a.aborts == b.aborts &&
                    a.serialized_ops == b.serialized_ops)
            << what << " episode " << e;
      }
      EXPECT_GT(on.stats.ops, 0u) << what;
      // Parking removed scheduling decisions; the work is the same.
      EXPECT_LT(on.stats.fp_switches, off.stats.fp_switches) << what;
    }
  }
}

TEST(FastPathDifferential, ParkedSpinWaitsMatchUnparkedMcs) {
  spin_differential<locks::McsLock>("MCS");
}
TEST(FastPathDifferential, ParkedSpinWaitsMatchUnparkedTicket) {
  spin_differential<locks::TicketLockAdjusted>("Ticket-adj");
}
TEST(FastPathDifferential, ParkedSpinWaitsMatchUnparkedClh) {
  spin_differential<locks::ClhLockAdjusted>("CLH-adj");
}
TEST(FastPathDifferential, ParkedSpinWaitsMatchUnparkedTtas) {
  spin_differential<locks::TtasLock>("TTAS");
}

// The validation gate in front of every run: degenerate machine shapes must
// exit(2) with a diagnostic instead of constructing a broken simulation
// (satellite of the fast-path PR because the t128/t256 points made the
// shape-override path load-bearing).
using FastPathDeath = ::testing::Test;

TEST(FastPathDeath, RejectsDegenerateMachineShapes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto run = [](int threads, unsigned cores, unsigned smt) {
    BenchConfig cfg;
    cfg.threads = threads;
    cfg.machine.n_cores = cores;
    cfg.machine.smt_per_core = smt;
    validate_bench_config(cfg);
  };
  EXPECT_EXIT(run(0, 4, 2), ::testing::ExitedWithCode(2), "threads");
  EXPECT_EXIT(run(257, 4, 2), ::testing::ExitedWithCode(2), "threads");
  EXPECT_EXIT(run(8, 0, 2), ::testing::ExitedWithCode(2), "n_cores");
  EXPECT_EXIT(run(8, 4, 0), ::testing::ExitedWithCode(2), "smt_per_core");
  run(256, 128, 2);  // the t256 point's shape is valid
}

}  // namespace
}  // namespace elision::harness
