// Spin-wait parking (docs/simulator.md, "Spin-waits"). A thread in a steady
// `while (!done(load(word))) pause();` loop parks off the fiber schedule and
// the scheduler advances its clock in closed form. These tests run small
// programs twice — parked (switch-bound batching on) and unparked (batching
// off, where every iteration is a scheduled load and PAUSE) — and require the
// same observations: every value a thread saw, at which clock, and the final
// simulated time. The sweeps move a writer's clock across the spinners'
// action boundaries, so they include writes landing exactly on a boundary,
// with the spinner's tid below and above the writer's, several spinners tied
// on one boundary, and an SMT sibling finishing while a spinner is parked.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "support/align.hpp"
#include "tsx/abort.hpp"
#include "tsx/engine.hpp"
#include "tsx/shared.hpp"

namespace elision {
namespace {

using Word = support::CacheAligned<tsx::Shared<std::uint64_t>>;
// body(tid, ctx, log): a thread's program; it appends what it observes.
using Program =
    std::function<void(int, tsx::Ctx&, std::vector<std::uint64_t>&)>;

struct Outcome {
  std::vector<std::vector<std::uint64_t>> logs;  // per thread
  std::uint64_t elapsed = 0;
  std::uint64_t switches = 0;
  bool parking = false;
};

Outcome run(sim::MachineConfig m, int threads, const Program& body) {
  sim::Scheduler sched(m);
  tsx::Engine eng(sched);
  Outcome out;
  out.logs.resize(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    sched.spawn([&, i](sim::SimThread& t) {
      body(i, eng.context(t), out.logs[static_cast<std::size_t>(i)]);
    });
  }
  out.parking = sched.parking_enabled();
  sched.run();
  out.elapsed = sched.elapsed_cycles();
  out.switches = sched.switch_count();
  return out;
}

sim::MachineConfig machine(unsigned cores, bool batch) {
  sim::MachineConfig m;
  m.n_cores = cores;
  m.smt_per_core = 2;
  m.batch_switch_bound = batch;
  return m;
}

// Runs `body` parked and unparked, each from memory just `reset`, and
// expects identical outcomes. Returns the decisions each side took, to show
// that the parked side parked.
std::pair<std::uint64_t, std::uint64_t> expect_same(
    unsigned cores, int threads, const Program& body,
    const std::function<void()>& reset, const std::string& what) {
  reset();
  const Outcome parked = run(machine(cores, true), threads, body);
  reset();
  const Outcome unparked = run(machine(cores, false), threads, body);
  EXPECT_TRUE(parked.parking) << what;
  EXPECT_FALSE(unparked.parking) << what;
  EXPECT_EQ(parked.logs, unparked.logs) << what;
  EXPECT_EQ(parked.elapsed, unparked.elapsed) << what;
  return {parked.switches, unparked.switches};
}

// Each spin-wait logs the clock it left the loop at and the value it saw.
void spin_and_log(tsx::Ctx& ctx, Word& w, std::vector<std::uint64_t>& log) {
  const std::uint64_t v =
      w.value.spin_until(ctx, [](std::uint64_t x) { return x != 0; });
  log.push_back(ctx.thread().now());
  log.push_back(v);
}

TEST(SpinWait, WriterAroundSpinnerBoundariesAndTids) {
  // Roles: spinner S waits for W's store; D keeps taking decisions at
  // other clocks (drive > 0), so real threads get picked with spinners tied
  // to them, or finishes at once (drive 0), so S parks against W's clock
  // alone. Every assignment of roles to tids covers a spinner below and
  // above the writer, and the sweep of W's delay crosses S's load and PAUSE
  // boundaries one cycle at a time, landing exactly on several.
  Word w;
  std::uint64_t parked = 0;
  std::uint64_t unparked = 0;
  const int roles[][3] = {{0, 1, 2}, {1, 0, 2}, {2, 1, 0},
                          {0, 2, 1}, {1, 2, 0}, {2, 0, 1}};
  for (const auto& r : roles) {
    for (std::uint64_t delay = 0; delay < 140; ++delay) {
      for (const std::uint64_t drive : {0u, 7u, 13u}) {
        const Program body = [&](int tid, tsx::Ctx& ctx,
                                 std::vector<std::uint64_t>& log) {
          auto& eng = ctx.engine();
          if (tid == r[0]) {
            spin_and_log(ctx, w, log);
          } else if (tid == r[1]) {
            eng.compute(ctx, delay);
            w.value.store(ctx, 1);
            log.push_back(ctx.thread().now());
          } else if (drive != 0) {
            for (int i = 0; i < 12; ++i) eng.compute(ctx, drive + i % 3);
          }
        };
        const auto sw = expect_same(
            4, 3, body, [&] { w.value.unsafe_set(0); },
            "roles " + std::to_string(r[0]) + std::to_string(r[1]) +
                std::to_string(r[2]) + " delay=" + std::to_string(delay) +
                " drive=" + std::to_string(drive));
        parked += sw.first;
        unparked += sw.second;
      }
    }
  }
  EXPECT_LT(parked, unparked) << "the parked side never parked";
}

TEST(SpinWait, TiedSpinnersWokenInTurn) {
  // Four spinners start in lockstep on four words (identical clocks and
  // phases, so their boundaries tie at every level), and the writer wakes
  // them one by one. Ties between spinners decide which one's action ran
  // last before a real thread's clock; the sweep lands the writer on every
  // offset of their period.
  Word words[4];
  for (std::uint64_t delay = 0; delay < 90; ++delay) {
    for (const int writer : {0, 4, 2}) {
      const Program body = [&](int tid, tsx::Ctx& ctx,
                               std::vector<std::uint64_t>& log) {
        auto& eng = ctx.engine();
        if (tid == writer) {
          for (int k = 0; k < 4; ++k) {
            eng.compute(ctx, delay + static_cast<std::uint64_t>(k) * 3);
            words[k].value.store(ctx, 1);
            log.push_back(ctx.thread().now());
          }
          return;
        }
        const int k = tid < writer ? tid : tid - 1;
        spin_and_log(ctx, words[k], log);
      };
      const auto reset = [&] {
        for (Word& x : words) x.value.unsafe_set(0);
      };
      expect_same(8, 5, body, reset,
                  "writer=" + std::to_string(writer) +
                      " delay=" + std::to_string(delay));
    }
  }
}

TEST(SpinWait, SmtSiblingFinishesWhileParked) {
  // Two cores: tids 0 and 2 share core 0, 1 and 3 core 1. The spinner's
  // steps cost the SMT penalty while its sibling runs and the plain cost
  // after the sibling finishes, which happens while the spinner is parked.
  Word w;
  for (std::uint64_t sibling = 0; sibling < 200; sibling += 7) {
    for (std::uint64_t delay = 150; delay < 400; delay += 11) {
      for (const int spinner : {0, 2}) {
        const int sib = spinner == 0 ? 2 : 0;
        const Program body = [&](int tid, tsx::Ctx& ctx,
                                 std::vector<std::uint64_t>& log) {
          auto& eng = ctx.engine();
          if (tid == spinner) {
            spin_and_log(ctx, w, log);
          } else if (tid == sib) {
            eng.compute(ctx, sibling);
            log.push_back(ctx.thread().now());
          } else if (tid == 1) {
            eng.compute(ctx, delay);
            w.value.store(ctx, 1);
          } else {
            eng.compute(ctx, delay / 2);
          }
        };
        expect_same(2, 4, body, [&] { w.value.unsafe_set(0); },
                    "spinner=" + std::to_string(spinner) +
                        " sibling=" + std::to_string(sibling) +
                        " delay=" + std::to_string(delay));
      }
    }
  }
}

TEST(SpinWait, FallbacksRunTheLoopAsWritten) {
  // Yield slack and perturbation disable parking; the loop then runs
  // iteration by iteration and still completes.
  Word w;
  const Program body = [&](int tid, tsx::Ctx& ctx,
                           std::vector<std::uint64_t>& log) {
    if (tid == 0) {
      spin_and_log(ctx, w, log);
    } else {
      ctx.engine().compute(ctx, 500);
      w.value.store(ctx, 7);
    }
  };
  sim::MachineConfig slack = machine(2, true);
  slack.yield_slack_cycles = 200;
  sim::MachineConfig perturbed = machine(2, true);
  perturbed.perturb.probability = 0.1;
  perturbed.perturb.seed = 3;
  for (const sim::MachineConfig& m : {slack, perturbed}) {
    w.value.unsafe_set(0);
    const Outcome a = run(m, 2, body);
    w.value.unsafe_set(0);
    sim::MachineConfig off = m;
    off.batch_switch_bound = false;
    const Outcome b = run(off, 2, body);
    EXPECT_FALSE(a.parking);
    ASSERT_EQ(a.logs[0].size(), 2u);
    EXPECT_EQ(a.logs[0][1], 7u);
    EXPECT_EQ(a.logs, b.logs);
    EXPECT_EQ(a.elapsed, b.elapsed);
  }
}

TEST(SpinWait, InsideTransactionPauseStillAborts) {
  Word w;
  w.value.unsafe_set(0);
  sim::Scheduler sched(machine(2, true));
  tsx::Engine eng(sched);
  unsigned status = tsx::kCommitted;
  tsx::AbortCause cause = tsx::AbortCause::kNone;
  sched.spawn([&](sim::SimThread& t) {
    tsx::Ctx& ctx = eng.context(t);
    status = eng.run_transaction(ctx, [&] {
      w.value.spin_until(ctx, [](std::uint64_t x) { return x != 0; });
    });
    cause = ctx.last_abort_cause();
  });
  sched.run();
  EXPECT_NE(status, tsx::kCommitted);
  EXPECT_EQ(cause, tsx::AbortCause::kPause);
  EXPECT_EQ(eng.total_stats().aborts_by_cause[static_cast<std::size_t>(
                tsx::AbortCause::kPause)],
            1u);
}

// When every runnable thread is parked nothing can ever write the words
// they wait on: the run must stop at once with a clear message, instead of
// spinning until max_switches (or forever when no cap is set).
using SpinWaitDeath = ::testing::Test;

TEST(SpinWaitDeath, EveryThreadParkedIsALivelock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto spin_forever = [](int threads) {
    Word w;
    w.value.unsafe_set(0);
    run(machine(2, true), threads,
        [&](int, tsx::Ctx& ctx, std::vector<std::uint64_t>& log) {
          spin_and_log(ctx, w, log);
        });
  };
  EXPECT_DEATH(spin_forever(1), "livelocked");
  EXPECT_DEATH(spin_forever(3), "livelocked");
}

}  // namespace
}  // namespace elision
