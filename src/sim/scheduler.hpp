// Deterministic virtual-time scheduler for simulated threads.
//
// Each logical thread of the simulated machine is a fiber with a virtual
// clock measured in CPU cycles. The scheduler always resumes the runnable
// thread with the smallest clock (ties broken by thread id), which makes the
// interleaving of the simulated parallel execution deterministic while
// faithfully modeling true concurrency: clocks advance independently, so
// non-conflicting work overlaps in virtual time.
//
// Hot-path layout: the tick path (advance + maybe_yield) runs once per
// simulated memory access, tens of millions of times per benchmark point, so
// its state is kept flat. Per-tid clocks (finished threads hold a max-uint64
// sentinel) live in a ReadyQueue — a flat arity-16 tournament tree whose
// cached (min, argmin) levels advance() repairs with two short contiguous
// scans and maybe_yield() reads from the root in O(1), instead of the O(N)
// mispredict-heavy sweep per access that made big simulated machines
// quadratic. The hyperthreading multiplier is a per-core value maintained
// at spawn/finish instead of an O(threads) sibling scan per advance.
//
// Spin-waits: a thread in a steady `while (!done(load(word))) pause();` loop
// parks off the fiber schedule (spin()). The scheduler then advances its
// clock in closed form, exactly as the loop would have run, and puts it back
// in the ready queue when its line is written (wake_if()). See
// docs/simulator.md, "Spin-waits".
//
// Usage:
//   Scheduler sched(config);
//   sched.spawn([&](SimThread& t) { ... t.advance(c); t.maybe_yield(); ... });
//   sched.run_for(config.cycles(0.010));   // 10 simulated milliseconds
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/machine_config.hpp"
#include "sim/ready_queue.hpp"
#include "support/inline.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace elision::sim {

class Scheduler;

// The next action of a spin-wait loop `while (!done(load(word))) pause();`,
// which alternates the two. Indexes Scheduler's per-spinner step costs.
enum class SpinPhase : std::uint8_t { kLoad = 0, kPause = 1 };

constexpr SpinPhase other_phase(SpinPhase p) {
  return p == SpinPhase::kLoad ? SpinPhase::kPause : SpinPhase::kLoad;
}

// One logical thread of the simulated machine. Workload code receives a
// reference and calls advance()/maybe_yield() (usually indirectly, through
// the tsx shared-memory API).
class SimThread {
 public:
  SimThread(Scheduler& sched, int tid, std::uint64_t seed,
            std::function<void(SimThread&)> body, std::size_t stack_bytes);

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  int tid() const { return tid_; }
  std::uint64_t now() const { return vclock_; }
  bool finished() const { return finished_; }
  Scheduler& scheduler() { return sched_; }
  support::Xoshiro256& rng() { return rng_; }

  // Advances this thread's virtual clock by `cycles` scaled by the
  // hyperthreading model (a live sibling slows both siblings down),
  // saturating at the largest live clock instead of wrapping past the
  // finished sentinel. Defined below Scheduler (touches its flat clock
  // array).
  ELISION_ALWAYS_INLINE void advance(std::uint64_t cycles);

  // Yields if this thread has run ahead of the earliest runnable thread by
  // more than the configured slack. Defined below Scheduler.
  ELISION_ALWAYS_INLINE void maybe_yield();

  // Unconditionally yields to the scheduler.
  void yield();

  // Convenience: advance then maybe_yield. This is the hook the shared-memory
  // layer calls once per simulated memory access — and therefore the
  // perturbation point of the schedule-exploration stress subsystem
  // (src/stress): with PerturbConfig enabled, a random extra delay may be
  // injected here before the yield decision.
  ELISION_ALWAYS_INLINE void tick(std::uint64_t cycles) {
    advance(cycles);
    if (sched_perturb_enabled_) maybe_perturb();
    maybe_yield();
  }

  // True once the scheduler's virtual deadline has passed; benchmark loops
  // exit at the next operation boundary.
  bool stop_requested() const;

 private:
  friend class Scheduler;
  static void entry(void* self);

  // Slow path of tick(): draws from the perturbation RNG and, budget
  // permitting, jumps this thread's clock forward by a random delay.
  void maybe_perturb();

  // Saturating slow path of advance(): full-range SMT scaling with overflow
  // checks on both the double->uint64 conversion and the clock addition.
  ELISION_NOINLINE void advance_slow(std::uint64_t cycles);

  Scheduler& sched_;
  const int tid_;
  const unsigned core_;  // tid % n_cores, fixed at spawn
  std::uint64_t vclock_ = 0;  // stale while the thread is parked in spin()
  bool finished_ = false;
  // The action a parked spin-wait resumes with; set when it is woken.
  SpinPhase spin_phase_ = SpinPhase::kLoad;
  const bool sched_perturb_enabled_;
  support::Xoshiro256 rng_;
  support::Xoshiro256 perturb_rng_;
  std::function<void(SimThread&)> body_;
  Fiber fiber_;
};

class Scheduler {
 public:
  explicit Scheduler(MachineConfig config = {});
  ~Scheduler();

  const MachineConfig& config() const { return config_; }

  // Creates a logical thread. Must be called before run()/run_for().
  SimThread& spawn(std::function<void(SimThread&)> body);

  // Runs until every thread finishes.
  void run();

  // Sets the virtual deadline (threads observe stop_requested() once their
  // clock passes it), then runs until every thread finishes.
  void run_for(std::uint64_t deadline_cycles);

  std::size_t thread_count() const { return threads_.size(); }
  SimThread& thread(std::size_t i) { return *threads_[i]; }

  // Largest virtual clock reached by any thread: the simulated wall time.
  // Maintained incrementally (clocks are monotonic), so this is O(1) rather
  // than a rescan of every thread. Under switch-bound batching the running
  // thread folds its clock into max_clock_ only at switch points, so account
  // for it here explicitly.
  std::uint64_t elapsed_cycles() const {
    if (current_ != nullptr && current_->vclock_ > max_clock_) {
      return current_->vclock_;
    }
    return max_clock_;
  }

  std::uint64_t switch_count() const { return switches_; }

  // Perturbations injected so far (see PerturbConfig). The stress driver
  // reads this after a failing run to seed budget minimization.
  std::uint64_t perturb_points_used() const { return perturb_points_; }

  // Consumes one unit of the perturbation budget; false when exhausted.
  bool consume_perturb_point() {
    if (config_.perturb.max_points != 0 &&
        perturb_points_ >= config_.perturb.max_points) {
      return false;
    }
    ++perturb_points_;
    return true;
  }

  // The thread currently executing, or nullptr when the host context runs.
  SimThread* current() { return current_; }

  // --- spin-waits (docs/simulator.md, "Spin-waits") ---

  // True when a spin-waiting thread may park: switch-bound batching on, no
  // yield slack and no perturbation. Otherwise spin loops run as written.
  bool parking_enabled() const { return parking_; }

  // Parks the running thread `t`, whose spin-wait loop is in a steady state
  // (every load an L1 hit returning the same value) and whose next action is
  // `next`; a load costs `load_cycles` and a PAUSE `pause_cycles`, before
  // the SMT penalty. The thread leaves the fiber schedule, and the scheduler
  // advances its clock in closed form exactly as the loop would have run.
  // Returns once wake_if() has put it back, with the action its loop resumes
  // with. Returns `next` at once, without parking, when the clock or the
  // step costs are outside the range the closed form handles.
  SpinPhase spin(SimThread& t, SpinPhase next, std::uint64_t load_cycles,
                 std::uint64_t pause_cycles);

  // Puts every parked thread for which `claim(tid)` returns true back in the
  // ready queue, at the clock and phase its loop has reached. The running
  // thread calls this when it writes a line that parked threads watch.
  template <typename Claim>
  void wake_if(Claim&& claim) {
    std::size_t kept = 0;
    for (const Spinner& s : spinners_) {
      if (claim(static_cast<int>(s.tid))) {
        unpark(s);
      } else {
        spinners_[kept++] = s;
      }
    }
    if (kept == spinners_.size()) return;
    spinners_.resize(kept);
    // The bound needs no refresh: the woken clocks move from the parked
    // minimum to the ready queue's, and min(ready, parked) is unchanged.
    refresh_spin_min();
  }

  // --- internal, used by SimThread ---
  void yield_from(SimThread& t);
  [[noreturn]] void finish_from(SimThread& t);

 private:
  friend class SimThread;

  static constexpr std::uint64_t kFinishedClock = ReadyQueue::kFinishedClock;

  // A thread parked in spin(). Its loop's next action starts at `clock`.
  struct Spinner {
    std::uint64_t clock;
    std::uint32_t step[2];  // scaled cost of a load / a PAUSE (by SpinPhase)
    std::uint32_t raw[2];   // unscaled, to rescale when the core's SMT
                            // penalty changes
    std::int16_t tid;
    std::uint16_t core;
    SpinPhase phase;        // the action that starts at `clock`

    void step_once() {
      clock += step[static_cast<std::size_t>(phase)];
      phase = other_phase(phase);
    }
  };
  // A spinner that catch_up() moved, with what the tie rule needs to know
  // about its actions below the target.
  struct Moved {
    std::size_t idx;        // into spinners_
    std::uint64_t start;    // its clock and phase before the catch-up
    SpinPhase start_phase;
    std::uint64_t last;     // start of its last action below the target
    SpinPhase last_phase;   // that action
    bool active;            // last_starter(): cursor still in range
  };

  // Earliest-clock runnable thread, or nullptr when none is (finished, or
  // only parked spinners remain).
  SimThread* pick_next() const;
  // Counted switch directly to a known next thread (the fused tick path has
  // already computed the argmin; skips the second scan of yield_from).
  void switch_counted(SimThread& t, SimThread& next) {
    // Counted unconditionally (mirrors yield_from) so that max_switches also
    // catches a thread yielding forever without advancing its clock.
    count_decision();
    current_ = &next;
    Fiber::switch_to(t.fiber_, next.fiber_);
  }
  void switch_from_host();
  // Batching slow path of maybe_yield(): the running thread crossed the
  // cached preemption bound. Re-enters its clock into the ready queue, picks
  // the new argmin, parks that thread's slot, refreshes the bound and
  // switches. Out-of-line: it runs once per context switch, not per access.
  ELISION_NOINLINE void yield_over_bound(SimThread& t);
  // Caches the preemption bound the incoming thread will run against: min
  // clock of everyone else (its own slot is parked at the sentinel) plus the
  // yield slack, saturated so a lone thread (sentinel min) never yields, and
  // capped at the earliest parked spinner (parking implies zero slack).
  void recompute_bound() { set_bound(ready_.min_clock()); }
  void set_bound(std::uint64_t others_min) {
    switch_bound_ = others_min >= kFinishedClock - config_.yield_slack_cycles
                        ? kFinishedClock
                        : others_min + config_.yield_slack_cycles;
    if (spin_min_ < switch_bound_) switch_bound_ = spin_min_;
  }
  // Counts one scheduling decision against the max_switches valve.
  void count_decision() {
    ++switches_;
    ELISION_CHECK_MSG(
        config_.max_switches == 0 || switches_ < config_.max_switches,
        "simulation exceeded max_switches (livelock?)");
  }
  // Advances every parked spinner that the unparked loops would run before
  // the real thread (c, t) runs next to the action boundary where that
  // thread would find it. Defined in scheduler.cpp with the tie rule.
  void catch_up(std::uint64_t c, int t);
  // catch_up()'s rare case: a spinner landed exactly on c above t. Applies
  // the tie rule to the spinners in moved_, and returns the new parked
  // minimum given the current one, `lo`.
  std::uint64_t resolve_landing_on(std::uint64_t c, std::uint64_t lo);
  // The spinner (index into moved_) that runs the last action starting
  // at level x when several spinners have an action there.
  std::size_t last_starter(std::uint64_t x);
  // Returns a spinner's thread to the ready queue (wake_if()).
  void unpark(const Spinner& s);
  void refresh_spin_min() {
    spin_min_ = kFinishedClock;
    for (const Spinner& s : spinners_) spin_min_ = std::min(spin_min_, s.clock);
  }
  // Parks `next`'s ready-queue slot at the sentinel (its live clock now
  // lives only in vclock_) and refreshes the cached bound.
  void park_and_bound(SimThread& next) {
    ready_.set(next.tid_, kFinishedClock);
    recompute_bound();
  }
  // Batching context switch: folds the outgoing thread's clock back into the
  // ready queue and the running max, parks the incoming thread and refreshes
  // the bound — one fused queue repair instead of two full set() rescans.
  void exchange_and_bound(SimThread& out, SimThread& next) {
    ready_.exchange(out.tid_, out.vclock_, next.tid_);
    if (out.vclock_ > max_clock_) max_clock_ = out.vclock_;
    recompute_bound();
  }
  // Recomputes core_penalty_[core] from core_active_[core] (spawn/finish),
  // and the step costs of the spinners parked on that core.
  void update_core_penalty(unsigned core) {
    core_penalty_[core] =
        (config_.smt_per_core > 1 && core_active_[core] >= 2)
            ? config_.smt_slowdown
            : 1.0;
    for (Spinner& s : spinners_) {
      if (s.core != core) continue;
      s.step[0] = scaled(s.raw[0], core_penalty_[core]);
      s.step[1] = scaled(s.raw[1], core_penalty_[core]);
    }
  }
  // advance()'s fast-path scaling of one step (spin() keeps steps below
  // 2^32 cycles).
  static std::uint32_t scaled(std::uint64_t cycles, double penalty) {
    return static_cast<std::uint32_t>(static_cast<double>(cycles) * penalty);
  }

  MachineConfig config_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  // ready_.clock_of(tid) mirrors threads_[tid]->vclock_ while the thread is
  // runnable and holds kFinishedClock once it finishes; the tournament tree
  // over those clocks is the single min/argmin implementation every consumer
  // (tick path, pick_next) reads. Under switch-bound batching the *running*
  // thread's slot is additionally parked at the sentinel, so min_clock() is
  // the min over the other runnable threads — a value that cannot change
  // while the current thread runs, which is what makes caching switch_bound_
  // across accesses exact.
  ReadyQueue ready_;
  // Cached preemption bound of the running thread (batching only): min
  // other-thread clock + yield slack, recomputed at every context switch.
  std::uint64_t switch_bound_ = kFinishedClock;
  // Smallest clock among the parked spinners (spinners_ below), or the
  // sentinel when none is parked. Beside the bound: every decision reads it.
  std::uint64_t spin_min_ = kFinishedClock;
  // config_.batch_switch_bound, copied next to the tick-path state.
  bool batch_ = true;
  // Running max of every clock ever set: elapsed_cycles() without a rescan.
  std::uint64_t max_clock_ = 0;
  // Largest `cycles` advance() may scale without any overflow risk: with
  // cycles below this bound the SMT-scaled delta stays under 2^53 and a
  // clock below 2^63 cannot reach the finished sentinel, so the fast path
  // needs no saturation checks at all. Computed once from smt_slowdown.
  std::uint64_t advance_fast_cycles_ = 0;
  // Live threads per core / resulting advance() multiplier, maintained at
  // spawn and finish so the per-tick cost is one array load.
  std::vector<unsigned> core_active_;
  std::vector<double> core_penalty_;
  Fiber host_;
  SimThread* current_ = nullptr;
  std::uint64_t deadline_ = UINT64_MAX;
  std::uint64_t switches_ = 0;
  std::uint64_t perturb_points_ = 0;
  std::size_t runnable_ = 0;  // live threads, parked spinners included
  bool running_ = false;
  // Parking is on (see parking_enabled()).
  bool parking_ = false;
  // Parked spinners, unordered. Their ready-queue slots hold the sentinel.
  std::vector<Spinner> spinners_;
  // catch_up() scratch, kept to avoid allocating per decision.
  std::vector<Moved> moved_;
  std::vector<std::pair<std::size_t, std::size_t>> chain_;
};

// --- SimThread tick-path inlines (need the Scheduler definition) ---

ELISION_ALWAYS_INLINE void SimThread::advance(std::uint64_t cycles) {
  // Saturate instead of wrapping: casting a double >= 2^64 to uint64_t is
  // undefined, and a wrapped clock near kFinishedClock (reachable through a
  // perturbation jump) would re-sort this thread to the front of the
  // schedule; a live thread also must never hold the finished sentinel
  // itself. Per-access cycle counts sit far below the precomputed bound and
  // live clocks far below 2^63, so the two checks cost two always-predicted
  // integer branches and the fast path is the seed's unchecked arithmetic
  // (the multiplier is exactly 1.0 with no live sibling, and the double
  // round-trip is exact for per-access cycle counts, so this is
  // bit-identical to the unscaled addition in that case).
  if (cycles >= sched_.advance_fast_cycles_ ||
      static_cast<std::int64_t>(vclock_) < 0) [[unlikely]] {
    advance_slow(cycles);
  } else {
    vclock_ += static_cast<std::uint64_t>(
        static_cast<double>(cycles) * sched_.core_penalty_[core_]);
  }
  if (sched_.batch_) return;  // slot is parked; maybe_yield compares against
                              // the cached switch bound instead
  sched_.ready_.set(tid_, vclock_);
  if (vclock_ > sched_.max_clock_) sched_.max_clock_ = vclock_;
}

ELISION_ALWAYS_INLINE void SimThread::maybe_yield() {
  if (sched_.batch_) {
    // One compare against the bound cached at switch-in. Equivalent to the
    // legacy condition below: the bound is min-over-others + slack, and
    // `vclock_ > min(vclock_, others) + slack` can only fire via the others
    // term (a clock never exceeds itself plus a non-negative slack).
    if (vclock_ > sched_.switch_bound_) [[unlikely]] {
      sched_.yield_over_bound(*this);
    }
    return;
  }
  // The ready queue hands back the minimum runnable clock (the yield
  // condition) and its lowest-tid holder (the thread to resume) — the same
  // (min, argmin) the old fused sweep produced.
  const ReadyQueue::Entry best = sched_.ready_.min_entry();
  if (vclock_ > best.clock + sched_.config_.yield_slack_cycles) {
    // best.clock < vclock_ and clock_of(tid_) == vclock_, so best.tid is
    // never this thread.
    sched_.switch_counted(
        *this, *sched_.threads_[static_cast<std::size_t>(best.tid)]);
  }
}

inline bool SimThread::stop_requested() const {
  return vclock_ >= sched_.deadline_;
}

}  // namespace elision::sim
