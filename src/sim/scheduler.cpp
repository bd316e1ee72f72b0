#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <limits>

namespace elision::sim {

namespace {

constexpr const char* kLivelock =
    "simulation livelocked: every runnable thread is parked in a spin-wait, "
    "so nothing can write the words they wait on";

// spin() parks only below this clock, and catch_up() needs every target
// below twice it, so boundary arithmetic never nears the finished sentinel
// (nor advance()'s saturating range, which starts at 2^63).
constexpr std::uint64_t kParkClockLimit = std::uint64_t{1} << 62;
// Largest scaled step spin() accepts (far above any cost-model value).
constexpr double kMaxSpinStep = 4294967296.0;  // 2^32

constexpr std::size_t at(SpinPhase p) { return static_cast<std::size_t>(p); }

// True when (clock, tid) runs before the queue entry e: earlier clock, or
// the same clock and a lower tid.
bool runs_before(std::uint64_t clock, int tid, const ReadyQueue::Entry& e) {
  return clock < e.clock || (clock == e.clock && tid < e.tid);
}

}  // namespace

SimThread::SimThread(Scheduler& sched, int tid, std::uint64_t seed,
                     std::function<void(SimThread&)> body,
                     std::size_t stack_bytes)
    : sched_(sched),
      tid_(tid),
      core_(static_cast<unsigned>(tid) % sched.config().n_cores),
      sched_perturb_enabled_(sched.config().perturb.probability > 0),
      rng_(seed),
      perturb_rng_(sched.config().perturb.seed * 0xA0761D6478BD642FULL +
                   0xE7037ED1A0B428DBULL * static_cast<std::uint64_t>(tid + 1)),
      body_(std::move(body)),
      fiber_(&SimThread::entry, this, stack_bytes) {}

void SimThread::entry(void* self) {
  Fiber::on_fiber_entry();  // ASan stack-switch bookkeeping; no-op otherwise
  auto* t = static_cast<SimThread*>(self);
  try {
    t->body_(*t);
  } catch (const std::exception& e) {
    ELISION_CHECK_MSG(false, e.what());
  } catch (...) {
    ELISION_CHECK_MSG(false, "unknown exception escaped a simulated thread");
  }
  t->sched_.finish_from(*t);  // never returns
}

void SimThread::yield() { sched_.yield_from(*this); }

void SimThread::advance_slow(std::uint64_t cycles) {
  const double scaled =
      static_cast<double>(cycles) * sched_.core_penalty_[core_];
  std::uint64_t delta;
  if (scaled >= 18446744073709551616.0 /* 2^64 */) {
    delta = Scheduler::kFinishedClock;
  } else {
    delta = static_cast<std::uint64_t>(scaled);
  }
  if (delta >= Scheduler::kFinishedClock - 1 - vclock_) {
    vclock_ = Scheduler::kFinishedClock - 1;
  } else {
    vclock_ += delta;
  }
}

void SimThread::maybe_perturb() {
  const PerturbConfig& p = sched_.config().perturb;
  if (!perturb_rng_.next_bool(p.probability)) return;
  if (!sched_.consume_perturb_point()) return;
  // The delay alone changes the interleaving: the earliest-first scheduler
  // re-sorts this thread behind everyone it jumped over at the maybe_yield()
  // that follows in tick().
  advance(1 + perturb_rng_.next_below(p.max_delay_cycles));
}

Scheduler::Scheduler(MachineConfig config)
    : config_(config),
      batch_(config.batch_switch_bound),
      parking_(config.batch_switch_bound && config.yield_slack_cycles == 0 &&
               config.perturb.probability == 0) {
  ELISION_CHECK(config_.n_cores >= 1);
  // Fast-path bound for advance(): any cycles below it scale to a delta
  // under 2^53 even at the worst per-core multiplier, so together with a
  // clock below 2^63 the unchecked addition cannot overflow or touch the
  // finished sentinel. The product rounds to nearest, so cap the quotient
  // at 2^53 and leave one bit of headroom.
  const double worst = std::max(1.0, config_.smt_slowdown);
  const double bound = 9007199254740992.0 /* 2^53 */ / worst;
  advance_fast_cycles_ = static_cast<std::uint64_t>(
      std::min(bound, 9007199254740992.0 / 2.0));
  core_active_.assign(config_.n_cores, 0);
  core_penalty_.assign(config_.n_cores, 1.0);
}

Scheduler::~Scheduler() {
  // All fibers must have run to completion; destroying a suspended fiber
  // would leak whatever RAII state lives on its stack.
  for (const auto& t : threads_) {
    ELISION_CHECK_MSG(t->finished(),
                      "Scheduler destroyed with unfinished simulated threads");
  }
}

SimThread& Scheduler::spawn(std::function<void(SimThread&)> body) {
  ELISION_CHECK_MSG(!running_, "spawn() during run() is not supported");
  const int tid = static_cast<int>(threads_.size());
  ELISION_CHECK_MSG(tid < kMaxSimThreads,
                    "at most kMaxSimThreads simulated threads");
  threads_.push_back(std::make_unique<SimThread>(
      *this, tid, config_.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL * (tid + 1),
      std::move(body), config_.fiber_stack_bytes));
  const int ready_tid = ready_.add_thread();
  ELISION_CHECK(ready_tid == tid);
  ++runnable_;
  SimThread& t = *threads_.back();
  ++core_active_[t.core_];
  update_core_penalty(t.core_);
  return t;
}

SimThread* Scheduler::pick_next() const {
  if (runnable_ == 0) return nullptr;
  const ReadyQueue::Entry best = ready_.min_entry();
  if (best.clock == kFinishedClock) return nullptr;  // only spinners left
  return threads_[static_cast<std::size_t>(best.tid)].get();
}

void Scheduler::yield_from(SimThread& t) {
  // Counted before the same-thread early-out so that max_switches also
  // catches a thread yielding forever without advancing its clock.
  count_decision();
  if (batch_) {
    // The caller's slot is parked, so the queue's (min, argmin) covers the
    // other threads only. Reproduce the global first-index-wins pick: an
    // other thread beats the caller only with a strictly smaller clock, or
    // an equal clock and a lower tid (a sentinel min means no other runnable
    // thread, so the caller keeps running either way).
    const ReadyQueue::Entry best = ready_.min_entry();
    const bool stay = runs_before(t.vclock_, t.tid_, best);
    if (spin_min_ != kFinishedClock) {
      if (stay) {
        catch_up(t.vclock_, t.tid_);
        set_bound(best.clock);
        return;
      }
      catch_up(best.clock, best.tid);
    } else if (stay) {
      return;
    }
    SimThread& next = *threads_[static_cast<std::size_t>(best.tid)];
    exchange_and_bound(t, next);
    current_ = &next;
    Fiber::switch_to(t.fiber_, next.fiber_);
    return;
  }
  SimThread* next = pick_next();
  ELISION_DCHECK(next != nullptr);  // t itself is runnable
  if (next == &t) return;
  current_ = next;
  Fiber::switch_to(t.fiber_, next->fiber_);
}

void Scheduler::yield_over_bound(SimThread& t) {
  // Counted unconditionally (mirrors switch_counted) so that max_switches
  // also catches a thread yielding forever without advancing its clock.
  count_decision();
  const ReadyQueue::Entry best = ready_.min_entry();
  if (spin_min_ != kFinishedClock) {
    // The bound may have fired on a parked spinner. The unparked loops
    // would run now, and then the earliest real thread, which may be the
    // caller itself: it then keeps running, with no fiber switch.
    if (runs_before(t.vclock_, t.tid_, best)) {
      catch_up(t.vclock_, t.tid_);
      set_bound(best.clock);
      return;
    }
    catch_up(best.clock, best.tid);
  }
  // The bound fired on a real thread, whose clock sits at least a slack
  // below vclock_: the queue's (min, argmin) is a live thread and is the
  // global argmin (the caller's own clock is strictly larger, so it can
  // neither win nor tie).
  ELISION_DCHECK(best.clock < t.vclock_);
  SimThread& next = *threads_[static_cast<std::size_t>(best.tid)];
  exchange_and_bound(t, next);
  current_ = &next;
  Fiber::switch_to(t.fiber_, next.fiber_);
}

void Scheduler::finish_from(SimThread& t) {
  t.finished_ = true;
  ready_.set(t.tid_, kFinishedClock);  // already parked there under batching
  // Under batching the final clock was never folded into the running max
  // (advance() skips it); a no-op otherwise.
  if (t.vclock_ > max_clock_) max_clock_ = t.vclock_;
  --runnable_;
  // The spinners on t's core run their next actions at the new penalty.
  --core_active_[t.core_];
  update_core_penalty(t.core_);
  ++switches_;
  SimThread* next = pick_next();
  current_ = next;
  if (next != nullptr) {
    if (spin_min_ != kFinishedClock) catch_up(next->vclock_, next->tid_);
    if (batch_) park_and_bound(*next);
    Fiber::switch_to(t.fiber_, next->fiber_);
  } else {
    ELISION_CHECK_MSG(spinners_.empty(), kLivelock);
    Fiber::switch_to(t.fiber_, host_);
  }
  ELISION_CHECK_MSG(false, "resumed a finished simulated thread");
  std::abort();
}

// ---------------------------------------------------------------------------
// Spin-waits (docs/simulator.md, "Spin-waits")
//
// A parked spinner's loop has no effect but its clock until its line is
// written, so only two things about it are observable: where its clock
// stands when a real thread acts, and the bound it imposes on the running
// thread (which yields when its clock passes any other clock). The
// scheduler therefore keeps no fiber switches for it. At every decision it
// finds the real thread (c, t) that runs next and moves each spinner to
// where the unparked schedule would have left it at that moment:
//
//   - Under zero slack the running thread keeps going while its clock is at
//     most every other clock, and a switch picks the least (clock, tid).
//     Spinner actions below c therefore all run before t does, in start
//     order, and none at or past c does, except those at exactly c with a
//     lower tid than t.
//   - So a spinner stops at its first action boundary b with
//     (b, tid) > (c, t); one that stops at b == c still has its action at
//     c ahead of t's. Exception: the spinner that ran the last action
//     starting below c was still the running thread when it landed; if it
//     landed exactly on c, it kept running through c (a running thread
//     continues on a tie), whatever its tid.
//   - Among actions that start at the same clock, the running thread that
//     landed there goes first and the rest follow by tid, so the last one
//     is the highest tid, or the second highest when the highest landed
//     there as the running thread. last_starter() walks those ties back.
// ---------------------------------------------------------------------------

SpinPhase Scheduler::spin(SimThread& t, SpinPhase next,
                          std::uint64_t load_cycles,
                          std::uint64_t pause_cycles) {
  ELISION_DCHECK(parking_ && current_ == &t);
  const double penalty = core_penalty_[t.core_];
  if (t.vclock_ >= kParkClockLimit || load_cycles == 0 || pause_cycles == 0 ||
      static_cast<double>(std::max(load_cycles, pause_cycles)) * penalty >=
          kMaxSpinStep) {
    return next;  // outside the closed form's range: keep looping
  }
  Spinner s;
  s.clock = t.vclock_;
  s.raw[at(SpinPhase::kLoad)] = static_cast<std::uint32_t>(load_cycles);
  s.raw[at(SpinPhase::kPause)] = static_cast<std::uint32_t>(pause_cycles);
  s.step[0] = scaled(s.raw[0], penalty);
  s.step[1] = scaled(s.raw[1], penalty);
  s.tid = static_cast<std::int16_t>(t.tid_);
  s.core = static_cast<std::uint16_t>(t.core_);
  s.phase = next;
  if (s.step[0] == 0 || s.step[1] == 0) return next;
  count_decision();
  ELISION_CHECK_MSG(switch_bound_ != kFinishedClock, kLivelock);
  // t is the running thread: its loop keeps going while its clock is at
  // most the bound, and stops at the first action boundary past it.
  const std::uint64_t period = std::uint64_t{s.step[0]} + s.step[1];
  const std::uint64_t gap = switch_bound_ - s.clock;
  if (gap >= period) s.clock += gap / period * period;
  while (s.clock <= switch_bound_) s.step_once();
  if (s.clock > max_clock_) max_clock_ = s.clock;
  spinners_.push_back(s);
  spin_min_ = std::min(spin_min_, s.clock);
  const ReadyQueue::Entry best = ready_.min_entry();
  ELISION_CHECK_MSG(best.clock != kFinishedClock, kLivelock);
  catch_up(best.clock, best.tid);
  SimThread& nx = *threads_[static_cast<std::size_t>(best.tid)];
  current_ = &nx;
  park_and_bound(nx);
  Fiber::switch_to(t.fiber_, nx.fiber_);
  return t.spin_phase_;  // woken: vclock_ and spin_phase_ were set by unpark
}

void Scheduler::unpark(const Spinner& s) {
  SimThread& w = *threads_[static_cast<std::size_t>(s.tid)];
  w.vclock_ = s.clock;
  w.spin_phase_ = s.phase;
  ready_.set(s.tid, s.clock);
}

void Scheduler::catch_up(std::uint64_t c, int t) {
  if (spin_min_ > c) return;  // every spinner is past c
  ELISION_CHECK_MSG(c < 2 * kParkClockLimit,
                    "virtual clock beyond 2^63 with parked spin-waiters");
  moved_.clear();
  std::uint64_t lo = kFinishedClock;
  bool landed_on_c = false;
  for (std::size_t base = 0; base < spinners_.size(); base += 64) {
    // Which spinners run before (c, t) is data-dependent: gather them in a
    // mask without branching, then visit only those.
    const std::size_t end = std::min(spinners_.size(), base + 64);
    std::uint64_t movers = 0;
    for (std::size_t i = base; i < end; ++i) {
      const Spinner& s = spinners_[i];
      const bool runs = s.clock < c || (s.clock == c && s.tid < t);
      movers |= std::uint64_t{runs} << (i - base);
      lo = std::min(lo, runs ? kFinishedClock : s.clock);
    }
    for (; movers != 0; movers &= movers - 1) {
      const std::size_t i =
          base + static_cast<std::size_t>(std::countr_zero(movers));
      Spinner& s = spinners_[i];
      moved_.push_back({i, s.clock, s.phase, 0, s.phase, false});
      const bool below = s.clock < c;
      if (below) {
        // Land on the first boundary at or after c: skip whole periods
        // while staying below c, then one or two steps.
        const std::uint64_t period = std::uint64_t{s.step[0]} + s.step[1];
        const std::uint64_t gap = c - s.clock;
        if (gap > period) [[unlikely]] {
          s.clock += (gap - 1) / period * period;
        }
        do {
          s.step_once();
        } while (s.clock < c);
      }
      if (s.clock == c && s.tid < t) s.step_once();  // acts at c before t
      landed_on_c |= below && s.clock == c;
      lo = std::min(lo, s.clock);
      max_clock_ = std::max(max_clock_, s.clock);
    }
  }
  if (landed_on_c) [[unlikely]] lo = resolve_landing_on(c, lo);
  spin_min_ = lo;
}

std::uint64_t Scheduler::resolve_landing_on(std::uint64_t c, std::uint64_t lo) {
  // The spinner that ran the last action starting below c was still the
  // running thread when it landed. If it landed exactly on c it went on
  // through c, whatever its tid (those below t already did). Candidates
  // start that action at the latest such clock, and only the top two tids
  // among them can be it.
  std::uint64_t top = 0;
  std::size_t a = 0;  // highest tid among the candidates
  std::size_t b = 0;  // second highest
  int n = 0;
  for (std::size_t j = 0; j < moved_.size(); ++j) {
    Moved& m = moved_[j];
    m.active = m.start < c;
    if (!m.active) continue;
    // Replay the landing to find the start of its last action below c.
    Spinner s = spinners_[m.idx];
    s.clock = m.start;
    s.phase = m.start_phase;
    const std::uint64_t period = std::uint64_t{s.step[0]} + s.step[1];
    if (c - s.clock > period) s.clock += (c - s.clock - 1) / period * period;
    do {
      m.last = s.clock;
      m.last_phase = s.phase;
      s.step_once();
    } while (s.clock < c);
    const int tid = s.tid;
    if (n == 0 || m.last > top) {
      top = m.last;
      a = j;
      n = 1;
    } else if (m.last == top) {
      if (n == 1 || tid > spinners_[moved_[b].idx].tid) b = j;
      if (tid > spinners_[moved_[a].idx].tid) std::swap(a, b);
      ++n;
    }
  }
  const auto on_c = [&](std::size_t j) {
    return spinners_[moved_[j].idx].clock == c;
  };
  if (!on_c(a) && !(n > 1 && on_c(b))) return lo;
  const std::size_t last = n == 1 ? a : last_starter(top);
  if (!on_c(last)) return lo;
  Spinner& s = spinners_[moved_[last].idx];
  s.step_once();
  max_clock_ = std::max(max_clock_, s.clock);
  if (lo != c) return lo;
  lo = kFinishedClock;
  for (const Spinner& o : spinners_) lo = std::min(lo, o.clock);
  return lo;
}

std::size_t Scheduler::last_starter(std::uint64_t x) {
  // Cursor per candidate: the start of its latest action below the level
  // being examined. Each level's order depends on whether its highest tid
  // landed there as the running thread, i.e. ran the last action of the
  // level below; walk down until that is decided, then resolve upward.
  chain_.clear();
  std::size_t last = 0;
  for (;;) {
    std::size_t a = 0;
    std::size_t b = 0;
    int n = 0;
    for (std::size_t j = 0; j < moved_.size(); ++j) {
      Moved& m = moved_[j];
      if (!m.active || m.last != x) continue;
      const Spinner& s = spinners_[m.idx];
      if (n == 0 || s.tid > spinners_[moved_[a].idx].tid) {
        b = a;
        a = j;
      } else if (n == 1 || s.tid > spinners_[moved_[b].idx].tid) {
        b = j;
      }
      ++n;
      // Step this cursor back one action; catch-up began at m.start.
      if (m.last == m.start) {
        m.active = false;
      } else {
        m.last_phase = other_phase(m.last_phase);
        m.last -= s.step[at(m.last_phase)];
      }
    }
    // Did `a` land on x as the running thread? Only if its previous action
    // started at the level just below x and was that level's last.
    if (n == 1 || !moved_[a].active) {
      last = a;
      break;
    }
    std::uint64_t below = 0;
    for (const Moved& m : moved_) {
      if (m.active && m.last > below) below = m.last;
    }
    if (moved_[a].last != below) {
      last = a;
      break;
    }
    chain_.push_back({a, b});
    x = below;
  }
  // Level by level upward: the highest tid goes last unless it was the
  // running thread carried in from below, which goes first.
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
    last = last == it->first ? it->second : it->first;
  }
  return last;
}

void Scheduler::switch_from_host() {
  SimThread* next = pick_next();
  if (next == nullptr) return;
  running_ = true;
  current_ = next;
  ++switches_;
  if (batch_) park_and_bound(*next);
  Fiber::switch_to(host_, next->fiber_);
  // Control returns here only when the last thread finished.
  current_ = nullptr;
  running_ = false;
}

void Scheduler::run() {
  deadline_ = std::numeric_limits<std::uint64_t>::max();
  switch_from_host();
}

void Scheduler::run_for(std::uint64_t deadline_cycles) {
  deadline_ = deadline_cycles;
  switch_from_host();
}

}  // namespace elision::sim
