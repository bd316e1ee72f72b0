// Grouped software-assisted conflict management — the paper's future-work
// extension (Ch. 4 Remark): "grouping the conflicting threads in one group
// may be too strict since a single conflicting thread does not have to
// conflict with the entire group. A natural extension is dividing the
// conflicting threads into different groups, each containing only threads
// that conflict among themselves."
//
// This implementation uses the abort feedback the simulated hardware
// provides (the cache line on which the conflict occurred — exactly the
// information the thesis's "In the future" section asks the hardware for):
// an aborted thread serializes on aux_locks[hash(conflict_line) % K], so
// threads conflicting on *different* data serialize independently instead
// of funnelling through one auxiliary lock.
//
// Falls back to group 0 when the abort carried no conflict location (e.g. a
// spurious abort).
#pragma once

#include <array>

#include "locks/region.hpp"
#include "support/function_ref.hpp"
#include "tsx/engine.hpp"

namespace elision::locks {

struct GroupedScmParams {
  int max_retries = 10;

  friend bool operator==(const GroupedScmParams&,
                         const GroupedScmParams&) = default;
};

// A bank of K auxiliary locks for grouped conflict serialization. AuxLock
// must be starvation-free for the scheme to inherit fairness (Ch. 4).
template <typename AuxLock, int K = 8>
class AuxLockBank {
 public:
  static constexpr int kGroups = K;
  // `line_key` must be a run-stable identifier of the conflict line —
  // Engine::line_seq(), not the raw LineId (an address, so hashing it
  // would pick different groups every run and break reproducibility).
  AuxLock& group_for(std::uint64_t line_key) {
    // Mix the key so adjacent lines spread over groups.
    std::uint64_t x = line_key;
    x ^= x >> 17;
    x *= 0xED5AD4BBULL;
    x ^= x >> 11;
    return locks_[x % K];
  }
  AuxLock& group(int i) { return locks_[i]; }

 private:
  std::array<AuxLock, K> locks_;
};

template <typename MainLock, typename AuxBank>
RegionResult grouped_scm_region(tsx::Ctx& ctx, MainLock& main, AuxBank& bank,
                                const GroupedScmParams& params,
                                support::FunctionRef<void()> body,
                                AccessMode mode = AccessMode::kExclusive) {
  auto& eng = ctx.engine();
  RegionResult r;
  int retries = 0;
  typename std::remove_reference_t<decltype(bank.group(0))>* aux = nullptr;
  for (;;) {
    ++r.attempts;
    const unsigned st = eng.run_transaction(ctx, [&] {
      if (detail::subscribe_lock(ctx, main, mode)) body();
    });
    if (st == tsx::kCommitted) {
      r.speculative = true;
      if (aux != nullptr) eng.note_event(ctx, tsx::EventKind::kAuxRejoin);
      break;
    }
    r.last_abort = ctx.last_abort_cause();
    // No RETRY in the status (e.g. capacity): no re-execution can commit,
    // so don't burn max_retries serialized attempts — same short-circuit as
    // scm_region/slr_region.
    if ((st & tsx::status::kRetry) == 0) {
      complete_locked(ctx, main, r, body, mode);
      break;
    }
    // Serializing path: pick the group from the conflict location.
    if (aux == nullptr) {
      eng.note_event(ctx, tsx::EventKind::kAuxEnter,
                     ctx.last_conflict_line());
      aux = &bank.group_for(eng.line_seq(ctx.last_conflict_line()));
      aux->lock(ctx);
    } else {
      ++retries;
    }
    if (retries >= params.max_retries) {
      complete_locked(ctx, main, r, body, mode);
      break;
    }
  }
  if (aux != nullptr) {
    aux->unlock(ctx);
    eng.note_event(ctx, tsx::EventKind::kAuxExit);
  }
  return r;
}

}  // namespace elision::locks
