// Software-assisted lock removal (SLR) — Ch. 4.
//
// The critical section runs transactionally without touching the lock until
// it is ready to commit; it then reads the lock and commits only if the lock
// is free. Unlike elision there is no lock acquisition to elide, so
// speculation can proceed (partially) even while the lock is held
// non-speculatively. Pessimistic SLR gives up after one failure; optimistic
// SLR retries 10 times. Conflict management (SCM) composes with SLR by
// serializing conflicting threads on the auxiliary lock.
#pragma once

#include "locks/region.hpp"
#include "support/function_ref.hpp"
#include "tsx/engine.hpp"

namespace elision::locks {

struct SlrParams {
  int max_attempts = 10;  // 1 = pessimistic, 10 = optimistic (Sec 5.1)
  bool scm = false;
  int scm_max_retries = 10;

  friend bool operator==(const SlrParams&, const SlrParams&) = default;
};

template <typename MainLock, typename AuxLock>
RegionResult slr_region(tsx::Ctx& ctx, MainLock& main, AuxLock& aux,
                        const SlrParams& params,
                        support::FunctionRef<void()> body,
                        AccessMode mode = AccessMode::kExclusive) {
  auto& eng = ctx.engine();
  RegionResult r;
  int failures = 0;
  int retries = 0;
  bool aux_owner = false;
  for (;;) {
    ++r.attempts;
    const unsigned st = eng.run_transaction(ctx, [&] {
      body();
      // Lock removal: consult the lock only at commit time. In shared mode
      // only a writer blocks the commit. Nothing follows the check, so its
      // result needs no test: run_transaction sees an abort either way.
      detail::subscribe_lock(ctx, main, mode);
    });
    if (st == tsx::kCommitted) {
      r.speculative = true;
      if (aux_owner) eng.note_event(ctx, tsx::EventKind::kAuxRejoin);
      break;
    }
    r.last_abort = ctx.last_abort_cause();
    ++failures;
    // Tuning (Sec 5.1): when the abort status says a retry cannot succeed
    // (e.g. capacity), switch to a non-speculative execution immediately —
    // before joining the aux-lock queue, which would serialize this thread
    // behind the conflict group for nothing.
    if ((st & tsx::status::kRetry) == 0) {
      complete_locked(ctx, main, r, body, mode);
      break;
    }
    bool give_up;
    if (params.scm) {
      if (!aux_owner) {
        eng.note_event(ctx, tsx::EventKind::kAuxEnter);
        aux.lock(ctx);
        aux_owner = true;
      } else {
        ++retries;
      }
      give_up = retries >= params.scm_max_retries;
    } else {
      give_up = failures >= params.max_attempts;
    }
    if (give_up) {
      complete_locked(ctx, main, r, body, mode);
      break;
    }
  }
  if (aux_owner) {
    aux.unlock(ctx);
    eng.note_event(ctx, tsx::EventKind::kAuxExit);
  }
  return r;
}

}  // namespace elision::locks
