// Software-assisted conflict management — the paper's main contribution
// (Ch. 4, Algorithm 3).
//
// Conflicting threads serialize on an *auxiliary* lock that is only ever
// acquired non-transactionally, then rejoin the speculative execution; the
// main lock is acquired for real only after MAX_RETRIES further failures.
// Because the aux lock's cache line is touched only by threads already in
// conflict, the serialization never disturbs the non-conflicting
// speculators — eliminating the avalanche.
//
// Two variants:
//  * the design of Algorithm 3: an RTM transaction nests an HLE acquisition
//    of the main lock, preserving the "lock is held" illusion. Haswell
//    cannot nest HLE in RTM, so this needs TsxConfig::allow_hle_in_rtm.
//  * the paper's evaluated workaround (Ch. 4 Remark): the transaction reads
//    the main lock and aborts if it is held.
#pragma once

#include "locks/region.hpp"
#include "support/function_ref.hpp"
#include "tsx/engine.hpp"

namespace elision::locks {

struct ScmParams {
  // "the thread holding the auxiliary lock retries to complete its operation
  // speculatively 10 times before giving up and acquiring the main lock"
  // (Sec 5.1, Conflict management tuning).
  int max_retries = 10;
  bool nested_hle = false;  // Algorithm 3 as designed (needs allow_hle_in_rtm)

  friend bool operator==(const ScmParams&, const ScmParams&) = default;
};

template <typename MainLock, typename AuxLock>
RegionResult scm_region(tsx::Ctx& ctx, MainLock& main, AuxLock& aux,
                        const ScmParams& params,
                        support::FunctionRef<void()> body,
                        AccessMode mode = AccessMode::kExclusive) {
  auto& eng = ctx.engine();
  RegionResult r;
  int retries = 0;
  bool aux_owner = false;
  for (;;) {
    // --- primary path ---
    ++r.attempts;
    unsigned st;
    if (params.nested_hle) {
      st = eng.run_transaction(ctx, [&] {
        ctx.set_mode(tsx::ElisionMode::kSpeculative);
        // HLE acquire (exclusive or shared) nested in the RTM transaction;
        // the XRELEASE validates the elision. As in hle_region, both lock
        // phases are abort checkpoints; after an abort in the acquire the
        // body must not run.
        if (eng.checkpoint(ctx, [&] { detail::mode_lock(ctx, main, mode); }) !=
            tsx::kCommitted) {
          return;
        }
        body();
        eng.checkpoint(ctx, [&] { detail::mode_unlock(ctx, main, mode); });
      });
      ctx.set_mode(tsx::ElisionMode::kStandard);
    } else {
      st = eng.run_transaction(ctx, [&] {
        if (detail::subscribe_lock(ctx, main, mode)) body();
      });
    }
    if (st == tsx::kCommitted) {
      r.speculative = true;
      // The conflicting thread completed speculatively while serialized on
      // the aux lock: it has rejoined the speculative execution (Ch. 4).
      if (aux_owner) eng.note_event(ctx, tsx::EventKind::kAuxRejoin);
      break;
    }
    r.last_abort = ctx.last_abort_cause();
    // Tuning (Sec 5.1), as in slr_region: an abort status without RETRY
    // (e.g. capacity) means no re-execution can ever commit — serializing
    // max_retries hopeless attempts on the aux lock would only stall the
    // conflict group. Complete non-speculatively right away, without even
    // acquiring the aux lock if this was the first failure.
    if ((st & tsx::status::kRetry) == 0) {
      complete_locked(ctx, main, r, body, mode);
      break;
    }
    // --- serializing path ---
    if (!aux_owner) {
      eng.note_event(ctx, tsx::EventKind::kAuxEnter);
      aux.lock(ctx);  // standard, non-transactional acquire
      aux_owner = true;
    } else {
      ++retries;
    }
    if (retries >= params.max_retries) {
      // Standard acquire: run non-speculatively.
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
