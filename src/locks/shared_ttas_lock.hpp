// Shared-mode TTAS lock: the unfair member of the two-mode (reader-writer)
// lock family.
//
// Exclusive mode follows TTAS (Algorithm 1) shape: spin outside any
// transaction until the word looks claimable, then claim it with one tagged
// RMW. Under elision the XACQUIRE CMPXCHG subscribes to the word without
// storing, so elided writers — like elided readers — coexist until a data
// conflict or a real acquisition arbitrates. Shared mode is the common
// reader-writer protocol of locks/shared_word.hpp.
//
// Writer preference: a standard-mode writer first announces intent (the
// pending count), which blocks new readers; it claims the writer bit once
// the readers drain. Writers themselves are unordered (TTAS barging), so the
// lock is unfair among writers and can lock readers out under a continuous
// writer stream — the hazard stress::RoleLockoutChecker watches.
#pragma once

#include <cstdint>

#include "support/align.hpp"
#include "locks/shared_word.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {

class SharedTtasLock {
 public:
  static constexpr const char* kName = "Shared-TTAS";
  static constexpr bool kIsFair = false;

  // --- exclusive mode ---
  void lock(tsx::Ctx& ctx) {
    if (ctx.mode() == tsx::ElisionMode::kSpeculative) {
      // Elided writer: wait (outside the transaction) until the word is
      // free and the real readers drained, then subscribe via the elided
      // CMPXCHG. The in-transaction recheck of the reader count puts that
      // line in the read set too, so a real reader arriving mid-speculation
      // aborts the writer — it must, the reader runs unprotected. A failed
      // check while transactional cannot make progress (the illusion pins
      // the lines): the PAUSE aborts the attempt and the region driver
      // retries or falls back.
      for (;;) {
        while (word().load(ctx) != 0 || readers().load(ctx) != 0) {
          ctx.engine().pause(ctx);
        }
        if (word().xacquire_compare_exchange(ctx, 0, rw::kWriter) &&
            readers().load(ctx) == 0) {
          return;
        }
        ctx.engine().pause(ctx);
      }
    }
    // Standard mode: announce intent (blocks new readers), wait until no
    // writer holds the lock and the real readers drained, then claim —
    // moving this thread's pending unit into the writer bit.
    word().fetch_add(ctx, rw::kPendingUnit);
    for (;;) {
      const std::uint64_t v = word().load(ctx);
      if ((v & rw::kWriter) == 0 && readers().load(ctx) == 0) {
        if (word().compare_exchange(ctx, v,
                                    v - rw::kPendingUnit + rw::kWriter)) {
          return;
        }
        continue;
      }
      ctx.engine().pause(ctx);
    }
  }

  void unlock(tsx::Ctx& ctx) {
    // Elided: the illusion (writer bit) plus the decrement restores the
    // original free word, so the XRELEASE validates and commits. Standard:
    // drop the writer bit, leaving other writers' pending announcements and
    // transient reader increments intact (an unconditional store would
    // clobber them).
    word().xrelease_fetch_add(ctx, std::uint64_t{0} - rw::kWriter);
  }

  // --- shared mode ---
  void lock_shared(tsx::Ctx& ctx) {
    rw::lock_shared(ctx, word(), readers());
  }
  void unlock_shared(tsx::Ctx& ctx) {
    rw::unlock_shared(ctx, word(), readers());
  }

  bool is_held(tsx::Ctx& ctx) {
    return word().load(ctx) != 0 || readers().load(ctx) != 0;
  }
  // What blocks a *shared* acquisition: a writer holding or awaiting the
  // lock (other readers do not). The subscribe point for elided readers.
  bool is_write_locked(tsx::Ctx& ctx) {
    return (word().load(ctx) & rw::kReaderBlockMask) != 0;
  }
  // Spins until is_write_locked() reads false (the region drivers' wait).
  void wait_write_unlocked(tsx::Ctx& ctx) { rw::wait_readable(ctx, word()); }

  // Cache line of the elidable lock word (telemetry tagging).
  support::LineId lock_line() const { return support::line_of(&word_.value); }

  // Abort aftermath: one non-transactional re-issue of the claiming RMW
  // (TTAS semantics — may fail). A CAS rather than an exchange: an
  // unconditional store would clobber concurrent writers' pending
  // announcements. Unlike the announcing lock() path, this barging claim
  // must recheck the reader count *after* the CAS and back out if a real
  // reader got in — the CAS alone cannot see the separate reader line
  // (a reader increments first and rechecks the word second, so after the
  // recheck one of the two is guaranteed to observe the other and retreat).
  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    if (readers().load(ctx) != 0) return false;
    if (!word().compare_exchange(ctx, 0, rw::kWriter)) return false;
    if (readers().load(ctx) == 0) return true;
    word().fetch_add(ctx, std::uint64_t{0} - rw::kWriter);
    return false;
  }
  bool reissue_acquire_shared_standard(tsx::Ctx& ctx) {
    return rw::reissue_acquire_shared(ctx, word(), readers());
  }

 private:
  tsx::Shared<std::uint64_t>& word() { return word_.value; }
  tsx::Shared<std::uint64_t>& readers() { return readers_.value; }

  support::CacheAligned<tsx::Shared<std::uint64_t>> word_;
  // Real-reader count, deliberately on its own line (see shared_word.hpp).
  support::CacheAligned<tsx::Shared<std::uint64_t>> readers_;
};

}  // namespace elision::locks
