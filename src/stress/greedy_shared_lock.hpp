// A deliberately broken two-mode lock: readers ignore writer intent.
//
// The correct shared protocol (locks/shared_word.hpp) blocks new readers on
// kReaderBlockMask — the writer bit *or* a pending announcement — so a
// writer that announced intent sees the reader count drain. GreedySharedLock
// readers test only the writer bit: a continuous stream of readers keeps the
// count forever nonzero and the announcing writer starves. The window is
// behavioural, not a narrow race — but the unperturbed earliest-first
// schedule tends to briefly drain readers anyway; the perturbation layer's
// injected delays are what keep the reader crowd overlapped long enough for
// the lockout to exceed the watchdog thresholds.
//
// Self-test instrument for src/stress (stress_cli --selftest-shared): the
// RoleLockoutChecker / StarvationWatchdog must catch the planted writer
// starvation. Excluded from all_locks(); only meaningful under the standard
// (non-speculative) policy — it performs no XACQUIRE, so there is nothing
// to elide.
#pragma once

#include <cstdint>

#include "locks/shared_word.hpp"
#include "support/align.hpp"
#include "tsx/shared.hpp"

namespace elision::stress {

class GreedySharedLock {
 public:
  static constexpr const char* kName = "Greedy-Shared";
  static constexpr bool kIsFair = false;

  // --- exclusive mode (correct; mirrors SharedTtasLock's standard path) ---
  void lock(tsx::Ctx& ctx) {
    word().fetch_add(ctx, locks::rw::kPendingUnit);
    for (;;) {
      const std::uint64_t v = word().load(ctx);
      if ((v & locks::rw::kWriter) == 0 && readers().load(ctx) == 0) {
        if (word().compare_exchange(
                ctx, v, v - locks::rw::kPendingUnit + locks::rw::kWriter)) {
          return;
        }
        continue;
      }
      ctx.engine().pause(ctx);
    }
  }

  void unlock(tsx::Ctx& ctx) {
    word().fetch_add(ctx, std::uint64_t{0} - locks::rw::kWriter);
  }

  // --- shared mode (the planted bug) ---
  void lock_shared(tsx::Ctx& ctx) {
    for (;;) {
      // BUG: tests kWriter instead of kReaderBlockMask — pending writers
      // are invisible to readers, so readers barge past announced intent
      // and the writer never sees the count drain.
      word().spin_until(ctx, [](std::uint64_t v) {
        return (v & locks::rw::kWriter) == 0;
      });
      readers().fetch_add(ctx, 1);
      if ((word().load(ctx) & locks::rw::kWriter) == 0) return;
      readers().fetch_add(ctx, std::uint64_t{0} - 1);
    }
  }

  void unlock_shared(tsx::Ctx& ctx) {
    readers().fetch_add(ctx, std::uint64_t{0} - 1);
  }

  bool is_held(tsx::Ctx& ctx) {
    return word().load(ctx) != 0 || readers().load(ctx) != 0;
  }
  bool is_write_locked(tsx::Ctx& ctx) {
    return (word().load(ctx) & locks::rw::kReaderBlockMask) != 0;
  }
  void wait_write_unlocked(tsx::Ctx& ctx) {
    locks::rw::wait_readable(ctx, word());
  }

  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    lock(ctx);
    return true;
  }
  bool reissue_acquire_shared_standard(tsx::Ctx& ctx) {
    if ((word().load(ctx) & locks::rw::kWriter) != 0) return false;
    readers().fetch_add(ctx, 1);
    if ((word().load(ctx) & locks::rw::kWriter) == 0) return true;
    readers().fetch_add(ctx, std::uint64_t{0} - 1);
    return false;
  }

 private:
  tsx::Shared<std::uint64_t>& word() { return word_.value; }
  tsx::Shared<std::uint64_t>& readers() { return readers_.value; }

  support::CacheAligned<tsx::Shared<std::uint64_t>> word_;
  support::CacheAligned<tsx::Shared<std::uint64_t>> readers_;
};

}  // namespace elision::stress
