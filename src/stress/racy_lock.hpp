// A deliberately broken spinlock: the classic check-then-act race.
//
// lock() tests the word and then stores 1 in a *separate* access, so two
// threads can both observe 0 and both "acquire". The window between the
// test and the store is a handful of cycles wide — narrow enough that the
// unperturbed earliest-first schedule often never interleaves inside it,
// which is exactly what the schedule-exploration stress harness exists to
// do. This lock is a self-test instrument for src/stress (is the harness
// able to find and shrink a real interleaving bug?); it is excluded from
// all_locks() and must never be used as a baseline in experiments.
//
// Only meaningful under Scheme::kStandard: it performs no XACQUIRE, so
// there is nothing to elide.
#pragma once

#include <cstdint>

#include "support/align.hpp"
#include "tsx/shared.hpp"

namespace elision::stress {

class RacyLock {
 public:
  static constexpr const char* kName = "Racy";
  static constexpr bool kIsFair = false;

  void lock(tsx::Ctx& ctx) {
    wait_unheld(ctx);           // test ...
    word_.value.store(ctx, 1);  // ... then act: not atomic. The bug.
  }

  void unlock(tsx::Ctx& ctx) { word_.value.store(ctx, 0); }

  bool is_held(tsx::Ctx& ctx) { return word_.value.load(ctx) != 0; }
  void wait_unheld(tsx::Ctx& ctx) {
    word_.value.spin_until(ctx, [](std::uint64_t v) { return v == 0; });
  }

  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    lock(ctx);
    return true;
  }

 private:
  support::CacheAligned<tsx::Shared<std::uint64_t>> word_;
};

}  // namespace elision::stress
