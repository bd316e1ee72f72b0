// Per-thread transactional execution statistics.
#pragma once

#include <array>
#include <cstdint>

#include "tsx/abort.hpp"

namespace elision::tsx {

struct TxStats {
  std::uint64_t begins = 0;    // transactions started
  std::uint64_t commits = 0;   // transactions committed
  std::uint64_t aborts = 0;    // transactions aborted (any cause)
  std::array<std::uint64_t, static_cast<std::size_t>(AbortCause::kCauseCount)>
      aborts_by_cause{};

  void record_abort(AbortCause cause) {
    ++aborts;
    ++aborts_by_cause[static_cast<std::size_t>(cause)];
  }

  TxStats& operator+=(const TxStats& o) {
    begins += o.begins;
    commits += o.commits;
    aborts += o.aborts;
    for (std::size_t i = 0; i < aborts_by_cause.size(); ++i) {
      aborts_by_cause[i] += o.aborts_by_cause[i];
    }
    return *this;
  }
};

}  // namespace elision::tsx
