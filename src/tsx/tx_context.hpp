// Per-simulated-thread transactional state.
#pragma once

#include <array>
#include <csetjmp>
#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "support/align.hpp"
#include "support/check.hpp"
#include "support/flat_map.hpp"
#include "tsx/abort.hpp"
#include "tsx/config.hpp"
#include "tsx/line_table.hpp"
#include "tsx/stats.hpp"

namespace elision::tsx {

class Engine;

enum class TxState : std::uint8_t {
  kInactive,     // not in a transaction
  kActive,       // speculative execution in progress
  kAbortMarked,  // a requestor-wins conflict doomed this transaction; it
                 // aborts at its next engine interaction
};

// How XACQUIRE/XRELEASE-tagged lock operations behave for this thread right
// now. The elision region drivers flip this between speculative attempts and
// the non-transactional re-execution that follows an abort.
enum class ElisionMode : std::uint8_t {
  kStandard,     // elidable ops execute as plain atomic RMWs
  kSpeculative,  // an XACQUIRE op begins a transaction and elides the store
};

// The per-thread transaction context. This is also the "ctx" handle that all
// workload code passes around: it identifies the thread, gives access to its
// clock/RNG, and carries the speculative state.
class TxContext {
 public:
  TxContext(Engine& engine, sim::SimThread& thread)
      : engine_(&engine), thread_(&thread), id_(thread.tid()) {
    // The line table indexes ThreadSet words by id; an id at or past
    // kMaxThreads would corrupt conflict detection for some other thread.
    // Mirrors the lock slot-array bounds checks.
    ELISION_CHECK_MSG(id_ >= 0 && id_ < kMaxThreads,
                      "thread id out of range for the reader mask "
                      "(tsx::kMaxThreads)");
  }

  Engine& engine() { return *engine_; }
  sim::SimThread& thread() { return *thread_; }
  int id() const { return id_; }

  bool in_tx() const { return state_ != TxState::kInactive; }

  TxStats& stats() { return stats_; }
  const TxStats& stats() const { return stats_; }

  ElisionMode mode() const { return mode_; }
  void set_mode(ElisionMode m) { mode_ = m; }

  // Abort feedback (the paper's future-work direction: "utilizing abort
  // information provided by the hardware, such as the location in which a
  // conflict occurs, and/or the identity of the conflicting thread").
  // Valid after the last abort of this thread; 0 / -1 when the abort had no
  // associated conflict.
  support::LineId last_conflict_line() const { return last_conflict_line_; }
  int last_conflict_thread() const { return last_conflict_thread_; }
  // Cause of this thread's most recent abort (kNone before the first one).
  // The region drivers use it to attribute failed attempts in RegionResult.
  AbortCause last_abort_cause() const { return last_abort_cause_; }

 private:
  friend class Engine;

  Engine* engine_;
  sim::SimThread* thread_;
  int id_;

  TxState state_ = TxState::kInactive;
  int nest_depth_ = 0;
  std::uint64_t begin_time_ = 0;  // virtual time of xbegin (age for TLR)
  AbortCause pending_cause_ = AbortCause::kNone;
  ElisionMode mode_ = ElisionMode::kStandard;
  support::LineId last_conflict_line_ = 0;
  int last_conflict_thread_ = -1;
  AbortCause last_abort_cause_ = AbortCause::kNone;
  support::LineId pending_conflict_line_ = 0;
  int pending_conflict_thread_ = -1;
  // Status word of this thread's most recent abort: what an abort
  // checkpoint returns (Engine::checkpoint).
  unsigned last_abort_status_ = 0;
  // The armed abort checkpoint, or null. An abort with one armed returns
  // through it by longjmp instead of throwing TxAbortException.
  std::jmp_buf* checkpoint_ = nullptr;

  // Read set: records whose reader bit this tx holds in the line table.
  // Raw pointers are safe: records never move (chunked storage) and the
  // table is never cleared while a transaction is live, so commit/abort
  // release with one deref per line and no re-probing or validation.
  std::vector<LineRecord*> read_lines_;
  // Write set: records whose writer slot this tx holds.
  std::vector<LineRecord*> write_lines_;
  // Write-set L1 occupancy per cache set (capacity model).
  std::array<std::uint8_t, 64> l1_set_occupancy_{};

  // Buffered transactional writes (word granularity; published at commit).
  support::WordMap wbuf_;

  // Per-access (line -> record) memos, direct-mapped by the low bits of the
  // line id. Each is validated by the table's generation stamp on every use,
  // so it needs no invalidation here: record pointers survive index growth
  // by construction and clear() invalidates them via the stamp.
  static constexpr std::size_t kLineCacheWays = 64;
  std::array<LineTable::Cache, kLineCacheWays> line_cache_{};

  LineTable::Cache& line_cache_for(support::LineId line) {
    return line_cache_[static_cast<std::size_t>(line) & (kLineCacheWays - 1)];
  }

  // HLE elision of a single lock word.
  bool elided_ = false;
  bool elided_is_tx_root_ = false;     // tx was begun by the XACQUIRE itself
  bool lock_line_data_accessed_ = false;  // Ch.7: lock line touched as data
  std::uintptr_t elided_addr_ = 0;
  support::LineId elided_line_ = 0;    // line_of(elided_addr_), cached once
  std::uint64_t elided_original_ = 0;  // value XRELEASE must restore
  std::uint64_t elided_illusion_ = 0;  // value this thread sees (the lock "held")

  TxStats stats_;

  // The line this thread's parked spin-wait watches (Engine::spin_until),
  // or null when it is not parked. Last, off the access paths' lines.
  LineRecord* spin_rec_ = nullptr;
};

// Workload code refers to the context simply as Ctx.
using Ctx = TxContext;

}  // namespace elision::tsx
