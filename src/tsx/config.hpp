// Tunables of the simulated TSX implementation (Haswell-like defaults).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/machine_config.hpp"

namespace elision::tsx {

// Maximum simulated threads the TSX layer supports. The line table tracks
// readers and cached copies with one bit per thread in a ThreadSet (a fixed
// array of 64-bit words sized from this constant), so this equals — and
// must never exceed — the scheduler's own cap. Lock implementations size
// their per-thread slot arrays from this constant and bounds-check thread
// ids against it.
inline constexpr int kMaxThreads = sim::kMaxSimThreads;

// Default thread capacity of the ds/ node pools' per-thread free lists.
// The list count is workload-visible, not just a sizing hint: the pools'
// alloc() fallback scan performs one simulated load per list, so changing
// it perturbs schedules. It therefore stays at the historical 64-thread
// sizing independent of kMaxThreads; workloads on wider machines pass
// their own thread count to the pool constructors.
inline constexpr int kDefaultPoolThreads = 64;

// Conflict-management policy of the simulated TM.
//
// Haswell implements requestor-wins ("the thread that detects the data
// conflict will transactionally abort"), which the paper notes is prone to
// livelock [Bobba et al.] — the motivation for SCM. kOldestWins is the
// TLR-style alternative (Rajwar & Goodman, Ch. 8 related work): between two
// transactions the younger aborts, guaranteeing the oldest always makes
// progress. Non-transactional requests always win under either policy.
enum class ConflictPolicy {
  kRequestorWins,
  kOldestWins,
};

struct TsxConfig {
  ConflictPolicy conflict_policy = ConflictPolicy::kRequestorWins;

  // Write-set capacity: the L1 data cache (32 KB, 8-way, 64 sets of 64 B
  // lines). A transactional write that overflows its cache set aborts with
  // CAPACITY — this produces Figure 2.1's hard cliff at 32 KB.
  unsigned l1_sets = 64;
  unsigned l1_ways = 8;

  // Read-set tracking: precise while it fits in L1; beyond that a secondary
  // (bloom-filter-like) structure lets reads survive past L2 with a growing
  // chance of eviction aborts, and nothing survives past L3 (Fig 2.1).
  std::size_t l2_lines = 4096;     // 256 KB
  std::size_t l3_lines = 131072;   // 8 MB
  double read_evict_l2 = 1e-6;     // per-new-line abort prob in (L1, L2]
  double read_evict_l3_max = 5e-5; // per-new-line prob ramps to this at L3

  // Spurious aborts (Sec 2.2: present even in tiny conflict-free
  // transactions; Fig 2.1 measures a floor of ~1e-5..1e-4 per transaction).
  double spurious_per_begin = 4e-5;
  double spurious_per_access = 2e-7;

  // Haswell's initial TSX does not support HLE nested inside RTM (Ch. 4
  // Remark); setting this true models the paper's *intended* SCM design.
  bool allow_hle_in_rtm = false;

  // Chapter 7 hardware extension: distinguish lock-line conflicts from data
  // conflicts; speculators survive a non-speculative lock acquisition while
  // they stay within their cache footprint, suspending on a miss.
  bool hardware_extension = false;
  // Bound on the state-S suspension. A queue lock's word may never return
  // to its pre-elision value (the MCS tail holds arbitrary node pointers),
  // so real hardware would eventually abort the waiter via a timer
  // interrupt; we model that with a cycle bound.
  std::uint64_t hwext_max_wait_cycles = 50000;
};

}  // namespace elision::tsx
