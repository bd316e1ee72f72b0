// The paper's red-black-tree benchmark as library code: a global-lock-
// protected tree, random insert/delete/lookup mix, fixed virtual duration,
// parameterised over (lock, scheme, size, mix, threads). The bench-suite
// driver, the figure and ablation benches, the CLIs (elide, trace_dump) and
// the shape tests all build and drive the tree through run_rb_point, so they
// measure one workload definition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "harness/runner.hpp"
#include "locks/adaptive.hpp"

namespace elision::harness {

enum class LockSel {
  kTtas,
  kMcs,
  kTicketAdj,
  kClhAdj,
  kTicket,
  kClh,
  kBackoffTtas,
};

// Display name ("TTAS", "Ticket-adj"; the lock's kName) and lower-case slug
// ("ttas", "ticket-adj"; point ids and the CLIs' --lock flag).
const char* lock_sel_name(LockSel s);
const char* lock_sel_slug(LockSel s);
// Inverse of lock_sel_slug; nullopt for an unknown slug.
std::optional<LockSel> parse_lock_sel(std::string_view slug);

// The adaptive controller's history after a run (Scheme::kAdaptive): the
// bounded decision trace, the migrations that fell off it, and the mode the
// run ended in.
struct AdaptiveTrace {
  std::vector<locks::AdaptiveDecision> decisions;
  std::uint64_t dropped = 0;
  locks::AdaptiveMode final_mode = locks::AdaptiveMode::kHle;
};

struct RbPoint {
  std::size_t size = 128;
  int update_pct = 20;  // split evenly between inserts and deletes
  int threads = 8;
  locks::ElisionPolicy scheme = locks::ElisionPolicy::standard();
  LockSel lock = LockSel::kTtas;
  double duration_sec = 0.003;
  // Collect an event trace and derive avalanche/rejoin statistics.
  bool telemetry = false;
  tsx::AvalancheConfig avalanche;
  // Runs averaged per point (different machine seeds). Avalanche latching
  // is bistable at short windows, so single runs have high variance.
  int seeds = 2;
  // Engine configuration: conflict policy, HLE-in-RTM nesting, the Ch. 7
  // hardware extension, spurious-abort rates.
  tsx::TsxConfig tsx;
  std::uint64_t timeline_slot_cycles = 0;
  std::uint64_t seed = 42;

  // Machine-shape overrides for big-machine scaling points; 0 keeps the
  // MachineConfig default (the paper's 4-core / 2-SMT i7). The suite emits
  // these into results JSON only when set, so historical baseline lines are
  // byte-identical.
  unsigned n_cores = 0;
  unsigned smt_per_core = 0;
  std::uint64_t yield_slack_cycles = 0;
  // kMicro suite points only (the suite stores their shape in an RbPoint):
  // fixed op count per thread and shared-line period overrides, 0 = the
  // MicroPoint defaults.
  std::uint64_t micro_ops = 0;
  std::uint64_t micro_shared_period = 0;

  // Host threads the multi-seed fan-out may use (support/parallel.hpp).
  // Each seed is an independent simulation; results are merged in seed
  // order, so any value produces byte-identical RunStats to host_threads=1
  // — only host wall time changes. Never affects a point with seeds <= 1.
  int host_threads = 1;

  // Out-param: fraction of TTAS lock arrivals that found the lock held
  // (the boxed series of Fig 3.1). Only filled for LockSel::kTtas.
  double* arrival_held_frac = nullptr;

  // Record into a caller-owned sink instead of a run-local one, so the raw
  // event stream outlives the run (BenchConfig::telemetry_sink). Implies
  // `telemetry`; single-seed points only.
  tsx::Telemetry* telemetry_sink = nullptr;
  // Out-param: the adaptive controller's decision trace. Single-seed points
  // only.
  AdaptiveTrace* adaptive_trace = nullptr;
};

// Builds the tree (random keys from a domain of 2*size, as in Ch. 3) and
// runs the benchmark for the configured virtual duration, once.
RunStats run_rb_point_once(const RbPoint& p);

// Accumulates `p.seeds` independent runs (the paper averages 10 three-second
// runs per point). Every RunStats field is merged, including per-slot
// timelines.
RunStats run_rb_point(const RbPoint& p);

// The paper's tree-size sweep (Fig 3.1 x-axis).
inline const std::size_t kTreeSizes[] = {2,    8,    32,   128,   512,
                                         2048, 8192, 32768, 131072, 524288};

struct Mix {
  const char* name;
  int update_pct;
};
inline const Mix kMixes[] = {
    {"lookups-only", 0},
    {"10i-10d-80l", 20},
    {"50i-50d", 100},
};

}  // namespace elision::harness
