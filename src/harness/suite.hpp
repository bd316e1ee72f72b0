// Benchmark-suite orchestration: a curated, tiered set of (scheme x lock x
// workload) points, run through the shared harness and service workloads.
// The smoke and full tiers are hand-picked; the paper tier adds every run of
// the RB-tree figures of Ch. 3-7 and their ablations as axis sweeps, which
// scripts/figures.py renders into EXPERIMENTS.md's tables. The suite
// provides
//
//   - canonical machine-readable results (BENCH_results.json) carrying
//     per-point throughput, spec/nonspec fractions, attempts-per-op, the
//     abort-cause matrix and avalanche episode counts, plus run metadata
//     (seeds, duration scale, machine config, telemetry availability);
//   - regression gating against a committed baseline: every deterministic
//     field must match it exactly; and
//   - the paper's qualitative invariants (Ch. 5/6) checked on every run,
//     e.g. SCM >= plain HLE on the contended MCS point, adjusted ticket/CLH
//     locks committing speculatively when solo.
//
// tools/bench_suite is the CLI front-end; scripts/check.sh runs the smoke
// tier as a pre-merge gate. See docs/benchmarks.md for the schema and the
// baseline-update workflow.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "harness/bt_workload.hpp"
#include "harness/phase_workload.hpp"
#include "harness/rb_workload.hpp"
#include "service/kv_workload.hpp"
#include "support/json.hpp"
#include "tsx/abort.hpp"

namespace elision::harness {

inline constexpr int kSuiteSchemaVersion = 1;

// Each tier contains the ones before it: smoke ⊂ full ⊂ paper.
enum class SuiteTier { kSmoke, kFull, kPaper };

const char* suite_tier_name(SuiteTier t);
std::optional<SuiteTier> suite_tier_from_name(const std::string& name);

// What workload a suite point runs: the RB-tree benchmark (fixed virtual
// duration), the fixed-work engine microbenchmark (harness/micro_point.hpp)
// whose sim_ops_per_sec tracks simulator speed itself, the B+tree
// range-scan benchmark over the two-mode locks (harness/bt_workload.hpp),
// the phase-shifting RB-tree benchmark behind the adaptive headline
// (harness/phase_workload.hpp), or the sharded KV service under
// Zipf-skewed open-loop traffic (service/kv_workload.hpp).
enum class PointKind { kRb, kMicro, kBtree, kPhase, kKv };

const char* point_kind_name(PointKind k);

// A kMicro point's shape, kept in RbPoint's fields so its JSON line reads
// like an rb line: size = shared-array words, and micro_ops /
// micro_shared_period override MicroPoint's defaults when non-zero.
struct MicroShape : RbPoint {};

// One alternative per PointKind, in enum order.
using PointSpec = std::variant<RbPoint, MicroShape, BtPoint, PhasePoint,
                               service::KvPoint>;

struct SuitePoint {
  std::string id;      // stable key used for baseline matching
  SuiteTier tier = SuiteTier::kSmoke;  // the smallest tier holding it
  std::string figure;  // paper figure/table the point reproduces
  PointSpec spec;

  PointKind kind() const { return static_cast<PointKind>(spec.index()); }
  bool telemetry() const {
    return std::visit([](const auto& p) { return p.telemetry; }, spec);
  }
};

// A point's stable id, spelled from its kind's fields (e.g.
// rb-s64-u20-t8-mcs-hle-scm); the registry derives every id with it.
std::string point_id(const PointSpec& spec);

// The curated list, smoke points first, then full, then the paper tier's
// figure sweeps. Ids are unique.
const std::vector<SuitePoint>& suite_points();
// Points belonging to `tier` (kPaper returns everything).
std::vector<SuitePoint> suite_points_for(SuiteTier tier);

// `bench_suite --list` columns after id/tier/figure/kind, filled from each
// kind's field table: list_cells() returns one cell per column, joining the
// fields that share a column with '-' (a phase point's calm-storm mix) and
// printing '-' for a column the kind has no field for.
inline constexpr const char* kListColumns[] = {"lock", "scheme", "size",
                                               "upd%", "thr",    "seeds"};
std::vector<std::string> list_cells(const SuitePoint& sp);

// Derived, comparable metrics of one completed point. This is the unit the
// baseline stores and the gate compares.
struct PointMetrics {
  double throughput_ops_per_sec = 0.0;
  double spec_fraction = 0.0;
  double nonspec_fraction = 0.0;
  double attempts_per_op = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;
  std::uint64_t elapsed_cycles = 0;
  std::uint64_t tx_begins = 0;
  std::uint64_t tx_commits = 0;
  std::uint64_t tx_aborts = 0;
  // Indexed by tsx::AbortCause.
  std::vector<std::uint64_t> aborts_by_cause;
  std::uint64_t avalanche_episodes = 0;
  std::uint64_t avalanche_victims = 0;
  // kPhase points only: ops committed per phase (empty otherwise). Phases
  // have equal virtual duration, so these compare like throughputs; the
  // adaptive invariants below consume them.
  std::vector<std::uint64_t> phase_ops;
  // Virtual-time request-latency percentiles per op kind (empty unless the
  // workload records RunStats::op_latency — currently the kKv points). All
  // cycle values are integers (QuantileHistogram bucket bounds), so they
  // are byte-identical across host parallelism settings.
  struct OpLatencySummary {
    std::string op;
    std::uint64_t samples = 0;
    std::uint64_t p50_cycles = 0;
    std::uint64_t p99_cycles = 0;
    std::uint64_t p999_cycles = 0;
    std::uint64_t max_cycles = 0;
  };
  std::vector<OpLatencySummary> latency;
  // The scheduler's decision count (docs/simulator.md). Schedule-determined,
  // so identical across processes like every field above; it feeds no
  // simulated metric. Emitted in JSON as an optional "fastpath" object only
  // when non-zero.
  std::uint64_t fp_switches = 0;
  // Host-side speed: simulated ops completed per host wall second and the
  // point's host wall time. These are the only non-deterministic fields of a
  // point (everything above is virtual-time data, identical per seed).
  double sim_ops_per_sec = 0.0;
  double wall_ms = 0.0;

  static PointMetrics derive(const RunStats& stats);
};

struct PointRecord {
  SuitePoint def;
  PointMetrics metrics;
};

struct SuiteResult {
  SuiteTier tier = SuiteTier::kSmoke;
  double duration_scale = 1.0;
  bool telemetry_compiled = false;
  // Machine config shared by all points (seeds vary per point).
  unsigned n_cores = 0;
  unsigned smt_per_core = 0;
  double ghz = 0.0;
  // Host-run metadata: core count of the machine that produced the results,
  // the --jobs level used, the per-point multi-seed fan-out width, and the
  // suite's total wall time. Like every host field, none of this affects
  // the simulated metrics.
  unsigned host_cores = 0;
  int jobs = 1;
  int host_threads = 1;
  double total_wall_ms = 0.0;
  std::vector<PointRecord> points;

  const PointRecord* find(const std::string& id) const;
};

// Runs one point with its multi-seed fan-out `host_threads` wide, measuring
// wall_ms / sim_ops_per_sec. Points are independent simulations, so any
// number of these may run concurrently.
PointRecord run_suite_point(const SuitePoint& sp, int host_threads = 1);

// ---- canonical JSON results ----

// Writes the BENCH_results.json document (schema_version 1).
void write_results_json(const SuiteResult& result, std::FILE* out);

// Parses a document produced by write_results_json (e.g. the committed
// baseline). Nullopt on schema mismatch or malformed input. Every point
// field and metric is read back, so write(parse(write(r))) == write(r)
// byte for byte.
std::optional<SuiteResult> parse_results_json(const support::json::Value& doc);
std::optional<SuiteResult> load_results_file(const std::string& path);

// ---- regression gate ----

// Default simulator-speed tolerance: a point whose sim_ops_per_sec falls
// below baseline * (1 - simops_rel) is a regression. Host speed varies
// across machines, hence the generous default; gate a same-machine baseline
// with a tight value (scripts/check.sh does), and 1.0 or more disables it.
inline constexpr double kDefaultSimopsRel = 0.75;

struct GateIssue {
  std::string point_id;
  std::string key;  // JSON key path within the point, e.g. "metrics.ops"
  std::string baseline;
  std::string current;
  std::string detail;
};

struct GateReport {
  std::vector<GateIssue> regressions;  // gate fails if non-empty
  std::vector<std::string> notes;      // points not in the baseline
  bool ok() const { return regressions.empty(); }
};

// Exact gate. Every point in both documents is rendered by the JSON writer
// without its host fields (sim_ops_per_sec, wall_ms); each key whose value
// differs is a regression, so every deterministic field, definition fields
// included, must equal the baseline at its printed precision. The
// avalanche_* counters are compared only when both documents have telemetry
// compiled in. A duration_scale or machine-config mismatch is a single "not
// comparable" regression. A baseline point of the current tier that is
// missing from `current` is a regression (coverage loss); points new in
// `current` are notes. Host speed is gated separately, by `simops_rel`.
GateReport compare_to_baseline(const SuiteResult& current,
                               const SuiteResult& baseline,
                               double simops_rel = kDefaultSimopsRel);

void print_gate_report(const GateReport& report, std::FILE* out);

// ---- paper-qualitative invariants ----

struct InvariantResult {
  std::string name;
  bool ok = false;
  bool skipped = false;  // required point not in this tier / no telemetry
  std::string detail;
};

// Checks the qualitative expectations of Ch. 5/6 on a completed run. A
// violated invariant means behaviour diverged from the paper, independent
// of any baseline.
std::vector<InvariantResult> check_invariants(const SuiteResult& result);

}  // namespace elision::harness
