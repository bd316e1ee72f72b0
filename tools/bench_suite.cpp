// bench_suite — run the curated benchmark suite (src/harness/suite.hpp),
// emit canonical machine-readable results, and optionally gate against a
// committed baseline.
//
//   bench_suite [--tier smoke|full] [--point ID] [--jobs N]
//               [--host-threads N] [--out FILE]
//               [--baseline FILE] [--gate] [--list] [--quiet]
//               [--plant-regression FACTOR] [--plant-slowdown FACTOR]
//               [--tol-simops REL] [--no-invariants]
//
// The run covers the tier's points, or only the registered point named by
// --point ID (any tier). --jobs N runs up to N points at once on an
// in-process host-thread pool (support/parallel.hpp; --jobs 1 runs them
// inline, one after another), and --host-threads N fans each point's
// multi-seed runs out N-wide. Every simulated metric is deterministic per
// seed, so all of these produce output identical to a sequential run except
// for the host wall-time fields (wall_ms, sim_ops_per_sec, run.host).
//
// --gate requires every deterministic field of every point to equal the
// baseline's (harness::compare_to_baseline); --tol-simops sets the one
// tolerance left, on the host-speed field sim_ops_per_sec.
//
// Exit status: 0 on success; 1 if the gate found a regression or a
// paper-qualitative invariant is violated; 2 on usage/IO errors.
//
// --plant-regression multiplies every reported throughput before gating and
// --plant-slowdown every sim_ops_per_sec; scripts/check.sh uses them as
// self-checks that the gate actually fires.
// See docs/benchmarks.md for the schema and the baseline-update workflow.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.hpp"
#include "harness/suite.hpp"
#include "sim/machine_config.hpp"
#include "support/parallel.hpp"
#include "support/parse.hpp"
#include "tsx/telemetry.hpp"

namespace {

using namespace elision;

struct Options {
  harness::SuiteTier tier = harness::SuiteTier::kSmoke;
  std::string out_file = "BENCH_results.json";
  std::string baseline_file;
  std::string point_id;  // non-empty: run only this point
  int jobs = 1;
  int host_threads = 1;  // per-point multi-seed fan-out width
  bool gate = false;
  bool list = false;
  bool quiet = false;
  bool invariants = true;
  double plant_factor = 1.0;
  double plant_simops = 1.0;
  double tol_simops = harness::kDefaultSimopsRel;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(
      stderr,
      "usage:\n"
      "  bench_suite [--tier smoke|full] [--point ID] [--jobs N]\n"
      "              [--host-threads N] [--out FILE]\n"
      "              [--baseline FILE] [--gate] [--list] [--quiet]\n"
      "              [--plant-regression FACTOR] [--plant-slowdown FACTOR]\n"
      "              [--tol-simops REL] [--no-invariants]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--tier") {
      const auto t = harness::suite_tier_from_name(next());
      if (!t) usage("--tier must be smoke or full");
      o.tier = *t;
    } else if (a == "--out") {
      o.out_file = next();
    } else if (a == "--baseline") {
      o.baseline_file = next();
    } else if (a == "--point") {
      o.point_id = next();
    } else if (a == "--jobs") {
      const auto v = support::parse_int(next());
      if (!v || *v < 1) usage("--jobs must be a decimal integer >= 1");
      o.jobs = *v;
    } else if (a == "--host-threads") {
      const auto v = support::parse_int(next());
      if (!v) usage("--host-threads must be a decimal integer >= 0");
      o.host_threads = *v != 0 ? *v : support::host_hardware_threads();
    } else if (a == "--gate") {
      o.gate = true;
    } else if (a == "--list") {
      o.list = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (a == "--no-invariants") {
      o.invariants = false;
    } else if (a == "--plant-regression") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--plant-regression must be a number > 0");
      o.plant_factor = *v;
    } else if (a == "--plant-slowdown") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--plant-slowdown must be a number > 0");
      o.plant_simops = *v;
    } else if (a == "--tol-simops") {
      const auto v = support::parse_double(next());
      if (!v || *v < 0) usage("--tol-simops must be a number >= 0");
      o.tol_simops = *v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.gate && o.baseline_file.empty()) {
    usage("--gate requires --baseline FILE");
  }
  return o;
}

// The points this invocation runs: the tier, or the one --point names.
std::vector<harness::SuitePoint> selected_points(const Options& o) {
  if (o.point_id.empty()) return harness::suite_points_for(o.tier);
  for (const auto& sp : harness::suite_points()) {
    if (sp.id == o.point_id) return {sp};
  }
  std::fprintf(stderr, "bench_suite: unknown point id %s\n",
               o.point_id.c_str());
  std::exit(2);
}

// Runs the points up to o.jobs at a time. Each point is an independent
// simulation writing only its own record slot, so the document lists them
// in registry order whatever order they finish in.
harness::SuiteResult run(const Options& o,
                         const std::vector<harness::SuitePoint>& pts) {
  const auto t0 = std::chrono::steady_clock::now();
  harness::SuiteResult r;
  r.tier = o.tier;
  r.duration_scale = harness::env_duration_scale();
  r.telemetry_compiled = tsx::kTelemetryCompiled;
  const sim::MachineConfig machine;  // every point runs the paper's machine
  r.n_cores = machine.n_cores;
  r.smt_per_core = machine.smt_per_core;
  r.ghz = machine.ghz;
  r.host_cores = std::thread::hardware_concurrency();
  r.jobs = o.jobs;
  r.host_threads = o.host_threads;
  r.points.resize(pts.size());
  support::parallel_for_each(
      pts.size(),
      [&](std::size_t i) {
        r.points[i] = harness::run_suite_point(pts[i], o.host_threads);
        if (!o.quiet) std::fprintf(stderr, "ran %s\n", pts[i].id.c_str());
      },
      o.jobs);
  r.total_wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  if (o.list) {
    std::vector<std::string> header = {"id", "tier", "figure", "kind"};
    header.insert(header.end(), std::begin(harness::kListColumns),
                  std::end(harness::kListColumns));
    harness::Table table(header);
    for (const auto& sp : harness::suite_points_for(o.tier)) {
      std::vector<std::string> row = {sp.id, harness::suite_tier_name(sp.tier),
                                      sp.figure,
                                      harness::point_kind_name(sp.kind())};
      for (auto& cell : harness::list_cells(sp)) row.push_back(cell);
      table.add_row(row);
    }
    table.print();
    return 0;
  }

  harness::SuiteResult result = run(o, selected_points(o));

  // Plant factors apply to the finished result, so every --jobs level
  // transforms identical inputs identically.
  harness::Table progress({"id", "Mops/s", "att/op", "nonspec", "episodes"});
  for (auto& p : result.points) {
    p.metrics.throughput_ops_per_sec *= o.plant_factor;
    p.metrics.sim_ops_per_sec *= o.plant_simops;
    progress.add_row({p.def.id,
                      harness::fmt(p.metrics.throughput_ops_per_sec / 1e6, 2),
                      harness::fmt(p.metrics.attempts_per_op, 2),
                      harness::fmt(p.metrics.nonspec_fraction, 3),
                      harness::fmt_int(p.metrics.avalanche_episodes)});
  }
  if (!o.quiet) progress.print();
  if (o.plant_factor != 1.0) {
    std::fprintf(stderr,
                 "bench_suite: throughputs scaled by %g "
                 "(--plant-regression self-check mode)\n",
                 o.plant_factor);
  }
  if (o.plant_simops != 1.0) {
    std::fprintf(stderr,
                 "bench_suite: sim_ops_per_sec scaled by %g "
                 "(--plant-slowdown self-check mode)\n",
                 o.plant_simops);
  }

  std::FILE* f = std::fopen(o.out_file.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_suite: cannot open %s\n", o.out_file.c_str());
    return 2;
  }
  harness::write_results_json(result, f);
  std::fclose(f);
  if (!o.quiet) {
    std::printf("results: %zu points -> %s (jobs %d, %.0f ms)\n",
                result.points.size(), o.out_file.c_str(), result.jobs,
                result.total_wall_ms);
  }

  int rc = 0;

  if (o.invariants) {
    for (const auto& inv : harness::check_invariants(result)) {
      if (inv.skipped) {
        if (!o.quiet) {
          std::printf("invariant %-34s SKIP (%s)\n", inv.name.c_str(),
                      inv.detail.c_str());
        }
        continue;
      }
      if (inv.ok) {
        if (!o.quiet) {
          std::printf("invariant %-34s ok   (%s)\n", inv.name.c_str(),
                      inv.detail.c_str());
        }
      } else {
        std::fprintf(stderr, "invariant %-34s FAIL (%s)\n", inv.name.c_str(),
                     inv.detail.c_str());
        rc = 1;
      }
    }
  }

  if (o.gate) {
    const auto baseline = harness::load_results_file(o.baseline_file);
    if (!baseline) {
      std::fprintf(stderr, "bench_suite: cannot parse baseline %s\n",
                   o.baseline_file.c_str());
      return 2;
    }
    const auto report =
        harness::compare_to_baseline(result, *baseline, o.tol_simops);
    harness::print_gate_report(report, report.ok() ? stdout : stderr);
    if (!report.ok()) rc = 1;
  }

  return rc;
}
