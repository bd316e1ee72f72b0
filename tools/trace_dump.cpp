// trace_dump — run the red-black-tree workload (harness::run_rb_point) with
// abort telemetry attached and dump what happened: the raw event trace
// (CSV/JSON), detected avalanche episodes, and the aggregated metrics
// registry.
//
//   trace_dump [--lock L] [--scheme S] [--threads N] [--size K]
//              [--updates PCT] [--ms VIRTUAL_MS] [--seed X]
//              [--window CYCLES] [--min-victims N]
//              [--events FILE] [--events-format csv|json]
//              [--metrics FILE] [--metrics-format json|csv]
//              [--all-schemes]
//
// Locks: ttas mcs ticket ticket-adj clh clh-adj backoff-ttas
// Schemes: any canonical policy spec (ElisionPolicy::parse), including
//          tuned ones like `hle:spec-attempts=4` and the adaptive controller
//          (`adaptive[:window=N:up=N:down=N:dwell=N]`), whose decision
//          trace is printed after the run.
//
// --all-schemes runs the paper's six schemes (Sec. 5.1) back to back and
// aggregates all of them into one metrics export; --scheme is ignored.
//
// To reproduce the Fig 3.3 avalanche timeline: run HLE over MCS on a small
// tree and inspect the episode table / event dump (see docs/telemetry.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/metrics.hpp"
#include "harness/rb_workload.hpp"
#include "harness/report.hpp"
#include "sim/machine_config.hpp"
#include "support/parse.hpp"
#include "tsx/telemetry.hpp"

namespace {

using namespace elision;

struct Options {
  harness::LockSel lock = harness::LockSel::kMcs;
  std::string scheme = "hle";
  int threads = 8;
  std::size_t size = 128;
  int updates = 20;
  double ms = 1.0;
  std::uint64_t seed = 42;
  tsx::AvalancheConfig avalanche;
  std::string events_file;
  std::string events_format = "csv";
  std::string metrics_file;
  std::string metrics_format = "json";
  bool all_schemes = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(
      stderr,
      "usage:\n"
      "  trace_dump [--lock L] [--scheme S] [--threads N] [--size K]\n"
      "             [--updates PCT] [--ms MS] [--seed X]\n"
      "             [--window CYCLES] [--min-victims N]\n"
      "             [--events FILE] [--events-format csv|json]\n"
      "             [--metrics FILE] [--metrics-format json|csv]\n"
      "             [--all-schemes]\n"
      "\n"
      "locks:   ttas mcs ticket ticket-adj clh clh-adj backoff-ttas\n"
      "schemes: any canonical policy spec (locks/policy.hpp), e.g.\n"
      "         standard hle hle-scm pes-slr opt-slr opt-slr-scm rtm-elide\n"
      "         hle-scm-nested hle-gscm adaptive hle:spec-attempts=4\n"
      "         adaptive:window=16:up=50:down=10:dwell=4\n"
      "\n"
      "an adaptive scheme additionally prints the controller's decision\n"
      "trace (docs/adaptive.md)\n");
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
    if (a == "--lock") {
      const std::string l = next();
      const auto sel = harness::parse_lock_sel(l);
      if (!sel) usage(("unknown lock " + l).c_str());
      o.lock = *sel;
    } else if (a == "--scheme") {
      o.scheme = next();
    } else if (a == "--threads") {
      const auto v = support::parse_int(next());
      if (!v) usage("--threads must be a decimal integer");
      o.threads = *v;
    } else if (a == "--size") {
      const auto v = support::parse_u64(next());
      if (!v || *v < 1) usage("--size must be a decimal integer >= 1");
      o.size = static_cast<std::size_t>(*v);
    } else if (a == "--updates") {
      const auto v = support::parse_int(next());
      if (!v) usage("--updates must be a decimal integer");
      o.updates = *v;
    } else if (a == "--ms") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--ms must be a number > 0");
      o.ms = *v;
    } else if (a == "--seed") {
      const auto v = support::parse_u64(next());
      if (!v) usage("--seed must be a decimal integer");
      o.seed = *v;
    } else if (a == "--window") {
      const auto v = support::parse_u64(next());
      if (!v || *v < 1) usage("--window must be a decimal integer >= 1");
      o.avalanche.window_cycles = *v;
    } else if (a == "--min-victims") {
      const auto v = support::parse_int(next());
      if (!v || *v < 1) usage("--min-victims must be a decimal integer >= 1");
      o.avalanche.min_victims = *v;
    } else if (a == "--events") {
      o.events_file = next();
    } else if (a == "--events-format") {
      o.events_format = next();
    } else if (a == "--metrics") {
      o.metrics_file = next();
    } else if (a == "--metrics-format") {
      o.metrics_format = next();
    } else if (a == "--all-schemes") {
      o.all_schemes = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.threads < 1 || o.threads > sim::kMaxSimThreads) {
    usage(("--threads must be in [1," + std::to_string(sim::kMaxSimThreads) +
           "] (kMaxSimThreads)")
              .c_str());
  }
  if (o.updates < 0 || o.updates > 100) usage("--updates must be in [0,100]");
  if (o.events_format != "csv" && o.events_format != "json") {
    usage("--events-format must be csv or json");
  }
  if (o.metrics_format != "csv" && o.metrics_format != "json") {
    usage("--metrics-format must be csv or json");
  }
  return o;
}

locks::ElisionPolicy parse_policy(const std::string& s) {
  // The canonical spec grammar: every scheme slug plus optional :knob=N
  // suffixes, exactly what ElisionPolicy::spec() prints.
  if (const auto p = locks::ElisionPolicy::parse(s)) return *p;
  usage(("unknown scheme spec " + s).c_str());
}

harness::RunStats run_policy(const Options& o, locks::ElisionPolicy policy,
                             tsx::Telemetry* sink,
                             harness::AdaptiveTrace* adaptive = nullptr) {
  harness::RbPoint p;
  p.size = o.size;
  p.update_pct = o.updates;
  p.threads = o.threads;
  p.scheme = policy;
  p.lock = o.lock;
  p.duration_sec = o.ms / 1e3;
  p.seeds = 1;
  p.seed = o.seed;
  p.avalanche = o.avalanche;
  p.telemetry_sink = sink;
  p.adaptive_trace = adaptive;
  return harness::run_rb_point(p);
}

// Prints the controller's migration history: one line per recorded
// decision, oldest first (docs/adaptive.md documents the columns).
void print_adaptive_trace(const locks::ElisionPolicy& policy,
                          const harness::AdaptiveTrace& t) {
  if (policy.scheme != locks::Scheme::kAdaptive) return;
  std::printf(
      "adaptive controller (window=%d up=%d down=%d dwell=%d): "
      "%llu migration(s), final mode %s\n",
      policy.adapt.window, policy.adapt.up_pct, policy.adapt.down_pct,
      policy.adapt.dwell,
      static_cast<unsigned long long>(t.decisions.size() + t.dropped),
      locks::adaptive_mode_name(t.final_mode));
  for (const auto& d : t.decisions) {
    std::printf("  at=%-12llu %-8s -> %-8s rate=%3d%%  %s\n",
                static_cast<unsigned long long>(d.at),
                locks::adaptive_mode_name(d.from),
                locks::adaptive_mode_name(d.to), d.abort_rate_pct, d.reason);
  }
  if (t.dropped != 0) {
    std::printf("  ... %llu earlier migration(s) beyond the trace bound\n",
                static_cast<unsigned long long>(t.dropped));
  }
  std::printf("\n");
}

std::FILE* open_or_die(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return f;
}

void report_run(const Options& o, locks::ElisionPolicy policy,
                const harness::RunStats& stats) {
  std::printf("scheme:     %s on %s  (%d threads, %zu-node tree, %d%% "
              "updates, %.2f ms)\n",
              policy.name(), harness::lock_sel_name(o.lock), o.threads,
              o.size, o.updates, o.ms);
  std::printf("throughput: %.2f Mops/s   attempts/op %.2f   "
              "non-speculative %.1f%%\n",
              stats.throughput() / 1e6, stats.attempts_per_op(),
              100 * stats.nonspec_fraction());
  harness::print_telemetry_summary(stats);
  harness::print_episodes(stats.episodes);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (!tsx::kTelemetryCompiled) {
    std::fprintf(stderr,
                 "telemetry was compiled out (ELISION_TELEMETRY=OFF); "
                 "trace_dump has nothing to record\n");
    return 1;
  }

  harness::MetricsRegistry registry;
  tsx::Telemetry telemetry;

  if (o.all_schemes) {
    if (!o.events_file.empty()) {
      std::fprintf(stderr,
                   "warning: --events is ignored with --all-schemes (the "
                   "trace is reset between schemes)\n");
    }
    for (const auto& policy : locks::kAllSixPolicies) {
      telemetry.clear();
      const auto stats = run_policy(o, policy, &telemetry);
      registry.record(policy.name(), harness::lock_sel_name(o.lock), stats);
      report_run(o, policy, stats);
    }
  } else {
    const locks::ElisionPolicy policy = parse_policy(o.scheme);
    harness::AdaptiveTrace adaptive;
    const auto stats = run_policy(o, policy, &telemetry, &adaptive);
    registry.record(policy.name(), harness::lock_sel_name(o.lock), stats);
    report_run(o, policy, stats);
    print_adaptive_trace(policy, adaptive);
    if (!o.events_file.empty()) {
      std::FILE* f = open_or_die(o.events_file);
      if (o.events_format == "json") {
        telemetry.dump_json(f);
      } else {
        telemetry.dump_csv(f);
      }
      std::fclose(f);
      std::printf("events: %llu recorded (%llu dropped) -> %s\n",
                  static_cast<unsigned long long>(telemetry.total_recorded()),
                  static_cast<unsigned long long>(telemetry.total_dropped()),
                  o.events_file.c_str());
    }
  }

  if (!o.metrics_file.empty()) {
    std::FILE* f = open_or_die(o.metrics_file);
    if (o.metrics_format == "csv") {
      registry.export_csv(f);
    } else {
      registry.export_json(f);
    }
    std::fclose(f);
    std::printf("metrics: %zu series -> %s\n", registry.entries().size(),
                o.metrics_file.c_str());
  }
  return 0;
}
