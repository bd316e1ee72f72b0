// elide — command-line explorer for the elision library.
//
// Run any of the paper's workloads with your own parameters:
//
//   elide tree   [--lock L] [--scheme S] [--threads N] [--size K]
//                [--updates PCT] [--ms VIRTUAL_MS] [--hwext] [--trace FILE]
//   elide stamp  APP [--lock L] [--scheme S] [--threads N] [--scale X]
//   elide schemes [--size K] [--updates PCT] [--threads N]   (compare all)
//
// Locks: ttas mcs ticket ticket-adj clh clh-adj backoff-ttas
// Schemes: standard hle hle-scm pes-slr opt-slr opt-slr-scm rtm-elide
//          hle-scm-nested hle-gscm, with optional :knob=N suffixes
//          (locks/policy.hpp); stamp rejects +shared.
//
// tree and schemes run harness::run_rb_point, the same tree workload as the
// bench suite. `tree --trace FILE` writes the telemetry event CSV (the
// columns of `trace_dump --events-format csv`).
#include <cstdio>
#include <optional>
#include <string>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"
#include "locks/policy.hpp"
#include "sim/machine_config.hpp"
#include "stamp/common.hpp"
#include "support/parse.hpp"
#include "tsx/telemetry.hpp"

namespace {

using namespace elision;

struct Options {
  harness::LockSel lock = harness::LockSel::kTtas;
  std::string scheme = "hle-scm";
  int threads = 8;
  std::size_t size = 1024;
  int updates = 20;
  double ms = 2.0;
  double scale = 1.0;
  bool hwext = false;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(
      stderr,
      "usage:\n"
      "  elide tree    [--lock L] [--scheme S] [--threads N] [--size K]\n"
      "                [--updates PCT] [--ms MS] [--hwext] [--trace FILE]\n"
      "  elide stamp   APP [--lock ttas|mcs] [--scheme S] [--threads N]\n"
      "                [--scale X]\n"
      "  elide schemes [--size K] [--updates PCT] [--threads N] [--ms MS]\n"
      "\n"
      "locks:   ttas mcs ticket ticket-adj clh clh-adj backoff-ttas\n"
      "schemes: standard hle hle-scm pes-slr opt-slr opt-slr-scm rtm-elide\n"
      "         hle-scm-nested hle-gscm\n"
      "stamp apps: genome intruder kmeans_high kmeans_low ssca2\n"
      "            vacation_high vacation_low labyrinth\n");
  std::exit(2);
}

Options parse(int argc, char** argv, int first, std::string* positional) {
  Options o;
  for (int i = first; i < argc; ++i) {
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
    } else if (a == "--scale") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--scale must be a number > 0");
      o.scale = *v;
    } else if (a == "--hwext") {
      o.hwext = true;
    } else if (a == "--trace") {
      o.trace_file = next();
    } else if (!a.empty() && a[0] != '-' && positional != nullptr &&
               positional->empty()) {
      *positional = a;
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
  return o;
}

// One shared policy-spec grammar across every CLI (see locks/policy.hpp):
// `<scheme>[+shared][:knob=N...]`, e.g. "hle-scm:retries=5". The scheme
// spellings are the canonical scheme_slug() ones listed in usage().
locks::ElisionPolicy parse_policy(const std::string& s) {
  const std::optional<locks::ElisionPolicy> p = locks::ElisionPolicy::parse(s);
  if (!p) usage(("unknown policy spec " + s).c_str());
  return *p;
}

// One single-seed point of the shared RB-tree workload (harness::RbPoint).
harness::RbPoint tree_point(const Options& o, harness::LockSel lock,
                            const locks::ElisionPolicy& policy) {
  harness::RbPoint p;
  p.size = o.size;
  p.update_pct = o.updates;
  p.threads = o.threads;
  p.scheme = policy;
  p.lock = lock;
  p.duration_sec = o.ms / 1e3;
  p.seeds = 1;
  return p;
}

int cmd_tree(const Options& o) {
  const locks::ElisionPolicy policy = parse_policy(o.scheme);
  if (!o.trace_file.empty() && !tsx::kTelemetryCompiled) {
    std::fprintf(stderr,
                 "telemetry was compiled out (ELISION_TELEMETRY=OFF); "
                 "--trace has nothing to record\n");
    return 1;
  }
  harness::RbPoint p = tree_point(o, o.lock, policy);
  p.tsx.hardware_extension = o.hwext;
  tsx::Telemetry telemetry;
  if (!o.trace_file.empty()) p.telemetry_sink = &telemetry;
  const harness::RunStats stats = harness::run_rb_point(p);

  const auto& tx = stats.tx;
  std::printf(
      "workload:   red-black tree, size %zu, %d%% updates, %d threads\n",
      o.size, o.updates, o.threads);
  std::printf("scheme:     %s on %s%s\n", policy.spec().c_str(),
              harness::lock_sel_name(o.lock),
              o.hwext ? " + Ch.7 hardware extension" : "");
  std::printf("throughput: %.2f Mops/s  (%llu ops in %.2f simulated ms)\n",
              stats.throughput() / 1e6,
              static_cast<unsigned long long>(stats.ops),
              stats.seconds() * 1e3);
  std::printf("attempts/op %.2f   non-speculative %.1f%%\n",
              stats.attempts_per_op(), 100 * stats.nonspec_fraction());
  std::printf("tx: %llu begun, %llu committed, %llu aborted",
              static_cast<unsigned long long>(tx.begins),
              static_cast<unsigned long long>(tx.commits),
              static_cast<unsigned long long>(tx.aborts));
  for (int c = 0; c < static_cast<int>(tsx::AbortCause::kCauseCount); ++c) {
    if (tx.aborts_by_cause[c] == 0) continue;
    std::printf("  %s=%llu", to_string(static_cast<tsx::AbortCause>(c)),
                static_cast<unsigned long long>(tx.aborts_by_cause[c]));
  }
  std::printf("\n");
  if (!o.trace_file.empty()) {
    std::FILE* f = std::fopen(o.trace_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", o.trace_file.c_str());
      return 1;
    }
    telemetry.dump_csv(f);
    std::fclose(f);
    std::printf("trace: %llu events recorded (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(telemetry.total_recorded()),
                static_cast<unsigned long long>(telemetry.total_dropped()),
                o.trace_file.c_str());
  }
  return 0;
}

int cmd_stamp(const Options& o, const std::string& app) {
  if (app.empty()) usage("stamp requires an APP argument");
  bool known = false;
  for (const char* name : stamp::kAllAppNames) {
    if (app == name) known = true;
  }
  if (!known) usage(("unknown STAMP app " + app).c_str());
  stamp::StampConfig cfg;
  cfg.threads = o.threads;
  cfg.scale = o.scale;
  cfg.policy = parse_policy(o.scheme);
  if (cfg.policy.mode == locks::AccessMode::kShared) {
    usage("stamp runs under single-mode locks (ttas, mcs): no +shared");
  }
  if (o.lock == harness::LockSel::kTtas) {
    cfg.lock = stamp::LockKind::kTtas;
  } else if (o.lock == harness::LockSel::kMcs) {
    cfg.lock = stamp::LockKind::kMcs;
  } else {
    usage("stamp supports --lock ttas|mcs");
  }
  const auto r = stamp::run_app(app, cfg);
  std::printf("app:        %s (scale %.2f, %d threads)\n", app.c_str(),
              o.scale, o.threads);
  std::printf("scheme:     %s on %s\n", cfg.policy.spec().c_str(),
              stamp::lock_name(cfg.lock));
  std::printf("run time:   %.3f simulated ms\n",
              1e3 * r.seconds(cfg.machine.ghz));
  std::printf("critical sections: %llu   attempts/op %.2f   "
              "non-speculative %.1f%%\n",
              static_cast<unsigned long long>(r.ops), r.attempts_per_op(),
              100 * r.nonspec_fraction());
  std::printf("checksum:   %llu   invariants: %s\n",
              static_cast<unsigned long long>(r.checksum),
              r.invariants_ok ? "ok" : "VIOLATED");
  return r.invariants_ok ? 0 : 1;
}

int cmd_schemes(const Options& o) {
  std::printf("All schemes on a %zu-node tree, %d%% updates, %d threads "
              "(TTAS / MCS Mops/s):\n\n",
              o.size, o.updates, o.threads);
  harness::Table table({"scheme", "TTAS Mops/s", "MCS Mops/s"});
  for (const locks::ElisionPolicy& policy : locks::kAllPolicies) {
    // Algorithm 3 as designed needs TsxConfig::allow_hle_in_rtm.
    if (policy.scheme == locks::Scheme::kHleScmNested) continue;
    auto mops = [&](harness::LockSel lock) {
      return harness::run_rb_point(tree_point(o, lock, policy)).throughput() /
             1e6;
    };
    table.add_row({policy.spec(),
                   harness::fmt(mops(harness::LockSel::kTtas), 2),
                   harness::fmt(mops(harness::LockSel::kMcs), 2)});
  }
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string cmd = argv[1];
  std::string positional;
  const Options o = parse(argc, argv, 2, &positional);
  if (cmd == "tree") return cmd_tree(o);
  if (cmd == "stamp") return cmd_stamp(o, positional);
  if (cmd == "schemes") return cmd_schemes(o);
  usage(("unknown command " + cmd).c_str());
}
