// Bench-suite tests: the tiered point registry (ids derived from the spec,
// the committed baseline's ids still registered) and its --list cells, the
// byte-exact canonical JSON round-trip (whole registry and the committed
// baseline), the exact regression gate (one-op drifts, definition fields,
// host fields, telemetry-off documents, coverage loss and planted
// regressions), the paper-qualitative invariant checks, and the
// RB-tree workload itself: run_rb_point's seed merge, its lock table and
// the TsxConfig / telemetry-sink / adaptive-trace plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "harness/micro_point.hpp"
#include "harness/rb_workload.hpp"
#include "harness/suite.hpp"
#include "locks/backoff_lock.hpp"
#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "support/json.hpp"
#include "tsx/telemetry.hpp"

namespace elision::harness {
namespace {

TEST(SuitePoints, TiersNest) {
  const auto smoke = suite_points_for(SuiteTier::kSmoke);
  const auto full = suite_points_for(SuiteTier::kFull);
  const auto paper = suite_points_for(SuiteTier::kPaper);
  EXPECT_GE(smoke.size(), 8u);
  EXPECT_GT(full.size(), smoke.size());
  EXPECT_GT(paper.size(), full.size());
  EXPECT_EQ(paper.size(), suite_points().size());
  // smoke ⊂ full ⊂ paper, each point in the tiers from its own upward.
  for (const auto& [tier, points] :
       {std::pair{SuiteTier::kSmoke, &smoke},
        std::pair{SuiteTier::kFull, &full}}) {
    std::set<std::string> ids;
    for (const auto& p : *points) {
      EXPECT_LE(p.tier, tier) << p.id;
      ids.insert(p.id);
    }
    for (const auto& p : paper) {
      EXPECT_EQ(ids.count(p.id) == 1, p.tier <= tier) << p.id;
    }
  }
}

// Every id is spelled from its point's fields, so two registrations of one
// run share it and two different runs never do.
TEST(SuitePoints, IdsAreDerivedFromTheSpecAndUnique) {
  std::set<std::string> ids;
  for (const auto& sp : suite_points_for(SuiteTier::kPaper)) {
    EXPECT_EQ(sp.id, point_id(sp.spec));
    EXPECT_TRUE(ids.insert(sp.id).second) << "duplicate id " << sp.id;
  }
}

TEST(SuitePoints, EveryBaselineIdIsRegistered) {
  const auto baseline = load_results_file(ELISION_BASELINE_JSON);
  ASSERT_TRUE(baseline.has_value());
  std::set<std::string> ids;
  for (const auto& sp : suite_points()) ids.insert(sp.id);
  EXPECT_EQ(baseline->points.size(), 48u);
  for (const auto& p : baseline->points) {
    EXPECT_TRUE(ids.count(p.def.id)) << p.def.id;
  }
}

// Algorithm 3 as designed needs HLE nested in RTM; without the engine flag
// the point measures the Haswell nesting abort instead.
TEST(SuitePoints, NestedScmPointAllowsHleInRtm) {
  for (const auto& sp : suite_points()) {
    if (sp.kind() != PointKind::kRb) continue;
    const auto& p = std::get<RbPoint>(sp.spec);
    if (p.scheme.spec() == "hle-scm-nested") {
      EXPECT_TRUE(p.tsx.allow_hle_in_rtm) << sp.id;
    }
  }
}

TEST(SuitePoints, MicroEngineCanariesAreRegisteredInSmoke) {
  // Both simulator-speed canaries: the paper's 8-hyperthread machine and
  // the big 64-thread / 32-core machine behind the O(log N) ready queue.
  const auto smoke = suite_points_for(SuiteTier::kSmoke);
  const SuitePoint* t8 = nullptr;
  const SuitePoint* t64 = nullptr;
  int micros = 0;
  for (const auto& sp : smoke) {
    if (sp.kind() != PointKind::kMicro) continue;
    ++micros;
    EXPECT_STREQ(point_kind_name(sp.kind()), "micro");
    if (sp.id == "micro-engine-rtm-t8") t8 = &sp;
    if (sp.id == "micro-engine-rtm-t64") t64 = &sp;
  }
  EXPECT_EQ(micros, 2);
  ASSERT_NE(t8, nullptr);
  ASSERT_NE(t64, nullptr);
  // The t8 canary keeps the seed's machine shape (no overrides emitted, so
  // its baseline line is byte-identical to the pre-ready-queue one).
  const auto& t8_shape = std::get<MicroShape>(t8->spec);
  EXPECT_EQ(t8_shape.n_cores, 0u);
  EXPECT_EQ(t8_shape.micro_ops, 0u);
  // The t64 canary runs the 32-core / 2-SMT big machine.
  const auto& t64_shape = std::get<MicroShape>(t64->spec);
  EXPECT_EQ(t64_shape.threads, 64);
  EXPECT_EQ(t64_shape.n_cores, 32u);
  EXPECT_EQ(t64_shape.smt_per_core, 2u);
}

TEST(SuitePoints, ListCellsComeFromTheFieldTable) {
  // Columns: lock, scheme, size, upd%, thr, seeds.
  auto cells = [](const char* id) {
    for (const auto& sp : suite_points()) {
      if (sp.id == id) return list_cells(sp);
    }
    ADD_FAILURE() << "no point " << id;
    return std::vector<std::string>{};
  };
  EXPECT_EQ(cells("bt-s1024-u10-c100-l64-t8-shared-mcs-hle+shared"),
            (std::vector<std::string>{"shared-mcs", "hle+shared", "1024", "10",
                                      "8", "2"}));
  EXPECT_EQ(cells("rb-s64-u20-t8-mcs-hle-scm"),
            (std::vector<std::string>{"MCS", "hle-scm", "64", "20", "8", "2"}));
  // Fields sharing a column are joined; kv points have no lock field.
  EXPECT_EQ(cells("ph-s12-u10-100-t16-ttas-adaptive"),
            (std::vector<std::string>{"TTAS", "adaptive", "12", "10-100", "16",
                                      "2"}));
  EXPECT_EQ(cells("kv-sh8-k8192-z99-u30-t8-hle"),
            (std::vector<std::string>{"-", "hle", "8192", "20-5-5", "8", "2"}));
}

// The micro point is the simulator-speed canary: its simulated metrics must
// be bit-identical run to run (and, by the address-alignment contract in
// micro_point.cpp, process to process) or sim_ops_per_sec would conflate
// workload drift with host speed.
TEST(MicroPointRun, SimulatedMetricsAreDeterministic) {
  MicroPoint p;
  p.ops_per_thread = 2000;
  const RunStats a = run_micro_point(p);
  const RunStats b = run_micro_point(p);
  EXPECT_GT(a.ops, 0u);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.spec_ops, b.spec_ops);
  EXPECT_EQ(a.nonspec_ops, b.nonspec_ops);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.tx.commits, b.tx.commits);
  EXPECT_EQ(a.tx.aborts, b.tx.aborts);
  // Every op completed one way or the other.
  EXPECT_EQ(a.spec_ops + a.nonspec_ops, a.ops);
  // The shared hot line keeps conflict detection exercised.
  EXPECT_GT(a.tx.aborts, 0u);
}

// Regression (run_rb_point): per-slot timeline data was
// silently dropped when seeds > 1, so Fig 3.3-style benches averaged only
// zeros. The timelines of all seed runs must merge slot-wise.
TEST(RbWorkload, TimelineMergedAcrossSeeds) {
  RbPoint p;
  p.size = 64;
  p.threads = 4;
  p.duration_sec = 0.0004;
  p.seeds = 2;
  p.scheme = locks::ElisionPolicy::hle();
  p.timeline_slot_cycles = 340000;  // ~4 slots per seed run
  const RunStats merged = run_rb_point(p);
  ASSERT_GT(merged.ops, 0u);
  ASSERT_FALSE(merged.timeline.empty());
  std::uint64_t timeline_ops = 0;
  std::uint64_t timeline_nonspec = 0;
  for (const auto& slot : merged.timeline) {
    timeline_ops += slot.ops;
    timeline_nonspec += slot.nonspec_ops;
  }
  // Every completed op of every seed lands in some slot.
  EXPECT_EQ(timeline_ops, merged.ops);
  EXPECT_EQ(timeline_nonspec, merged.nonspec_ops);

  // And the merge really covers both seeds: a single-seed run has
  // strictly fewer ops.
  RbPoint single = p;
  single.seeds = 1;
  const RunStats one = run_rb_point(single);
  EXPECT_GT(merged.ops, one.ops);
}

TEST(RbWorkload, AccumulateChecksGhzAndMergesCounters) {
  RunStats a;
  a.ops = 10;
  a.elapsed_cycles = 1000;
  a.ghz = 2.0;
  a.timeline.resize(2);
  a.timeline[1].ops = 4;
  RunStats total;
  total.accumulate(a);
  EXPECT_DOUBLE_EQ(total.ghz, 2.0);  // taken from the first run, not 3.4
  total.accumulate(a);
  EXPECT_EQ(total.ops, 20u);
  ASSERT_EQ(total.timeline.size(), 2u);
  EXPECT_EQ(total.timeline[1].ops, 8u);

  RunStats other_machine;
  other_machine.ops = 1;
  other_machine.elapsed_cycles = 10;
  other_machine.ghz = 3.4;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(total.accumulate(other_machine), "different MachineConfig");
}

TEST(RbWorkload, LockSelSlugsRoundTripAndNamesAreLockNames) {
  const std::pair<LockSel, const char*> cases[] = {
      {LockSel::kTtas, locks::TtasLock::kName},
      {LockSel::kMcs, locks::McsLock::kName},
      {LockSel::kTicketAdj, locks::TicketLockAdjusted::kName},
      {LockSel::kClhAdj, locks::ClhLockAdjusted::kName},
      {LockSel::kTicket, locks::TicketLock::kName},
      {LockSel::kClh, locks::ClhLock::kName},
      {LockSel::kBackoffTtas, locks::BackoffTtasLock::kName},
  };
  for (const auto& [sel, name] : cases) {
    EXPECT_STREQ(lock_sel_name(sel), name);
    EXPECT_EQ(parse_lock_sel(lock_sel_slug(sel)), sel) << name;
  }
  EXPECT_EQ(lock_sel_slug(LockSel::kTicketAdj), std::string("ticket-adj"));
  EXPECT_EQ(lock_sel_slug(LockSel::kBackoffTtas), std::string("backoff-ttas"));
  EXPECT_FALSE(parse_lock_sel("TTAS").has_value());
  EXPECT_FALSE(parse_lock_sel("backoff").has_value());
}

// The point's TsxConfig reaches the engine: a raised spurious-abort rate
// shows up as spurious aborts.
TEST(RbWorkload, TsxConfigReachesTheEngine) {
  RbPoint p;
  p.size = 64;
  p.scheme = locks::ElisionPolicy::hle();
  p.duration_sec = 0.0005;
  p.seeds = 1;
  const auto spurious = static_cast<int>(tsx::AbortCause::kSpurious);
  const std::uint64_t base = run_rb_point(p).tx.aborts_by_cause[spurious];
  p.tsx.spurious_per_begin = 0.01;
  EXPECT_GT(run_rb_point(p).tx.aborts_by_cause[spurious], base + 10);
}

// A caller-owned sink receives the run's events, and the adaptive
// controller's decision trace comes back through the out-param.
TEST(RbWorkload, TelemetrySinkAndAdaptiveTraceOutParams) {
  tsx::Telemetry sink;
  AdaptiveTrace trace;
  RbPoint p;
  p.size = 12;
  p.update_pct = 100;
  p.threads = 16;
  p.scheme = locks::ElisionPolicy::adaptive().with_adaptive_window(16);
  p.duration_sec = 0.001;
  p.seeds = 1;
  p.telemetry_sink = &sink;
  p.adaptive_trace = &trace;
  const RunStats stats = run_rb_point(p);
  if (tsx::kTelemetryCompiled) {
    EXPECT_GT(sink.total_recorded(), 0u);
    EXPECT_EQ(sink.total_recorded(), stats.telemetry_events);
  }
  ASSERT_FALSE(trace.decisions.empty());
  EXPECT_EQ(trace.decisions.back().to, trace.final_mode);
}

TEST(RbWorkload, OutParamsNeedASingleSeedPoint) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  tsx::Telemetry sink;
  RbPoint p;
  p.duration_sec = 0.0001;
  p.seeds = 2;
  p.telemetry_sink = &sink;
  EXPECT_DEATH(run_rb_point(p), "single-seed");
}

// Synthetic metrics over the whole registry: every point kind, the machine-
// and micro-shape overrides, the engine overrides of the paper tier, and
// every optional metric object.
SuiteResult tiny_result() {
  SuiteResult r;
  r.tier = SuiteTier::kPaper;
  r.duration_scale = 1.0;
  r.telemetry_compiled = true;
  r.n_cores = 4;
  r.smt_per_core = 2;
  r.ghz = 3.4;
  int i = 0;
  for (const auto& sp : suite_points_for(SuiteTier::kPaper)) {
    PointRecord rec;
    rec.def = sp;
    rec.metrics.throughput_ops_per_sec = 1e7 + 1e6 * i;
    rec.metrics.spec_fraction = 0.9;
    rec.metrics.nonspec_fraction = 0.1;
    rec.metrics.attempts_per_op = 1.25;
    rec.metrics.ops = 1000 + static_cast<std::uint64_t>(i);
    rec.metrics.attempts = 1250;
    rec.metrics.elapsed_cycles = 123456;
    rec.metrics.tx_begins = 1200;
    rec.metrics.tx_commits = 900;
    rec.metrics.tx_aborts = 300;
    rec.metrics.aborts_by_cause.assign(
        static_cast<std::size_t>(tsx::AbortCause::kCauseCount), 0);
    rec.metrics.aborts_by_cause[static_cast<std::size_t>(
        tsx::AbortCause::kConflict)] = 7;
    rec.metrics.avalanche_episodes = 2;
    rec.metrics.avalanche_victims = 9;
    if (sp.kind() == PointKind::kPhase) rec.metrics.phase_ops = {50, 7, 49};
    if (sp.kind() == PointKind::kKv) {
      rec.metrics.latency = {{"get", 10, 100, 200, 300, 400},
                             {"put", 5, 150, 250, 350, 450}};
    }
    if (i % 2 == 1) rec.metrics.fp_switches = 17;
    r.points.push_back(std::move(rec));
    ++i;
  }
  return r;
}

std::string to_json_string(const SuiteResult& r) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  write_results_json(r, f);
  std::fclose(f);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

// Every point field and metric survives parsing: re-emitting a parsed
// document reproduces it byte for byte.
TEST(SuiteJson, ResultsRoundTrip) {
  SuiteResult orig = tiny_result();
  orig.host_cores = 16;
  orig.jobs = 4;
  orig.host_threads = 3;
  orig.total_wall_ms = 1234.5;
  orig.points[0].metrics.sim_ops_per_sec = 5.5e6;
  orig.points[0].metrics.wall_ms = 42.125;
  const std::string text = to_json_string(orig);

  const auto doc = support::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  const auto parsed = parse_results_json(*doc);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->points.size(), suite_points().size());
  EXPECT_EQ(to_json_string(*parsed), text);
  // The registry's engine overrides are among the re-emitted fields, each
  // written because it differs from the TsxConfig default (a spurious rate
  // of 0 included).
  for (const char* member :
       {"\"conflict_policy\":\"oldest-wins\"", "\"allow_hle_in_rtm\":true",
        "\"hardware_extension\":true", "\"spurious_per_begin\":0,",
        "\"spurious_per_access\":0,", "\"spurious_per_access\":2e-06,"}) {
    EXPECT_NE(text.find(member), std::string::npos) << member;
  }
}

// An engine override is written only when it differs from the default: the
// 1e-5 spurious point keeps the default per-access rate and writes none.
TEST(SuiteJson, OverridesAtTheirDefaultAreNotWritten) {
  SuiteResult r;
  for (const auto& sp : suite_points()) {
    if (sp.id == "rb-s2048-u0-t8-mcs-hle-spb1e-05" ||
        sp.id == "rb-s64-u20-t8-ttas-hle") {
      r.points.push_back({sp, {}});
    }
  }
  ASSERT_EQ(r.points.size(), 2u);
  const std::string text = to_json_string(r);
  EXPECT_NE(text.find("\"spurious_per_begin\":1e-05,"), std::string::npos);
  EXPECT_EQ(text.find("spurious_per_access"), std::string::npos);
  EXPECT_EQ(text.find("conflict_policy"), std::string::npos);
}

// The committed baseline's points re-emit byte for byte (its run.host line
// may carry fields this writer no longer emits).
TEST(SuiteJson, BaselinePointsReEmitByteForByte) {
  std::FILE* f = std::fopen(ELISION_BASELINE_JSON, "r");
  ASSERT_NE(f, nullptr) << ELISION_BASELINE_JSON;
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  const auto baseline = load_results_file(ELISION_BASELINE_JSON);
  ASSERT_TRUE(baseline.has_value());
  const std::string points_start = "  \"points\":[\n";
  const std::string again = to_json_string(*baseline);
  ASSERT_NE(text.find(points_start), std::string::npos);
  ASSERT_NE(again.find(points_start), std::string::npos);
  EXPECT_EQ(again.substr(again.find(points_start)),
            text.substr(text.find(points_start)));
}

TEST(SuiteJson, RejectsUnknownKindsAndNames) {
  const std::string text = to_json_string(tiny_result());
  for (const auto& [from, to] :
       {std::pair{"\"kind\":\"btree\"", "\"kind\":\"bogus\""},
        std::pair{"\"lock\":\"MCS\"", "\"lock\":\"bogus\""},
        std::pair{"\"scheme\":\"hle-scm\"", "\"scheme\":\"bogus\""},
        std::pair{"\"conflict_policy\":\"oldest-wins\"",
                  "\"conflict_policy\":\"bogus\""}}) {
    std::string bad = text;
    const auto at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, std::strlen(from), to);
    const auto doc = support::json::parse(bad);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(parse_results_json(*doc).has_value()) << to;
  }
}

TEST(SuiteJson, HostFieldsDefaultWhenAbsent) {
  // Documents written before host_threads existed must still parse, with
  // the sequential default.
  SuiteResult orig = tiny_result();
  orig.host_threads = 4;
  std::string json = to_json_string(orig);
  const auto cut = json.find("\"host_threads\"");
  ASSERT_NE(cut, std::string::npos);
  const auto end = json.find("\"total_wall_ms\"");
  ASSERT_NE(end, std::string::npos);
  json.erase(cut, end - cut);  // drop the host_threads key
  const auto doc = support::json::parse(json);
  ASSERT_TRUE(doc.has_value());
  const auto parsed = parse_results_json(*doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->host_threads, 1);
}

TEST(SuiteJson, RejectsWrongSchemaVersion) {
  const auto doc =
      support::json::parse("{\"schema_version\":999,\"points\":[]}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(parse_results_json(*doc).has_value());
}

TEST(SuiteGate, PassesOnIdenticalResults) {
  const SuiteResult base = tiny_result();
  const GateReport report = compare_to_baseline(base, base);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.notes.empty());
}

// The one regression a single-key change must produce.
GateIssue only_regression(const SuiteResult& cur, const SuiteResult& base) {
  const GateReport report = compare_to_baseline(cur, base);
  EXPECT_EQ(report.regressions.size(), 1u);
  return report.regressions.empty() ? GateIssue{} : report.regressions[0];
}

TEST(SuiteGate, DetectsPlantedThroughputRegression) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[0].metrics.throughput_ops_per_sec *= 0.5;  // planted: -50%
  const GateIssue reg = only_regression(cur, base);
  EXPECT_EQ(reg.point_id, base.points[0].def.id);
  EXPECT_EQ(reg.key, "metrics.throughput_ops_per_sec");
  EXPECT_EQ(reg.baseline, "10000000");
  EXPECT_EQ(reg.current, "5000000");
}

// Drifts far inside the old 10%/15%/0.08 tolerances, each of which moves a
// simulated result and so fails the exact gate.
TEST(SuiteGate, OneOpDriftIsARegression) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[3].metrics.ops += 1;
  const GateIssue reg = only_regression(cur, base);
  EXPECT_EQ(reg.point_id, base.points[3].def.id);
  EXPECT_EQ(reg.key, "metrics.ops");
  EXPECT_EQ(reg.baseline, "1003");
  EXPECT_EQ(reg.current, "1004");
}

TEST(SuiteGate, ChangedAbortCauseIsARegression) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[2].metrics.aborts_by_cause[static_cast<std::size_t>(
      tsx::AbortCause::kCapacity)] = 1;
  const GateIssue reg = only_regression(cur, base);
  EXPECT_EQ(reg.key, "metrics.aborts_by_cause.capacity");
  EXPECT_EQ(reg.baseline, "0");
  EXPECT_EQ(reg.current, "1");
}

TEST(SuiteGate, ChangedSwitchCountIsARegression) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[1].metrics.fp_switches += 1;
  EXPECT_EQ(only_regression(cur, base).key, "metrics.fastpath.switches");
  // A counter only one side emits is absent on the other.
  cur = base;
  cur.points[0].metrics.fp_switches = 5;
  const GateIssue reg = only_regression(cur, base);
  EXPECT_EQ(reg.key, "metrics.fastpath.switches");
  EXPECT_EQ(reg.baseline, "absent");
  EXPECT_EQ(reg.current, "5");
}

TEST(SuiteGate, ChangedDefinitionFieldIsARegression) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  std::visit([](auto& p) { p.seeds += 1; }, cur.points[4].def.spec);
  const GateIssue reg = only_regression(cur, base);
  EXPECT_EQ(reg.point_id, base.points[4].def.id);
  EXPECT_EQ(reg.key, "seeds");
}

TEST(SuiteGate, HostFieldsAreNotCompared) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  for (auto& p : cur.points) {
    p.metrics.sim_ops_per_sec = 1e6;
    p.metrics.wall_ms = 12.5;
  }
  cur.host_cores = 64;
  cur.jobs = 4;
  cur.host_threads = 2;
  cur.total_wall_ms = 99.0;
  EXPECT_TRUE(compare_to_baseline(cur, base).ok());
}

// A document without telemetry reports no avalanches; the avalanche
// counters are compared only when both sides have telemetry compiled in.
TEST(SuiteGate, AvalancheCountersNeedTelemetryOnBothSides) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.telemetry_compiled = false;
  for (auto& p : cur.points) {
    p.metrics.avalanche_episodes = 0;
    p.metrics.avalanche_victims = 0;
  }
  EXPECT_TRUE(compare_to_baseline(cur, base).ok());
  EXPECT_TRUE(compare_to_baseline(base, cur).ok());

  cur = base;
  cur.points[0].metrics.avalanche_victims += 1;
  EXPECT_EQ(only_regression(cur, base).key, "metrics.avalanche_victims");
}

TEST(SuiteGate, DifferentRunConfigIsOneNotComparableRegression) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.duration_scale = 0.5;
  for (auto& p : cur.points) p.metrics.ops /= 2;
  EXPECT_EQ(only_regression(cur, base).key, "config");
  cur = base;
  cur.ghz = 2.0;
  EXPECT_EQ(only_regression(cur, base).key, "config");
}

TEST(SuiteGate, DetectsPlantedSimulatorSlowdown) {
  SuiteResult base = tiny_result();
  for (auto& p : base.points) p.metrics.sim_ops_per_sec = 1e6;
  SuiteResult cur = base;
  cur.points[0].metrics.sim_ops_per_sec *= 0.2;  // past the default 75% slack
  const GateIssue reg = only_regression(cur, base);
  EXPECT_EQ(reg.point_id, base.points[0].def.id);
  EXPECT_EQ(reg.key, "metrics.sim_ops_per_sec");
}

TEST(SuiteGate, SimSpeedSkippedWithoutBaselineDataOrWhenDisabled) {
  // Baselines that predate sim_ops_per_sec carry 0: never a regression.
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[0].metrics.sim_ops_per_sec = 1e6;
  EXPECT_TRUE(compare_to_baseline(cur, base).ok());

  // simops_rel >= 1.0 disables the check even with data on both sides.
  SuiteResult base2 = base;
  for (auto& p : base2.points) p.metrics.sim_ops_per_sec = 1e6;
  SuiteResult cur2 = base2;
  cur2.points[0].metrics.sim_ops_per_sec = 1.0;  // 6 orders slower
  EXPECT_TRUE(compare_to_baseline(cur2, base2, /*simops_rel=*/1.0).ok());
}

TEST(SuiteGate, MissingBaselinePointIsCoverageLoss) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points.pop_back();
  EXPECT_EQ(only_regression(cur, base).key, "coverage");
}

TEST(SuiteInvariants, ViolationIsReportedOnDoctoredResults) {
  SuiteResult r = tiny_result();
  // Make HLE-SCM slower than HLE on the contended MCS point.
  auto* hle = const_cast<PointRecord*>(r.find("rb-s64-u20-t8-mcs-hle"));
  auto* scm = const_cast<PointRecord*>(r.find("rb-s64-u20-t8-mcs-hle-scm"));
  ASSERT_NE(hle, nullptr);
  ASSERT_NE(scm, nullptr);
  hle->metrics.throughput_ops_per_sec = 2e7;
  scm->metrics.throughput_ops_per_sec = 1e7;
  bool found = false;
  for (const auto& inv : check_invariants(r)) {
    if (inv.name == "scm-beats-hle-on-contended-mcs") {
      EXPECT_FALSE(inv.skipped);
      EXPECT_FALSE(inv.ok);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SuiteInvariants, NestedScmPointMustNotAbortOnNesting) {
  auto verdict = [](std::uint64_t nesting_aborts) {
    SuiteResult r = tiny_result();
    auto* nested = const_cast<PointRecord*>(
        r.find("rb-s64-u20-t8-ttas-hle-scm-nested"));
    EXPECT_NE(nested, nullptr);
    nested->metrics.aborts_by_cause[static_cast<std::size_t>(
        tsx::AbortCause::kNesting)] = nesting_aborts;
    for (const auto& inv : check_invariants(r)) {
      if (inv.name == "scm-nested-never-aborts-on-nesting") {
        EXPECT_FALSE(inv.skipped);
        return inv.ok;
      }
    }
    ADD_FAILURE() << "invariant not reported";
    return false;
  };
  EXPECT_TRUE(verdict(0));
  // The count the point recorded without the engine flag.
  EXPECT_FALSE(verdict(51426));
}

TEST(SuiteInvariants, MissingPointsAreSkippedNotFailed) {
  SuiteResult empty;
  for (const auto& inv : check_invariants(empty)) {
    EXPECT_TRUE(inv.skipped) << inv.name;
    EXPECT_TRUE(inv.ok) << inv.name;
  }
}

// End-to-end smoke on one real point: running the same suite point twice is
// bit-identical (the gate depends on this determinism).
TEST(SuiteRun, PointIsDeterministic) {
  const auto points = suite_points_for(SuiteTier::kSmoke);
  ASSERT_FALSE(points.empty());
  RbPoint p = std::get<RbPoint>(points[1].spec);  // ttas-hle
  p.duration_sec = 0.0005;
  const PointMetrics a = PointMetrics::derive(run_rb_point(p));
  const PointMetrics b = PointMetrics::derive(run_rb_point(p));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_DOUBLE_EQ(a.throughput_ops_per_sec, b.throughput_ops_per_sec);
  EXPECT_EQ(a.aborts_by_cause, b.aborts_by_cause);
}

}  // namespace
}  // namespace elision::harness
