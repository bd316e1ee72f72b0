#!/usr/bin/env bash
# Strict pre-merge check: configure with warnings-as-errors, build
# everything, run the full test suite (plain and under ASan+UBSan), and
# smoke-test the telemetry and stress paths end to end (trace_dump must
# detect the HLE avalanche and export metrics; stress_cli must hold all
# invariants over a perturbed sweep and find both planted bugs — the
# RacyLock race and the GreedySharedLock writer starvation).
# The adaptive controller gets its own smoke (decision trace printed, at
# least one migration under a write storm, malformed policy specs rejected)
# and an end-to-end outcome check on the phase-shifting bench points.
# The sharded KV service is checked end to end as well: the kv-* smoke
# points must report the full per-op latency-percentile schema and the
# hot-shard avalanche signature, and every CLI must reject malformed
# numeric flag values (strict shared parser, no atoi truncation).
# Finally runs the bench-suite smoke tier gated against the committed
# baseline (bench/baseline.json; the gate requires every deterministic field
# to match exactly), checks that `bench_suite --list` shows the registry's
# real point fields, re-runs the tier with --jobs 2 --host-threads 2
# (in-process pool) and gates it against the sequential results to prove
# parallel execution reproduces them exactly (the scheduler's fastpath
# decision count included), and self-checks that a planted 50% throughput
# regression, a planted 1e-6 throughput drift and a planted 5x simulator
# slowdown are all caught. A ThreadSanitizer build of the
# parallel paths (parallel_test plus a threaded stress smoke) guards the
# in-process fan-out itself, with the engine's fiber switches annotated via
# the TSan fiber API; the same build runs abort_delivery_test, whose abort
# checkpoints setjmp/longjmp on fiber stacks.
# The ASan+UBSan ctest pass includes line_table_test's randomized
# differential fuzz of the open-addressing LineTable against a
# std::unordered_map reference, plus the wide-thread-mask paths
# (thread_set_test, line_table_test's 256-thread mutation fuzz), the
# ready-queue differential fuzz (ready_queue_test) behind the O(log N)
# scheduler, and fastpath_test's on/off differential over the scheduler's
# switch-bound batching.
# The bench-suite smoke gate carries both simulator-speed canaries:
# micro-engine-rtm-t8 (the paper's 8-hyperthread machine) and
# micro-engine-rtm-t64 (64 threads on 32 cores), so a host-side regression
# on either end of the machine-size range fails the gate.
# The per-access fast path gets its own section: a best-of-5 assert that
# the t64 canary really runs >= 1.5x the committed pre-fast-path speed, a
# planted-invalidation self-check (a deliberately stale cached line ref must
# be caught by the generation stamp, not silently served) beside the
# batching differential under ASan, and a gated paper-tier run (a superset
# of the full tier) that must carry the 128- and 256-thread fig5.1
# machine-scale points. scripts/figures.py renders that run, and
# EXPERIMENTS.md's generated tables must equal the fresh render.
# Uses its own build trees (build-check*/) so it never dirties build/.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-check

cmake -B "$BUILD" -S . -DELISION_WERROR=ON -DELISION_TELEMETRY=ON
cmake --build "$BUILD" -j

ctest --test-dir "$BUILD" --output-on-failure -j

# The same suite under AddressSanitizer + UndefinedBehaviorSanitizer: the
# simulator is single-OS-threaded, so this is cheap and catches exactly the
# class of bug the stress subsystem hunts (overflow, slot-array overruns,
# use-after-free in rolled-back free lists).
SAN_BUILD=build-check-san
cmake -B "$SAN_BUILD" -S . -DELISION_WERROR=ON -DELISION_SANITIZE=ON
cmake --build "$SAN_BUILD" -j
ctest --test-dir "$SAN_BUILD" --output-on-failure -j

# ThreadSanitizer over the in-process parallel paths: the pool itself, the
# per-run simulations fanned out across host threads (fiber switches are
# annotated through the TSan fiber API), and a threaded stress smoke. Only
# the parallel-facing targets are built — everything else is identical
# single-threaded code already covered above — plus abort_delivery_test,
# because abort checkpoints setjmp/longjmp on fiber stacks, which TSan
# tracks per fiber.
TSAN_BUILD=build-check-tsan
cmake -B "$TSAN_BUILD" -S . -DELISION_WERROR=ON -DELISION_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD" -j --target parallel_test stress_cli fastpath_test \
      abort_delivery_test
"$TSAN_BUILD"/tests/parallel_test || {
  echo "check: parallel_test failed under ThreadSanitizer" >&2; exit 1; }
"$TSAN_BUILD"/tests/fastpath_test || {
  echo "check: fastpath_test failed under ThreadSanitizer" >&2; exit 1; }
"$TSAN_BUILD"/tests/abort_delivery_test || {
  echo "check: abort_delivery_test failed under ThreadSanitizer" >&2; exit 1; }
"$TSAN_BUILD"/tools/stress_cli --schemes HLE --locks TTAS --seeds 2 \
    --host-threads 4 --quiet || {
  echo "check: threaded stress smoke failed under ThreadSanitizer" >&2
  exit 1; }

# Telemetry smoke: HLE over MCS must show at least one avalanche episode,
# and the six-scheme sweep must export a parseable metrics file.
out=$("$BUILD"/tools/trace_dump --lock mcs --scheme hle --size 64 \
      --threads 8 --ms 1)
echo "$out"
echo "$out" | grep -q "avalanche episodes" || {
  echo "check: trace_dump produced no telemetry summary" >&2; exit 1; }
echo "$out" | grep -Eq "[1-9][0-9]* avalanche episodes" || {
  echo "check: no avalanche detected under HLE/MCS" >&2; exit 1; }
# trace_dump takes the simulator's whole thread range, like elide.
out=$("$BUILD"/tools/trace_dump --lock mcs --scheme hle --threads 128 --ms 0.1)
echo "$out" | grep -Eq "[1-9][0-9]* avalanche episodes" || {
  echo "check: trace_dump --threads 128 recorded no avalanche" >&2; exit 1; }

# Adaptive-controller smoke: an adaptive run over a phase-shifting level of
# contention must print its decision trace with at least one migration, and
# the spec parser behind every CLI must reject malformed knob values instead
# of wrapping them around.
out=$("$BUILD"/tools/trace_dump --lock ttas --scheme adaptive:window=16 \
      --size 12 --threads 16 --updates 100 --ms 1)
echo "$out" | grep -q "adaptive controller" || {
  echo "check: trace_dump printed no adaptive decision trace" >&2; exit 1; }
echo "$out" | grep -Eq "[1-9][0-9]* migration" || {
  echo "check: adaptive controller never migrated under a write storm" >&2
  exit 1; }
echo "adaptive: decision trace present with at least one migration"
for bad in adaptive:window=-5 adaptive:up=-60 hle:spec-attempts=-1 \
           hle:backoff=4294967296000000000000 adaptive:window= adaptive:up=3x
do
  if "$BUILD"/tools/trace_dump --lock ttas --scheme "$bad" --ms 0.1 \
      >/dev/null 2>&1; then
    echo "check: spec parser accepted malformed policy '$bad'" >&2; exit 1
  fi
done
echo "adaptive: parser rejects malformed knob values"

# elide stamp carries the whole policy, not just its scheme: a knob must
# change the run (capping HLE at one speculative attempt bounds attempts/op
# at 2; zero SCM retries serializes sooner).
stamp_line() {
  "$BUILD"/tools/elide stamp intruder --scale 0.25 --scheme "$1" |
    grep "attempts/op"
}
for pair in hle,hle:spec-attempts=1 hle-scm,hle-scm:scm-retries=0; do
  [ "$(stamp_line "${pair%%,*}")" != "$(stamp_line "${pair#*,}")" ] || {
    echo "check: elide stamp ignored the knob in ${pair#*,}" >&2; exit 1; }
done
echo "elide stamp: policy knobs reach the STAMP critical sections"

metrics=$(mktemp)
trap 'rm -f "$metrics"' EXIT
"$BUILD"/tools/trace_dump --lock mcs --all-schemes --size 64 --threads 8 \
    --ms 0.5 --metrics "$metrics" >/dev/null
python3 - "$metrics" <<'EOF'
import json, sys
series = json.load(open(sys.argv[1]))["series"]
assert len(series) == 6, f"expected 6 scheme series, got {len(series)}"
for s in series:
    assert "aborts_by_cause" in s and "attempts_hist" in s, s["scheme"]
print("metrics export: 6 schemes, abort-cause matrix + histograms present")
EOF

# Stress smoke: a small perturbed sweep over every scheme x lock must hold
# every invariant, and the self-test must *find* the planted RacyLock bug
# (proof the checkers are not vacuous). Fixed seeds: fully reproducible.
# The sweep fans out across 4 host threads (the simulated results are
# byte-identical to --host-threads 1; see the identity check below).
"$BUILD"/tools/stress_cli --schemes all --locks all --seeds 3 \
    --host-threads 4 --quiet || {
  echo "check: stress sweep found an invariant violation" >&2; exit 1; }
"$BUILD"/tools/stress_cli --selftest --seeds 5 || {
  echo "check: stress self-test missed the planted RacyLock bug" >&2
  exit 1; }
"$BUILD"/tools/stress_cli --selftest-shared --seeds 5 || {
  echo "check: shared-mode self-test failed (planted GreedySharedLock" \
       "writer starvation missed, or the correct lock was flagged)" >&2
  exit 1; }

# Host-thread fan-out must not change a single byte of stress output:
# compare the full stdout of a threaded sweep against a sequential one.
stress_seq=$("$BUILD"/tools/stress_cli \
    --schemes HLE,HLE-SCM,opt-SLR,adaptive:window=8 \
    --locks all --seeds 2 --quiet)
stress_par=$("$BUILD"/tools/stress_cli \
    --schemes HLE,HLE-SCM,opt-SLR,adaptive:window=8 \
    --locks all --seeds 2 --quiet --host-threads 2)
[ "$stress_seq" = "$stress_par" ] || {
  echo "check: stress --host-threads 2 diverged from --host-threads 1" >&2
  exit 1; }
echo "stress: --host-threads 2 reproduces the sequential sweep exactly"

# Same identity specifically for shared-mode execution: the btree workload
# over the two-mode locks (elided readers, reader-writer checkers) must
# produce byte-identical output at any host-thread count.
shared_seq=$("$BUILD"/tools/stress_cli --schemes hle,hle-scm+shared \
    --locks Shared-TTAS,Shared-MCS --workloads btree --seeds 3 --quiet)
shared_par=$("$BUILD"/tools/stress_cli --schemes hle,hle-scm+shared \
    --locks Shared-TTAS,Shared-MCS --workloads btree --seeds 3 --quiet \
    --host-threads 4)
[ "$shared_seq" = "$shared_par" ] || {
  echo "check: shared-mode stress diverged across --host-threads counts" >&2
  exit 1; }
echo "stress: shared-mode btree sweep is byte-identical across host threads"

# On multi-core hosts the fan-out must actually buy wall time: demand at
# least 1.5x at --host-threads 4 (the target on an idle 4+-core machine is
# 2x; 1.5x keeps a loaded CI box from flaking). Meaningless on fewer than
# 4 cores, so skipped there.
if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ]; then
  python3 - "$BUILD" <<'EOF'
import subprocess, sys, time
build = sys.argv[1]
def run(ht):
    t0 = time.monotonic()
    subprocess.run([f"{build}/tools/stress_cli", "--schemes", "all",
                    "--locks", "all", "--seeds", "2", "--quiet",
                    "--host-threads", str(ht)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.monotonic() - t0
serial, par = run(1), run(4)
speedup = serial / par if par > 0 else 0.0
print(f"stress: --host-threads 4 speedup {speedup:.2f}x"
      f" ({serial:.1f}s -> {par:.1f}s)")
assert speedup >= 1.5, "threaded stress smoke speedup below 1.5x"
EOF
else
  echo "stress: skipping --host-threads speedup check (host has <4 cores)"
fi

# Bench-suite smoke: run the curated smoke tier, emit canonical results,
# check the paper-qualitative invariants, and gate against the committed
# baseline (see docs/benchmarks.md for the exact gate and the re-pin rule).
# The committed baseline's sim_ops_per_sec came from a different machine, so
# the simulator-speed gate here only catches order-of-magnitude slowdowns
# (--tol-simops 0.9); the tight same-machine check comes further down.
bench_json=$(mktemp)
trap 'rm -f "$metrics" "$bench_json"' EXIT
"$BUILD"/tools/bench_suite --tier smoke --out "$bench_json" \
    --baseline bench/baseline.json --gate --tol-simops 0.9 --quiet || {
  echo "check: bench_suite smoke gate failed (perf regression or paper" \
       "invariant violation)" >&2; exit 1; }
python3 - "$bench_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1 and doc["tier"] == "smoke", doc.keys()
assert doc["points"], "no points in BENCH_results.json"
host = doc["run"]["host"]
assert host["cores"] >= 1 and host["jobs"] == 1, host
assert host["host_threads"] == 1, host
assert host["total_wall_ms"] > 0
for p in doc["points"]:
    m = p["metrics"]
    for key in ("throughput_ops_per_sec", "spec_fraction",
                "nonspec_fraction", "attempts_per_op", "aborts_by_cause",
                "avalanche_episodes", "sim_ops_per_sec", "wall_ms"):
        assert key in m, f"{p['id']} missing {key}"
    assert m["sim_ops_per_sec"] > 0, f"{p['id']} has no simulator speed"
ids = {p["id"] for p in doc["points"]}
for canary in ("micro-engine-rtm-t8", "micro-engine-rtm-t64"):
    assert canary in ids, f"simulator-speed canary {canary} missing"
print(f"bench suite: {len(doc['points'])} smoke points, schema valid,"
      f" both sim-speed canaries present")
EOF

# --list reads each point kind's field table: a full-tier B+tree row must
# show its real lock, policy spec and tree size.
"$BUILD"/tools/bench_suite --list --tier full | awk '
  $1 == "bt-s1024-u10-c100-l64-t8-shared-mcs-hle+shared" &&
  $5 == "shared-mcs" && $6 == "hle+shared" && $7 == 1024 { found = 1 }
  END { exit !found }' || {
  echo "check: bench_suite --list misreports the shared-mcs btree row" >&2
  exit 1; }
echo "bench suite: --list shows btree lock, policy and size"

# Adaptive end-to-end outcome: the smoke tier carries the phase-shifting
# points (ph-*, figure adaptive-phases). Beyond the suite's own gated
# invariants (adaptive within 0.9x of the per-phase-best static scheme in
# every phase; every static scheme losing at least one phase), pin the
# headline here: adaptive's total commits beat the worst static scheme's.
python3 - "$bench_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
phase = {p["id"]: p["metrics"] for p in doc["points"]
         if p["id"].startswith("ph-")}
assert len(phase) == 5, f"expected 5 phase points, got {sorted(phase)}"
for pid, m in phase.items():
    assert len(m["phase_ops"]) == 3, f"{pid}: phase_ops {m['phase_ops']}"
    assert sum(m["phase_ops"]) > 0, f"{pid}: no commits recorded"
adaptive = next(m for pid, m in phase.items() if pid.endswith("-adaptive"))
statics = [m for pid, m in phase.items() if not pid.endswith("-adaptive")]
worst = min(sum(m["phase_ops"]) for m in statics)
assert sum(adaptive["phase_ops"]) > worst, (
    f"adaptive total {sum(adaptive['phase_ops'])} does not beat the worst "
    f"static scheme's {worst}")
print(f"adaptive: {sum(adaptive['phase_ops'])} total commits vs worst "
      f"static {worst} across the phase shift")
EOF

# Sharded-KV service end-to-end outcome: the smoke tier carries the kv-*
# points (docs/service.md). Beyond the suite's own gated invariants
# (latency series ordered, hot-shard avalanche, hle elides while standard
# never does), pin the latency schema here: every kv point reports all
# four op kinds with populated, ordered percentiles, and the hot-shard
# telemetry point recorded at least one avalanche episode.
python3 - "$bench_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
kv = {p["id"]: p["metrics"] for p in doc["points"] if p["kind"] == "kv"}
assert len(kv) == 4, f"expected 4 kv smoke points, got {sorted(kv)}"
for pid, m in kv.items():
    lat = m["latency"]
    assert sorted(lat) == ["get", "multi_put", "put", "transfer"], (pid, lat)
    for op, l in lat.items():
        assert l["samples"] > 0, f"{pid}/{op}: no latency samples"
        assert (l["p50_cycles"] <= l["p99_cycles"] <= l["p999_cycles"]
                <= l["max_cycles"]), f"{pid}/{op}: unordered percentiles {l}"
hot = kv["kv-sh8-k8192-z120-u50-t8-hle"]
assert hot["avalanche_episodes"] >= 1, (
    f"hot-shard point saw no avalanche: {hot['avalanche_episodes']}")
std = kv["kv-sh8-k8192-z99-u30-t8-standard"]
assert std["spec_fraction"] == 0.0, std["spec_fraction"]
print(f"kv service: 4 smoke points with full latency schema; hot shard "
      f"logged {hot['avalanche_episodes']} avalanche episodes")
EOF

# Per-access fast path (docs/simulator.md "The per-access fast path").
# (a) Speed: the per-access fast path (switch-bound batching and the
# LineTable::Cache record memo) must keep the micro-engine-rtm-t64 canary at
# >= 1.5x the simulator speed recorded just before the fast path landed
# (bench/baseline.json as of the O(1) ready-queue PR: 1433953.817 sim
# ops/s on this host class). Best-of-5 rides out noise on a loaded
# single-core CI box; the smoke gate above already catches
# order-of-magnitude regressions, this pins the headline.
python3 - "$BUILD" <<'EOF'
import json, subprocess, sys, tempfile
build = sys.argv[1]
PRE_FASTPATH_SIMOPS = 1433953.817  # t64 canary before the per-access fast path
best = 0.0
for _ in range(5):
    with tempfile.NamedTemporaryFile(suffix=".json") as f:
        subprocess.run([f"{build}/tools/bench_suite", "--tier", "smoke",
                        "--point", "micro-engine-rtm-t64", "--out", f.name,
                        "--quiet"], check=True)
        m = json.load(open(f.name))["points"][0]["metrics"]
        best = max(best, m["sim_ops_per_sec"])
speedup = best / PRE_FASTPATH_SIMOPS
print(f"fastpath: t64 canary best-of-5 {best:,.0f} sim ops/s,"
      f" {speedup:.2f}x the pre-fast-path engine")
assert speedup >= 1.5, (
    f"fast-path speedup {speedup:.2f}x fell below the 1.5x target")
EOF

# (b) Planted invalidation: the differential tests deliberately hold stale
# cached (line, generation, record) refs across clear()/grow() and assert
# the generation stamp forces a re-probe instead of serving the stale
# payload. Run them named, under ASan, so a silently-served stale ref is a
# loud failure here even if someone trims the ctest registration.
"$SAN_BUILD"/tests/line_table_test --gtest_filter=\
'LineTable.CacheSurvivesClearAndGrow:LineTableDifferential.*' || {
  echo "check: planted stale cached ref was not caught by the generation" \
       "stamp" >&2; exit 1; }
"$SAN_BUILD"/tests/fastpath_test || {
  echo "check: batching differential failed under ASan/UBSan" >&2; exit 1; }

# (c) Machine scale and the paper's figures: the paper tier holds the full
# tier and every run of the RB-tree figures and ablations. Its points shared
# with the committed baseline (all 48 full-tier points) must gate green
# exactly; the rest are reported as notes. It must carry the 128- and
# 256-thread fig5.1 points the fast path paid for (the t256 shape is the
# scheduler's kMaxSimThreads ceiling).
bench_paper_json=$(mktemp)
experiments=$(mktemp)
trap 'rm -f "$metrics" "$bench_json" "$bench_paper_json" "$experiments"' EXIT
jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -le 4 ] || jobs=4
"$BUILD"/tools/bench_suite --tier paper --jobs "$jobs" \
    --out "$bench_paper_json" --baseline bench/baseline.json --gate \
    --tol-simops 0.9 --quiet || {
  echo "check: bench_suite paper-tier gate failed" >&2; exit 1; }
# EXPERIMENTS.md carries scripts/figures.py's tables of this run verbatim.
cp EXPERIMENTS.md "$experiments"
python3 scripts/figures.py "$bench_paper_json" --write "$experiments"
diff -u EXPERIMENTS.md "$experiments" || {
  echo "check: EXPERIMENTS.md's generated tables differ from a fresh" \
       "render (python3 scripts/figures.py RESULTS --write EXPERIMENTS.md)" >&2
  exit 1; }
echo "figures: EXPERIMENTS.md's generated tables match the paper tier"
python3 - "$bench_paper_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
ids = {p["id"] for p in doc["points"]}
for pid in ("rb-s64-u20-t128-ttas-hle-scm-m64x2",
            "rb-s64-u20-t256-ttas-hle-scm-m128x2"):
    assert pid in ids, f"machine-scale point {pid} missing from full tier"
big = {p["id"]: p["metrics"] for p in doc["points"]
       if p["id"].endswith(("-m64x2", "-m128x2"))}
for pid, m in big.items():
    assert m["tx"]["commits"] > 0, f"{pid}: no commits"
    assert m["spec_fraction"] > 0.5, f"{pid}: {m['spec_fraction']}"
print(f"fastpath: paper tier gated green with both machine-scale points"
      f" ({len(ids)} points)")
EOF

# Strict CLI parsing: every tool now routes numeric flags through
# support/parse.hpp, so trailing garbage, bare negatives where they make
# no sense, empty values and overflow must all be *rejected* (exit 2)
# instead of silently truncated by atoi/atof.
for cli_bad in \
    "bench_suite --tier smoke --jobs foo" \
    "bench_suite --tier smoke --jobs -1" \
    "bench_suite --tier smoke --jobs 2x" \
    "bench_suite --tier smoke --host-threads 1.5" \
    "bench_suite --tier smoke --tol-simops -0.1" \
    "bench_suite --tier smoke --plant-regression 0junk" \
    "elide --threads 8y" \
    "elide --ms -3" \
    "elide --size 99999999999999999999999" \
    "trace_dump --window 0" \
    "trace_dump --threads ''" \
    "trace_dump --threads 257" \
    "elide stamp intruder --scheme hle+shared" \
    "stress_cli --seeds 1e9junk" \
    "stress_cli --threads 1x" \
    "stress_cli --prob 1.5" \
    "stress_cli --first-seed -2" \
    "elide tree --threads 0" \
    "elide tree --threads 257" \
    "stress_cli --threads 0" \
    "stress_cli --threads 300" \
    "bench_suite --point no-such-point-id --out /dev/null"
do
  tool=${cli_bad%% *}
  args=${cli_bad#* }
  if eval "\"$BUILD\"/tools/$tool $args" >/dev/null 2>&1; then
    echo "check: $tool accepted malformed flag value: $args" >&2; exit 1
  fi
done
echo "CLI parsing: all tools reject malformed numeric flag values"

# Parallel execution must reproduce the sequential run exactly: every
# simulated metric is deterministic per seed, so running the points on the
# in-process pool (--jobs), with per-point multi-seed fan-out
# (--host-threads), may only change the host fields (wall_ms,
# sim_ops_per_sec, run.host). The exact gate against the sequential results
# checks that; --tol-simops 1 leaves host speed out of it.
bench_thr_json=$(mktemp)
trap 'rm -f "$metrics" "$bench_json" "$bench_paper_json" "$experiments" \
    "$bench_thr_json"' EXIT
"$BUILD"/tools/bench_suite --tier smoke --jobs 2 --host-threads 2 \
    --out "$bench_thr_json" --baseline "$bench_json" --gate --tol-simops 1 \
    --quiet || {
  echo "check: bench_suite --jobs 2 --host-threads 2 diverged from the" \
       "sequential run" >&2; exit 1; }
grep -q '"jobs":2,"host_threads":2,' "$bench_thr_json" || {
  echo "check: run.host does not record --jobs 2 --host-threads 2" >&2
  exit 1; }
# The scheduler's decision count is part of that identity.
grep -q '"fastpath":{"switches":[1-9]' "$bench_json" || {
  echo "check: fastpath switches missing from the smoke results" >&2; exit 1; }
echo "bench suite: --jobs 2 --host-threads 2 reproduces the sequential" \
     "results exactly, fastpath switches included"

# Gate self-checks: a planted 50% throughput regression, a planted 1e-6
# throughput drift (visible at the results' printed precision) and a
# planted 5x simulator slowdown must each fail the gate with a regression
# on the planted key (proof no gate is vacuous; a usage error or a broken
# invariant does not count). The slowdown check gates against the fresh
# same-machine results from above, where a tight sim_ops_per_sec tolerance
# is meaningful.
planted() {
  local key=$1 what=$2 out
  shift 2
  if out=$("$BUILD"/tools/bench_suite --tier smoke --out /dev/null --gate \
      --quiet "$@" 2>&1); then
    echo "check: bench gate missed a planted $what" >&2; exit 1
  fi
  grep -q "^REGRESSION: .* metrics\.$key:" <<<"$out" || {
    echo "check: planted $what failed without a $key regression" >&2
    exit 1; }
  echo "bench suite: self-check caught the planted $what"
}
planted throughput_ops_per_sec "50% throughput regression" \
    --plant-regression 0.5 --baseline bench/baseline.json
planted throughput_ops_per_sec "1e-6 throughput drift" \
    --plant-regression 0.999999 --baseline bench/baseline.json
planted sim_ops_per_sec "5x simulator slowdown" \
    --plant-slowdown 0.2 --baseline "$bench_json" --tol-simops 0.5

echo "check: OK"
