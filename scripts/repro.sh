#!/usr/bin/env bash
# Reproduces everything: build, full test suite, the bench suite's paper
# tier rendered by scripts/figures.py (Fig 3.4-5.3, Ch. 6-7 and the RB-tree
# ablations), then every remaining figure/table bench.
# Outputs land in test_output.txt, BENCH_results.json and bench_output.txt
# at the repo root. ELISION_BENCH_SCALE=<x> lengthens bench runs for
# smoother curves (EXPERIMENTS.md's generated tables are at 1).
set -uo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build --timeout 600 2>&1 | tee test_output.txt

{
  echo "### bench_suite --tier paper"
  build/tools/bench_suite --tier paper --jobs "$(nproc)" --quiet \
      --out BENCH_results.json
  python3 scripts/figures.py BENCH_results.json
  for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "### $(basename "$b")"
    "$b"
  done
} 2>&1 | tee bench_output.txt
