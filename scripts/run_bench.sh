#!/usr/bin/env bash
# Builds the Release preset and runs one suite of bench_main, writing a
# BENCH_<suite>.json with per-bench wall-clock and throughput.
#
#   scripts/run_bench.sh [OUT.json] [--suite NAME] [extra bench args...]
#
# --suite (default: update) is passed through to bench_main:
#   update    end-to-end update per topology family
#   recovery  WAL/checkpoint/crash-recovery
#   tcp       frame codec, loopback sockets, coalescing, trace overhead
#   queries   MVCC query plane: QPS quiescent vs during an update
#   paper     the paper's Section-5 experiments (E1-E5, A1-A6, B1)
#   all       every suite
# The tcp and queries suites also write <OUT>_obs.json, the observability
# snapshot of their traced run. Extra args (e.g. --filter SUBSTR, --repeat N)
# are passed through.
#
# Env: P2PDB_BENCH_REPEAT (default 2), P2PDB_BENCH_FULL=1 for paper-scale
# record counts.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# First arg is the output file unless it is a flag.
OUT=""
if [[ $# -gt 0 && $1 != --* ]]; then
  OUT="$1"
  shift
fi

SUITE="update"
ARGS=()
while [[ $# -gt 0 ]]; do
  if [[ $1 == --suite ]]; then
    [[ $# -ge 2 ]] || { echo "error: --suite needs a name" >&2; exit 2; }
    SUITE="$2"
    shift 2
  else
    ARGS+=("$1")
    shift
  fi
done
OUT="${OUT:-BENCH_$SUITE.json}"

if [[ "$SUITE" == tcp || "$SUITE" == queries ]]; then
  ARGS+=(--obs "${OUT%.json}_obs.json")
fi

cmake --preset release
cmake --build --preset release -j "$(nproc)" --target bench_main

./build/release/bench_main --suite "$SUITE" --out "$OUT" \
    --repeat "${P2PDB_BENCH_REPEAT:-2}" "${ARGS[@]+"${ARGS[@]}"}"

case "$OUT" in
  /*) echo "bench results: $OUT" ;;
  *)  echo "bench results: $ROOT/$OUT" ;;
esac
