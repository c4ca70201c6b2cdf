#!/usr/bin/env bash
# Multi-process sharded experiment run with an exactness check.
#
# Fans the corpus out over N ccr_experiment shard processes, pools the
# shard JSONs with `ccr_experiment --merge`, and asserts the merged
# ExperimentResult is byte-identical (timings excluded via --no-timings)
# to a single-process run over the same corpus — the property that makes
# multi-machine sharding a matter of scp'ing JSON files.
#
# Every run resolves through one persistent-solver session per entity
# (GetSug by propagation probes, selector-guarded CFDs) with the default
# solver options. The one gate here is the merge: the merged shards equal
# the single-process run. Tier-1 tests hold the other solver options to
# byte parity with the defaults:
#   * arena GC off, on and eager:
#     SessionSoakTest.ExperimentBytesAreIdenticalAcrossLifecycleConfigs;
#   * model-cache seeding on (each Create and ExtendWith pushes the
#     least model of Phi(Se) into the solver's witness ring):
#     SlsAblationEquivalenceTest.SlsOnOffResolvesIdentically;
#   * seeding and inprocessing on together, on both deduce pipelines:
#     SolverAblationEquivalenceTest.EveryOptionComboResolvesIdentically.
#
# Usage: scripts/shard.sh [N] [build-dir]
# Environment:
#   CCR_SHARD_FLAGS  extra ccr_experiment run flags applied to shards and
#                    the reference run alike (e.g. "--dataset nba
#                    --entities 40 --threads 2")

set -euo pipefail

cd "$(dirname "$0")/.."
N="${1:-4}"
BUILD_DIR="${2:-build}"
# Intentionally unquoted below: a list of flags, not one argument.
FLAGS=(${CCR_SHARD_FLAGS:-})

if [[ ! -d "$BUILD_DIR" ]]; then
  CMAKE_ARGS=(-B "$BUILD_DIR" -S .)
  if [[ -z "${CMAKE_GENERATOR:-}" ]] && command -v ninja >/dev/null 2>&1; then
    CMAKE_ARGS+=(-G Ninja)
  fi
  cmake "${CMAKE_ARGS[@]}"
fi
cmake --build "$BUILD_DIR" -j --target ccr_experiment
BIN="$BUILD_DIR/tools/ccr_experiment"

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

echo "Fanning out $N shard processes..."
pids=()
for ((k = 0; k < N; ++k)); do
  "$BIN" "${FLAGS[@]}" --shard "$k/$N" --no-timings \
    --out "$WORK_DIR/shard_$k.json" &
  pids+=($!)
done
for pid in "${pids[@]}"; do
  wait "$pid"
done

"$BIN" --merge "$WORK_DIR"/shard_*.json --no-timings \
  --out "$WORK_DIR/merged.json"
"$BIN" "${FLAGS[@]}" --no-timings --out "$WORK_DIR/single.json"

if cmp "$WORK_DIR/merged.json" "$WORK_DIR/single.json"; then
  echo "OK: $N-shard merge is byte-identical to the single-process run"
else
  echo "FAIL: merged result differs from the single-process run" >&2
  diff "$WORK_DIR/merged.json" "$WORK_DIR/single.json" >&2 || true
  exit 1
fi
