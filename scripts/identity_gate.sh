#!/usr/bin/env bash
# Byte-identity gate between two builds of ccr_experiment.
#
# Runs `ccr_experiment --no-timings --entities 48` for every corpus
# (person, nba, career) on both Deduce pipelines (--deduce fast and
# --deduce naive) with each build, and `cmp`s each pair of serialized
# ExperimentResults. Each of the six runs twice: with the oracle's
# default schedule (every answer in the first round, so most entities
# extend once) and with one answer per round over up to six rounds, so
# that entities go through several ExtendWith calls on one session. A
# change that claims to move only time or memory must leave all twelve
# pairs byte-identical.
#
# Each run also dumps `--solver-stats`, and the gate requires the
# counters that show the solver searching or the pipeline asking it
# something else (conflicts, decisions, assumption_solves,
# deduce_queries, deduce_probes, deduce_fallbacks and suggest_probes)
# to be equal between the two builds in every phase. A formula change
# that keeps the verdicts but makes a phase search or fall back fails
# here. Propagations, sweeps and the other counters may move.
#
# Usage: scripts/identity_gate.sh BASE_BUILD CHANGE_BUILD
#   BASE_BUILD, CHANGE_BUILD  build directories holding
#                             tools/ccr_experiment (e.g. a build of the
#                             parent commit and one of the change)
# Exits 0 when every pair matches, 1 when any differs, 2 on bad usage.

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BASE_BUILD CHANGE_BUILD" >&2
  exit 2
fi
BASE_BIN="$1/tools/ccr_experiment"
CHANGE_BIN="$2/tools/ccr_experiment"
for bin in "$BASE_BIN" "$CHANGE_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "$0: no executable $bin" >&2
    exit 2
  fi
done

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

# The searching counters, in phase order, of a --solver-stats dump.
COUNTERS=(conflicts decisions assumption_solves deduce_queries
          deduce_probes deduce_fallbacks suggest_probes)
search_counters() {
  local counter
  for counter in "${COUNTERS[@]}"; do
    grep -o "\"$counter\": [0-9-]*" "$1" || true
  done
}

status=0
for dataset in person nba career; do
  for deduce in fast naive; do
    for schedule in batch one-per-round; do
      name="$dataset-$deduce-$schedule"
      flags=(--dataset "$dataset" --deduce "$deduce" --entities 48
             --no-timings)
      if [[ "$schedule" == one-per-round ]]; then
        flags+=(--rounds 6 --answers-per-round 1)
      fi
      "$BASE_BIN" "${flags[@]}" --solver-stats \
        --out "$WORK_DIR/$name.base.json" 2> "$WORK_DIR/$name.base.stats"
      "$CHANGE_BIN" "${flags[@]}" --solver-stats \
        --out "$WORK_DIR/$name.change.json" 2> "$WORK_DIR/$name.change.stats"
      if ! cmp -s "$WORK_DIR/$name.base.json" \
                  "$WORK_DIR/$name.change.json"; then
        echo "DIFFERS:   $name" >&2
        status=1
      elif [[ "$(search_counters "$WORK_DIR/$name.base.stats")" != \
              "$(search_counters "$WORK_DIR/$name.change.stats")" ]]; then
        echo "COUNTERS DIFFER: $name" >&2
        diff <(search_counters "$WORK_DIR/$name.base.stats") \
             <(search_counters "$WORK_DIR/$name.change.stats") >&2 || true
        status=1
      else
        echo "identical: $name"
      fi
    done
  done
done
exit "$status"
