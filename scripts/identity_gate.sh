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
      "$BASE_BIN" "${flags[@]}" --out "$WORK_DIR/$name.base.json"
      "$CHANGE_BIN" "${flags[@]}" --out "$WORK_DIR/$name.change.json"
      if cmp -s "$WORK_DIR/$name.base.json" \
                "$WORK_DIR/$name.change.json"; then
        echo "identical: $name"
      else
        echo "DIFFERS:   $name" >&2
        status=1
      fi
    done
  done
done
exit "$status"
