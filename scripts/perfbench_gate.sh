#!/usr/bin/env bash
# perfbench as a build-and-digest gate.
#
# Builds perfbench from this checkout (perfbench/run.py: Release, under
# .bench_build/perfbench unless CARGO_TARGET_DIR is set), runs every
# workload for one second at seed 0 untraced and nba-rounds once traced,
# and fails when a run reports `correct: false` or its digest differs
# from the one perfbench/digests.json records for that workload, seed and
# mode. It never records a digest. A library change that breaks an API
# perfbench names fails here at the build step.
#
# Usage: scripts/perfbench_gate.sh
# Exits 0 when every run is correct and reproduces its digest, 1 otherwise.

set -euo pipefail
cd "$(dirname "$0")/.."

# Reads run.py's standard output: the digest line and, last, the result.
read -r -d '' CHECK <<'PY' || true
import json, re, sys
workload, trace = sys.argv[1], sys.argv[2]
lines = sys.stdin.read().strip().splitlines()
digest = [re.match(r"perfbench: digest=(\S+) recorded=(\S+)", l) for l in lines]
digest = [m for m in digest if m]
result = json.loads(lines[-1])
where = f"{workload} trace={trace}"
ok = True
if not digest or digest[-1].group(2) == "none":
    print(f"FAILED: {where}: no recorded digest to compare", file=sys.stderr)
    ok = False
elif digest[-1].group(1) != digest[-1].group(2):
    print(f"FAILED: {where}: digest {digest[-1].group(1)} differs from the "
          f"recorded {digest[-1].group(2)}", file=sys.stderr)
    ok = False
if result.get("correct") is not True:
    print(f"FAILED: {where}: correct is {result.get('correct')}",
          file=sys.stderr)
    ok = False
if ok:
    print(f"ok: {where} digest {digest[-1].group(1)}")
sys.exit(0 if ok else 1)
PY

status=0
gate() {
  local workload="$1" trace="$2" out
  if ! out="$(python3 perfbench/run.py --workload "$workload" --seed 0 \
                --seconds 1 --trace "$trace")"; then
    echo "FAILED: $workload trace=$trace: run.py exited non-zero" >&2
    status=1
    return
  fi
  if ! python3 -c "$CHECK" "$workload" "$trace" <<<"$out"; then
    status=1
  fi
}

for workload in person-batch nba-rounds nba-naive; do
  gate "$workload" 0
done
gate nba-rounds 1
exit "$status"
