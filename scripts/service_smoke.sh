#!/usr/bin/env bash
# CI service-smoke: start a real ccr_serve daemon, drive it with
# bench_service over the wire, and require a clean end-to-end pass:
#   * the daemon prints its READY line and serves the socket,
#   * the load generator completes with zero errors, byte-identical
#     replies after forced eviction and rehydration (a replay of the
#     session's in-memory op log), and >= 1 rehydration,
#   * the SHUTDOWN frame stops the daemon, which prints its STATS line
#     and exits 0 (clean teardown of every thread).
#
# Reuses an existing build dir when given one; otherwise configures a
# Release build without tests (same as scripts/bench.sh).
#
# Usage: scripts/service_smoke.sh [build-dir]

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"

if [[ ! -x "$BUILD_DIR/tools/ccr_serve" || ! -x "$BUILD_DIR/bench/bench_service" ]]; then
  CMAKE_ARGS=(-B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DCCR_BUILD_TESTS=OFF)
  if [[ -z "${CMAKE_GENERATOR:-}" ]] && command -v ninja >/dev/null 2>&1; then
    CMAKE_ARGS+=(-G Ninja)
  fi
  if [[ "${CCR_CCACHE:-}" == "ON" ]] && command -v ccache >/dev/null 2>&1; then
    CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  fi
  cmake "${CMAKE_ARGS[@]}"
  cmake --build "$BUILD_DIR" -j --target ccr_serve bench_service
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
SOCK="$WORK/ccr.sock"
LOG="$WORK/serve.log"

# A tight resident cap forces LRU eviction on top of the explicit evicts
# bench_service issues, so sessions evicted either way get replayed.
"$BUILD_DIR/tools/ccr_serve" --listen "unix:$SOCK" --max-resident 2 \
  --workers 2 > "$LOG" 2>&1 &
SERVE_PID=$!

for _ in $(seq 100); do
  grep -q '^READY ' "$LOG" 2>/dev/null && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: ccr_serve died before READY; log:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.1
done
grep -q '^READY ' "$LOG" || { echo "FAIL: no READY line" >&2; cat "$LOG" >&2; exit 1; }
echo "Daemon up: $(grep '^READY ' "$LOG")"

SECTION="$WORK/service.json"
"$BUILD_DIR/bench/bench_service" --connect "unix:$SOCK" --shutdown \
  --sessions "${CCR_BENCH_SERVICE_SESSIONS:-12}" \
  --clients "${CCR_BENCH_SERVICE_CLIENTS:-3}" \
  --tuples "${CCR_BENCH_SERVICE_TUPLES:-40}" | tee "$SECTION"

jq -e '
  (.service.errors == 0)
  and (.service.identical_after_rehydrate == true)
  and (.service.clean_shutdown == true)
  and (.service.rehydrations >= 1)
' "$SECTION" >/dev/null || {
  echo "FAIL: service smoke gate tripped" >&2
  exit 1
}

# The SHUTDOWN frame must have stopped the daemon: exit 0, STATS printed.
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
if [[ "$SERVE_RC" != 0 ]]; then
  echo "FAIL: ccr_serve exited $SERVE_RC; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
grep -q '^STATS ' "$LOG" || { echo "FAIL: no STATS line on exit" >&2; cat "$LOG" >&2; exit 1; }

echo "OK: $(jq .service.sessions_per_sec "$SECTION") sessions/s," \
     "p50 $(jq .service.round_p50_ms "$SECTION") ms," \
     "p99 $(jq .service.round_p99_ms "$SECTION") ms," \
     "$(jq .service.rehydrations "$SECTION") rehydrations, daemon exited 0"
