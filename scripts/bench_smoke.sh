#!/usr/bin/env bash
# CI bench-smoke: run bench_throughput at a tiny size and gate on its JSON.
#
# Shrinks the corpus (CCR_BENCH_TUPLES) so the run finishes in seconds,
# then fails if
#   * any determinism check reported false, or
#   * the memory_lifecycle soak (one long-lived session fed answer
#     rounds, arena GC on vs off, off being gc_frac 1) reported
#     non-identical results or reclaimed fewer arena words than
#     CCR_BENCH_GC_RECLAIM_FLOOR (default 1000). The soak is
#     deterministic and reclaims far more
#     than that at smoke scale, so tripping the floor means compaction
#     stopped firing, not that the runner was noisy, or
#   * the service section (bench_service driving a real server over a
#     loopback socket with forced eviction) reported a ROUND or SNAPSHOT
#     reply that differed from the never-evicted local session
#     (identical_after_rehydrate), a dirty shutdown, any client error,
#     zero rehydrations (the workload forces them — zero means evicted
#     sessions stopped being replayed from their op logs), or a
#     sessions/sec rate below CCR_BENCH_SERVICE_FLOOR (default 1 — a
#     catastrophic-regression tripwire, not a perf target).
#
# thread_scaling always runs and must always report identical results at
# every thread count. Each of its points resolves the same 256 entities,
# about 0.3 s on one thread at this size. The speedup floor
# (CCR_BENCH_SCALING_FLOOR, default 1.3 at the 2-thread point of the
# entity-pool curve) is only gated on multi-core runners: a 1-core
# container measures scheduling overhead, not scaling, so only the
# determinism contract is enforced there.
#
# The JSON lands in BENCH_throughput.json (CI uploads it as an artifact —
# the repo's perf trajectory across PRs).
#
# Usage: scripts/bench_smoke.sh [build-dir]

set -euo pipefail

cd "$(dirname "$0")/.."

export CCR_BENCH_SCALE="${CCR_BENCH_SCALE:-1}"
export CCR_BENCH_TUPLES="${CCR_BENCH_TUPLES:-250}"
export CCR_BENCH_THREADS="${CCR_BENCH_THREADS:-2}"
GC_RECLAIM_FLOOR="${CCR_BENCH_GC_RECLAIM_FLOOR:-1000}"
SERVICE_FLOOR="${CCR_BENCH_SERVICE_FLOOR:-1}"
SCALING_FLOOR="${CCR_BENCH_SCALING_FLOOR:-1.3}"
# The scaling floor needs real cores: gate it only when the runner has
# >= 2 (nproc reflects the container's cpuset, unlike the bench's own
# hardware_concurrency which may see the host).
if [ "$(nproc)" -ge 2 ]; then
  GATE_SCALING=true
else
  GATE_SCALING=false
fi

scripts/bench.sh "${1:-build-bench}"

echo
echo "Gating BENCH_throughput.json (GC reclaim floor: ${GC_RECLAIM_FLOOR} words," \
     "service floor: ${SERVICE_FLOOR} sessions/s," \
     "scaling floor: ${SCALING_FLOOR}x at 2 threads [gated: ${GATE_SCALING}])"
jq -e --argjson gcfloor "$GC_RECLAIM_FLOOR" \
      --argjson svcfloor "$SERVICE_FLOOR" \
      --argjson scalefloor "$SCALING_FLOOR" \
      --argjson gatescaling "$GATE_SCALING" '
  (.thread_scaling.deterministic == true)
  and (.thread_scaling.entity_pool.identical_results == true)
  and ((($gatescaling | not))
       or (.thread_scaling.entity_pool.speedup_2 >= $scalefloor))
  and (.memory_lifecycle.identical_results == true)
  and (.memory_lifecycle.gc_on.reclaimed_words >= $gcfloor)
  and (.service.identical_after_rehydrate == true)
  and (.service.clean_shutdown == true)
  and (.service.errors == 0)
  and (.service.rehydrations >= 1)
  and (.service.sessions_per_sec >= $svcfloor)
' BENCH_throughput.json >/dev/null || {
  echo "FAIL: bench smoke gate tripped; BENCH_throughput.json:" >&2
  cat BENCH_throughput.json >&2
  exit 1
}
echo "OK: GC reclaimed $(jq .memory_lifecycle.gc_on.reclaimed_words BENCH_throughput.json) arena words," \
     "service $(jq .service.sessions_per_sec BENCH_throughput.json) sessions/s" \
     "(p50 $(jq .service.round_p50_ms BENCH_throughput.json) ms," \
     "p99 $(jq .service.round_p99_ms BENCH_throughput.json) ms," \
     "$(jq .service.rehydrations BENCH_throughput.json) rehydrations)," \
     "entity-pool 2-thread speedup $(jq .thread_scaling.entity_pool.speedup_2 BENCH_throughput.json)x," \
     "all equivalence checks true"
