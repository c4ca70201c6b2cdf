#!/usr/bin/env bash
# Tier-1 verify: configure + build + test, exactly as ROADMAP.md specifies.
#
#   cmake -B build -S . && cmake --build build -j && \
#     cd build && ctest --output-on-failure -j
#
# Usage: scripts/check.sh [build-dir]
# Environment:
#   CCR_WERROR=ON      gate the build on warnings (CI sets this)
#   CCR_BUILD_TYPE=... override the CMake build type (e.g. Release; the
#                      CI release job runs the whole suite with -O2/NDEBUG
#                      so the perf-path code is tested as benchmarked)
#   CCR_SANITIZE=ON    build everything with ASan+UBSan and run the whole
#                      suite under the sanitizers (the CI sanitize job);
#                      CCR_SANITIZE=thread builds with ThreadSanitizer
#                      instead (the CI tsan job — races in the batched
#                      driver / service daemon)
#   CCR_CCACHE=ON      route compilation through ccache (CI caches it)
#   CMAKE_GENERATOR    honored as usual (Ninja is used when available)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

CMAKE_ARGS=(-B "$BUILD_DIR" -S .)
if [[ -n "${CCR_WERROR:-}" ]]; then
  CMAKE_ARGS+=(-DCCR_WERROR="$CCR_WERROR")
fi
if [[ -n "${CCR_BUILD_TYPE:-}" ]]; then
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="$CCR_BUILD_TYPE")
fi
if [[ -n "${CCR_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=(-DCCR_SANITIZE="$CCR_SANITIZE")
fi
if [[ "${CCR_CCACHE:-}" == "ON" ]] && command -v ccache >/dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
if [[ -z "${CMAKE_GENERATOR:-}" ]] && command -v ninja >/dev/null 2>&1; then
  CMAKE_ARGS+=(-G Ninja)
fi

cmake "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"
