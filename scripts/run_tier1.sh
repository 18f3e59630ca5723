#!/usr/bin/env bash
# Tier-1 verification, mirroring ROADMAP.md:
#   cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
#
# Usage:
#   scripts/run_tier1.sh              # plain tier-1 build + ctest
#   scripts/run_tier1.sh --sanitize   # same suite under ASan + UBSan
#                                     # (separate build dir: build-asan);
#                                     # scripts/run_tier2.sh is the gate
#                                     # wrapper for this mode
#
# The sanitized build keeps RelWithDebInfo's optimisation but drops its
# -DNDEBUG, so every assert in src/ (the facade's config guards among
# them) runs there; the plain tier-1 build compiles them out.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
if [[ "${1:-}" == "--sanitize" ]]; then
  BUILD_DIR=build-asan
  CMAKE_ARGS+=(-DESR_SANITIZE=ON "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -g")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)"
