#!/usr/bin/env bash
# Builds the full tree with AddressSanitizer + UndefinedBehaviorSanitizer and
# runs the test suite. The fault-injection tests (ctest -L fault) exercise the
# retry/replay/ECC paths under sanitizers, which is where use-after-free bugs
# in completion callbacks would surface (late duplicate responses arriving
# after a flush completes). The transport tests (ctest -L transport) are then
# repeated explicitly: the reliable-channel layer owns every retransmission
# buffer and replay-cache entry, so a lifetime bug there poisons all clients.
#
# Usage: scripts/verify_asan.sh [build-dir]    (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DKVD_SANITIZE=address,undefined
cmake --build "${BUILD_DIR}" -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

ctest --test-dir "${BUILD_DIR}" --output-on-failure
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L transport
# The replication tests too: snapshot-stream pacing slots and acks outlive
# the transfers (and replicas' reigns) that scheduled them.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L replica
# The cluster tests are repeated too: migration chunk buffers and forwarded
# session records cross group lifetimes, prime use-after-free territory.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L cluster
# And the consistency-check suite: the checker's DFS recursion and the
# nemesis scenario teardown own cross-object histories worth a lifetime pass.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L check
# And the observability suite: flight dumps walk the tracer's wrapped event
# ring and its live traces while the simulation keeps mutating both.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L 'obs|trace'
echo "sanitizer run clean"
