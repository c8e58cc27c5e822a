#!/usr/bin/env bash
# Builds the full tree with UndefinedBehaviorSanitizer only and runs the test
# suite. Pure-UBSan builds are much faster than the combined ASan run
# (scripts/verify_asan.sh) and catch a disjoint bug class: signed overflow in
# simulated-time arithmetic, misaligned loads in the wire codecs, and invalid
# enum values decoded from (fault-injected) corrupt frames. The replication
# tests (ctest -L replica) drive the epoch/log-index arithmetic through
# failover, where an overflow would silently reorder the log. The transport
# tests (ctest -L transport) are then repeated explicitly: frame parsing and
# the exponential-backoff shift are the tree's densest unaligned-load and
# shift-width territory.
#
# Usage: scripts/verify_ubsan.sh [build-dir]    (default: build-ubsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ubsan}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DKVD_SANITIZE=undefined
cmake --build "${BUILD_DIR}" -j "$(nproc)"

export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

ctest --test-dir "${BUILD_DIR}" --output-on-failure
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L transport
# The replication tests too (see the header): epoch/log-index arithmetic
# through failover, and state chunks decoded from corrupt frames.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L replica
# The cluster tests are repeated too: the routed-request extension and the
# copy-stream framing decode fault-injected corrupt bytes.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L cluster
# And the consistency-check suite: history fingerprinting and the checker's
# interval arithmetic run on full-width SimTime values.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L check
# And the observability suite: event-ring index arithmetic and picosecond
# timestamps rendered into trace and dump JSON.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L 'obs|trace'
echo "ubsan run clean"
