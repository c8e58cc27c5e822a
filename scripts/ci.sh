#!/usr/bin/env bash
# One-command CI gate: the tier-1 build + test pass, then the sanitizer
# sweeps. Mirrors exactly what a reviewer runs by hand:
#
#   1. layering guards — the transport layer (src/transport) must hold the
#      only copy of the framing/replay-dedup logic, the batching client core
#      the only client-side packing/response-admission path,
#      SnapshotStream the only go-back-N chunk stream, and Tracer the only
#      tracing sink;
#   2. configure + build (default flags) and run the full ctest suite;
#   3. golden determinism — the benchmark --golden rows must match the
#      checked-in bench/golden/*.json byte for byte;
#   4. perfbench trajectory — the newest BENCH_perfbench.json row's
#      fingerprints and final clocks must come out of this tree;
#   5. scripts/verify_asan.sh  — ASan+UBSan build, full suite;
#   6. scripts/verify_ubsan.sh — pure-UBSan build, full suite.
#
# The tier-1 stage runs first and alone decides pass/fail for correctness;
# the sanitizer stages catch memory/UB bugs that the plain build hides.
# Set KVD_CI_SKIP_SANITIZERS=1 for a quick tier-1-only pass.
#
# Usage: scripts/ci.sh [build-dir]    (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

echo "=== layering guard: one transport implementation ==="
# The reliable channel lives in src/transport and nowhere else. A second copy
# of the replay-entry bookkeeping or of the frame checksum constant is exactly
# the duplication the layering refactor removed; fail fast if one reappears.
leaks=$(grep -rnE 'ReplayEntry|0xf4a3e' src bench tests --include='*.h' --include='*.cc' \
          | grep -v '^src/transport/' || true)
if [[ -n "${leaks}" ]]; then
  echo "framing/replay logic found outside src/transport:" >&2
  echo "${leaks}" >&2
  exit 1
fi

# One batching client core: packing ops into packets (PacketBuilder) and
# admitting responses (ReliableSender::AcceptResponse) happen in src/transport
# (plus the wire format itself in src/net and trace encoding in
# src/workload). A client anywhere else in src/ growing its own copy fails.
packers=$(grep -rnE 'PacketBuilder|AcceptResponse\(' src --include='*.h' --include='*.cc' \
            | grep -vE '^src/(net|transport|workload)/' || true)
if [[ -n "${packers}" ]]; then
  echo "client packing/response admission found outside the batching core:" >&2
  echo "${packers}" >&2
  exit 1
fi

# One snapshot stream: replica state transfer and shard migration both ship
# chunks through SnapshotStream (src/transport/snapshot_stream.h). Its
# go-back-N cursors showing up anywhere else in src/ is a second copy.
streams=$(grep -rnE 'last_observed_ack|next_to_send|expected_chunk' src --include='*.h' --include='*.cc' \
            | grep -v '^src/transport/' || true)
if [[ -n "${streams}" ]]; then
  echo "chunk-stream cursors found outside src/transport:" >&2
  echo "${streams}" >&2
  exit 1
fi

# One tracer: every component holds one Tracer* (src/obs/tracer.h) that
# carries both the op traces and the event timeline. A second tracer type or
# a second hook pointer coming back anywhere fails.
tracers=$(grep -rnE 'EventTracer|SetRequestTracer|UseRequestTracer|request_tracer_' \
            src bench tests examples || true)
if [[ -n "${tracers}" ]]; then
  echo "second tracing hook set found:" >&2
  echo "${tracers}" >&2
  exit 1
fi

echo "=== tier-1: configure + build + ctest ==="
cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "=== replication suite (ctest -L replica) ==="
# Log replication, failover, exactly-once sessions, and state transfer over
# the snapshot stream (DESIGN.md §9) — run again by label so a regression
# names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L replica

echo "=== overload-control suite (ctest -L overload) ==="
# Deadlines, admission shedding, retry budgets, hedging, gray demotion
# (DESIGN.md §12) — run again by label so a regression names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L overload

echo "=== cluster control-plane suite (ctest -L cluster) ==="
# Shard map, live migration, chaos soak on the copy stream, rebalancing
# (DESIGN.md §14) — run again by label so a regression names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L cluster

echo "=== observability suite (ctest -L 'obs|trace') ==="
# The tracer's op traces, event ring and Chrome export, the flight recorder,
# and the metric registry (DESIGN.md §7, §10) — run again by label so a
# regression names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L 'obs|trace'

echo "=== consistency-check suite (ctest -L check) ==="
# Linearizability checker self-tests plus the nemesis explorer regression
# (DESIGN.md §15) — run again by label so a regression names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L check

echo "=== nemesis seed matrix: 32 seeds, history-checked ==="
# A bounded consistency sweep: 32 seeded fault scripts over the cluster
# scenario, every recorded history checked for linearizability and session
# guarantees. Any violation prints a shrunk minimal reproducer and fails CI.
"${BUILD_DIR}/tests/nemesis_matrix" --seeds 32 --rounds 6
# The harness must still be able to fail: the injected lost-update bug has
# to be caught by the same matrix (exit 1), or the green run above means
# nothing.
if "${BUILD_DIR}/tests/nemesis_matrix" --seeds 32 --rounds 6 --bug >/dev/null; then
  echo "nemesis matrix failed to catch the injected bug" >&2
  exit 1
fi
echo "nemesis matrix clean (and the injected bug is still caught)"

echo "=== golden determinism: bench --golden vs bench/golden/*.json ==="
GOLDEN_TMP=$(mktemp -d)
trap 'rm -rf "${GOLDEN_TMP}"' EXIT
"${BUILD_DIR}/bench/bench_fig16_throughput" --golden --json "${GOLDEN_TMP}/fig16_throughput.json" >/dev/null
"${BUILD_DIR}/bench/bench_chaos"            --golden --json "${GOLDEN_TMP}/chaos.json"            >/dev/null
"${BUILD_DIR}/bench/bench_replication"      --golden --json "${GOLDEN_TMP}/replication.json"      >/dev/null
"${BUILD_DIR}/bench/bench_overload"         --golden --json "${GOLDEN_TMP}/overload.json"         >/dev/null
"${BUILD_DIR}/bench/bench_rebalance"        --golden --json "${GOLDEN_TMP}/rebalance.json"        >/dev/null
for golden in fig16_throughput chaos replication overload rebalance; do
  cmp "bench/golden/${golden}.json" "${GOLDEN_TMP}/${golden}.json"
done
echo "golden rows byte-identical"

echo "=== perfbench trajectory: newest BENCH_perfbench.json row reproduces ==="
# One short perfbench pass per workload (Release build under .bench_build/):
# the fingerprint and final simulated clock must match the newest row, so a
# speed-up that moves a simulated bit fails here. Host fields are recorded,
# not gated.
python3 scripts/check_bench_trajectory.py

if [[ "${KVD_CI_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo "ci pass (sanitizers skipped)"
  exit 0
fi

echo "=== asan+ubsan sweep ==="
scripts/verify_asan.sh "${BUILD_DIR}-asan"

echo "=== ubsan sweep ==="
scripts/verify_ubsan.sh "${BUILD_DIR}-ubsan"

echo "ci pass"
