#!/usr/bin/env bash
# One-command CI gate: the tier-1 build + test pass, then the sanitizer
# sweeps. Mirrors exactly what a reviewer runs by hand:
#
#   1. layering guards — the transport layer (src/transport) must hold the
#      only copy of the framing/replay-dedup logic, the batching client core
#      the only client-side packing/response-admission path,
#      SnapshotStream the only go-back-N chunk stream, Tracer the only
#      tracing sink, and each replica's hash index the one key store;
#      src/ holds only served code (no module that only tests reach); the
#      replicated path keeps its per-key state hashed (the "hashed
#      per-key replica state" guard: no map keyed by key bytes in
#      the group routers, no map of maps for the session records); and
#      every client, bench and test takes one wire path (the "one wire
#      path" guard: framed packets into KvDirectServer::DeliverFrame, no
#      raw datagram path beside it); and a packet batch is copied once (the
#      "one copy per packet batch" guard: ops complete through pooled batch
#      records, not a shared per-packet state, and append windows are
#      encoded straight from the log, not copied out of it first); and
#      workload preload goes through bench::Preload (the "one preload
#      loop" guard: no bench calls LoadOpFor itself); and each clock has
#      one trace sink (the "one trace sink" guard: the Tracer owns its
#      breakdown, SLO monitor and flight recorder, and nested nodes are
#      built into their owner's tracer, not re-pointed at it); and each end
#      of the wire is one class (the "one class per wire end" guard:
#      BatchClient owns its retry engine, KvDirectServer its node stack);
#      and each node has one wire end (the "one wire end per node" guard:
#      a replica answers its clients through its own KvDirectServer's
#      FrameEndpoint, and no liveness guard stands in for clock ownership);
#      and the replication group is split by role (the "group by role"
#      guard: no file under src/replica exceeds 500 code lines, and a
#      client write is one batch record from admission to answer); and
#      memory has one access path (the "one access engine" guard: a single
#      non-virtual AccessEngine reads, counts and records, and the KV
#      processor takes its tracer and slab-sync counters at construction);
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
# admitting responses (BatchClient::Receive) happen in src/transport (plus
# the wire format itself in src/net). A client anywhere else in src/ growing
# its own packer, or its own AcceptResponse beside Receive, fails.
packers=$(grep -rnE 'PacketBuilder|AcceptResponse\(' src --include='*.h' --include='*.cc' \
            | grep -vE '^src/(net|transport)/' || true)
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

# One trace sink: a Tracer owns its breakdown, SLO monitor and flight
# recorder and feeds them itself; components fire flight triggers through
# their one Tracer*, and a node, group or cluster built on another's clock
# takes the owner's tracer at construction. Hand wiring between the four,
# or re-pointing a node at another tracer after it is built, coming back
# fails.
sinks=$(grep -rnE 'UseFlightRecorder|SetFlightRecorder|SetBreakdown|SetSloMonitor|set_on_complete|set_on_breach|active_flight_|UseTracer' \
          src bench tests examples || true)
if [[ -n "${sinks}" ]]; then
  echo "one trace sink: hand-wired tracing consumers found:" >&2
  echo "${sinks}" >&2
  exit 1
fi

# One key store: a replica's hash index is the only record of the keys it
# holds (HashIndex::ForEach enumerates it for snapshots and wipes). A
# per-replica key mirror maintained beside it anywhere in src/ fails.
mirrors=$( (grep -rnE 'TrackKey|Shadow key set|\b(rep|rp|primary|replica)(\.|->)keys\b' src || true;
            grep -nE '^\s+[^/ ].*[ >&*]keys( = .*)?;' src/replica/replication_group.h \
              | sed 's|^|src/replica/replication_group.h:|' || true) )
if [[ -n "${mirrors}" ]]; then
  echo "per-replica key mirror found beside the hash index:" >&2
  echo "${mirrors}" >&2
  exit 1
fi

# Served code only: src/ holds what a server, client, bench or example runs.
# Code that only tests reach belongs under tests/ (the flight-dump parser
# lives in tests/support); these test-only names showing up in src/ fail.
unserved=$(grep -rnE 'DramCacheStore|TimeSeriesSampler|DiagnosticsReport|RunningStat|EncodeTrace|ParseFlightDump' \
             src || true)
if [[ -n "${unserved}" ]]; then
  echo "test-only module found under src/:" >&2
  echo "${unserved}" >&2
  exit 1
fi

# Hashed per-key replica state: the client's read watermarks are looked up
# once per key per packet and the session records once per write slot;
# nothing iterates either, so neither is an ordered tree. The watermarks
# keep key hashes in one flat table (src/replica/watermark_table.h), so no
# map keyed by key bytes, ordered or not, belongs in the group routers.
ordered=$( (grep -nE 'std::(unordered_)?map<std::vector<uint8_t>' src/replica/replicated_client.h \
              | sed 's|^|src/replica/replicated_client.h:|' || true;
            grep -nE 'std::(unordered_)?map<std::vector<uint8_t>' src/cluster/cluster_client.h \
              | sed 's|^|src/cluster/cluster_client.h:|' || true;
            grep -nF 'std::map<uint64_t, std::map<uint16_t' src/replica/replication_group.h \
              | sed 's|^|src/replica/replication_group.h:|' || true) )
if [[ -n "${ordered}" ]]; then
  echo "hashed per-key replica state: map keyed by key bytes or map of maps found:" >&2
  echo "${ordered}" >&2
  exit 1
fi

# One wire path: benches, tests and examples drive the framed client into
# KvDirectServer::DeliverFrame. The deleted raw datagram path (unframed
# packets, timing-only wire sends, the bench driver over them) and the
# per-NIC clocks MultiNicClient used to fan out over must not come back.
rawpath=$(grep -rnE 'SubmitPacket|DeliverPacket|SendToServer\(|SendToClient\(|DriveEndpoint|MaxSimTime' \
            src bench tests examples || true)
if [[ -n "${rawpath}" ]]; then
  echo "one wire path: raw datagram path found:" >&2
  echo "${rawpath}" >&2
  exit 1
fi

# One copy per packet batch: a packet's ops complete through pooled batch
# records (src/core/result_batch.h), and a primary encodes its append
# windows straight from the log (ReplicaLog::EncodeWindow). A shared_ptr
# batch state per packet, or a log window copied into a message, coming
# back fails.
copies=$(grep -rnE 'make_shared<(PacketState|ReadState|WriteState)>|ReplicaLog::Window\(|log\.Window\(' \
           src || true)
if [[ -n "${copies}" ]]; then
  echo "one copy per packet batch: per-packet shared state or a copied log window found:" >&2
  echo "${copies}" >&2
  exit 1
fi

# One preload loop: benches load a workload's keys through bench::Preload
# (bench/bench_util.h), which checks every status and overlaps the bucket
# misses. A bench hand-rolling the loop over LoadOpFor fails.
preloads=$(grep -nE 'LoadOpFor' bench/*.cc || true)
if [[ -n "${preloads}" ]]; then
  echo "one preload loop: workload preload outside bench::Preload:" >&2
  echo "${preloads}" >&2
  exit 1
fi

# One class per wire end: the client's retry engine (backoff, attempt cap,
# deadline and budget failures, target rotation, response admission) is
# private to BatchClient, and the per-node subsystem stack is assembled by
# KvDirectServer itself. A separate sender, its packet base or policy
# struct, or a node runtime wrapped by the server coming back fails.
ends=$(grep -rnE 'ReliableSender|ReliablePacket|RetryPolicy|NodeRuntime' \
         src bench tests examples || true)
if [[ -n "${ends}" ]]; then
  echo "one class per wire end: split client or server layer found:" >&2
  echo "${ends}" >&2
  exit 1
fi

# One wire end per node: a replica's client frames terminate at its own
# KvDirectServer's FrameEndpoint, so only src/transport and the node
# (src/core/kv_direct.{h,cc}) name FrameEndpoint; a group building a second
# endpoint beside its replica's comes back as a hit. Every node on a shared
# clock belongs to the clock's owner, so no `liveness_` flag guards its
# scheduled events either.
wireends=$({ grep -rnE 'FrameEndpoint' src --include='*.h' --include='*.cc' \
               | grep -vE '^src/(transport/|core/kv_direct\.(h|cc):)'
             grep -rn 'liveness_' src; } || true)
if [[ -n "${wireends}" ]]; then
  echo "one wire end per node: a second server endpoint or a liveness guard found:" >&2
  echo "${wireends}" >&2
  exit 1
fi

# Group by role: ReplicationGroup keeps one .cc per role (client path, log
# and commit, election, state transfer, core), so no file under src/replica
# may exceed 500 non-blank, non-comment lines. A client write is one batch
# record from admission to answer; a second record per stage (a pending-ack
# or parked-write copy) coming back fails.
byrole=$({ for f in src/replica/*.h src/replica/*.cc; do
             lines=$(grep -cvE '^[[:space:]]*(//.*)?$' "${f}" || true)
             if (( lines > 500 )); then
               echo "${f}: ${lines} code lines (limit 500)"
             fi
           done
           grep -rnE 'PendingAck|DeferredWrite' src; } || true)
if [[ -n "${byrole}" ]]; then
  echo "group by role: an oversized replica file or a second write record found:" >&2
  echo "${byrole}" >&2
  exit 1
fi

# One access engine: AccessEngine is one final class that reads and writes
# the arena, counts accesses and records an op's trace, so no engine
# interface, stacked engine or virtual call comes back, and the processor
# gets the slab allocator's sync counters at construction, not by a setter.
engines=$({ grep -rnE 'DirectEngine|TraceRecordingEngine|AttachSlabSyncStats' \
              src bench tests examples --include='*.h' --include='*.cc'
            grep -nw 'virtual' src/mem/access_engine.h; } || true)
if [[ -n "${engines}" ]]; then
  echo "one access engine: a stacked engine, a virtual call or a sync-stats setter found:" >&2
  echo "${engines}" >&2
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
# Deadlines, admission shedding, retry budgets, gray demotion
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
