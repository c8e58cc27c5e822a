// Cluster control plane: versioned shard map, live shard migration, and
// elastic group membership (DESIGN.md §14).
//
// A ClusterCoordinator composes N ReplicationGroups on one simulated clock
// and publishes a ShardMap assigning each hash partition to a group. Clients
// cache the map; every group consults the coordinator's shard gate before
// serving a routed request, so a stale client is bounced (kWrongShard, with
// the current assignment) instead of silently served by a non-owner.
//
// Live migration moves one partition between groups under load, in three
// phases, losing no acknowledged write and applying none twice:
//
//   1. kCopy — a snapshot of the partition (KVs + the session records of its
//      writes) is cut at the source primary and streamed to the destination
//      in bounded-rate chunks over a dedicated, fallible migration link by a
//      SnapshotStream (src/transport: checksummed frames, cumulative acks,
//      go-back-N retransmission — the stream replica state transfer uses
//      too). From the moment the migration starts, every newly *committed*
//      write to the partition is synchronously dual-written to the
//      destination through the source group's commit listener — before the
//      client's ack is released — so "acked at source" always implies
//      "present at destination". Keys touched by a forward are excluded from
//      chunk installs: a retransmitted chunk must never resurrect an older
//      value.
//   2. kCatchUp — the copy stream has fully acked; the coordinator waits for
//      the forward stream over the partition to go quiet (in-flight writes
//      admitted before the freeze decision drain through commit).
//   3. kFrozen — new writes to the partition bounce kMigrating (reads still
//      serve at the source); after cutover_quiesce with no forwards, the map
//      flips: epoch++, owner = destination, the source drops the partition's
//      keys, and frozen writers retry against the new owner. The flip dumps
//      the migration's span tree through the flight recorder
//      (shard_cutover).
//
// Exactly-once across the cutover: session records (client sequence, slot,
// result) ride both the snapshot and every forward, so a write acked by the
// source and retransmitted to the destination after the flip is answered
// from the installed record, not re-executed.
#ifndef SRC_CLUSTER_COORDINATOR_H_
#define SRC_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/shard_map.h"
#include "src/replica/replication_group.h"
#include "src/transport/snapshot_stream.h"

namespace kvd {

struct ClusterConfig {
  uint32_t num_groups = 3;
  uint32_t num_partitions = 12;
  // Template for every group; fault seeds are decorrelated per group.
  ReplicationConfig group;

  // The migration copy stream's own wire (source primary -> destination),
  // with its own fault stream — chaos on the copy path must not perturb the
  // client-facing or replication links.
  NetworkConfig migration_network;
  FaultPlan migration_faults;

  uint32_t copy_chunk_kvs = 64;          // KVs per copy chunk
  double copy_bytes_per_sec = 1e9;       // background copy rate bound
  // Go-back-N retransmission: if the cumulative ack has not advanced for a
  // full timeout, resend from the ack point.
  SimTime copy_retransmit_timeout = 300 * kMicrosecond;
  // Catch-up/freeze poll cadence and the quiet window required before the
  // atomic flip (must exceed the source pipeline's residence time so every
  // pre-freeze write has committed and forwarded).
  SimTime migration_poll_interval = 100 * kMicrosecond;
  SimTime cutover_quiesce = 300 * kMicrosecond;

  // Cluster tracing: one Tracer that every group (and so every replica) is
  // built into — `group`'s tracing fields are ignored. It holds the client
  // op traces, the migration span tree and the cluster event timeline, and
  // takes every flight dump (failovers and shard cutovers alike). It has no
  // SLO targets.
  bool enable_request_tracing = false;
  FlightRecorderConfig flight;

  // Test-only regression hooks for the consistency harness (src/check): each
  // knob re-introduces one specific bug the design guards against, so the
  // nemesis seed matrix can prove it would catch that regression. Never set
  // outside tests.
  struct TestBugs {
    // Skip the touched-key guard on copy-chunk installs: a chunk arriving
    // after a forward already dual-wrote one of its keys then resurrects the
    // older snapshot value at the destination — a lost acknowledged write
    // surfacing after the cutover.
    bool disable_migration_touched_key_guard = false;
  };
  TestBugs test_bugs;
};

class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(const ClusterConfig& config);

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  Simulator& simulator() { return sim_; }
  uint32_t num_groups() const { return static_cast<uint32_t>(groups_.size()); }
  ReplicationGroup& group(uint32_t index) { return *groups_[index]; }
  bool group_active(uint32_t index) const { return active_[index] != 0; }
  NetworkModel& migration_network() { return *migration_net_; }
  FaultInjector& migration_faults() { return *migration_fault_; }

  // The published map. Clients fetch a copy (an out-of-band control-plane
  // read; not part of the timed data path) and are corrected via kWrongShard
  // bounces when it goes stale.
  const ShardMap& shard_map() const { return map_; }
  uint64_t map_epoch() const { return map_.epoch; }
  KeyRouter router() const { return map_.router(); }

  // Disjoint 2^40 sequence spaces, unique across every group in the cluster
  // (bit 63 separates them from group-local bases): a session record
  // migrated into another group must never collide with that group's own
  // clients.
  uint64_t AcquireClientSequenceBase() {
    return (1ull << 63) | (++next_client_id_ << 40);
  }

  // Untimed warm-up load into the owning group (every replica of it).
  Status Load(std::span<const uint8_t> key, std::span<const uint8_t> value);

  // --- elasticity ---
  // Appends a fresh (empty) group; returns its index. It owns no partitions
  // until migrations move some onto it.
  uint32_t AddGroup();
  // Marks a group inactive. Refused while it still owns a partition or a
  // migration involves it — drain it first (Rebalancer::Plan treats inactive
  // groups as drain targets). The group object stays alive (its heartbeats
  // are idle noise on the shared clock); only the map stops pointing at it.
  Status RemoveGroup(uint32_t index);

  // Doubles num_partitions (pure relabeling — no data moves; see
  // ShardMap::Doubled) and bumps the map epoch. Per-partition load counters
  // restart: the two halves of a split partition must be re-observed.
  // Refused mid-migration.
  Status SplitPartitions();

  // --- live migration ---
  // Starts moving `partition` to `to_group`. One migration at a time.
  Status StartMigration(uint32_t partition, uint32_t to_group);
  bool migration_active() const { return migration_.active; }
  // 0 = idle, 1 = copy, 2 = catch-up, 3 = frozen.
  int migration_phase() const;
  // Runs the simulator until the active migration completes.
  void DriveMigrationToCompletion();

  // --- per-partition load accounting (feeds the Rebalancer) ---
  // Ops served per partition since the last reset, routed requests only.
  const std::vector<uint64_t>& partition_ops() const { return partition_ops_; }
  void ResetLoadCounters();
  // Current load per group: sum of partition_ops over owned partitions.
  std::vector<uint64_t> GroupLoads() const;

  struct ClusterStats {
    uint64_t migrations_started = 0;
    uint64_t migrations_completed = 0;
    uint64_t partitions_split = 0;      // split events (each doubles the map)
    SnapshotStream::Stats copy_stream;  // chunks, bytes, resends, stale drops
    uint64_t copy_kvs = 0;              // KVs installed from chunks
    uint64_t forwards = 0;              // committed writes dual-written
    uint64_t late_forwards = 0;         // commit events seen after the flip
    uint64_t sessions_migrated = 0;     // session records installed at the dest
    uint64_t keys_erased = 0;           // source keys dropped at cutover
    uint64_t map_fetches = 0;           // client full-map fetches served
  };
  const ClusterStats& stats() const { return stats_; }
  // Called by ClusterClient on a full map refetch (control-plane read).
  ShardMap FetchShardMap() {
    stats_.map_fetches++;
    return map_;
  }

  const MetricRegistry& metrics() const { return metrics_; }
  FlightRecorder& flight_recorder() { return tracer_.flight_recorder(); }
  Tracer& tracer() { return tracer_; }
  const ClusterConfig& config() const { return config_; }

 private:
  struct Migration {
    bool active = false;
    uint32_t partition = 0;
    uint32_t from = 0;
    uint32_t to = 0;
    enum class Phase : uint8_t { kCopy, kCatchUp, kFrozen } phase = Phase::kCopy;
    uint64_t round = 0;  // guards stale scheduled callbacks

    // Keys dual-written (or deleted) by a forward: chunk installs skip them
    // so a retransmitted chunk cannot resurrect an older value.
    std::set<std::vector<uint8_t>> touched;
    SimTime last_forward = 0;
    bool writes_frozen = false;
    SimTime frozen_at = 0;

    SimTime started_at = 0;
    uint64_t trace = 0;  // migration-wide trace handle (span tree)
  };

  void WireGroup(uint32_t index);
  // Cuts KVs + sessions at the source and starts the copy stream.
  void InstallSnapshot();
  void WireCopyChunk(const std::vector<uint8_t>& framed);  // copy_out_ hook
  // True while `round` is the live migration and still copying.
  bool CopyLive(uint64_t round) const;
  void OnCopyChunkArrive(uint64_t round, std::vector<uint8_t> packet);
  // Drives copy_out_'s go-back-N progress check every copy_retransmit_timeout.
  void ArmRetransmitTimer();
  void PollMigration();
  void OnCommitted(uint32_t group, const LogEntry& entry);  // forward hook
  void Flip();
  void RegisterMetrics();
  void RegisterPartitionGauges(uint32_t first, uint32_t last_plus_one);

  ClusterConfig config_;
  Simulator sim_;
  MetricRegistry metrics_;
  Tracer tracer_{sim_, config_.enable_request_tracing, SloConfig{}, config_.flight,
                 &metrics_};
  std::unique_ptr<FaultInjector> migration_fault_;
  std::unique_ptr<NetworkModel> migration_net_;
  std::vector<std::unique_ptr<ReplicationGroup>> groups_;
  std::vector<uint8_t> active_;
  ShardMap map_;
  // Map epoch as of the most recent split (0 if never split). The shard
  // gates refuse routed requests framed before it: their partition labels
  // use the old modulus and are incomparable with current ones.
  uint64_t split_epoch_ = 0;
  Migration migration_;
  std::vector<uint64_t> partition_ops_;
  uint64_t next_client_id_ = 0;
  uint64_t next_copy_sequence_ = 0;
  uint64_t next_migration_trace_sequence_ = 0;
  ClusterStats stats_;
  // The copy stream's two halves (source sender, destination receiver),
  // reused by every migration.
  SnapshotStream copy_out_{sim_, config_.copy_bytes_per_sec,
                           &stats_.copy_stream,
                           [this](const std::vector<uint8_t>& framed) {
                             WireCopyChunk(framed);
                           }};
  SnapshotStream::Receiver copy_in_{&stats_.copy_stream};
  LatencyHistogram migration_ns_;
};

}  // namespace kvd

#endif  // SRC_CLUSTER_COORDINATOR_H_
