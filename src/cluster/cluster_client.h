// Cluster client: shard-map caching, wrong-shard bounce recovery, and
// cross-group exactly-once (DESIGN.md §14).
//
// A ClusterClient holds a cached copy of the coordinator's ShardMap and packs
// each flush per partition: one packet's keys all hash to one partition, and
// the packet carries the client's cached map epoch and that partition
// (GroupRequest routing extension). Routing mistakes are corrected by the
// groups themselves:
//
//   - kWrongShard: the contacted group does not own the partition (or the
//     frame's map epoch predates a split, making its label unreadable). The
//     bounce carries the current map epoch, the owning group, and the
//     partition count; the client patches its cached map (or refetches it
//     wholesale when the partition count changed — a split happened),
//     re-derives the route from the packet's own keys, and re-sends the same
//     frame sequence to the owner. If a split divided the packet's keys
//     between owners, a read packet is re-batched under the fresh map and a
//     write packet fails as ambiguous (see Stats::split_write_aborts).
//   - kMigrating: the partition is write-frozen for a cutover window; the
//     client backs off and re-sends. After the flip the old owner answers
//     kWrongShard and the first rule takes over.
//
// The frame sequence never changes across bounces, so the replicated session
// records — which migrations install at the destination group — answer a
// retransmission that lands after the cutover without re-executing it:
// exactly-once holds across a mid-flight ownership change.
//
// Read-your-writes across groups: watermarks are (group, log index) pairs,
// kept per (key hash, group) and looked up per key over the packet's own
// keys (GroupRouter::RequiredIndex, src/replica/watermark_table.h). Against
// the same group the usual required-index rule applies; when a key's
// partition has moved since the write, the old group's watermark is not
// consulted by packets to the new group (indices are per-group) — safe
// because a cutover implies the write's state was installed on *every*
// destination replica below its log. A key that moves back waits at most for
// an index its old group has already committed.
//
// ClusterClient is a GroupRouter (src/replica/replicated_client.h) over the
// batching client core: one bucket per partition, a routed GroupRequest
// header, and the shard-map bounce handling above.
#ifndef SRC_CLUSTER_CLUSTER_CLIENT_H_
#define SRC_CLUSTER_CLUSTER_CLIENT_H_

#include <cstdint>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/replica/replicated_client.h"

namespace kvd {

class ClusterClient : public GroupRouter {
 public:
  struct Options : GroupRouter::Options {
    // Backoff after a kMigrating bounce: the freeze window is a whole cutover
    // quiesce, so hammering at the redirect cadence only burns attempts.
    SimTime migrate_backoff = 100 * kMicrosecond;
  };

  struct Stats : GroupRouter::Stats {
    uint64_t wrong_shard_bounces = 0;  // kGroupWrongShard bounces
    uint64_t migrating_backoffs = 0;   // kGroupMigrating bounces
    uint64_t map_patches = 0;          // single-partition map corrections
    uint64_t map_refetches = 0;        // wholesale map fetches (splits)
    // Read-only packets re-batched because a split divided their keys
    // between partitions that no longer share an owner.
    uint64_t split_rebuilds = 0;
    // Write packets in the same position, failed as ambiguous instead: an
    // earlier attempt may have executed before the split, and new sequences
    // would forfeit the original frame's replay protection.
    uint64_t split_write_aborts = 0;
  };

  explicit ClusterClient(ClusterCoordinator& cluster)
      : ClusterClient(cluster, Options()) {}
  ClusterClient(ClusterCoordinator& cluster, const Options& options);

  // Replaces the cached map with the coordinator's current one (the same
  // control-plane read a bounce-driven refetch performs).
  void RefreshMap();
  const ShardMap& cached_map() const { return map_; }

  const Stats& stats() const { return stats_; }

 private:
  ReplicationGroup& GroupOf(uint32_t group) override { return cluster_.group(group); }
  // One packet's keys all hash to one partition under the cached map, so a
  // whole packet routes (and bounces) as a unit.
  uint32_t BucketOf(const KvOperation& op) override;
  void Route(Packet& packet) override;
  // The routed header: the cached map epoch and the packet's partition.
  std::vector<uint8_t> RequestHeader(const Packet& packet) override;
  bool OnShardBounce(const PacketPtr& packet, const GroupResponse& response) override;
  // Every group records into the coordinator's tracer.
  Tracer* tracer() override { return &cluster_.tracer(); }

  ClusterCoordinator& cluster_;
  SimTime migrate_backoff_;
  ShardMap map_;  // cached; patched or refetched on bounces
  Stats stats_;
};

}  // namespace kvd

#endif  // SRC_CLUSTER_CLUSTER_CLIENT_H_
