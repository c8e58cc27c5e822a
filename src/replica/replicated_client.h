// Client endpoints for replication groups (DESIGN.md §9.5).
//
// GroupRouter is the replication-group protocol over the batching client
// core (src/transport/batch_client.h), shared by both group routers: it
// frames each packet in a GroupRequest carrying the packet's read watermark,
// follows redirect and stale-read bounces toward the responder's view of the
// primary, and advances the watermarks from acknowledged writes. The
// watermarks live in one flat, bounded table of key hashes
// (src/replica/watermark_table.h).
// Retransmission reuses the frame sequence, so a retried request is answered
// exactly once — from the replay cache on the same primary, or from the
// replicated session records after a failover.
//
// ReplicatedClient routes to a single group: writes go to the primary it
// currently believes in; read-only packets rotate round-robin across all
// replicas.
//
// Sharded deployments live in src/cluster: a ClusterCoordinator composes one
// ReplicationGroup per group on a shared clock under an epoch-versioned shard
// map, and ClusterClient routes per-partition packets with bounce-driven map
// correction (DESIGN.md §14).
#ifndef SRC_REPLICA_REPLICATED_CLIENT_H_
#define SRC_REPLICA_REPLICATED_CLIENT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/replica/replica_wire.h"
#include "src/replica/replication_group.h"
#include "src/replica/watermark_table.h"
#include "src/transport/batch_client.h"

namespace kvd {

class GroupRouter : public BatchClient {
 public:
  struct Options : BatchClient::Options {
    // Transmissions of one packet before its operations fail with kTimedOut:
    // sized to ride out a failover (detection + election) under the doubling
    // timeout.
    Options() { max_attempts = 24; }
    // After this many attempts at one replica, rotate to the next — the
    // current target may be crashed.
    uint32_t attempts_per_target = 3;
    // Wait before re-sending after a redirect, stale-read, or wrong-shard
    // bounce, giving the group a beat to converge instead of hammering it.
    SimTime redirect_backoff = 50 * kMicrosecond;
  };

  // The wire counters of KvEndpoint::Stats, plus the group-protocol bounces.
  struct Stats : KvEndpoint::Stats {
    uint64_t redirects_followed = 0;  // kGroupRedirect bounces
    uint64_t stale_retries = 0;       // kGroupStaleRead bounces
    // Watermarks folded into their group's floor to keep the table bounded.
    uint64_t watermark_evictions = 0;
  };

  // Read watermarks held: one per (key hash, group) this client wrote, up
  // to WatermarkTable::kMaxSlots / 2. It never falls, so it is also the peak.
  size_t watermark_entries() const { return watermarks_.live(); }

 protected:
  // `header_bytes`: kGroupRequestHeaderBytes, or kGroupRouteHeaderBytes for
  // routed requests. Groups never re-send kBusy/kOverloaded: the codes
  // surface to the caller.
  GroupRouter(Simulator& sim, uint64_t sequence_base, const Options& options,
              uint32_t num_replicas, size_t header_bytes, Stats* stats);

  virtual ReplicationGroup& GroupOf(uint32_t group) = 0;
  // kGroupWrongShard / kGroupMigrating bounces; true when handled.
  virtual bool OnShardBounce(const PacketPtr& /*packet*/,
                             const GroupResponse& /*response*/) {
    return false;
  }

  std::vector<uint8_t> RequestHeader(const Packet& packet) override;
  void Wire(const PacketPtr& packet) override;
  void OnResponse(const PacketPtr& packet, std::span<const uint8_t> payload) override;

  // One transmission toward `target` in the packet's group; `delivered`
  // receives the framed response bytes.
  void WireTo(const PacketPtr& packet, uint32_t target,
              std::function<void(std::vector<uint8_t>)> delivered);
  // Read-your-writes: the highest index this client's acknowledged writes to
  // the packet's own keys reached in the packet's group, and at least the
  // group's eviction floor. A watermark from another group is not consulted:
  // its index means nothing in this group's log, and a cutover installed the
  // write's state on every destination replica. A write packet requires 0:
  // a replica holds only read-only packets to the watermark.
  uint64_t RequiredIndex(const Packet& packet) const;
  uint32_t& BelievedPrimary(uint32_t group);
  // The hash a watermark keys `slot`'s key on: the router's digest from
  // bucketing when it took one, else HashBytes of the key. The table is
  // this client's own, so any one stable hash per key will do.
  static uint64_t KeyDigest(const Packet& packet, size_t slot);
  // Re-sends the packet after `delay` unless it completes first; `detail`
  // labels the kBusyRetry trace span (1 redirect, 2 stale read).
  void BackoffResend(const PacketPtr& packet, SimTime delay, uint64_t detail);
  // Retargets the packet and re-sends it after the redirect backoff.
  void Redirect(const PacketPtr& packet, uint32_t target, uint64_t detail);

 private:
  SimTime redirect_backoff_;
  Stats& stats_;
  std::vector<uint32_t> believed_primary_;  // per group, grown on demand
  // Per (key digest, group): the highest quorum-committed index covering
  // the client's acknowledged writes there. Searched once per key per
  // packet.
  WatermarkTable watermarks_;
};

class ReplicatedClient : public GroupRouter {
 public:
  explicit ReplicatedClient(ReplicationGroup& group)
      : ReplicatedClient(group, Options()) {}
  ReplicatedClient(ReplicationGroup& group, const Options& options);

  const Stats& stats() const { return stats_; }

 private:
  ReplicationGroup& GroupOf(uint32_t /*group*/) override { return group_; }
  void Route(Packet& packet) override;
  Tracer* tracer() override { return &group_.tracer(); }

  ReplicationGroup& group_;
  uint32_t next_read_target_ = 0;  // round-robin cursor for read packets
  Stats stats_;
};

}  // namespace kvd

#endif  // SRC_REPLICA_REPLICATED_CLIENT_H_
