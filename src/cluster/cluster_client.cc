#include "src/cluster/cluster_client.h"

namespace kvd {

ClusterClient::ClusterClient(ClusterCoordinator& cluster, const Options& options)
    : GroupRouter(cluster.simulator(), cluster.AcquireClientSequenceBase(), options,
                  cluster.config().group.num_replicas, kGroupRouteHeaderBytes, &stats_),
      cluster_(cluster),
      migrate_backoff_(options.migrate_backoff),
      map_(cluster.FetchShardMap()) {
  stats_.map_refetches++;  // the constructor's initial fetch
}

void ClusterClient::RefreshMap() {
  map_ = cluster_.FetchShardMap();
  stats_.map_refetches++;
}

uint32_t ClusterClient::BucketOf(FlushState& flush, size_t slot) {
  flush.digests.resize(flush.ops.size());
  flush.digests[slot] = KeyRouter::Digest(flush.ops[slot].key);
  return map_.router().PartitionOfDigest(flush.digests[slot]);
}

void ClusterClient::Route(Packet& packet) {
  packet.group = map_.OwnerOf(packet.bucket);
  packet.target = packet.is_write ? BelievedPrimary(packet.group)
                                  : cluster_.group(packet.group).primary_id();
}

std::vector<uint8_t> ClusterClient::RequestHeader(const Packet& packet) {
  GroupRequest request;
  request.required_index = RequiredIndex(packet);
  request.has_route = true;
  request.map_epoch = map_.epoch;
  request.partition = packet.bucket;
  return EncodeGroupRequest(request);
}

bool ClusterClient::OnShardBounce(const PacketPtr& packet,
                                  const GroupResponse& response) {
  if ((response.flags & kGroupWrongShard) == 0) {
    if ((response.flags & kGroupMigrating) == 0) {
      return false;
    }
    // Write-frozen for a cutover window. Same frame, same group: either the
    // freeze lifts (migration aborted — not modeled) or the flip lands and
    // the next attempt bounces kWrongShard into the patch path below.
    stats_.migrating_backoffs++;
    BackoffResend(packet, migrate_backoff_, 0);
    return true;
  }
  stats_.wrong_shard_bounces++;
  if (response.num_partitions != map_.num_partitions()) {
    // The map's granularity changed under us (a split): patching one entry
    // cannot reconcile it; refetch wholesale.
    RefreshMap();
  } else if (response.map_epoch > map_.epoch) {
    // Patch just the bounced entry: one migration moved one partition.
    map_.epoch = response.map_epoch;
    if (packet->bucket < map_.owners.size() &&
        response.owner_group < cluster_.num_groups()) {
      map_.owners[packet->bucket] = response.owner_group;
    }
    stats_.map_patches++;
  }
  // Re-derive the route from the packet's own keys under the current map: a
  // label framed before a split was computed with the old modulus and means
  // nothing now (the gates refuse such frames outright).
  const KeyRouter router = map_.router();
  const std::vector<uint64_t>& digests = packet->flush->digests;
  packet->bucket = router.PartitionOfDigest(digests[packet->slots.front()]);
  bool straddles = false;
  for (const size_t slot : packet->slots) {
    straddles = straddles || router.PartitionOfDigest(digests[slot]) != packet->bucket;
  }
  if (straddles) {
    // A pre-split packet holds keys from both halves of its old partition and
    // a migration has since separated their owners; no single route serves
    // it. The gate refused the frame wholesale — nothing in it executed
    // *here* — so reads re-batch safely under the fresh map with new
    // sequences. Writes cannot: an earlier attempt may have executed before
    // the split, and new sequences would forfeit the replay protection tied
    // to the original frame — fail them as ambiguous, exactly like an
    // exhausted retransmission timer.
    if (packet->is_write) {
      stats_.split_write_aborts++;
      Abandon(packet, ResultCode::kTimedOut);
    } else {
      stats_.split_rebuilds++;
      Repack(packet);
    }
    return true;
  }
  packet->group = map_.OwnerOf(packet->bucket);
  Reframe(*packet);
  Redirect(packet,
           packet->is_write ? cluster_.group(packet->group).primary_id()
                            : packet->target + 1,
           0);
  return true;
}

}  // namespace kvd
