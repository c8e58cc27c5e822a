#include "src/replica/replicated_client.h"

#include <algorithm>
#include <utility>

#include "src/common/hashing.h"

namespace kvd {

GroupRouter::GroupRouter(Simulator& sim, uint64_t sequence_base,
                         const Options& options, uint32_t num_replicas,
                         size_t header_bytes, Stats* stats)
    : BatchClient(sim, sequence_base, options,
                  {.header_bytes = header_bytes,
                   .backoff_shift_cap = 6,
                   .attempts_per_target = options.attempts_per_target,
                   .num_targets = num_replicas},
                  stats),
      redirect_backoff_(options.redirect_backoff),
      stats_(*stats) {}

uint32_t& GroupRouter::BelievedPrimary(uint32_t group) {
  if (group >= believed_primary_.size()) {
    believed_primary_.resize(group + 1, 0);
  }
  return believed_primary_[group];
}

uint64_t GroupRouter::RequiredIndex(const Packet& packet) const {
  uint64_t required = 0;
  for (const size_t slot : packet.slots) {
    required = std::max(required, watermarks_.Required(
                                      HashBytes(packet.flush->ops[slot].key),
                                      packet.group));
  }
  return required;
}

std::vector<uint8_t> GroupRouter::RequestHeader(const Packet& packet) {
  GroupRequest request;
  request.required_index = RequiredIndex(packet);
  return EncodeGroupRequest(request);
}

void GroupRouter::Wire(const PacketPtr& packet) {
  WireTo(packet, packet->target, [this, packet](std::vector<uint8_t> bytes) {
    Receive(packet, std::move(bytes));
  });
}

void GroupRouter::WireTo(const PacketPtr& packet, uint32_t target,
                         std::function<void(std::vector<uint8_t>)> delivered) {
  // Handlers copy `delivered` rather than move it: an injected duplicate
  // runs the same handler twice.
  ReplicationGroup& group = GroupOf(packet->group);
  group.client_network(target).SendPayloadToServer(
      packet->framed,
      [&group, packet, target, delivered](std::vector<uint8_t> request) {
        group.DeliverClientFrame(
            target, std::move(request),
            [&group, packet, target, delivered](std::vector<uint8_t> response) {
              group.client_network(target).SendPayloadToClient(
                  std::move(response), delivered, packet->traces);
            });
      },
      packet->traces);
}

void GroupRouter::BackoffResend(const PacketPtr& packet, SimTime delay,
                                uint64_t detail) {
  const SimTime bounced_at = sim().Now();
  sim().Schedule(delay, [this, packet, bounced_at, detail] {
    if (packet->completed) {
      return;
    }
    if (!packet->traces.empty()) {
      for (const uint64_t handle : packet->traces) {
        tracer()->Span(handle, SpanKind::kBusyRetry, bounced_at, sim().Now(), detail);
      }
    }
    Resend(packet);
  });
}

void GroupRouter::Redirect(const PacketPtr& packet, uint32_t target,
                           uint64_t detail) {
  Retarget(*packet, target);
  BackoffResend(packet, redirect_backoff_, detail);
}

void GroupRouter::OnResponse(const PacketPtr& packet, std::vector<uint8_t> payload) {
  Result<GroupResponse> decoded = DecodeGroupResponse(payload);
  if (!decoded.ok()) {
    NoteCorruptResponse();
    return;
  }
  const GroupResponse& response = decoded.value();
  if (OnShardBounce(packet, response)) {
    return;
  }
  if ((response.flags & (kGroupRedirect | kGroupStaleRead)) != 0) {
    const bool redirect = (response.flags & kGroupRedirect) != 0;
    (redirect ? stats_.redirects_followed : stats_.stale_retries)++;
    // Chase the responder's view of the primary: it always satisfies the
    // watermark, and writes only land there anyway. Back off a beat so the
    // group converges instead of being hammered mid-failover.
    BelievedPrimary(packet->group) = response.primary_id;
    Redirect(packet, response.primary_id, redirect ? 1 : 2);
    return;
  }
  if (!Complete(packet, response.results_payload)) {
    return;  // retransmission timer recovers
  }
  BelievedPrimary(packet->group) = response.primary_id;
  for (const size_t slot : packet->slots) {
    const KvOperation& op = packet->flush->ops[slot];
    if (!IsWriteOpcode(op.opcode)) {
      continue;
    }
    if (watermarks_.Raise(HashBytes(op.key), packet->group,
                          response.assigned_index)) {
      stats_.watermark_evictions++;
    }
  }
}

ReplicatedClient::ReplicatedClient(ReplicationGroup& group, const Options& options)
    : GroupRouter(group.simulator(), group.AcquireClientSequenceBase(), options,
                  group.num_replicas(), kGroupRequestHeaderBytes, &stats_),
      group_(group) {
  BelievedPrimary(0) = group.primary_id();
}

void ReplicatedClient::Route(Packet& packet) {
  if (packet.is_write) {
    packet.target = BelievedPrimary(0);
  } else {
    packet.target = next_read_target_++ % group_.num_replicas();
  }
}

}  // namespace kvd
