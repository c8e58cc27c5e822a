#include "src/replica/replication_group.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "src/common/assert.h"
#include "src/net/wire_format.h"
#include "src/transport/frame.h"

namespace kvd {

// --- client path ---

void ReplicationGroup::DeliverClientFrame(
    uint32_t replica_id, std::vector<uint8_t> packet,
    std::function<void(std::vector<uint8_t>)> respond) {
  Settle();
  Replica& rep = *replicas_[replica_id];
  if (rep.crashed) {
    return;  // the client's retransmission timer covers it
  }
  std::optional<Frame> frame = rep.server->endpoint().Accept(packet, respond);
  if (!frame.has_value()) {
    return;  // corrupt (dropped), replayed (answered), or still in flight
  }
  const uint64_t sequence = frame->sequence;
  // The request and its ops are views of `packet`.
  Result<GroupRequestView> request = DecodeGroupRequestView(frame->payload);
  const Status decoded =
      request.ok() ? DecodeOps(request->ops_payload, ops_) : request.status();
  if (!decoded.ok() || ops_.empty()) {
    // A bad header, malformed ops, or no ops at all.
    rep.server->endpoint().Admit(sequence);
    std::vector<KvResultMessage> err(1);
    err[0].code = ResultCode::kInvalidArgument;
    SendResponse(rep, sequence, {}, err, std::move(respond), true);
    return;
  }
  HandleClientRequest(rep, sequence, *request, ops_, std::move(packet),
                      std::move(respond));
}

void ReplicationGroup::HandleClientRequest(
    Replica& rep, uint64_t sequence, const GroupRequestView& request,
    std::span<const KvOpView> ops, std::vector<uint8_t> packet,
    std::function<void(std::vector<uint8_t>)> respond) {
  bool any_write = false;
  for (const KvOpView& op : ops) {
    any_write = any_write || IsWriteOpcode(op.opcode);
  }
  GroupResponse bounce;
  std::vector<KvResultMessage> bounced;
  if (request.has_route && shard_gate_) {
    // The gate outranks the redirect check: a request for a partition this
    // group no longer owns must bounce toward the owning group, not toward
    // this group's primary.
    const ShardGateDecision decision =
        shard_gate_(request.map_epoch, request.partition, any_write);
    if (decision.action != ShardGateDecision::Action::kServe) {
      const bool wrong =
          decision.action == ShardGateDecision::Action::kWrongShard;
      (wrong ? stats_.wrong_shard_bounces : stats_.migrating_bounces)++;
      tracer_.Instant(kTraceCategory, wrong ? "wrong_shard" : "migrating",
                      {{"replica", rep.id},
                       {"partition", request.partition},
                       {"map_epoch", decision.map_epoch}});
      bounced.resize(1);
      bounced[0].code = wrong ? ResultCode::kWrongShard : ResultCode::kMigrating;
      bounce.flags = wrong ? kGroupWrongShard : kGroupMigrating;
      bounce.map_epoch = decision.map_epoch;
      bounce.owner_group = decision.owner_group;
      bounce.num_partitions = decision.num_partitions;
    }
  }
  if (bounce.flags == 0 && any_write && !rep.is_primary) {
    stats_.redirects++;
    tracer_.Instant(kTraceCategory, "redirect",
                    {{"replica", rep.id}, {"primary", rep.believed_primary}});
    bounce.flags = kGroupRedirect;
  }
  // Gate reads on the applied cursor: backups apply entries only once
  // committed, so a served read can never expose a write that might still
  // be discarded. A replica whose store a state transfer wiped serves none
  // until it holds what it held before, or its reads would go back in time.
  if (bounce.flags == 0 && !any_write &&
      (rep.receiving_snapshot || rep.wiped_tail > LogTail(rep) ||
       rep.applied < request.required_index)) {
    stats_.stale_reads++;
    tracer_.Instant(kTraceCategory, "stale_read",
                    {{"replica", rep.id},
                     {"required", request.required_index},
                     {"applied", rep.applied}});
    bounce.flags = kGroupStaleRead;
  }
  if (bounce.flags != 0) {
    // Control responses are never cached: the next retransmission must be
    // re-evaluated against the then-current role and ownership.
    SendResponse(rep, sequence, std::move(bounce), bounced, std::move(respond),
                 false);
    return;
  }
  if (request.has_route && load_listener_) {
    load_listener_(request.partition, static_cast<uint32_t>(ops.size()),
                   any_write);
  }
  rep.server->endpoint().Admit(sequence);
  // A replica's packets are its node's: the replica encodes the answer.
  if (!any_write) {
    rep.server->ServePacket(sequence, ops, std::move(packet), std::move(respond));
    return;
  }
  // A write packet is one record from here to its answer, parked or not:
  // opening it stamps the ops' arrival.
  const uint32_t batch =
      rep.server->OpenPacket(sequence, ops, std::move(packet), std::move(respond));
  if (rep.write_waits.size() <= batch) {
    rep.write_waits.resize(batch + 1);
  }
  rep.write_waits[batch] = {};
  if (rep.draining_for_snapshot) {
    // A snapshot cut is waiting for the pipeline to quiesce; admitting this
    // write now could postpone the cut indefinitely under sustained load.
    stats_.snapshot_deferred_writes++;
    rep.deferred_writes.push_back(batch);
    return;
  }
  SubmitWrites(rep, batch);
}

void ReplicationGroup::SubmitWrites(Replica& rep, uint32_t batch) {
  KvDirectServer& node = *rep.server;
  // Replicated session records answer write slots that already executed —
  // possibly under a previous primary — without re-executing them. That is
  // what makes retransmission across failover exactly-once. A stored
  // sequence's slots are this packet's writes; their entries sit at or
  // below the current log end, so the answer waits for the whole present
  // log to commit (conservative, but simple and safe).
  std::span<const SlotResult> stored;
  if (auto session = rep.sessions.find(node.packet_sequence(batch));
      session != rep.sessions.end()) {
    stored = session->second;
    rep.write_waits[batch].needed_index = rep.log.end();
  }
  const auto writes = static_cast<uint64_t>(std::ranges::count_if(
      node.packet_ops(batch),
      [](const KvOpView& op) { return IsWriteOpcode(op.opcode); }));
  const uint32_t answered = node.ExecutePacket(batch, stored);
  stats_.session_dedup_hits += answered;
  // No op retires inside the submit: the submitted writes are in flight.
  rep.inflight_ops += writes - answered;
}

void ReplicationGroup::OnPacketRetired(Replica& rep, uint32_t batch,
                                       uint32_t slot, KvResultMessage& result) {
  const KvOpView& op = rep.server->packet_ops(batch)[slot];
  if (!IsWriteOpcode(op.opcode)) {
    return;
  }
  rep.inflight_ops--;
  if (result.code != ResultCode::kOk) {
    return;
  }
  AppendEffectiveWrite(rep, rep.server->packet_sequence(batch),
                       static_cast<uint16_t>(slot), op, result);
  rep.write_waits[batch] = {rep.log.end(), sim_.Now()};
}

bool ReplicationGroup::FinishPacket(Replica& rep, uint32_t batch) {
  if (std::ranges::none_of(rep.server->packet_ops(batch), [](const KvOpView& op) {
        return IsWriteOpcode(op.opcode);
      })) {
    rep.server->AnswerPacket(batch);
    return true;
  }
  if (rep.crashed || !rep.is_primary) {
    return true;  // crashed or deposed mid-request; the client retries
  }
  const bool appended = rep.write_waits[batch].appended_at != 0;
  if (appended) {
    TryAdvanceCommit(rep);  // a quorum of one commits immediately
  }
  const bool committed = rep.commit >= rep.write_waits[batch].needed_index;
  if (committed) {
    AnswerWrites(rep, batch);
  } else {
    rep.pending.push_back(batch);
  }
  if (appended) {
    // Ship before trimming: a packet's writes may outnumber max_log_entries,
    // and trimming first would drop entries no backup has received yet.
    PushAppends(rep);
    TrimLog(rep);
  }
  return committed;
}

void ReplicationGroup::AnswerWrites(Replica& rep, uint32_t batch) {
  const Replica::WriteWait wait = rep.write_waits[batch];
  if (wait.appended_at != 0) {
    commit_wait_ns_.Add(
        static_cast<uint64_t>((sim_.Now() - wait.appended_at) / kNanosecond));
  }
  if (tracer_.enabled()) {
    for (const KvOpView& op : rep.server->packet_ops(batch)) {
      tracer_.Point(op.trace, TracePoint::kReplCommit);
    }
  }
  rep.server->AnswerPacket(batch, wait.needed_index);
}

void ReplicationGroup::AppendEffectiveWrite(Replica& rep, uint64_t sequence,
                                            uint16_t slot, const KvOpView& op,
                                            const KvResultMessage& result) {
  tracer_.Point(op.trace, TracePoint::kReplAppend);
  LogEntry entry;
  entry.epoch = rep.current_epoch;
  entry.client_sequence = sequence;
  entry.slot = slot;
  entry.op = op.ToOwned();
  // Backups re-execute the entry through their own timed pipeline; the
  // client's live trace must not collect those replica-local spans.
  entry.op.trace = 0;
  entry.result = result;
  rep.log.Append(std::move(entry));
  if (rep.is_primary && !rep.crashed) {
    // Only a live reign's appends are timed: a crashed or deposed primary's
    // late retirements land in a log tail the next reign may rewrite, and
    // the next promotion clears them anyway.
    KVD_DCHECK(rep.append_time.empty() ||
               rep.append_time.back().first < rep.log.end());
    rep.append_time.emplace_back(rep.log.end(), sim_.Now());
  }
  rep.match[rep.id] = rep.log.end();
  rep.next[rep.id] = rep.log.end() + 1;
  rep.applied = rep.log.end();  // execute-then-log: effects already in store
  RecordSession(rep, sequence, slot, result);
}

void ReplicationGroup::RecordSession(Replica& rep, uint64_t sequence,
                                     uint16_t slot,
                                     const KvResultMessage& result) {
  auto [it, inserted] = rep.sessions.try_emplace(sequence);
  std::vector<SlotResult>& slots = it->second;
  auto at = std::lower_bound(
      slots.begin(), slots.end(), slot,
      [](const SlotResult& stored, uint16_t wanted) { return stored.slot < wanted; });
  if (at != slots.end() && at->slot == slot) {
    at->result = result;
  } else {
    slots.insert(at, SlotResult{slot, result});
  }
  if (inserted) {
    rep.session_order.push_back(sequence);
    while (rep.session_order.size() > config_.session_entries) {
      rep.sessions.erase(rep.session_order.front());
      rep.session_order.pop_front();
    }
  }
}

std::optional<std::vector<uint8_t>> ReplicationGroup::Replica::Encode(
    GroupResponse response, std::vector<KvResultMessage>& results) const {
  if (crashed) {
    return std::nullopt;  // the answer died with the replica
  }
  response.epoch = current_epoch;
  response.primary_id = believed_primary;
  for (KvResultMessage& result : results) {
    result.epoch = static_cast<uint32_t>(current_epoch);
  }
  response.results_payload = EncodeResults(results);
  return EncodeGroupResponse(response);
}

void ReplicationGroup::SendResponse(
    Replica& rep, uint64_t sequence, GroupResponse response,
    std::vector<KvResultMessage>& results,
    std::function<void(std::vector<uint8_t>)> respond, bool cache) {
  if (std::optional<std::vector<uint8_t>> payload =
          rep.Encode(std::move(response), results)) {
    respond(rep.server->endpoint().Complete(sequence, *payload, cache));
  }
}

void ReplicationGroup::DropInFlight(Replica& rep) {
  // Writes awaiting quorum, parked drain writes and outbound state transfers
  // die with the reign; the clients' timers cover the writes, a new primary
  // resyncs the peers.
  for (const uint32_t batch : rep.pending) {
    rep.server->ReleasePacket(batch);
  }
  rep.pending.clear();
  rep.append_time.clear();
  rep.draining_for_snapshot = false;
  for (const uint32_t batch : rep.deferred_writes) {
    rep.server->ReleasePacket(batch);
  }
  rep.deferred_writes.clear();
  for (uint32_t peer = 0; peer < num_replicas(); peer++) {
    EndStateTransfer(rep, peer);
  }
  // In-flight replay entries die too: their executions will never respond.
  rep.server->endpoint().DropInFlight();
}

}  // namespace kvd
