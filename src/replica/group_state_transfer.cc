#include "src/replica/replication_group.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/transport/frame.h"

namespace kvd {

StateKvs ReplicationGroup::SnapshotKvs(Replica& rep, const KeyRouter* router,
                                       uint32_t partition) {
  StateKvs kvs;
  rep.server->index().ForEach(
      [&](std::span<const uint8_t> key, std::span<const uint8_t> value) {
        if (router == nullptr || router->PartitionOf(key) == partition) {
          kvs.emplace_back(std::vector<uint8_t>(key.begin(), key.end()),
                           std::vector<uint8_t>(value.begin(), value.end()));
        }
      });
  std::ranges::sort(kvs, std::less<std::vector<uint8_t>>(),
                    &StateKvs::value_type::first);
  return kvs;
}

void ReplicationGroup::OnCatchupRequest(Replica& rep, const ReplicaMessage& msg) {
  if (!rep.is_primary) {
    return;
  }
  if (msg.sender >= num_replicas() || rep.snapshot_out[msg.sender].active) {
    return;  // already resyncing this peer
  }
  const uint64_t last = msg.last_index;
  const bool matches = last >= rep.log.base() && last <= rep.log.end() &&
                       rep.log.EpochAt(last) == msg.last_epoch;
  if (!matches) {
    StartStateTransfer(rep, msg.sender);
    return;
  }
  rep.match[msg.sender] = std::max(rep.match[msg.sender], last);
  rep.next[msg.sender] = last + 1;
  SendWindow(rep, msg.sender);
  TryAdvanceCommit(rep);
}

void ReplicationGroup::OnStateChunk(Replica& rep, const ReplicaMessage& msg) {
  if (msg.epoch < rep.current_epoch) {
    return;
  }
  AdoptEpoch(rep, msg.epoch, msg.sender);
  rep.last_primary_contact = sim_.Now();  // no elections mid-transfer
  const std::pair<uint64_t, uint64_t> transfer{msg.epoch, msg.snapshot_index};
  if (transfer < rep.inbound_transfer) {
    return;  // a straggler of a transfer that a newer one superseded
  }
  if (transfer > rep.inbound_transfer) {
    rep.inbound_transfer = transfer;
    rep.snapshot_in.installed = 0;
  }
  ReplicaMessage ack = MakeMessage(ReplicaMessageType::kStateChunkAck,
                                   rep.current_epoch, rep.id);
  ack.snapshot_index = msg.snapshot_index;
  ack.ack_index = rep.snapshot_in.OnChunk(
      msg.chunk_seq, [&] { return InstallStateChunk(rep, msg); });
  SendReplicaMessage(rep.id, msg.sender, ack);
}

bool ReplicationGroup::InstallStateChunk(Replica& rep,
                                         const ReplicaMessage& msg) {
  if (msg.chunk_seq == 0) {
    if (rep.inflight_ops > 0) {
      // Earlier log entries are still in the timed pipeline; wiping now would
      // let them retire on top of the snapshot and resurrect stale values.
      // Refuse: no appends flow here meanwhile, so the pipeline drains and
      // go-back-N offers this chunk again.
      return false;
    }
    WipeState(rep);
    rep.receiving_snapshot = true;
  }
  for (const auto& [key, value] : msg.kvs) {
    KvOperation put;
    put.opcode = Opcode::kPut;
    put.key = key;
    put.value = value;
    if (rep.server->Execute(put).code == ResultCode::kOk) {
      stats_.state_transfer_kvs++;
    }
  }
  for (const SessionRecord& record : msg.sessions) {
    RecordSession(rep, record.sequence, record.slot, record.result);
  }
  if ((msg.chunk_flags & kStateChunkLast) != 0) {
    rep.log.ResetToSnapshot(msg.snapshot_index, msg.snapshot_epoch);
    rep.commit = msg.snapshot_index;
    rep.applied = msg.snapshot_index;  // the snapshot IS the applied state
    rep.receiving_snapshot = false;
    tracer_.Instant(kTraceCategory, "snapshot_installed",
                    {{"replica", rep.id}, {"index", msg.snapshot_index}});
  }
  return true;
}

void ReplicationGroup::OnStateChunkAck(Replica& rep, const ReplicaMessage& msg) {
  const uint32_t peer = msg.sender;
  if (peer >= num_replicas() || !rep.snapshot_out[peer].stream->active() ||
      msg.epoch != rep.current_epoch ||
      msg.snapshot_index != rep.snapshot_out[peer].index) {
    return;  // an ack of a transfer this reign is not running
  }
  SnapshotStream& stream = *rep.snapshot_out[peer].stream;
  stream.OnAck(msg.ack_index);
  if (!stream.done()) {
    return;
  }
  // Every chunk is installed: the peer's log sits at the snapshot boundary,
  // so appends resume right past it.
  const uint64_t boundary = rep.snapshot_out[peer].index;
  EndStateTransfer(rep, peer);
  rep.match[peer] = std::max(rep.match[peer], boundary);
  rep.next[peer] = boundary + 1;
  SendWindow(rep, peer);
  TryAdvanceCommit(rep);
}

void ReplicationGroup::RequestCatchup(Replica& rep, uint32_t to) {
  stats_.catchup_requests++;
  ReplicaMessage req = MakeMessage(ReplicaMessageType::kCatchupRequest,
                                   rep.current_epoch, rep.id);
  req.last_epoch = rep.log.EpochAt(rep.log.end());
  req.last_index = rep.log.end();
  SendReplicaMessage(rep.id, to, req);
}

void ReplicationGroup::StartStateTransfer(Replica& primary, uint32_t target) {
  if (primary.snapshot_out[target].active) {
    return;  // already resyncing this peer
  }
  primary.snapshot_out[target].active = true;
  stats_.state_transfers++;
  tracer_.Instant(kTraceCategory, "state_transfer",
                  {{"from", primary.id},
                   {"to", target},
                   {"keys", primary.server->index().num_kvs()}});
  BuildSnapshot(primary.id, target, primary.current_epoch);
}

void ReplicationGroup::BuildSnapshot(uint32_t primary_id, uint32_t target,
                                     uint64_t transfer_epoch) {
  Replica& primary = *replicas_[primary_id];
  if (primary.crashed || !primary.is_primary ||
      primary.current_epoch != transfer_epoch ||
      !primary.snapshot_out[target].active) {
    // The transfer already ended with its reign (DropInFlight); a newer
    // transfer to the same peer must not be touched.
    ReleaseSnapshotDrain(primary);
    return;
  }
  if (primary.inflight_ops > 0) {
    // Effects of in-flight writes are in the store but not yet in the log;
    // cutting the snapshot now would make the target replay them twice.
    // Park new writes until the cut (drain-then-cut): under sustained load
    // the pipeline would otherwise never be observed quiescent and the
    // transfer could be postponed indefinitely.
    primary.draining_for_snapshot = true;
    sim_.ScheduleAt(sim_.Now() + config_.heartbeat_interval,
                    [this, primary_id, target, transfer_epoch] {
                      BuildSnapshot(primary_id, target, transfer_epoch);
                    });
    return;
  }
  ReplicaMessage header = MakeMessage(ReplicaMessageType::kStateChunk,
                                      primary.current_epoch, primary.id);
  header.snapshot_index = primary.log.end();
  header.snapshot_epoch = primary.log.EpochAt(header.snapshot_index);
  // The session records follow the KVs in eviction order, so a target
  // promoted later still answers retransmissions of writes it never logged.
  std::vector<SessionRecord> sessions;
  for (const uint64_t sequence : primary.session_order) {
    for (const SlotResult& stored : primary.sessions.at(sequence)) {
      sessions.push_back({sequence, stored.slot, stored.result});
    }
  }
  std::vector<ReplicaMessage> chunks =
      CutStateChunks(header, SnapshotKvs(primary, nullptr, 0),
                     std::move(sessions), config_.state_transfer_chunk_kvs);
  if (chunks.empty()) {
    chunks.push_back(header);  // an empty snapshot still resets the target
  }
  chunks.back().chunk_flags |= kStateChunkLast;
  std::vector<std::vector<uint8_t>> frames;
  for (const ReplicaMessage& chunk : chunks) {
    frames.push_back(
        FramePacket(++next_repl_sequence_, EncodeReplicaMessage(chunk)));
  }
  primary.snapshot_out[target].index = header.snapshot_index;
  primary.snapshot_out[target].stream->Start(std::move(frames));
  // The chunks are fully materialized; writes parked during the drain can
  // resume without perturbing the cut.
  ReleaseSnapshotDrain(primary);
}

void ReplicationGroup::EndStateTransfer(Replica& primary, uint32_t peer) {
  primary.snapshot_out[peer].active = false;
  primary.snapshot_out[peer].stream->Stop();
}

void ReplicationGroup::ReleaseSnapshotDrain(Replica& rep) {
  rep.draining_for_snapshot = false;
  std::vector<uint32_t> parked;
  parked.swap(rep.deferred_writes);
  for (const uint32_t batch : parked) {
    if (rep.crashed || !rep.is_primary) {
      rep.server->ReleasePacket(batch);  // the client's timer covers it
    } else {
      SubmitWrites(rep, batch);
    }
  }
}

void ReplicationGroup::WipeState(Replica& rep) {
  for (auto& [key, value] : SnapshotKvs(rep, nullptr, 0)) {
    KvOperation del;
    del.opcode = Opcode::kDelete;
    del.key = std::move(key);
    rep.server->Execute(del);
  }
  rep.sessions.clear();
  rep.session_order.clear();
  rep.wiped_tail = std::max(rep.wiped_tail, LogTail(rep));
  rep.log.ResetToSnapshot(0, 0);
  rep.commit = 0;
  rep.applied = 0;
}

}  // namespace kvd
