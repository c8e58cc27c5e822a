#include "src/replica/replication_group.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/assert.h"
#include "src/transport/frame.h"

namespace kvd {

// --- replication path ---

void ReplicationGroup::SendReplicaMessage(uint32_t from, uint32_t to,
                                          const ReplicaMessage& msg,
                                          const std::vector<uint64_t>& traces) {
  if (replicas_[from]->crashed) {
    return;
  }
  SendReplicaFrame(to,
                   FramePacket(++next_repl_sequence_, EncodeReplicaMessage(msg)),
                   traces);
}

void ReplicationGroup::SendReplicaFrame(uint32_t to, std::vector<uint8_t> frame,
                                        const std::vector<uint64_t>& traces) {
  replicas_[to]->repl_net->SendPayloadToServer(
      std::move(frame),
      [this, to](std::vector<uint8_t> packet) { OnReplicaFrame(to, std::move(packet)); },
      traces, SpanKind::kReplShip);
}

void ReplicationGroup::OnReplicaFrame(uint32_t to, std::vector<uint8_t> packet) {
  Settle();
  Replica& rep = *replicas_[to];
  if (rep.crashed) {
    return;
  }
  Result<Frame> frame = ParseFrame(packet);
  if (!frame.ok()) {
    stats_.corrupt_replica_frames++;
    return;
  }
  Result<ReplicaMessage> decoded = DecodeReplicaMessage(frame.value().payload);
  if (!decoded.ok()) {
    stats_.corrupt_replica_frames++;
    return;
  }
  // The message is ours: OnAppend moves its entries into the log.
  ReplicaMessage& msg = decoded.value();
  switch (msg.type) {
    case ReplicaMessageType::kAppend:
      OnAppend(rep, msg);
      break;
    case ReplicaMessageType::kAppendAck:
      OnAppendAck(rep, msg);
      break;
    case ReplicaMessageType::kPromoteQuery:
      OnPromoteQuery(rep, msg);
      break;
    case ReplicaMessageType::kPromoteReply:
      OnPromoteReply(rep, msg);
      break;
    case ReplicaMessageType::kPromote:
      OnPromote(rep, msg);
      break;
    case ReplicaMessageType::kCatchupRequest:
      OnCatchupRequest(rep, msg);
      break;
    case ReplicaMessageType::kStateChunk:
      OnStateChunk(rep, msg);
      break;
    case ReplicaMessageType::kStateChunkAck:
      OnStateChunkAck(rep, msg);
      break;
  }
}

void ReplicationGroup::OnAppend(Replica& rep, ReplicaMessage& msg) {
  if (msg.epoch < rep.current_epoch) {
    // Depose the stale primary: an ack carrying a higher epoch does it.
    ReplicaMessage ack = MakeMessage(ReplicaMessageType::kAppendAck,
                                     rep.current_epoch, rep.id);
    SendReplicaMessage(rep.id, msg.sender, ack);
    return;
  }
  AdoptEpoch(rep, msg.epoch, msg.sender);
  rep.last_primary_contact = sim_.Now();
  if (rep.receiving_snapshot) {
    if (msg.epoch == rep.inbound_transfer.first) {
      return;  // the log is meaningless mid-transfer
    }
    // A newer primary: the transfer's sender lost its reign and will never
    // finish it. Drop the partial snapshot and resync from this primary.
    WipeState(rep);
    rep.receiving_snapshot = false;
  }
  if (rep.log.end() > msg.leader_end) {
    // Divergent tail: we were the deposed primary and applied entries the
    // new history will overwrite. Applied state cannot be rolled back
    // entry-wise, so ask for resync; the primary sees a position it cannot
    // validate and falls back to state transfer.
    RequestCatchup(rep, msg.sender);
    return;
  }
  const uint64_t prev = msg.first_index - 1;
  if (prev > rep.log.end()) {
    RequestCatchup(rep, msg.sender);  // gap: we missed earlier windows
    return;
  }
  if (prev >= rep.log.base() && rep.log.EpochAt(prev) != msg.prev_epoch) {
    RequestCatchup(rep, msg.sender);
    return;
  }
  for (size_t i = 0; i < msg.entries.size(); i++) {
    const uint64_t index = msg.first_index + i;
    if (rep.log.Contains(index) &&
        rep.log.EpochAt(index) != msg.entries[i].epoch) {
      RequestCatchup(rep, msg.sender);
      return;
    }
  }
  AppendToLog(rep, msg.entries, msg.first_index);
  rep.commit = std::max(rep.commit, std::min(msg.commit_index, rep.log.end()));
  ApplyCommitted(rep);
  TrimLog(rep);
  ReplicaMessage ack =
      MakeMessage(ReplicaMessageType::kAppendAck, rep.current_epoch, rep.id);
  ack.ack_index = rep.log.end();
  SendReplicaMessage(rep.id, msg.sender, ack);
}

void ReplicationGroup::OnAppendAck(Replica& rep, const ReplicaMessage& msg) {
  if (msg.epoch > rep.current_epoch) {
    // We were deposed while our append was in flight. The acker knows the
    // newer epoch; point redirects at it until the new primary's heartbeat
    // arrives.
    rep.current_epoch = msg.epoch;
    rep.voted_epoch = std::max(rep.voted_epoch, msg.epoch);
    rep.believed_primary = msg.sender;
    if (rep.is_primary) {
      StepDown(rep);
    }
    return;
  }
  if (!rep.is_primary || msg.epoch < rep.current_epoch) {
    return;
  }
  stats_.append_acks++;
  rep.match[msg.sender] = std::max(rep.match[msg.sender], msg.ack_index);
  rep.next[msg.sender] = std::max(rep.next[msg.sender], msg.ack_index + 1);
  TryAdvanceCommit(rep);
}

void ReplicationGroup::PushAppends(Replica& primary) {
  for (uint32_t peer = 0; peer < num_replicas(); peer++) {
    if (peer == primary.id || primary.snapshot_out[peer].active) {
      continue;
    }
    SendWindow(primary, peer);
  }
}

void ReplicationGroup::SendWindow(Replica& primary, uint32_t peer) {
  const uint64_t first = primary.next[peer];
  if (first <= primary.log.base()) {
    // The entries this peer needs were trimmed: only a snapshot can help.
    StartStateTransfer(primary, peer);
    return;
  }
  KVD_CHECK(first <= primary.log.end() + 1);
  ReplicaMessage msg =
      MakeMessage(ReplicaMessageType::kAppend, primary.current_epoch, primary.id);
  msg.first_index = first;
  msg.prev_epoch = primary.log.EpochAt(first - 1);
  msg.commit_index = primary.commit;
  msg.leader_end = primary.log.end();
  const uint64_t last = primary.log.WindowLast(first, config_.max_append_entries);
  primary.next[peer] = last + 1;
  stats_.appends_sent++;
  stats_.entries_shipped += last + 1 - first;
  std::vector<uint64_t> traces;
  if (tracer_.enabled()) {
    for (uint64_t index = first; index <= last; index++) {
      const LogEntry& entry = primary.log.At(index);
      if (entry.client_sequence == 0) {
        continue;  // promotion barrier
      }
      const uint64_t handle =
          tracer_.LookupOp(entry.client_sequence, entry.slot);
      if (handle != 0) {
        traces.push_back(handle);
      }
    }
  }
  if (primary.crashed) {
    return;  // as SendReplicaMessage: a crashed replica sends nothing
  }
  // The window is encoded straight from the log: its one copy is the bytes.
  SendReplicaFrame(peer,
                   FramePacket(++next_repl_sequence_,
                               primary.log.EncodeWindow(msg, first, last)),
                   traces);
}

void ReplicationGroup::TryAdvanceCommit(Replica& primary) {
  if (!primary.is_primary) {
    return;
  }
  std::vector<uint64_t> positions = primary.match;
  std::sort(positions.begin(), positions.end(), std::greater<uint64_t>());
  uint32_t quorum = config_.EffectiveQuorum();
  if (config_.demote_lag_entries > 0) {
    // Gray degradation: demoted peers are discounted from the commit quorum,
    // but never below the election majority — a committed write must still
    // intersect every future election, or failover could lose it.
    uint32_t demoted_count = 0;
    for (const uint8_t flag : primary.demoted) {
      demoted_count += flag;
    }
    const uint32_t floor_quorum = config_.ElectionQuorum();
    quorum = quorum > demoted_count
                 ? std::max(quorum - demoted_count, floor_quorum)
                 : floor_quorum;
  }
  const uint64_t candidate = positions[quorum - 1];
  if (candidate <= primary.commit) {
    return;
  }
  if (candidate < primary.first_own_index) {
    // Raft's commit rule: never commit inherited entries by counting
    // replicas — a quorum on an old-epoch index can still be overwritten by
    // a rival's later election. The promotion barrier at first_own_index
    // commits the whole inherited prefix with it once it reaches quorum.
    return;
  }
  while (!primary.append_time.empty() &&
         primary.append_time.front().first <= candidate) {
    propagation_lag_ns_.Add(static_cast<uint64_t>(
        (sim_.Now() - primary.append_time.front().second) / kNanosecond));
    primary.append_time.pop_front();
  }
  const uint64_t previous_commit = primary.commit;
  primary.commit = candidate;
  if (commit_listener_) {
    // Fire before releasing pending client acks: a live migration forwards
    // each committed effect inside the listener, so by the time the client
    // sees the ack the destination group already holds the write.
    for (uint64_t index = previous_commit + 1; index <= candidate; index++) {
      if (primary.log.Contains(index)) {
        commit_listener_(primary.log.At(index));
      }
    }
  }
  std::vector<uint32_t> ready;
  std::vector<uint32_t> still;
  for (const uint32_t batch : primary.pending) {
    const bool done = primary.write_waits[batch].needed_index <= primary.commit;
    (done ? ready : still).push_back(batch);
  }
  primary.pending = std::move(still);
  for (const uint32_t batch : ready) {
    AnswerWrites(primary, batch);
    primary.server->ReleasePacket(batch);
  }
}

void ReplicationGroup::EvaluateGrayPeers(Replica& primary) {
  if (config_.demote_lag_entries == 0 || !primary.is_primary) {
    return;
  }
  const SimTime now = sim_.Now();
  bool demoted_someone = false;
  for (uint32_t peer = 0; peer < num_replicas(); peer++) {
    if (peer == primary.id) {
      continue;
    }
    const uint64_t lag = primary.log.end() - primary.match[peer];
    if (lag == 0) {
      primary.lag_since[peer] = 0;
      if (primary.demoted[peer]) {
        // Reinstate only after a full grace window of being caught up:
        // hysteresis keeps a flapping gray link from dragging every other
        // write back onto the slow path.
        if (primary.ok_since[peer] == 0) {
          primary.ok_since[peer] = now;
        } else if (now - primary.ok_since[peer] >= config_.demote_grace) {
          primary.demoted[peer] = 0;
          primary.ok_since[peer] = 0;
          stats_.gray_reinstatements++;
          tracer_.Instant(kTraceCategory, "gray_reinstate", {{"peer", peer}});
        }
      }
      continue;
    }
    primary.ok_since[peer] = 0;
    if (primary.lag_since[peer] == 0) {
      primary.lag_since[peer] = now;  // grace clock starts
    }
    // Demote on a burst (lag beyond the entry bound) immediately once
    // observed past the grace clock start, or on a stall: any nonzero lag
    // held through a full grace window. A gray peer under a trickle of
    // writes never builds a large lag — it just never reaches zero.
    const bool big_lag = lag > config_.demote_lag_entries;
    const bool stalled = now - primary.lag_since[peer] >= config_.demote_grace;
    if (!primary.demoted[peer] && (big_lag || stalled)) {
      // The peer is gray (slow, lossy, or partitioned — the primary cannot
      // tell which). Stop counting it toward commit so healthy writes stop
      // waiting on it.
      primary.demoted[peer] = 1;
      stats_.gray_demotions++;
      demoted_someone = true;
      tracer_.Instant(kTraceCategory, "gray_demote",
                      {{"peer", peer}, {"lag", lag}});
    }
  }
  if (demoted_someone) {
    // The relaxed quorum may already be satisfied by the healthy peers.
    TryAdvanceCommit(primary);
  }
}

void ReplicationGroup::AppendToLog(Replica& rep, std::vector<LogEntry>& entries,
                                   uint64_t first_index) {
  const uint64_t start = rep.log.end() + 1;
  for (size_t i = 0; i < entries.size(); i++) {
    if (first_index + i < start) {
      continue;  // duplicate from a retransmitted window
    }
    rep.log.Append(std::move(entries[i]));
  }
}

void ReplicationGroup::ApplyThrough(Replica& rep, uint64_t target) {
  Replica* rp = &rep;
  // Start every entry's bucket-line miss before the first admission needs
  // one; the hash taken for it is the one the processor admits with.
  key_hashes_.clear();
  for (uint64_t index = rep.applied + 1; index <= target; index++) {
    rep.server->index().Prefetch(
        key_hashes_.emplace_back(HashKey(rep.log.At(index).op.key)));
  }
  for (const KeyHash& kh : key_hashes_) {
    const LogEntry& entry = rep.log.At(rep.applied + 1);
    rep.inflight_ops++;
    // Control class: replication applies are exempt from every shedding
    // policy — dropping one would diverge this store from the log. The
    // processor borrows the entry's op until admission; TrimLog keeps the
    // entry until then.
    rep.server->processor().Submit(
        entry.op, kh, [rp](KvResultMessage) { rp->inflight_ops--; }, OpClass::kControl);
    if (entry.client_sequence != 0) {  // promotion barriers carry no session
      RecordSession(rep, entry.client_sequence, entry.slot, entry.result);
    }
    stats_.entries_applied++;
    rep.applied++;
  }
}

void ReplicationGroup::TrimLog(Replica& rep) {
  // Never trim past the applied cursor: unapplied committed entries must
  // stay replayable locally (apply-at-commit keeps applied <= end). Nor past
  // an applied entry whose op still waits for admission: the processor
  // borrows its bytes until then. Applies are the only control-class ops
  // and are admitted in order, so the waiting ones are the last applied.
  const uint64_t queued = rep.server->processor().waiting(OpClass::kControl);
  rep.log.Trim(std::max<uint64_t>(config_.max_log_entries,
                                  rep.log.end() - rep.applied + queued));
}

}  // namespace kvd
