#include "src/replica/replication_group.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "src/common/assert.h"
#include "src/net/wire_format.h"
#include "src/transport/frame.h"

namespace kvd {
namespace {

constexpr char kTraceCategory[] = "replica";

ReplicaMessage MakeMessage(ReplicaMessageType type, uint64_t epoch, uint32_t sender) {
  ReplicaMessage msg;
  msg.type = type;
  msg.epoch = epoch;
  msg.sender = sender;
  return msg;
}

// First session record at or after `slot` in a sequence's slot-sorted records.
template <typename Slots>
auto LowerBoundSlot(Slots& slots, uint16_t slot) {
  return std::lower_bound(
      slots.begin(), slots.end(), slot,
      [](const auto& stored, uint16_t wanted) { return stored.slot < wanted; });
}

}  // namespace

ReplicationGroup::ReplicationGroup(const ReplicationConfig& config,
                                   Simulator* external_sim, Tracer* external_tracer)
    : config_(config),
      owned_sim_(external_sim != nullptr ? nullptr : std::make_unique<Simulator>()),
      sim_(external_sim != nullptr ? *external_sim : *owned_sim_),
      owned_tracer_(external_tracer != nullptr
                        ? nullptr
                        : std::make_unique<Tracer>(sim_, config.enable_request_tracing,
                                                   config.slo, config.flight, &metrics_)),
      tracer_(external_tracer != nullptr ? *external_tracer : *owned_tracer_) {
  KVD_CHECK_MSG(config_.num_replicas >= 1, "a group needs at least one replica");
  KVD_CHECK_MSG(config_.EffectiveQuorum() >= 1 &&
                    config_.EffectiveQuorum() <= config_.num_replicas,
                "quorum must fit the replica count");
  fault_ = std::make_unique<FaultInjector>(config_.faults);
  fault_->SetTracer(&tracer_);

  // Every replica records into the group's tracer: a write's trace spans the
  // primary's pipeline, the replication links, and the quorum wait, and must
  // survive a mid-flight failover to another replica's server.
  for (uint32_t id = 0; id < config_.num_replicas; id++) {
    auto rep = std::make_unique<Replica>();
    rep->id = id;
    rep->server = std::make_unique<KvDirectServer>(config_.server, &sim_, &tracer_);
    rep->repl_net =
        std::make_unique<NetworkModel>(sim_, config_.replication_network);
    rep->repl_net->SetFaultInjector(fault_.get());
    rep->repl_net->SetTracer(&tracer_);
    rep->snapshot_in.stats = &stats_.snapshot_stream;
    rep->snapshot_out.resize(config_.num_replicas);
    for (uint32_t peer = 0; peer < config_.num_replicas; peer++) {
      rep->snapshot_out[peer].stream = std::make_unique<SnapshotStream>(
          sim_, config_.state_transfer_bytes_per_sec, &stats_.snapshot_stream,
          [this, peer](const std::vector<uint8_t>& chunk) {
            SendReplicaFrame(peer, chunk);
          });
    }
    rep->match.assign(config_.num_replicas, 0);
    rep->next.assign(config_.num_replicas, 1);
    rep->demoted.assign(config_.num_replicas, 0);
    rep->lag_since.assign(config_.num_replicas, 0);
    rep->ok_since.assign(config_.num_replicas, 0);
    replicas_.push_back(std::move(rep));
  }
  replicas_[0]->is_primary = true;
  RegisterMetrics();
  fault_->RegisterMetrics(metrics_);

  sim_.ScheduleAt(sim_.Now() + config_.heartbeat_interval, [this] { Tick(); });
}

NetworkModel& ReplicationGroup::client_network(uint32_t replica_id) {
  return replicas_[replica_id]->server->network();
}

uint64_t ReplicationGroup::epoch() const {
  return replicas_[primary_view_]->current_epoch;
}

uint64_t ReplicationGroup::commit_index() const {
  return replicas_[primary_view_]->commit;
}

uint64_t ReplicationGroup::applied_index(uint32_t id) const {
  // Entries are submitted to the processor in log order through a FIFO
  // admission queue, so everything at or below `applied` is ordered before
  // any later read on the same replica.
  return replicas_[id]->applied;
}

uint64_t ReplicationGroup::log_end(uint32_t id) const {
  return replicas_[id]->log.end();
}

void ReplicationGroup::Settle() {
  if (!pristine_) {
    return;
  }
  pristine_ = false;
  if (!stale_replicas_) {
    return;
  }
  stale_replicas_ = false;
  const KvDirectServer& source = *replicas_[0]->server;
  for (size_t id = 1; id < replicas_.size(); id++) {
    KvDirectServer& target = *replicas_[id]->server;
    // A write that reached a stale replica directly (through a replica(id)
    // reference taken before the first Load) would vanish under the clone.
    KVD_CHECK_MSG(target.index().num_kvs() == 0 &&
                      target.index().stats() == HashIndexStats{} &&
                      target.allocator().sync_stats() == SyncStats{} &&
                      target.memory_stats() == AccessStats{},
                  "a replica was written while its group held pristine loads");
    target.CloneStoreFrom(source);
  }
  stats_.load_clones++;
}

Status ReplicationGroup::Load(std::span<const uint8_t> key,
                              std::span<const uint8_t> value) {
  if (pristine_) {
    // Every replica is live and runs the same deterministic code on the same
    // state, so one load stands for all of them.
    stale_replicas_ = replicas_.size() > 1;
    return replicas_[0]->server->Load(key, value);
  }
  for (const auto& rep : replicas_) {
    if (rep->crashed) {
      // Reconciled on restart: the replica is down, not divergent.
      rep->pending_state[std::vector<uint8_t>(key.begin(), key.end())] =
          std::vector<uint8_t>(value.begin(), value.end());
      continue;
    }
    Status status = rep->server->Load(key, value);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

KvResultMessage ReplicationGroup::Execute(const KvOperation& op) {
  Settle();
  KVD_CHECK_MSG(!IsWriteOpcode(op.opcode),
                "group Execute is read-only; writes go through the log");
  return Primary().server->Execute(op);
}

Status ReplicationGroup::Erase(std::span<const uint8_t> key) {
  Settle();
  KvOperation del;
  del.opcode = Opcode::kDelete;
  del.key.assign(key.begin(), key.end());
  for (const auto& rep : replicas_) {
    if (rep->crashed) {
      // Reconciled on restart — without this, a restarted replica would keep
      // a migrated-away key and resurrect it if the partition moved back.
      rep->pending_state[del.key] = std::nullopt;
      continue;
    }
    rep->server->Execute(del);  // kNotFound is fine: absent on this replica
  }
  return Status::Ok();
}

void ReplicationGroup::InstallSessionRecord(uint64_t sequence, uint16_t slot,
                                            const KvResultMessage& result) {
  Settle();
  for (const auto& rep : replicas_) {
    if (!rep->crashed) {
      RecordSession(*rep, sequence, slot, result);
    }
  }
}

StateKvs ReplicationGroup::SnapshotPartitionKvs(const KeyRouter& router,
                                               uint32_t partition) {
  Settle();
  return SnapshotKvs(Primary(), &router, partition);
}

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

std::vector<SessionRecord> ReplicationGroup::ExportPartitionSessions(
    const KeyRouter& router, uint32_t partition) {
  Settle();
  std::vector<SessionRecord> exported;
  const Replica& primary = *replicas_[primary_view_];
  for (uint64_t index = primary.log.base() + 1; index <= primary.log.end();
       index++) {
    const LogEntry& entry = primary.log.At(index);
    if (entry.client_sequence == 0 || !IsWriteOpcode(entry.op.opcode)) {
      continue;  // promotion barriers and reads leave no session record
    }
    if (router.PartitionOf(entry.op.key) != partition) {
      continue;
    }
    exported.push_back({entry.client_sequence, entry.slot, entry.result});
  }
  return exported;
}

void ReplicationGroup::CrashReplica(uint32_t id) {
  Settle();
  Replica& rep = *replicas_[id];
  if (rep.crashed) {
    return;
  }
  rep.crashed = true;
  stats_.crashes++;
  tracer_.Instant(kTraceCategory, "crash",
                  {{"replica", id}, {"epoch", rep.current_epoch}});
  if (rep.is_primary) {
    failover_started_at_ = sim_.Now();
    failover_pending_ = true;
  }
  DropInFlight(rep);
  rep.election_active = false;
  rep.election_replies.clear();
}

void ReplicationGroup::RestartReplica(uint32_t id) {
  Settle();
  Replica& rep = *replicas_[id];
  if (!rep.crashed) {
    return;
  }
  rep.crashed = false;
  rep.is_primary = false;
  rep.election_active = false;
  rep.election_replies.clear();
  // Apply below-log mutations that arrived while down (cluster Load/Erase,
  // e.g. a migration cutover's partition sweep) before rejoining: recovery
  // must converge on the state the live replicas already hold.
  for (const auto& [key, value] : rep.pending_state) {
    if (value.has_value()) {
      KVD_CHECK_MSG(rep.server->Load(key, *value).ok(),
                    "restart reconciliation out of capacity");
    } else {
      KvOperation del;
      del.opcode = Opcode::kDelete;
      del.key = key;
      rep.server->Execute(del);  // kNotFound is fine: never present here
    }
  }
  rep.pending_state.clear();
  // Grace period: don't suspect the primary before hearing from it once.
  rep.last_primary_contact = sim_.Now();
  stats_.restarts++;
  tracer_.Instant(kTraceCategory, "restart",
                  {{"replica", id}, {"log_end", rep.log.end()}});
}

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
  Result<GroupRequest> request = DecodeGroupRequest(frame->payload);
  Result<std::vector<KvOperation>> ops =
      request.ok() ? DecodeOps(std::move(request->ops_payload)) : request.status();
  if (!ops.ok() || ops->empty()) {
    // A bad header, malformed ops, or no ops at all.
    rep.server->endpoint().Admit(sequence);
    KvResultMessage err;
    err.code = ResultCode::kInvalidArgument;
    err.epoch = static_cast<uint32_t>(rep.current_epoch);
    GroupResponse bad;
    bad.epoch = rep.current_epoch;
    bad.primary_id = rep.believed_primary;
    bad.results_payload = EncodeResults({err});
    FinishResponse(rep, sequence, std::move(bad), respond, true);
    return;
  }
  HandleClientRequest(rep, sequence, *request, std::move(*ops), std::move(respond));
}

void ReplicationGroup::HandleClientRequest(
    Replica& rep, uint64_t sequence, const GroupRequest& request,
    std::vector<KvOperation> ops, std::function<void(std::vector<uint8_t>)> respond) {
  if (tracer_.enabled()) {
    // The handles were registered by the replicated client under this
    // sequence; the lookup is non-consuming, so redirects and retransmits
    // resolve to the same trace on whichever replica they land.
    for (size_t i = 0; i < ops.size(); i++) {
      ops[i].trace =
          tracer_.LookupOp(sequence, static_cast<uint32_t>(i));
    }
  }

  bool any_write = false;
  for (const KvOperation& op : ops) {
    any_write = any_write || IsWriteOpcode(op.opcode);
  }
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
      KvResultMessage bounce;
      bounce.code = wrong ? ResultCode::kWrongShard : ResultCode::kMigrating;
      bounce.epoch = static_cast<uint32_t>(rep.current_epoch);
      GroupResponse resp;
      resp.flags = wrong ? kGroupWrongShard : kGroupMigrating;
      resp.epoch = rep.current_epoch;
      resp.primary_id = rep.believed_primary;
      resp.map_epoch = decision.map_epoch;
      resp.owner_group = decision.owner_group;
      resp.num_partitions = decision.num_partitions;
      resp.results_payload = EncodeResults({bounce});
      FinishResponse(rep, sequence, std::move(resp), respond, false);
      return;
    }
  }
  if (any_write) {
    if (!rep.is_primary) {
      stats_.redirects++;
      tracer_.Instant(kTraceCategory, "redirect",
                      {{"replica", rep.id}, {"primary", rep.believed_primary}});
      GroupResponse resp;
      resp.flags = kGroupRedirect;
      resp.epoch = rep.current_epoch;
      resp.primary_id = rep.believed_primary;
      // Control responses are never cached: the next retransmission must be
      // re-evaluated against the then-current role.
      FinishResponse(rep, sequence, std::move(resp), respond, false);
      return;
    }
    for (const KvOperation& op : ops) {
      tracer_.Point(op.trace, TracePoint::kServerReceive);
    }
    if (request.has_route && load_listener_) {
      load_listener_(request.partition, static_cast<uint32_t>(ops.size()),
                     true);
    }
    ServeWrites(rep, sequence, std::move(ops), std::move(respond));
    return;
  }
  // Gate on the applied cursor: backups apply entries only once committed,
  // so a served read can never expose a write that might still be discarded.
  if (rep.receiving_snapshot || rep.applied < request.required_index) {
    stats_.stale_reads++;
    tracer_.Instant(kTraceCategory, "stale_read",
                    {{"replica", rep.id},
                     {"required", request.required_index},
                     {"applied", rep.applied}});
    GroupResponse resp;
    resp.flags = kGroupStaleRead;
    resp.epoch = rep.current_epoch;
    resp.primary_id = rep.believed_primary;
    FinishResponse(rep, sequence, std::move(resp), respond, false);
    return;
  }
  for (const KvOperation& op : ops) {
    tracer_.Point(op.trace, TracePoint::kServerReceive);
  }
  if (request.has_route && load_listener_) {
    load_listener_(request.partition, static_cast<uint32_t>(ops.size()), false);
  }
  ServeReads(rep, sequence, std::move(ops), std::move(respond));
}

void ReplicationGroup::ServeReads(
    Replica& rep, uint64_t sequence, std::vector<KvOperation> ops,
    std::function<void(std::vector<uint8_t>)> respond) {
  rep.server->endpoint().Admit(sequence);
  const uint32_t batch = read_batches_.Open(ops.size());
  ReadBatch& read = read_batches_[batch].context;
  read.rep = &rep;
  read.sequence = sequence;
  read.respond = std::move(respond);
  for (const KvOperation& op : ops) {
    rep.server->index().Prefetch(op.key);
  }
  for (size_t i = 0; i < ops.size(); i++) {
    rep.server->Submit(std::move(ops[i]),
                       read_batches_.Completion(batch, static_cast<uint32_t>(i)));
  }
}

void ReplicationGroup::AnswerReads(uint32_t batch) {
  auto& record = read_batches_[batch];
  Replica& rep = *record.context.rep;
  if (rep.crashed) {
    return;  // response died with the replica
  }
  GroupResponse resp;
  resp.epoch = rep.current_epoch;
  resp.primary_id = rep.believed_primary;
  for (KvResultMessage& r : record.results) {
    r.epoch = static_cast<uint32_t>(rep.current_epoch);
  }
  resp.results_payload = EncodeResults(record.results);
  // Respond through a local: delivery may open batches and grow the pool.
  const std::function<void(std::vector<uint8_t>)> respond =
      std::move(record.context.respond);
  FinishResponse(rep, record.context.sequence, std::move(resp), respond, true);
}

void ReplicationGroup::ServeWrites(
    Replica& rep, uint64_t sequence, std::vector<KvOperation> ops,
    std::function<void(std::vector<uint8_t>)> respond) {
  rep.server->endpoint().Admit(sequence);
  if (rep.draining_for_snapshot) {
    // A snapshot cut is waiting for the pipeline to quiesce; admitting this
    // write now could postpone the cut indefinitely under sustained load.
    stats_.snapshot_deferred_writes++;
    rep.deferred_writes.push_back(
        {sequence, std::move(ops), std::move(respond)});
    return;
  }
  ExecuteWrites(rep, sequence, std::move(ops), std::move(respond));
}

void ReplicationGroup::ExecuteWrites(
    Replica& rep, uint64_t sequence, std::vector<KvOperation> ops,
    std::function<void(std::vector<uint8_t>)> respond) {
  const uint32_t batch = write_batches_.Open(ops.size());
  auto& record = write_batches_[batch];
  WriteBatch& write = record.context;
  write.rep = &rep;
  write.sequence = sequence;
  write.ops = std::move(ops);
  write.needed_index = 0;
  write.appended = false;
  write.appended_at = 0;
  write.respond = std::move(respond);

  // Replicated session records answer write slots that already executed —
  // possibly under a previous primary — without re-executing them. That is
  // what makes retransmission across failover exactly-once. An answered
  // slot's op stays in the record but is never submitted.
  const size_t num_ops = write.ops.size();
  std::vector<bool> answered;
  if (auto session = rep.sessions.find(sequence); session != rep.sessions.end()) {
    answered.resize(num_ops);
    for (size_t i = 0; i < num_ops; i++) {
      if (!IsWriteOpcode(write.ops[i].opcode)) {
        continue;
      }
      const uint16_t slot = static_cast<uint16_t>(i);
      auto stored = LowerBoundSlot(session->second, slot);
      if (stored != session->second.end() && stored->slot == slot) {
        record.results[i] = stored->result;
        record.remaining--;
        answered[i] = true;
        stats_.session_dedup_hits++;
      }
    }
  }
  if (record.remaining < num_ops) {
    // The stored entries sit at or below the current log end; wait for the
    // whole present log to commit (conservative, but simple and safe).
    write.needed_index = rep.log.end();
  }
  if (record.remaining == 0) {
    write_batches_.Complete(batch);
    return;
  }
  auto submitted = [&](size_t i) { return answered.empty() || !answered[i]; };
  for (size_t i = 0; i < num_ops; i++) {
    if (submitted(i)) {
      rep.server->index().Prefetch(write.ops[i].key);
    }
  }
  // From here on the record is reached through its index: Submit must not
  // be trusted to leave the pool where it was.
  for (size_t i = 0; i < num_ops; i++) {
    if (!submitted(i)) {
      continue;
    }
    const KvOperation& op = write_batches_[batch].context.ops[i];
    if (IsWriteOpcode(op.opcode)) {
      rep.inflight_ops++;
    }
    // The one copy of the op: the batch's own stays in its record until the
    // log entry takes it.
    rep.server->Submit(op, write_batches_.Completion(batch, static_cast<uint32_t>(i)));
  }
}

void ReplicationGroup::OnWriteRetired(uint32_t batch, uint32_t slot,
                                      KvResultMessage& result) {
  WriteBatch& write = write_batches_[batch].context;
  Replica& rep = *write.rep;
  if (!IsWriteOpcode(write.ops[slot].opcode)) {
    return;
  }
  rep.inflight_ops--;
  if (result.code != ResultCode::kOk) {
    return;
  }
  AppendEffectiveWrite(rep, write.sequence, static_cast<uint16_t>(slot),
                       std::move(write.ops[slot]), result);
  write.needed_index = rep.log.end();
  write.appended = true;
  write.appended_at = sim_.Now();
}

void ReplicationGroup::FinishWrites(uint32_t batch) {
  auto& record = write_batches_[batch];
  Replica& rep = *record.context.rep;
  if (rep.crashed || !rep.is_primary) {
    return;  // crashed or deposed mid-request; the client retries
  }
  // Take the answer out of the record first: the calls below respond to
  // clients, which can open batches and grow the pool under `record`.
  PendingAck pending;
  pending.needed_index = record.context.needed_index;
  pending.sequence = record.context.sequence;
  pending.appended_at = record.context.appended_at;
  pending.results = std::move(record.results);
  pending.respond = std::move(record.context.respond);
  const bool appended = record.context.appended;
  if (appended) {
    TryAdvanceCommit(rep);  // a quorum of one commits immediately
  }
  if (rep.commit >= pending.needed_index) {
    RespondWrite(rep, pending.sequence, pending.needed_index,
                 std::move(pending.results), pending.respond,
                 pending.appended_at);
  } else {
    rep.pending.push_back(std::move(pending));
  }
  if (appended) {
    PushAppends(rep);
  }
}

void ReplicationGroup::RespondWrite(
    Replica& rep, uint64_t sequence, uint64_t needed_index,
    std::vector<KvResultMessage> results,
    const std::function<void(std::vector<uint8_t>)>& respond,
    SimTime appended_at) {
  if (appended_at != 0) {
    commit_wait_ns_.Add(
        static_cast<uint64_t>((sim_.Now() - appended_at) / kNanosecond));
  }
  if (tracer_.enabled()) {
    for (size_t i = 0; i < results.size(); i++) {
      const uint64_t handle =
          tracer_.LookupOp(sequence, static_cast<uint32_t>(i));
      tracer_.Point(handle, TracePoint::kReplCommit);
      tracer_.Point(handle, TracePoint::kResponseSent);
    }
  }
  GroupResponse resp;
  resp.epoch = rep.current_epoch;
  resp.primary_id = rep.id;
  resp.assigned_index = needed_index;
  for (KvResultMessage& r : results) {
    r.epoch = static_cast<uint32_t>(rep.current_epoch);
  }
  resp.results_payload = EncodeResults(results);
  FinishResponse(rep, sequence, std::move(resp), respond, true);
}

void ReplicationGroup::AppendEffectiveWrite(Replica& rep, uint64_t sequence,
                                            uint16_t slot, KvOperation op,
                                            const KvResultMessage& result) {
  tracer_.Point(op.trace, TracePoint::kReplAppend);
  LogEntry entry;
  entry.epoch = rep.current_epoch;
  entry.client_sequence = sequence;
  entry.slot = slot;
  entry.op = std::move(op);
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
  TrimLog(rep);
}

void ReplicationGroup::RecordSession(Replica& rep, uint64_t sequence,
                                     uint16_t slot,
                                     const KvResultMessage& result) {
  auto [it, inserted] = rep.sessions.try_emplace(sequence);
  std::vector<SessionSlot>& slots = it->second;
  auto at = LowerBoundSlot(slots, slot);
  if (at != slots.end() && at->slot == slot) {
    at->result = result;
  } else {
    slots.insert(at, SessionSlot{slot, result});
  }
  if (inserted) {
    rep.session_order.push_back(sequence);
    while (rep.session_order.size() > config_.session_entries) {
      rep.sessions.erase(rep.session_order.front());
      rep.session_order.pop_front();
    }
  }
}

void ReplicationGroup::FinishResponse(
    Replica& rep, uint64_t sequence, GroupResponse response,
    const std::function<void(std::vector<uint8_t>)>& respond, bool cache) {
  respond(rep.server->endpoint().Complete(sequence, EncodeGroupResponse(response),
                                         cache));
}

void ReplicationGroup::DropInFlight(Replica& rep) {
  rep.pending.clear();
  rep.append_time.clear();
  // Parked drain writes and outbound state transfers die with the reign;
  // the clients' timers cover the writes, a new primary resyncs the peers.
  rep.draining_for_snapshot = false;
  rep.deferred_writes.clear();
  for (uint32_t peer = 0; peer < num_replicas(); peer++) {
    EndStateTransfer(rep, peer);
  }
  // In-flight replay entries die too: their executions will never respond.
  rep.server->endpoint().DropInFlight();
}

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

void ReplicationGroup::OnPromoteQuery(Replica& rep, const ReplicaMessage& msg) {
  const uint64_t ballot = msg.new_epoch;
  // Grant each ballot epoch at most once, ever: voted_epoch is monotonic, so
  // two coordinators campaigning for the same epoch split the vote and at
  // most one can reach a majority. A replica mid-snapshot cannot lead and
  // must not decide elections with its meaningless log position.
  const bool granted = !rep.receiving_snapshot && ballot > rep.voted_epoch;
  if (granted) {
    rep.voted_epoch = ballot;
    if (ballot > rep.current_epoch) {
      // Raft currentTerm rule: adopting the ballot stops us from acking (and
      // thus committing) appends of any older primary after our vote — the
      // coordinator decides on the log positions we reported at grant time.
      rep.current_epoch = ballot;
      if (rep.is_primary) {
        StepDown(rep);
      }
    }
    // Abandon any own lower ballot and give this one a full timeout.
    rep.election_active = false;
    rep.election_replies.clear();
    rep.last_primary_contact = sim_.Now();
  }
  ReplicaMessage reply =
      MakeMessage(ReplicaMessageType::kPromoteReply, rep.current_epoch, rep.id);
  reply.new_epoch = ballot;
  reply.granted = granted;
  reply.last_epoch = rep.receiving_snapshot ? 0 : rep.log.EpochAt(rep.log.end());
  reply.last_index = rep.receiving_snapshot ? 0 : rep.log.end();
  SendReplicaMessage(rep.id, msg.sender, reply);
}

void ReplicationGroup::OnPromoteReply(Replica& rep, const ReplicaMessage& msg) {
  if (!rep.election_active || msg.new_epoch != rep.election_epoch) {
    return;  // no campaign, or a vote for a previous ballot of ours
  }
  rep.election_replies[msg.sender] = Replica::ElectionReply{
      msg.granted, msg.epoch, msg.last_epoch, msg.last_index};
}

void ReplicationGroup::OnPromote(Replica& rep, const ReplicaMessage& msg) {
  Promote(rep, msg.new_epoch);
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
  std::vector<PendingAck> ready;
  std::vector<PendingAck> still;
  for (PendingAck& pending : primary.pending) {
    if (pending.needed_index <= primary.commit) {
      ready.push_back(std::move(pending));
    } else {
      still.push_back(std::move(pending));
    }
  }
  primary.pending = std::move(still);
  for (PendingAck& pending : ready) {
    RespondWrite(primary, pending.sequence, pending.needed_index,
                 std::move(pending.results), pending.respond,
                 pending.appended_at);
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
  while (rep.applied < target) {
    const LogEntry& entry = rep.log.At(rep.applied + 1);
    rep.inflight_ops++;
    // Control class: replication applies are exempt from every shedding
    // policy — dropping one would diverge this store from the log.
    rep.server->Submit(entry.op, [rp](KvResultMessage) { rp->inflight_ops--; },
                       OpClass::kControl);
    if (entry.client_sequence != 0) {  // promotion barriers carry no session
      RecordSession(rep, entry.client_sequence, entry.slot, entry.result);
    }
    stats_.entries_applied++;
    rep.applied++;
  }
}

void ReplicationGroup::TrimLog(Replica& rep) {
  // Never trim past the applied cursor: unapplied committed entries must
  // stay replayable locally (apply-at-commit keeps applied <= end).
  rep.log.Trim(std::max<uint64_t>(config_.max_log_entries,
                                  rep.log.end() - rep.applied));
}

void ReplicationGroup::AdoptEpoch(Replica& rep, uint64_t epoch, uint32_t primary) {
  if (epoch > rep.current_epoch) {
    rep.current_epoch = epoch;
    if (rep.is_primary) {
      StepDown(rep);
    }
  }
  rep.voted_epoch = std::max(rep.voted_epoch, rep.current_epoch);
  rep.believed_primary = primary;
  rep.election_active = false;
  rep.election_replies.clear();
}

void ReplicationGroup::StepDown(Replica& rep) {
  rep.is_primary = false;
  // Forget quorum-waiting responses and in-flight replay entries: every
  // retransmission must be re-evaluated (and redirected) by the new history.
  DropInFlight(rep);
  tracer_.Instant(kTraceCategory, "step_down",
                  {{"replica", rep.id}, {"epoch", rep.current_epoch}});
}

void ReplicationGroup::Promote(Replica& rep, uint64_t new_epoch) {
  // A self-promoting candidate already adopted the ballot as its
  // current_epoch, so equality is valid here; an already-installed primary
  // re-receiving the same kPromote must not re-run the barrier append.
  if (new_epoch < rep.current_epoch ||
      (rep.is_primary && new_epoch == rep.current_epoch) ||
      rep.receiving_snapshot) {
    return;  // stale or duplicate promotion, or a partial snapshot
  }
  rep.voted_epoch = std::max(rep.voted_epoch, new_epoch);
  rep.current_epoch = new_epoch;
  rep.is_primary = true;
  rep.believed_primary = rep.id;
  rep.election_active = false;
  rep.election_replies.clear();
  // Apply the inherited tail (a backup's applied cursor trails its log end),
  // then append a no-op barrier in the new epoch. The barrier is what lets
  // commit advance over inherited entries: TryAdvanceCommit only counts
  // own-epoch indices (Raft's commit rule), so without a fresh entry a
  // write-free reign could never confirm — or serve — the tail it inherited.
  ApplyThrough(rep, rep.log.end());
  LogEntry barrier;
  barrier.epoch = new_epoch;
  barrier.client_sequence = 0;  // no originating client; sessions skip it
  barrier.op.opcode = Opcode::kGet;
  barrier.op.key.assign(8, 0);
  barrier.result.code = ResultCode::kOk;
  rep.log.Append(std::move(barrier));
  rep.first_own_index = rep.log.end();
  ApplyThrough(rep, rep.log.end());
  // Assume nothing about the peers: confirmed positions restart at zero
  // (commit is preserved — never regressed) while windows start optimistically
  // at our end; the first ack or catch-up request corrects either.
  rep.match.assign(num_replicas(), 0);
  rep.match[rep.id] = rep.log.end();
  rep.next.assign(num_replicas(), rep.log.end() + 1);
  rep.append_time.clear();
  // A new reign re-observes peer health from scratch: inherited demotions
  // would let a stale judgement shrink the new primary's quorum.
  rep.demoted.assign(num_replicas(), 0);
  rep.lag_since.assign(num_replicas(), 0);
  rep.ok_since.assign(num_replicas(), 0);
  primary_view_ = rep.id;
  stats_.failovers++;
  if (failover_pending_) {
    const uint64_t downtime_ns = static_cast<uint64_t>(
        (sim_.Now() - failover_started_at_) / kNanosecond);
    failover_downtime_ns_.Add(downtime_ns);
    stats_.last_failover_downtime_ns = downtime_ns;
    failover_pending_ = false;
  }
  tracer_.Instant(kTraceCategory, "promote",
                  {{"replica", rep.id}, {"epoch", new_epoch}});
  PushAppends(rep);
  TryAdvanceCommit(rep);
}

void ReplicationGroup::StartElection(Replica& rep) {
  rep.election_active = true;
  rep.election_replies.clear();
  const uint64_t round = ++rep.election_round;
  // Fresh ballot, offset by replica id so simultaneous candidates (the
  // deterministic clock offers no randomized timeouts) propose distinct
  // epochs: after at most one collision their voted_epochs equalize and the
  // id offset separates every later round. Self-granting consumes the ballot
  // (we never propose or grant this epoch again), and adopting it as
  // current_epoch stops us acking older primaries mid-campaign.
  const uint64_t ballot = std::max(rep.current_epoch, rep.voted_epoch) + 1 + rep.id;
  rep.voted_epoch = ballot;
  rep.current_epoch = ballot;
  rep.election_epoch = ballot;
  stats_.elections++;
  tracer_.Instant(kTraceCategory, "election",
                  {{"replica", rep.id}, {"ballot", ballot}});
  tracer_.flight_recorder().Trigger(
      FlightTrigger::kFailover,
      "replica " + std::to_string(rep.id) + " campaigns with ballot " +
          std::to_string(ballot));
  for (uint32_t peer = 0; peer < num_replicas(); peer++) {
    if (peer == rep.id) {
      continue;
    }
    ReplicaMessage query = MakeMessage(ReplicaMessageType::kPromoteQuery,
                                       rep.current_epoch, rep.id);
    query.new_epoch = ballot;
    SendReplicaMessage(rep.id, peer, query);
  }
  const uint32_t id = rep.id;
  sim_.ScheduleAt(sim_.Now() + config_.election_timeout,
                  [this, id, round] {
                    Replica& r = *replicas_[id];
                    if (r.crashed || !r.election_active ||
                        r.election_round != round) {
                      return;
                    }
                    FinishElection(r);
                  });
}

void ReplicationGroup::FinishElection(Replica& rep) {
  rep.election_active = false;
  uint32_t grants = 1;  // the coordinator's self-grant from StartElection
  uint64_t max_seen_epoch = rep.current_epoch;
  for (const auto& [id, reply] : rep.election_replies) {
    max_seen_epoch = std::max(max_seen_epoch, reply.header_epoch);
    if (reply.granted) {
      grants++;
    }
  }
  // Always a majority of ALL replicas, independent of the (possibly smaller)
  // configured write quorum: two majorities must intersect, so at most one
  // campaign per ballot epoch can succeed — and a majority of granters
  // includes a holder of every majority-quorum-acked entry.
  if (grants < config_.ElectionQuorum()) {
    // Learn any higher epoch a denial carried, so the next ballot clears it.
    rep.current_epoch = max_seen_epoch;
    rep.voted_epoch = std::max(rep.voted_epoch, rep.current_epoch);
    rep.election_replies.clear();
    return;  // the failure detector retries with a fresh ballot next tick
  }
  // Most caught-up GRANTER wins (ties to the lowest id). Non-granters are
  // excluded: they promised this ballot to no one, and may still be acking
  // an older primary, so their positions here could go stale.
  uint32_t best_id = rep.id;
  uint64_t best_epoch = rep.log.EpochAt(rep.log.end());
  uint64_t best_index = rep.log.end();
  for (const auto& [id, reply] : rep.election_replies) {
    if (!reply.granted) {
      continue;
    }
    const bool better =
        reply.last_epoch > best_epoch ||
        (reply.last_epoch == best_epoch && reply.last_index > best_index) ||
        (reply.last_epoch == best_epoch && reply.last_index == best_index &&
         id < best_id);
    if (better) {
      best_id = id;
      best_epoch = reply.last_epoch;
      best_index = reply.last_index;
    }
  }
  rep.election_replies.clear();
  if (best_id == rep.id) {
    Promote(rep, rep.election_epoch);
    return;
  }
  ReplicaMessage promote =
      MakeMessage(ReplicaMessageType::kPromote, rep.current_epoch, rep.id);
  promote.new_epoch = rep.election_epoch;
  SendReplicaMessage(rep.id, best_id, promote);
  rep.believed_primary = best_id;  // optimistic; its heartbeat confirms
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
    for (const SessionSlot& stored : primary.sessions.at(sequence)) {
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
  if (rep.deferred_writes.empty()) {
    return;
  }
  std::deque<Replica::DeferredWrite> parked = std::move(rep.deferred_writes);
  rep.deferred_writes.clear();
  if (rep.crashed || !rep.is_primary) {
    return;  // the clients' retransmission timers cover the dropped writes
  }
  for (Replica::DeferredWrite& write : parked) {
    ExecuteWrites(rep, write.sequence, std::move(write.ops),
                  std::move(write.respond));
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
  rep.log.ResetToSnapshot(0, 0);
  rep.commit = 0;
  rep.applied = 0;
}

void ReplicationGroup::Tick() {
  Settle();
  // Scripted/stochastic whole-node crashes, one consult per alive replica in
  // id order (keeps FaultPlan schedules deterministic).
  for (uint32_t id = 0; id < num_replicas(); id++) {
    if (!replicas_[id]->crashed &&
        fault_->ShouldInject(FaultSite::kReplicaCrash)) {
      CrashReplica(id);
    }
  }
  for (uint32_t id = 0; id < num_replicas(); id++) {
    Replica& rep = *replicas_[id];
    if (rep.crashed) {
      continue;
    }
    if (rep.is_primary) {
      for (uint32_t peer = 0; peer < num_replicas(); peer++) {
        if (peer == rep.id) {
          continue;
        }
        if (rep.snapshot_out[peer].active) {
          // A peer being resynced gets the stream's go-back-N check instead:
          // it re-sends lost chunks from the acked point.
          rep.snapshot_out[peer].stream->CheckProgress();
          continue;
        }
        // Re-align to the confirmed position: this is what retransmits
        // windows lost on the wire.
        rep.next[peer] = rep.match[peer] + 1;
        SendWindow(rep, peer);
      }
      EvaluateGrayPeers(rep);
    } else if (!rep.receiving_snapshot && !rep.election_active &&
               sim_.Now() - rep.last_primary_contact >
                   config_.failure_timeout +
                       rep.id * config_.heartbeat_interval) {
      // Per-id stagger: the deterministic clock has no randomized timeouts,
      // so without it every backup campaigns on the same tick and votes for
      // itself, splitting the electorate forever.
      StartElection(rep);
    }
  }
  sim_.ScheduleAt(sim_.Now() + config_.heartbeat_interval, [this] { Tick(); });
}

void ReplicationGroup::RegisterMetrics() {
  metrics_.RegisterCounter("kvd_repl_appends_total",
                           "kAppend windows sent, heartbeats included", {},
                           &stats_.appends_sent);
  metrics_.RegisterCounter("kvd_repl_entries_shipped_total",
                           "Log entries carried inside kAppend windows", {},
                           &stats_.entries_shipped);
  metrics_.RegisterCounter("kvd_repl_entries_applied_total",
                           "Log entries appended and applied at backups", {},
                           &stats_.entries_applied);
  metrics_.RegisterCounter("kvd_repl_append_acks_total",
                           "Cumulative acks processed by primaries", {},
                           &stats_.append_acks);
  metrics_.RegisterCounter("kvd_repl_elections_total",
                           "Failover elections started", {}, &stats_.elections);
  metrics_.RegisterCounter("kvd_repl_failovers_total",
                           "Promotions installed (epoch bumps)", {},
                           &stats_.failovers);
  metrics_.RegisterCounter("kvd_repl_catchup_requests_total",
                           "Catch-up requests sent by backups", {},
                           &stats_.catchup_requests);
  metrics_.RegisterCounter("kvd_repl_state_transfers_total",
                           "Full-partition state transfers started", {},
                           &stats_.state_transfers);
  metrics_.RegisterCounter(
      "kvd_repl_state_transfer_bytes_total",
      "Framed snapshot chunk bytes put on the wire, resends included", {},
      &stats_.snapshot_stream.bytes_sent);
  metrics_.RegisterCounter("kvd_repl_state_transfer_retransmits_total",
                           "Snapshot chunks resent by go-back-N", {},
                           &stats_.snapshot_stream.retransmits);
  metrics_.RegisterCounter("kvd_repl_state_transfer_kvs_total",
                           "KV pairs installed from snapshot chunks", {},
                           &stats_.state_transfer_kvs);
  metrics_.RegisterCounter("kvd_repl_snapshot_deferred_writes_total",
                           "Client writes parked while a snapshot cut drained",
                           {}, &stats_.snapshot_deferred_writes);
  metrics_.RegisterCounter("kvd_repl_crashes_total", "Replica crashes", {},
                           &stats_.crashes);
  metrics_.RegisterCounter("kvd_repl_restarts_total", "Replica restarts", {},
                           &stats_.restarts);
  metrics_.RegisterCounter("kvd_repl_stale_reads_total",
                           "Reads rejected below the client watermark", {},
                           &stats_.stale_reads);
  metrics_.RegisterCounter("kvd_repl_redirects_total",
                           "Writes redirected off non-primaries", {},
                           &stats_.redirects);
  metrics_.RegisterCounter("kvd_repl_wrong_shard_total",
                           "Routed requests bounced off a non-owning group", {},
                           &stats_.wrong_shard_bounces);
  metrics_.RegisterCounter("kvd_repl_migrating_total",
                           "Routed writes bounced during a cutover freeze", {},
                           &stats_.migrating_bounces);
  metrics_.RegisterCounter("kvd_repl_session_dedup_hits_total",
                           "Write slots answered from replicated sessions", {},
                           &stats_.session_dedup_hits);
  metrics_.RegisterCounter("kvd_repl_gray_demotions_total",
                           "Peers demoted out of the commit quorum", {},
                           &stats_.gray_demotions);
  metrics_.RegisterCounter("kvd_repl_gray_reinstatements_total",
                           "Demoted peers reinstated after catching up", {},
                           &stats_.gray_reinstatements);
  metrics_.RegisterCounter("kvd_repl_corrupt_replica_frames_total",
                           "Replication frames dropped by checksum/decode", {},
                           &stats_.corrupt_replica_frames);
  metrics_.RegisterGauge("kvd_repl_epoch", "Current epoch at the primary", {},
                         [this] { return static_cast<double>(epoch()); });
  metrics_.RegisterGauge("kvd_repl_commit_index",
                         "Quorum-committed log index at the primary", {},
                         [this] { return static_cast<double>(commit_index()); });
  metrics_.RegisterGauge(
      "kvd_repl_read_batch_records_peak",
      "Peak read packets admitted and not yet answered", {},
      [this] { return static_cast<double>(read_batches_.peak()); });
  metrics_.RegisterGauge(
      "kvd_repl_write_batch_records_peak",
      "Peak write packets admitted and not yet answered", {},
      [this] { return static_cast<double>(write_batches_.peak()); });
  metrics_.RegisterGauge(
      "kvd_repl_last_failover_downtime_ns",
      "Simulated time from primary crash to next promotion", {}, [this] {
        return static_cast<double>(stats_.last_failover_downtime_ns);
      });
  for (uint32_t id = 0; id < config_.num_replicas; id++) {
    MetricLabels labels{{"replica", std::to_string(id)}};
    metrics_.RegisterGauge("kvd_repl_log_end", "Replica log end (applied index)",
                           labels, [this, id] {
                             return static_cast<double>(replicas_[id]->log.end());
                           });
    metrics_.RegisterGauge("kvd_repl_crashed", "1 while the replica is crashed",
                           labels, [this, id] {
                             return replicas_[id]->crashed ? 1.0 : 0.0;
                           });
    // Replication health: how far this replica trails the primary's view.
    // Lags clamp to zero so a freshly promoted primary with stale peer state
    // never exposes negative values.
    metrics_.RegisterGauge(
        "kvd_repl_match_lag",
        "Primary log end minus this replica's confirmed match index", labels,
        [this, id] {
          const Replica& primary = *replicas_[primary_view_];
          const uint64_t match = primary.match[id];
          const uint64_t end = primary.log.end();
          return static_cast<double>(end > match ? end - match : 0);
        });
    metrics_.RegisterGauge(
        "kvd_repl_applied_lag",
        "Quorum commit index minus this replica's applied index", labels,
        [this, id] {
          const uint64_t commit = commit_index();
          const uint64_t applied = replicas_[id]->applied;
          return static_cast<double>(commit > applied ? commit - applied : 0);
        });
    metrics_.RegisterGauge(
        "kvd_repl_commit_lag",
        "Quorum commit index minus this replica's local commit index", labels,
        [this, id] {
          const uint64_t commit = commit_index();
          const uint64_t local = replicas_[id]->commit;
          return static_cast<double>(commit > local ? commit - local : 0);
        });
  }
  metrics_.RegisterHistogram("kvd_repl_propagation_lag_ns",
                             "Append-to-quorum-commit lag per entry", {},
                             [this] { return propagation_lag_ns_; });
  metrics_.RegisterHistogram("kvd_repl_failover_downtime_ns",
                             "Primary-crash-to-promotion downtime", {},
                             [this] { return failover_downtime_ns_; });
  metrics_.RegisterHistogram(
      "kvd_repl_commit_wait_ns",
      "Client write wait from log append to quorum-commit response", {},
      [this] { return commit_wait_ns_; });
}

}  // namespace kvd
