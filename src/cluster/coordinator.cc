#include "src/cluster/coordinator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/assert.h"
#include "src/transport/frame.h"

namespace kvd {
namespace {

constexpr char kTraceCategory[] = "cluster";

// Per-group fault-seed decorrelation, same recipe the pre-cluster sharded
// deployment used: each group's fault stream is independent but each stays
// deterministic under the cluster seed.
uint64_t GroupFaultSeed(uint64_t base, uint32_t index) {
  return base ^ (0x9e3779b97f4a7c15ULL * (index + 1));
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(const ClusterConfig& config)
    : config_(config) {
  KVD_CHECK_MSG(config_.num_groups >= 1, "a cluster needs at least one group");
  KVD_CHECK_MSG(config_.num_partitions >= 1, "a cluster needs partitions");
  migration_fault_ = std::make_unique<FaultInjector>(config_.migration_faults);
  migration_fault_->SetTracer(&tracer_);
  migration_net_ = std::make_unique<NetworkModel>(sim_, config_.migration_network);
  migration_net_->SetFaultInjector(migration_fault_.get());
  migration_net_->SetTracer(&tracer_);

  map_ = ShardMap::Initial(config_.num_partitions, config_.num_groups);
  partition_ops_.assign(config_.num_partitions, 0);
  for (uint32_t i = 0; i < config_.num_groups; i++) {
    ReplicationConfig group_config = config_.group;
    group_config.faults.seed = GroupFaultSeed(config_.group.faults.seed, i);
    groups_.push_back(std::make_unique<ReplicationGroup>(group_config, &sim_, &tracer_));
    active_.push_back(1);
    WireGroup(i);
  }
  RegisterMetrics();
  RegisterPartitionGauges(0, config_.num_partitions);
}

void ClusterCoordinator::WireGroup(uint32_t index) {
  ReplicationGroup& group = *groups_[index];
  group.SetShardGate([this, index](uint64_t client_map_epoch,
                                   uint32_t partition, bool any_write) {
    ReplicationGroup::ShardGateDecision decision;
    decision.map_epoch = map_.epoch;
    decision.num_partitions = map_.num_partitions();
    if (client_map_epoch < split_epoch_) {
      // The label was computed with a pre-split modulus. Partition numbers
      // from different granularities are incomparable — owners[label] can
      // name this group while the keys inside actually live in the other
      // half, migrated elsewhere — so serving would answer authoritatively
      // for keys this group may not own. Bounce: the count mismatch in the
      // response makes the client refetch and re-derive its routes.
      decision.action = ReplicationGroup::ShardGateDecision::Action::kWrongShard;
      decision.owner_group = index;
      return decision;
    }
    if (partition >= map_.num_partitions()) {
      // A granularity the current map does not have (the map only grows, so
      // this is a corrupted or impossible route): force a full refetch.
      decision.action = ReplicationGroup::ShardGateDecision::Action::kWrongShard;
      decision.owner_group = index;
      return decision;
    }
    const uint32_t owner = map_.OwnerOf(partition);
    if (owner != index) {
      decision.action = ReplicationGroup::ShardGateDecision::Action::kWrongShard;
      decision.owner_group = owner;
      return decision;
    }
    if (any_write && migration_.active && migration_.writes_frozen &&
        migration_.partition == partition && migration_.from == index) {
      // Cutover freeze: reads still serve here (ownership has not flipped);
      // writes back off until the flip points them at the destination.
      decision.action = ReplicationGroup::ShardGateDecision::Action::kMigrating;
      decision.owner_group = index;
      return decision;
    }
    decision.owner_group = index;
    return decision;
  });
  group.SetLoadListener(
      [this](uint32_t partition, uint32_t num_ops, bool /*any_write*/) {
        if (partition < partition_ops_.size()) {
          partition_ops_[partition] += num_ops;
        }
      });
  group.SetCommitListener(
      [this, index](const LogEntry& entry) { OnCommitted(index, entry); });
}

Status ClusterCoordinator::Load(std::span<const uint8_t> key,
                                std::span<const uint8_t> value) {
  const uint32_t partition = map_.router().PartitionOf(key);
  return groups_[map_.OwnerOf(partition)]->Load(key, value);
}

uint32_t ClusterCoordinator::AddGroup() {
  const uint32_t index = num_groups();
  ReplicationConfig group_config = config_.group;
  group_config.faults.seed = GroupFaultSeed(config_.group.faults.seed, index);
  groups_.push_back(std::make_unique<ReplicationGroup>(group_config, &sim_, &tracer_));
  active_.push_back(1);
  WireGroup(index);
  tracer_.Instant(kTraceCategory, "group_added", {{"group", index}});
  return index;
}

Status ClusterCoordinator::RemoveGroup(uint32_t index) {
  if (index >= num_groups() || active_[index] == 0) {
    return Status::InvalidArgument("no such active group");
  }
  for (uint32_t owner : map_.owners) {
    if (owner == index) {
      return Status::InvalidArgument(
          "group still owns a partition; drain it first");
    }
  }
  if (migration_.active &&
      (migration_.from == index || migration_.to == index)) {
    return Status::InvalidArgument("group is part of an active migration");
  }
  active_[index] = 0;
  tracer_.Instant(kTraceCategory, "group_removed", {{"group", index}});
  return Status::Ok();
}

Status ClusterCoordinator::SplitPartitions() {
  if (migration_.active) {
    return Status::InvalidArgument("cannot split mid-migration");
  }
  const uint32_t old_partitions = map_.num_partitions();
  map_ = map_.Doubled();
  map_.epoch++;
  // Routes framed against any earlier epoch carry labels in the old modulus;
  // the shard gates refuse them from this epoch on (see WireGroup).
  split_epoch_ = map_.epoch;
  stats_.partitions_split++;
  // The split relabels every partition (p's keys divide between p and p+N),
  // so pre-split load counts no longer describe any current partition.
  partition_ops_.assign(map_.num_partitions(), 0);
  RegisterPartitionGauges(old_partitions, map_.num_partitions());
  tracer_.Instant(kTraceCategory, "split",
                  {{"num_partitions", map_.num_partitions()},
                   {"map_epoch", map_.epoch}});
  return Status::Ok();
}

int ClusterCoordinator::migration_phase() const {
  if (!migration_.active) {
    return 0;
  }
  switch (migration_.phase) {
    case Migration::Phase::kCopy:
      return 1;
    case Migration::Phase::kCatchUp:
      return 2;
    case Migration::Phase::kFrozen:
      return 3;
  }
  return 0;
}

Status ClusterCoordinator::StartMigration(uint32_t partition,
                                          uint32_t to_group) {
  if (migration_.active) {
    return Status::InvalidArgument("a migration is already in flight");
  }
  if (partition >= map_.num_partitions()) {
    return Status::InvalidArgument("no such partition");
  }
  if (to_group >= num_groups() || active_[to_group] == 0) {
    return Status::InvalidArgument("no such active group");
  }
  const uint32_t from = map_.OwnerOf(partition);
  if (from == to_group) {
    return Status::InvalidArgument("group already owns the partition");
  }
  const uint64_t round = migration_.round + 1;
  migration_ = Migration{};
  migration_.active = true;
  migration_.partition = partition;
  migration_.from = from;
  migration_.to = to_group;
  migration_.phase = Migration::Phase::kCopy;
  migration_.round = round;
  migration_.started_at = sim_.Now();
  if (tracer_.enabled()) {
    // The migration is traced as one synthetic op: chunk flights, forwards,
    // retransmissions, and the freeze window all hang off this handle, and
    // the cutover flight dump carries the whole span tree.
    migration_.trace = tracer_.Start(
        Opcode::kPut, (1ull << 62) | ++next_migration_trace_sequence_, 0);
  }
  stats_.migrations_started++;
  tracer_.Instant(kTraceCategory, "migration_start",
                  {{"partition", partition}, {"from", from}, {"to", to_group}});
  InstallSnapshot();
  ArmRetransmitTimer();
  sim_.ScheduleAt(sim_.Now() + config_.migration_poll_interval, [this, round] {
    if (migration_.active && migration_.round == round) {
      PollMigration();
    }
  });
  return Status::Ok();
}

void ClusterCoordinator::DriveMigrationToCompletion() {
  while (migration_.active) {
    KVD_CHECK(sim_.Step());  // group heartbeats keep the queue non-empty
  }
}

void ClusterCoordinator::InstallSnapshot() {
  Migration& m = migration_;
  ReplicationGroup& source = *groups_[m.from];
  ReplicationGroup& dest = *groups_[m.to];
  const KeyRouter router = map_.router();
  // Session records first: tiny control-plane metadata next to the KV bytes,
  // installed synchronously so the exactly-once guarantee never depends on
  // copy-stream progress. Forwards overwrite with identical records.
  for (const auto& record :
       source.ExportPartitionSessions(router, m.partition)) {
    dest.InstallSessionRecord(record.sequence, record.slot, record.result);
    stats_.sessions_migrated++;
  }
  // Cut the KV snapshot and pre-frame every chunk: retransmissions must
  // resend byte-identical frames. The cut is untimed (its cost is modeled by
  // the paced SnapshotStream, exactly like replica state transfer). Writes
  // in flight at the cut are harmless: their commit forwards re-read the
  // then-current value, and forwarded keys are excluded from chunk installs.
  StateKvs kvs = source.SnapshotPartitionKvs(router, m.partition);
  const uint64_t num_kvs = kvs.size();
  ReplicaMessage header;
  header.type = ReplicaMessageType::kStateChunk;
  header.epoch = map_.epoch;
  header.sender = m.from;
  std::vector<std::vector<uint8_t>> chunks;
  for (const ReplicaMessage& chunk :
       CutStateChunks(header, std::move(kvs), {}, config_.copy_chunk_kvs)) {
    chunks.push_back(
        FramePacket(++next_copy_sequence_, EncodeReplicaMessage(chunk)));
  }
  tracer_.Instant(kTraceCategory, "copy_start",
                  {{"partition", m.partition},
                   {"chunks", static_cast<uint64_t>(chunks.size())},
                   {"kvs", num_kvs}});
  copy_in_.installed = 0;
  copy_out_.Start(std::move(chunks));
}

void ClusterCoordinator::WireCopyChunk(const std::vector<uint8_t>& framed) {
  const uint64_t round = migration_.round;
  std::vector<uint64_t> traces;
  if (migration_.trace != 0) {
    traces.push_back(migration_.trace);
  }
  migration_net_->SendPayloadToServer(
      framed,
      [this, round](std::vector<uint8_t> packet) {
        OnCopyChunkArrive(round, std::move(packet));
      },
      traces, SpanKind::kNetWire);
}

bool ClusterCoordinator::CopyLive(uint64_t round) const {
  return migration_.active && migration_.round == round &&
         migration_.phase == Migration::Phase::kCopy;
}

void ClusterCoordinator::OnCopyChunkArrive(uint64_t round,
                                           std::vector<uint8_t> packet) {
  if (!CopyLive(round)) {
    return;
  }
  Result<Frame> frame = ParseFrame(packet);
  if (!frame.ok()) {
    return;  // corrupted in flight; go-back-N retransmission recovers
  }
  Result<ReplicaMessage> decoded = DecodeReplicaMessage(frame.value().payload);
  if (!decoded.ok() ||
      decoded.value().type != ReplicaMessageType::kStateChunk) {
    return;
  }
  const ReplicaMessage& chunk = decoded.value();
  const uint32_t installed = copy_in_.OnChunk(chunk.chunk_seq, [&] {
    ReplicationGroup& dest = *groups_[migration_.to];
    for (const auto& [key, value] : chunk.kvs) {
      if (!config_.test_bugs.disable_migration_touched_key_guard &&
          migration_.touched.count(key) != 0) {
        // A forward already wrote (or deleted) this key at the destination
        // with a newer value; installing the snapshot's copy — possibly from
        // a duplicated or retransmitted chunk — would resurrect the old one.
        continue;
      }
      if (!dest.Load(key, value).ok()) {
        // A crashed destination replica (or capacity pressure) blocks the
        // install. Refuse the chunk: go-back-N redelivers it once the group
        // heals, and Load is an upsert so the partial prefix re-installs
        // harmlessly.
        return false;
      }
      stats_.copy_kvs++;
    }
    return true;
  });
  // The ack direction rides the same fallible wire.
  migration_net_->SendPayloadToClient(
      SnapshotStream::FrameAck(++next_copy_sequence_, installed),
      [this, round](std::vector<uint8_t> ack) {
        if (CopyLive(round)) {
          copy_out_.OnAckFrame(ack);
        }
      });
}

void ClusterCoordinator::ArmRetransmitTimer() {
  const uint64_t round = migration_.round;
  sim_.ScheduleAt(
      sim_.Now() + config_.copy_retransmit_timeout, [this, round] {
        if (!CopyLive(round)) {
          return;
        }
        if (copy_out_.CheckProgress() && migration_.trace != 0) {
          tracer_.Span(migration_.trace, SpanKind::kRetransmit,
                       sim_.Now() - config_.copy_retransmit_timeout,
                       sim_.Now(), copy_out_.acked());
        }
        ArmRetransmitTimer();
      });
}

void ClusterCoordinator::PollMigration() {
  Migration& m = migration_;
  switch (m.phase) {
    case Migration::Phase::kCopy:
      if (copy_out_.done()) {
        m.phase = Migration::Phase::kCatchUp;
        tracer_.Instant(
            kTraceCategory, "copy_done",
            {{"partition", m.partition},
             {"chunks", static_cast<uint64_t>(copy_out_.num_chunks())}});
        copy_out_.Stop();
      }
      break;
    case Migration::Phase::kCatchUp:
      // Forwarding has been synchronous since the migration started, so
      // catch-up only waits for the forward stream to go quiet (writes
      // admitted at the source are still draining through commit).
      if (m.last_forward == 0 ||
          sim_.Now() - m.last_forward >= config_.migration_poll_interval) {
        m.phase = Migration::Phase::kFrozen;
        m.writes_frozen = true;
        m.frozen_at = sim_.Now();
        tracer_.Instant(kTraceCategory, "freeze", {{"partition", m.partition}});
      }
      break;
    case Migration::Phase::kFrozen:
      // Flip only after a full quiet window under the freeze: every write
      // admitted before the freeze has committed and forwarded by then.
      if (sim_.Now() - std::max(m.frozen_at, m.last_forward) >=
          config_.cutover_quiesce) {
        Flip();
        return;  // no more polls; the migration is gone
      }
      break;
  }
  const uint64_t round = m.round;
  sim_.ScheduleAt(sim_.Now() + config_.migration_poll_interval, [this, round] {
    if (migration_.active && migration_.round == round) {
      PollMigration();
    }
  });
}

void ClusterCoordinator::OnCommitted(uint32_t group, const LogEntry& entry) {
  if (entry.client_sequence == 0 || !IsWriteOpcode(entry.op.opcode)) {
    return;  // promotion barriers carry no client effect
  }
  if (stats_.migrations_started == 0) {
    return;  // nothing has ever moved; every commit is at its home group
  }
  const uint32_t partition = map_.router().PartitionOf(entry.op.key);
  if (map_.OwnerOf(partition) != group) {
    // A commit at a group that no longer owns the key's partition: a
    // straggler that slipped past the cutover quiesce. Counted, not
    // forwarded — the flip already declared the destination authoritative.
    stats_.late_forwards++;
    return;
  }
  Migration& m = migration_;
  if (!m.active || group != m.from || partition != m.partition) {
    return;
  }
  // Synchronous dual-write: re-read the key's current committed value at the
  // source and install it (or its absence) at the destination, below the
  // destination's log. Re-reading rather than replaying the entry makes
  // forwards idempotent absolute states, so orderings with snapshot chunks
  // and duplicate commits of the same key are all safe.
  ReplicationGroup& source = *groups_[m.from];
  ReplicationGroup& dest = *groups_[m.to];
  const SimTime started = sim_.Now();
  m.touched.insert(entry.op.key);
  m.last_forward = sim_.Now();
  stats_.forwards++;
  KvOperation get;
  get.opcode = Opcode::kGet;
  get.key = entry.op.key;
  KvResultMessage current = source.Execute(get);
  if (current.code == ResultCode::kOk) {
    KVD_CHECK_MSG(dest.Load(entry.op.key, current.value).ok(),
                  "destination out of capacity installing a forward");
  } else {
    // The key may never have reached the destination (deleted before its
    // chunk arrived): a no-op erase is fine.
    (void)dest.Erase(entry.op.key);
  }
  dest.InstallSessionRecord(entry.client_sequence, entry.slot, entry.result);
  if (m.trace != 0) {
    tracer_.Span(m.trace, SpanKind::kReplShip, started, sim_.Now(),
                 stats_.forwards);
  }
}

void ClusterCoordinator::Flip() {
  Migration& m = migration_;
  ReplicationGroup& source = *groups_[m.from];
  // Publish the new ownership first: from this instant the source's shard
  // gate bounces the partition (kWrongShard -> destination), so the erase
  // below races no reader.
  map_.epoch++;
  map_.owners[m.partition] = m.to;
  const KeyRouter router = map_.router();
  for (const auto& kv : source.SnapshotPartitionKvs(router, m.partition)) {
    KVD_CHECK(source.Erase(kv.first).ok());
    stats_.keys_erased++;
  }
  stats_.migrations_completed++;
  const uint64_t elapsed_ns =
      static_cast<uint64_t>((sim_.Now() - m.started_at) / kNanosecond);
  migration_ns_.Add(elapsed_ns);
  tracer_.Span(m.trace, SpanKind::kDeadlineWait, m.frozen_at, sim_.Now(),
               m.partition);
  tracer_.Instant(kTraceCategory, "cutover",
                  {{"partition", m.partition},
                   {"from", m.from},
                   {"to", m.to},
                   {"map_epoch", map_.epoch},
                   {"elapsed_ns", elapsed_ns}});
  const std::string detail = "partition " + std::to_string(m.partition) +
                             " cut over to group " + std::to_string(m.to) +
                             " at map epoch " + std::to_string(map_.epoch);
  const uint64_t trace = m.trace;
  const uint64_t round = m.round;
  migration_ = Migration{};
  migration_.round = round;  // keeps stale-callback guards monotonic
  // The dump carries the migration's full span tree among its live traces.
  // The synthetic op is then dropped, not finished: it is no client op, so
  // it must not reach the tracer's breakdown or SLO monitor.
  tracer_.flight_recorder().Trigger(FlightTrigger::kShardCutover, detail);
  tracer_.Abandon(trace);
}

void ClusterCoordinator::ResetLoadCounters() {
  std::fill(partition_ops_.begin(), partition_ops_.end(), 0);
}

std::vector<uint64_t> ClusterCoordinator::GroupLoads() const {
  std::vector<uint64_t> loads(num_groups(), 0);
  for (uint32_t p = 0; p < map_.num_partitions(); p++) {
    loads[map_.OwnerOf(p)] += partition_ops_[p];
  }
  return loads;
}

void ClusterCoordinator::RegisterMetrics() {
  metrics_.RegisterCounter("kvd_cluster_migrations_total",
                           "Live shard migrations completed (cutovers)", {},
                           &stats_.migrations_completed);
  metrics_.RegisterCounter("kvd_cluster_migrations_started_total",
                           "Live shard migrations started", {},
                           &stats_.migrations_started);
  metrics_.RegisterCounter("kvd_cluster_partition_splits_total",
                           "Partition-doubling split events", {},
                           &stats_.partitions_split);
  metrics_.RegisterCounter("kvd_cluster_copy_chunks_total",
                           "Copy-stream chunk transmissions, resends included",
                           {}, &stats_.copy_stream.chunks_sent);
  metrics_.RegisterCounter("kvd_cluster_copy_chunk_retransmits_total",
                           "Copy-stream chunks resent by go-back-N", {},
                           &stats_.copy_stream.retransmits);
  metrics_.RegisterCounter("kvd_cluster_copy_kvs_total",
                           "KVs installed at destinations from copy chunks", {},
                           &stats_.copy_kvs);
  metrics_.RegisterCounter("kvd_cluster_copy_bytes_total",
                           "Framed copy-stream bytes put on the wire", {},
                           &stats_.copy_stream.bytes_sent);
  metrics_.RegisterCounter("kvd_cluster_copy_stale_chunks_total",
                           "Out-of-order or duplicate copy chunks dropped", {},
                           &stats_.copy_stream.stale_chunks);
  metrics_.RegisterCounter("kvd_cluster_forwards_total",
                           "Committed writes dual-written to a destination", {},
                           &stats_.forwards);
  metrics_.RegisterCounter(
      "kvd_cluster_late_forwards_total",
      "Commits observed at a group after it lost the partition", {},
      &stats_.late_forwards);
  metrics_.RegisterCounter("kvd_cluster_sessions_migrated_total",
                           "Session records installed at destinations", {},
                           &stats_.sessions_migrated);
  metrics_.RegisterCounter("kvd_cluster_keys_erased_total",
                           "Source keys dropped at cutover", {},
                           &stats_.keys_erased);
  metrics_.RegisterCounter("kvd_cluster_map_fetches_total",
                           "Full shard-map fetches served to clients", {},
                           &stats_.map_fetches);
  metrics_.RegisterGauge("kvd_cluster_map_epoch", "Published shard-map epoch",
                         {}, [this] { return static_cast<double>(map_.epoch); });
  metrics_.RegisterGauge(
      "kvd_cluster_num_partitions", "Partitions in the published map", {},
      [this] { return static_cast<double>(map_.num_partitions()); });
  metrics_.RegisterGauge("kvd_cluster_active_groups",
                         "Replication groups accepting partitions", {},
                         [this] {
                           double n = 0;
                           for (const uint8_t a : active_) {
                             n += a;
                           }
                           return n;
                         });
  metrics_.RegisterGauge("kvd_cluster_migration_phase",
                         "0 idle, 1 copy, 2 catch-up, 3 frozen", {}, [this] {
                           return static_cast<double>(migration_phase());
                         });
  metrics_.RegisterHistogram("kvd_cluster_migration_ns",
                             "Migration start-to-cutover duration", {},
                             [this] { return migration_ns_; });
  migration_net_->RegisterMetrics(metrics_);
  migration_fault_->RegisterMetrics(metrics_);
}

void ClusterCoordinator::RegisterPartitionGauges(uint32_t first,
                                                 uint32_t last_plus_one) {
  for (uint32_t p = first; p < last_plus_one; p++) {
    metrics_.RegisterGauge(
        "kvd_cluster_partition_ops",
        "Ops served for this partition since the last counter reset",
        {{"partition", std::to_string(p)}}, [this, p] {
          return p < partition_ops_.size()
                     ? static_cast<double>(partition_ops_[p])
                     : 0.0;
        });
    metrics_.RegisterGauge(
        "kvd_cluster_partition_owner", "Owning group under the published map",
        {{"partition", std::to_string(p)}}, [this, p] {
          return p < map_.num_partitions()
                     ? static_cast<double>(map_.OwnerOf(p))
                     : -1.0;
        });
  }
}

}  // namespace kvd
