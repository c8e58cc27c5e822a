#include "src/replica/replication_group.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "src/common/assert.h"

namespace kvd {

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
  EndCampaign(rep);
}

void ReplicationGroup::RestartReplica(uint32_t id) {
  Settle();
  Replica& rep = *replicas_[id];
  if (!rep.crashed) {
    return;
  }
  rep.crashed = false;
  rep.is_primary = false;
  EndCampaign(rep);
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
    } else if (!rep.election_active &&
               sim_.Now() - rep.last_primary_contact >
                   config_.failure_timeout +
                       rep.id * config_.heartbeat_interval) {
      if (rep.receiving_snapshot) {
        // The transfer went silent: its sender crashed or lost its link, and
        // a target that refuses votes could wedge the election. Drop the
        // partial snapshot (chunk 0 already wiped the store, and its
        // wiped_tail keeps this replica's votes from electing a survivor
        // that lacks writes it acked) and campaign; the ballot's epoch
        // fences the abandoned transfer's stragglers, and the next primary
        // resyncs this replica.
        WipeState(rep);
        rep.receiving_snapshot = false;
      }
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
    metrics_.RegisterGauge("kvd_repl_log_entries",
                           "Entries held in the replica's op log", labels,
                           [this, id] {
                             return static_cast<double>(replicas_[id]->log.size());
                           });
    metrics_.RegisterGauge("kvd_repl_log_entries_peak",
                           "High-water mark of kvd_repl_log_entries", labels,
                           [this, id] {
                             return static_cast<double>(replicas_[id]->log.peak());
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
