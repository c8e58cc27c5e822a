#include "src/replica/replication_group.h"

#include <algorithm>
#include <string>
#include <utility>

namespace kvd {

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
    EndCampaign(rep);
    rep.last_primary_contact = sim_.Now();
  }
  ReplicaMessage reply =
      MakeMessage(ReplicaMessageType::kPromoteReply, rep.current_epoch, rep.id);
  reply.new_epoch = ballot;
  reply.granted = granted;
  const auto [last_epoch, last_index] = std::max(rep.wiped_tail, LogTail(rep));
  reply.last_epoch = rep.receiving_snapshot ? 0 : last_epoch;
  reply.last_index = rep.receiving_snapshot ? 0 : last_index;
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

void ReplicationGroup::AdoptEpoch(Replica& rep, uint64_t epoch, uint32_t primary) {
  if (epoch > rep.current_epoch) {
    rep.current_epoch = epoch;
    if (rep.is_primary) {
      StepDown(rep);
    }
  }
  rep.voted_epoch = std::max(rep.voted_epoch, rep.current_epoch);
  rep.believed_primary = primary;
  EndCampaign(rep);
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
      rep.receiving_snapshot || rep.wiped_tail > LogTail(rep)) {
    return;  // stale or duplicate promotion, or a partial or dropped snapshot
  }
  rep.voted_epoch = std::max(rep.voted_epoch, new_epoch);
  rep.current_epoch = new_epoch;
  rep.is_primary = true;
  rep.believed_primary = rep.id;
  EndCampaign(rep);
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

std::pair<uint64_t, uint64_t> ReplicationGroup::LogTail(const Replica& rep) {
  return {rep.log.EpochAt(rep.log.end()), rep.log.end()};
}

void ReplicationGroup::EndCampaign(Replica& rep) {
  rep.election_active = false;
  rep.election_replies.clear();
}

void ReplicationGroup::FinishElection(Replica& rep) {
  uint32_t grants = 1;  // the coordinator's self-grant from StartElection
  uint64_t max_seen_epoch = rep.current_epoch;
  // Most caught-up GRANTER wins (ties to the lowest id). Non-granters are
  // excluded: they promised this ballot to no one, and may still be acking
  // an older primary, so their positions here could go stale.
  uint32_t best_id = rep.id;
  auto [best_epoch, best_index] = std::max(rep.wiped_tail, LogTail(rep));
  for (const auto& [id, reply] : rep.election_replies) {
    max_seen_epoch = std::max(max_seen_epoch, reply.header_epoch);
    if (!reply.granted) {
      continue;
    }
    grants++;
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
  EndCampaign(rep);
  // Always a majority of ALL replicas, independent of the (possibly smaller)
  // configured write quorum: two majorities must intersect, so at most one
  // campaign per ballot epoch can succeed — and a majority of granters
  // includes a holder of every majority-quorum-acked entry.
  if (grants < config_.ElectionQuorum()) {
    // Learn any higher epoch a denial carried, so the next ballot clears it.
    rep.current_epoch = max_seen_epoch;
    rep.voted_epoch = std::max(rep.voted_epoch, rep.current_epoch);
    return;  // the failure detector retries with a fresh ballot next tick
  }
  if (best_id == rep.id) {
    Promote(rep, rep.election_epoch);
    return;
  }
  ReplicaMessage promote =
      MakeMessage(ReplicaMessageType::kPromote, rep.current_epoch, rep.id);
  promote.new_epoch = rep.election_epoch;
  SendReplicaMessage(rep.id, best_id, promote);
  rep.believed_primary = best_id;  // optimistic; its heartbeat confirms
  // Give the new primary a full failure timeout. With election_timeout a
  // multiple of heartbeat_interval (the defaults) the election ends on one
  // of this replica's ticks, where a stale timer would campaign again at
  // once and depose the primary just made.
  rep.last_primary_contact = sim_.Now();
}

}  // namespace kvd
