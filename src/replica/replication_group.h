// Primary-backup replication over N KvDirectServer instances (DESIGN.md §9).
//
// A ReplicationGroup turns N independent servers into one fault-tolerant
// key-value service on a single simulated clock:
//
//   - The primary executes client operations through its full timed pipeline
//     (a replica's client packets, reads and writes, are its node's packets:
//     KvDirectServer's packet step, with the replica as the PacketOwner),
//     appends every *effective* mutation (result kOk) to a monotonic
//     (epoch, index) log at retirement, and pushes log windows to backups over
//     per-replica replication links (checksummed PR 2 frames). Entries carry
//     the primary's computed result, so every replica stores an identical
//     session record for exactly-once retransmission handling across
//     failover.
//   - Backups append entries in log order and ack cumulatively, but apply an
//     entry to their store only once it is quorum-committed (the commit index
//     rides every append window). A backup's store therefore never shows a
//     write that could still be discarded — no dirty reads at backups. The
//     primary acknowledges a client write once a configurable quorum of
//     replicas (itself included) holds the covering log prefix.
//   - Heartbeats are empty append windows; they double as the retransmission
//     driver (cumulative acks make the protocol idempotent, so loss is healed
//     by the next window instead of per-message timers).
//   - Failover: a backup that misses heartbeats past failure_timeout (plus a
//     deterministic per-id stagger) campaigns with a fresh ballot epoch.
//     Every replica grants each ballot epoch at most once (Raft-style votes,
//     adopting the ballot as its current epoch on grant), and a campaign
//     succeeds only with grants from a majority of ALL replicas — independent
//     of the (possibly smaller) write quorum — so two concurrent coordinators
//     can never both win and at most one replica is ever promoted per epoch.
//     The coordinator promotes the most caught-up granter (ties to the lowest
//     id) at exactly the ballot epoch; a majority of grants intersects every
//     majority write quorum, so the winner holds every quorum-acked entry —
//     no acknowledged write is lost. The new primary appends a no-op barrier
//     entry of its own epoch so the commit index can advance over the
//     inherited tail (older entries commit only transitively through it).
//   - Catch-up: a lagging or rejoining backup replays log windows from its
//     last matching position; if its log diverged (a deposed primary's
//     unacked tail) or the needed entries were trimmed, the primary falls
//     back to a full-partition state transfer: KVs plus session records,
//     streamed by a SnapshotStream (src/transport) — paced, acked per chunk,
//     and resent go-back-N from the acked point on heartbeat ticks, so a
//     lost chunk costs a resend, not a restart.
//
// Crashes are fail-stop with durable state: a crashed replica stops
// communicating (drops every inbound and outbound frame) but its local
// pipeline drains, and a restart rejoins as a backup with its log intact.
#ifndef SRC_REPLICA_REPLICATION_GROUP_H_
#define SRC_REPLICA_REPLICATION_GROUP_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/key_router.h"
#include "src/common/stats.h"
#include "src/core/kv_direct.h"
#include "src/replica/replica_log.h"
#include "src/replica/replica_wire.h"
#include "src/transport/snapshot_stream.h"

namespace kvd {

struct ReplicationConfig {
  uint32_t num_replicas = 3;
  // Replicas (primary included) that must hold a write before the client is
  // acknowledged. 0 selects a majority: num_replicas / 2 + 1. A quorum below
  // a majority trades durability for latency: acknowledged writes can be
  // lost if every holder crashes. Elections always require a majority
  // (ElectionQuorum) regardless, so a small write quorum can never cause
  // two primaries at the same epoch.
  uint32_t quorum = 0;

  // Applied to every replica. Log applies are submitted as
  // OpClass::kControl, which admission never bounces, so backups apply
  // entries in log order whatever the admission limits.
  ServerConfig server;
  // One inbound replication link per replica, on the shared clock. The
  // group's own FaultInjector is attached, so scripted drops can lag a
  // backup without perturbing the client-facing fault streams.
  NetworkConfig replication_network;
  // Group-level faults: FaultSite::kReplicaCrash (consulted once per alive
  // replica, in id order, each heartbeat tick) plus replication-link drops.
  FaultPlan faults;

  SimTime heartbeat_interval = 200 * kMicrosecond;
  // A backup that hears nothing from its primary for this long starts an
  // election.
  SimTime failure_timeout = 1 * kMillisecond;
  // How long an election coordinator collects log positions before picking
  // the winner.
  SimTime election_timeout = 400 * kMicrosecond;

  // Gray-failure demotion (overload control, DESIGN.md §12): a backup is
  // demoted out of the *commit* quorum when its acked position lags the
  // primary's log end by more than demote_lag_entries instantly, or by any
  // amount continuously for demote_grace (a gray peer under a trickle of
  // writes never builds a big lag — it just never reaches zero). The quorum
  // requirement relaxes by the demoted count, but never below
  // ElectionQuorum(), so durability still spans a majority. The peer keeps
  // receiving appends and is reinstated after staying fully caught up for
  // demote_grace (hysteresis: an asymmetric link heals and relapses; instant
  // reinstatement would flap every write back onto the gray path).
  // demote_lag_entries == 0 disables demotion entirely (the
  // pre-overload-control behavior).
  uint64_t demote_lag_entries = 0;
  SimTime demote_grace = 2 * kMillisecond;

  uint32_t max_append_entries = 64;  // entries per kAppend window
  // Older entries are trimmed beyond this; a peer needing them falls back to
  // state transfer.
  uint64_t max_log_entries = 1u << 16;
  uint32_t state_transfer_chunk_kvs = 64;  // KVs + session records per chunk
  double state_transfer_bytes_per_sec = 5e9;  // resync rate bound

  // Replicated session-result records kept (oldest evicted first).
  uint32_t session_entries = 1u << 16;

  // Group-level tracing: one Tracer (with its breakdown, SLO monitor and
  // flight recorder) that every replica is built into — `server`'s tracing
  // fields are ignored — so a write's trace follows it from the client
  // through the primary's pipeline, the log, the replication links, and the
  // quorum wait, and every replica's hardware events share one timeline with
  // the group's protocol events (elections, crashes, promotions). Off by
  // default; ignored, like `server`'s, in a group built into its owner's
  // tracer.
  bool enable_request_tracing = false;
  SloConfig slo;
  FlightRecorderConfig flight;

  uint32_t EffectiveQuorum() const {
    return quorum != 0 ? quorum : num_replicas / 2 + 1;
  }
  // Grants (coordinator included) a ballot needs before anyone is promoted.
  // Always a majority of all replicas: two majorities must intersect, and a
  // configured write quorum below a majority must not weaken election safety.
  uint32_t ElectionQuorum() const { return num_replicas / 2 + 1; }
};

class ReplicationGroup {
 public:
  // Owns its simulator unless `external_sim` puts several groups (shards) on
  // one clock, and its tracer unless it is built into the clock owner's
  // `external_tracer`. Replica 0 starts as primary at epoch 1.
  explicit ReplicationGroup(const ReplicationConfig& config,
                            Simulator* external_sim = nullptr,
                            Tracer* external_tracer = nullptr);

  ReplicationGroup(const ReplicationGroup&) = delete;
  ReplicationGroup& operator=(const ReplicationGroup&) = delete;

  // --- client surface ---
  // Disjoint 2^40 sequence spaces, unique across the whole group.
  uint64_t AcquireClientSequenceBase() { return ++next_client_id_ << 40; }
  // The replica's client-facing network (transport for DeliverClientFrame).
  NetworkModel& client_network(uint32_t replica_id);
  // The replica's *inbound* replication link — the wire its peers' messages
  // arrive on. Scripting a partition or gray link here (SetPartitioned /
  // SetGrayLink, to_server direction) degrades what this replica hears
  // without touching any client-facing path.
  NetworkModel& replication_network(uint32_t replica_id) {
    return *replicas_[replica_id]->repl_net;
  }
  // Delivers a framed GroupRequest to a replica. The replica's own node
  // terminates the frame (checksum, replay dedup: `replica(id)`'s
  // replayed_responses() and corrupt_frames() count them). Pure-read requests
  // execute on any replica that has applied the request's watermark; requests
  // with writes execute on the primary and respond only after quorum
  // replication. Crashed replicas drop the frame (the client's timer covers
  // it).
  void DeliverClientFrame(uint32_t replica_id, std::vector<uint8_t> packet,
                          std::function<void(std::vector<uint8_t>)> respond);

  // --- untimed convenience (warm-up fills, verification) ---
  // Loads a KV into every replica identically, below the log (pre-replication
  // state). Crashed replicas queue the mutation and reconcile on restart
  // (Replica::pending_state); live replicas can still refuse on capacity.
  // While the group is pristine (it has handled nothing but Loads since it
  // was built) only replica 0 loads, and the group's first other touch
  // clones replica 0's store into the others (DESIGN.md §9, "Untimed
  // preload"); the status is replica 0's either way.
  Status Load(std::span<const uint8_t> key, std::span<const uint8_t> value);
  // Functional read on the current primary (reads only).
  KvResultMessage Execute(const KvOperation& op);

  // --- cluster control-plane hooks (src/cluster, DESIGN.md §14) ---
  // Shard gate: consulted for every *routed* client request (one whose
  // GroupRequest carries a partition) before any execution or redirect.
  // kServe admits the request; kWrongShard / kMigrating bounce it carrying
  // the decision's map context so the client can patch its cached shard map
  // (or back off through a cutover freeze). Bounces are never cached — the
  // next retransmission must re-evaluate against the then-current ownership.
  struct ShardGateDecision {
    enum class Action : uint8_t { kServe, kWrongShard, kMigrating };
    Action action = Action::kServe;
    uint64_t map_epoch = 0;
    uint32_t owner_group = 0;
    uint32_t num_partitions = 0;
  };
  using ShardGate = std::function<ShardGateDecision(
      uint64_t map_epoch, uint32_t partition, bool any_write)>;
  void SetShardGate(ShardGate gate) { shard_gate_ = std::move(gate); }

  // Per-partition load accounting: fired once per routed request at the
  // replica that actually serves it (after gate/redirect/stale-read checks,
  // so a bounced request is never double-counted).
  using LoadListener =
      std::function<void(uint32_t partition, uint32_t num_ops, bool any_write)>;
  void SetLoadListener(LoadListener listener) {
    load_listener_ = std::move(listener);
  }

  // Commit listener: fired at the acting primary, in log order, for each
  // entry as it first becomes quorum-committed there. Live migrations
  // dual-write committed effects through this hook; a write's client ack is
  // released only after its listener call returns, so "acked => forwarded"
  // holds at cutover. A new primary fires it only for entries it commits
  // past its own local commit index (earlier entries were forwarded by the
  // previous reign before their acks were released).
  using CommitListener = std::function<void(const LogEntry& entry)>;
  void SetCommitListener(CommitListener listener) {
    commit_listener_ = std::move(listener);
  }

  // Untimed per-replica delete below the log — Load's dual, used by the
  // migration cutover to drop the moved partition at the source group.
  Status Erase(std::span<const uint8_t> key);
  // Stores a session record on every non-crashed replica: a migrated write's
  // exactly-once record must keep answering retransmissions at the
  // destination group after cutover.
  void InstallSessionRecord(uint64_t sequence, uint16_t slot,
                            const KvResultMessage& result);
  // The primary's live KVs owned by `partition` (deterministic key order).
  StateKvs SnapshotPartitionKvs(const KeyRouter& router, uint32_t partition);
  // Session records of writes to `partition`, scanned from the primary's
  // log. Records of trimmed entries are not recoverable here; migrations
  // keep their window well inside max_log_entries.
  std::vector<SessionRecord> ExportPartitionSessions(const KeyRouter& router,
                                                     uint32_t partition);

  // --- fault control ---
  void CrashReplica(uint32_t id);
  void RestartReplica(uint32_t id);  // rejoins as a backup, log intact
  bool crashed(uint32_t id) const { return replicas_[id]->crashed; }

  // --- introspection ---
  uint32_t num_replicas() const { return static_cast<uint32_t>(replicas_.size()); }
  // The group's view of the current primary (updated at every promotion).
  uint32_t primary_id() const { return primary_view_; }
  bool is_primary(uint32_t id) const { return replicas_[id]->is_primary; }
  uint64_t epoch() const;
  uint64_t commit_index() const;
  // Highest log index whose effects the replica's store reflects. At the
  // primary this equals log_end (execute-then-log); at backups it trails the
  // commit index (entries apply only once quorum-committed).
  uint64_t applied_index(uint32_t id) const;
  uint64_t log_end(uint32_t id) const;
  // Settles pristine loads first. Before the first Load there is nothing to
  // settle and the group stays pristine: fresh replicas are identical, and
  // topologies collect their replicas as they are built. A client packet
  // the replica admitted, read or write, is one record in its node's packet
  // pool (`packets_live()`) until it is answered or dropped, a write's
  // parked by a snapshot drain or waiting for its log prefix included.
  KvDirectServer& replica(uint32_t id) {
    if (stale_replicas_) {
      Settle();
    }
    return *replicas_[id]->server;
  }
  Simulator& simulator() { return sim_; }
  const MetricRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  FaultInjector& faults() { return *fault_; }
  FlightRecorder& flight_recorder() { return tracer_.flight_recorder(); }
  LatencyBreakdown& breakdown() { return tracer_.breakdown(); }
  const ReplicationConfig& config() const { return config_; }

  struct GroupStats {
    uint64_t appends_sent = 0;           // kAppend messages (incl. heartbeats)
    uint64_t entries_shipped = 0;        // log entries inside kAppend windows
    uint64_t entries_applied = 0;        // entries appended+applied at backups
    uint64_t append_acks = 0;
    uint64_t elections = 0;
    uint64_t failovers = 0;              // promotions installed
    uint64_t catchup_requests = 0;
    uint64_t state_transfers = 0;
    uint64_t state_transfer_kvs = 0;     // KVs installed from snapshot chunks
    SnapshotStream::Stats snapshot_stream;  // chunks, bytes, resends, stale
    uint64_t snapshot_deferred_writes = 0;  // writes parked by drain-then-cut
    uint64_t crashes = 0;
    uint64_t restarts = 0;
    uint64_t stale_reads = 0;            // reads bounced below the watermark
    uint64_t redirects = 0;              // writes bounced off non-primaries
    uint64_t wrong_shard_bounces = 0;    // routed requests bounced kWrongShard
    uint64_t migrating_bounces = 0;      // routed writes bounced kMigrating
    uint64_t session_dedup_hits = 0;     // retransmits answered from sessions
    uint64_t corrupt_replica_frames = 0;
    uint64_t gray_demotions = 0;         // peers dropped from the commit quorum
    uint64_t gray_reinstatements = 0;    // demoted peers that caught back up
    uint64_t last_failover_downtime_ns = 0;
    uint64_t load_clones = 0;  // settles that cloned replica 0's preload
  };
  // Client frame counters (replays, corrupt frames, stale retransmits) are
  // each replica node's own: `replica(id).replayed_responses()`, ...
  const GroupStats& stats() const { return stats_; }

  // Per-group latency histograms — exposed so multi-shard deployments can
  // Merge() them into cluster-wide distributions (exact bucket merge).
  const LatencyHistogram& propagation_lag_ns() const {
    return propagation_lag_ns_;
  }
  const LatencyHistogram& commit_wait_ns() const { return commit_wait_ns_; }

 private:
  static constexpr char kTraceCategory[] = "replica";

  // A replica is its node's packet owner, and the group's bounces are
  // encoded by it too: every result carries the replica's epoch, the
  // results ride in a GroupResponse with the epoch and the believed primary
  // (and a write answer with the log index covering its writes), and a
  // crashed replica answers nobody. Its packet hooks are the group's.
  struct Replica final : PacketOwner {
    std::optional<std::vector<uint8_t>> Encode(
        std::vector<KvResultMessage>& results, uint64_t log_index) override {
      GroupResponse response;
      response.assigned_index = log_index;
      return Encode(std::move(response), results);
    }
    std::optional<std::vector<uint8_t>> Encode(
        GroupResponse response, std::vector<KvResultMessage>& results) const;
    void OnRetire(uint32_t batch, uint32_t slot, KvResultMessage& result) override {
      group->OnPacketRetired(*this, batch, slot, result);
    }
    bool OnDone(uint32_t batch) override { return group->FinishPacket(*this, batch); }

    ReplicationGroup* group = nullptr;
    uint32_t id = 0;
    std::unique_ptr<KvDirectServer> server;
    std::unique_ptr<NetworkModel> repl_net;  // inbound replication link

    bool crashed = false;
    bool is_primary = false;
    uint64_t current_epoch = 1;
    // Highest ballot epoch this replica has granted a vote for (or adopted
    // from a primary). Each ballot epoch is granted at most once; always
    // >= current_epoch. This is what makes promotion unique per epoch.
    uint64_t voted_epoch = 1;
    uint32_t believed_primary = 0;
    SimTime last_primary_contact = 0;

    ReplicaLog log;
    uint64_t commit = 0;
    // Highest log index whose entry has been submitted to the store. Backups
    // apply at commit time (applied <= min(commit, log.end())); the primary
    // executes before logging, so its applied always equals log.end().
    uint64_t applied = 0;
    // First log index this replica appended as primary of its current
    // reign. The commit index only advances by counting to an index at or
    // past it (Raft's own-term commit rule); older entries commit
    // transitively.
    uint64_t first_own_index = 1;

    // Primary bookkeeping: per-peer confirmed position (cumulative acks;
    // commit counts these) and optimistic window start (re-aligned to
    // match+1 every heartbeat tick, which is what retransmits lost windows),
    // the node's write packet records whose answers await quorum, what each
    // write packet's answer waits for (by record index), and append times
    // for the propagation-lag histogram.
    std::vector<uint64_t> match;
    std::vector<uint64_t> next;
    std::vector<uint32_t> pending;
    struct WriteWait {
      uint64_t needed_index = 0;  // log index the answer waits to commit
      SimTime appended_at = 0;    // last log append; 0 = none (commit wait)
    };
    std::vector<WriteWait> write_waits;
    // (log index, append time), pushed in append order and popped from the
    // front as commit advances.
    std::deque<std::pair<uint64_t, SimTime>> append_time;
    // Gray-failure tracking (primary bookkeeping, config.demote_lag_entries):
    // per-peer demoted flag, the start of the peer's current continuous
    // lagging stretch (0 = caught up), and the start of its current
    // continuous caught-up stretch (0 = lagging; drives reinstatement
    // hysteresis). Reset wholesale on every promotion — a new reign
    // re-observes its peers from scratch.
    std::vector<uint8_t> demoted;
    std::vector<SimTime> lag_since;
    std::vector<SimTime> ok_since;

    // Election coordinator state.
    struct ElectionReply {
      bool granted = false;       // vote for this coordinator's ballot epoch
      uint64_t header_epoch = 0;  // replier's current epoch
      uint64_t last_epoch = 0;    // replier's log tail position
      uint64_t last_index = 0;
    };
    bool election_active = false;
    uint64_t election_round = 0;
    uint64_t election_epoch = 0;  // the ballot this round campaigns for
    std::map<uint32_t, ElectionReply> election_replies;

    // Writes submitted to the timed pipeline but not yet retired. A snapshot
    // must not be cut while any are in flight: their effects are in the store
    // but not yet in the log, so the target would replay them twice.
    uint64_t inflight_ops = 0;

    // Outbound state transfers (primary side), one per lagging peer: the
    // drain-then-cut wait, then the chunk stream. `index` (the snapshot's
    // log boundary) names the transfer in the peer's acks.
    struct OutboundSnapshot {
      bool active = false;
      uint64_t index = 0;
      std::unique_ptr<SnapshotStream> stream;
    };
    std::vector<OutboundSnapshot> snapshot_out;  // per peer
    // Drain-then-cut: while a snapshot cut waits for the pipeline to
    // quiesce, new client write packets are opened (their arrival stamped)
    // and their records parked here instead of being submitted (otherwise
    // sustained load could postpone the cut forever).
    // They are executed in arrival order once the cut is taken, or dropped
    // (the client retries) if the primary crashes or is deposed first.
    bool draining_for_snapshot = false;
    std::vector<uint32_t> deferred_writes;
    // Inbound state transfer (target side). The receiver's cursor belongs to
    // the transfer named by (sender epoch, snapshot index); chunks of an
    // older transfer are dropped, a newer one restarts the cursor. A crash
    // keeps all of it (durable state): the stream resumes on restart.
    bool receiving_snapshot = false;
    std::pair<uint64_t, uint64_t> inbound_transfer{0, 0};
    SnapshotStream::Receiver snapshot_in;
    // The furthest log tail (epoch, index) a wipe took from this replica:
    // every write it ever acked sits at or below it. While its log is
    // behind that tail it campaigns and votes with it, so no granter that
    // lacks those writes can win, refuses promotion itself, and bounces
    // reads (its store went back in time).
    std::pair<uint64_t, uint64_t> wiped_tail{0, 0};

    // Below-log state mutations (cluster Load/Erase) that arrived while this
    // replica was crashed: value = upsert, nullopt = erase. Applied on
    // restart, modeling recovery-time state reconciliation — a migration
    // cutover must not stall (or diverge) because one replica is down.
    std::map<std::vector<uint8_t>, std::optional<std::vector<uint8_t>>>
        pending_state;

    // Replicated session results: client sequence -> its write slots'
    // results, kept sorted by slot (ops retire out of order, so inserts keep
    // the order), FIFO evicted in session_order. Identical on every replica
    // holding the same log prefix.
    std::unordered_map<uint64_t, std::vector<SlotResult>> sessions;
    std::deque<uint64_t> session_order;
  };

  // --- client path ---
  // `request`'s ops payload is already decoded into `ops` (never empty);
  // both are views of `packet`, which goes to the replica node's packet
  // step. A write packet's record is opened on arrival and parked while a
  // snapshot cut drains.
  void HandleClientRequest(Replica& rep, uint64_t sequence,
                           const GroupRequestView& request,
                           std::span<const KvOpView> ops, std::vector<uint8_t> packet,
                           std::function<void(std::vector<uint8_t>)> respond);
  // Submits a write packet's record: slots the replicated sessions hold are
  // answered from them, the rest execute.
  void SubmitWrites(Replica& rep, uint32_t batch);
  // The replica's packet hooks: an op retired (an effective write is logged
  // at once); the last op retired (true releases the record; false keeps a
  // write packet in `pending` until its log prefix commits). A read packet
  // is answered at once; a crashed or deposed replica answers no write.
  void OnPacketRetired(Replica& rep, uint32_t batch, uint32_t slot,
                       KvResultMessage& result);
  bool FinishPacket(Replica& rep, uint32_t batch);
  // Answers a committed write packet; the caller releases it.
  void AnswerWrites(Replica& rep, uint32_t batch);
  // Logs `op` (copied from its packet: the one copy) with its result.
  void AppendEffectiveWrite(Replica& rep, uint64_t sequence, uint16_t slot,
                            const KvOpView& op, const KvResultMessage& result);
  void RecordSession(Replica& rep, uint64_t sequence, uint16_t slot,
                     const KvResultMessage& result);
  // Answers the group's own verdicts (bounces, malformed requests): encodes
  // `response` and `results` through the replica, frames the answer at the
  // replica's node endpoint (recording it for replay when `cache`) and
  // responds.
  void SendResponse(Replica& rep, uint64_t sequence, GroupResponse response,
                    std::vector<KvResultMessage>& results,
                    std::function<void(std::vector<uint8_t>)> respond,
                    bool cache);
  // Step-down / crash: forget pending work, outbound transfers included.
  void DropInFlight(Replica& rep);

  // --- replication path ---
  // `traces` (optional) records a kReplShip span per handle over the frame's
  // wire flight (append windows carrying traced writes).
  void SendReplicaMessage(uint32_t from, uint32_t to, const ReplicaMessage& msg,
                          const std::vector<uint64_t>& traces = {});
  void SendReplicaFrame(uint32_t to, std::vector<uint8_t> frame,
                        const std::vector<uint64_t>& traces = {});
  void OnReplicaFrame(uint32_t to, std::vector<uint8_t> packet);
  void OnAppend(Replica& rep, ReplicaMessage& msg);
  void OnAppendAck(Replica& rep, const ReplicaMessage& msg);
  void OnPromoteQuery(Replica& rep, const ReplicaMessage& msg);
  void OnPromoteReply(Replica& rep, const ReplicaMessage& msg);
  void OnPromote(Replica& rep, const ReplicaMessage& msg);
  void OnCatchupRequest(Replica& rep, const ReplicaMessage& msg);
  void OnStateChunk(Replica& rep, const ReplicaMessage& msg);
  void OnStateChunkAck(Replica& rep, const ReplicaMessage& msg);
  // The receiver's install hook: chunk 0 wipes the target (refused while its
  // pipeline still holds log entries), the last resets its log to the
  // snapshot boundary.
  bool InstallStateChunk(Replica& rep, const ReplicaMessage& msg);

  void PushAppends(Replica& primary);  // send a window to every peer
  void SendWindow(Replica& primary, uint32_t peer);
  void TryAdvanceCommit(Replica& primary);
  // Gray-failure watchdog (runs on the primary each tick): demotes peers
  // whose replication lag exceeded demote_lag_entries for demote_grace, and
  // reinstates demoted peers that caught back up.
  void EvaluateGrayPeers(Replica& primary);
  // Moves a received window's entries into the log (skipping already-held
  // entries); application happens separately, at commit time.
  void AppendToLog(Replica& rep, std::vector<LogEntry>& entries,
                   uint64_t first_index);
  // Submits log entries (applied, target] to the store in log order. The
  // processor borrows each entry's op until admission.
  void ApplyThrough(Replica& rep, uint64_t target);
  void ApplyCommitted(Replica& rep) {
    ApplyThrough(rep, std::min(rep.commit, rep.log.end()));
  }
  // Trims to max_log_entries but never past the applied cursor, nor past an
  // applied entry whose op still waits for admission.
  void TrimLog(Replica& rep);
  void AdoptEpoch(Replica& rep, uint64_t epoch, uint32_t primary);
  void StepDown(Replica& rep);
  void Promote(Replica& rep, uint64_t new_epoch);
  void StartElection(Replica& rep);
  void FinishElection(Replica& rep);
  // The (epoch, index) of the replica's last log entry.
  static std::pair<uint64_t, uint64_t> LogTail(const Replica& rep);
  // Ends the replica's own campaign, if any, forgetting its replies.
  static void EndCampaign(Replica& rep);
  void RequestCatchup(Replica& rep, uint32_t to);
  void StartStateTransfer(Replica& primary, uint32_t target);
  // Waits for the primary's pipeline to quiesce — parking newly arriving
  // writes meanwhile (drain-then-cut) — then cuts and frames the snapshot
  // chunks (KVs, then session records) and starts streaming them.
  void BuildSnapshot(uint32_t primary_id, uint32_t target,
                     uint64_t transfer_epoch);
  // The replica's live KVs (of `partition` when a router is given): an
  // enumeration of its hash index, sorted by key once per cut.
  static StateKvs SnapshotKvs(Replica& rep, const KeyRouter* router,
                              uint32_t partition);
  // Completion, or the end of the reign that started the transfer (crash or
  // step-down): stops the peer's outbound stream.
  void EndStateTransfer(Replica& primary, uint32_t peer);
  // Ends a drain: executes the parked writes (or drops them if the replica
  // is no longer an alive primary; the clients retry).
  void ReleaseSnapshotDrain(Replica& rep);
  // Deletes every stored KV in snapshot (key) order, so the slab free lists
  // always evolve the same way, and resets log/sessions to empty: the clean
  // slate a state-transfer target starts from.
  void WipeState(Replica& rep);

  // Ends the pristine phase, once: clones replica 0's store into the
  // replicas its Loads skipped. Every settle point (DESIGN.md §9) calls it
  // first.
  void Settle();

  void Tick();
  void RegisterMetrics();
  Replica& Primary() { return *replicas_[primary_view_]; }

  ReplicationConfig config_;
  std::unique_ptr<Simulator> owned_sim_;
  Simulator& sim_;
  MetricRegistry metrics_;
  // Null when built into an external tracer; tracer_ aliases either.
  std::unique_ptr<Tracer> owned_tracer_;
  Tracer& tracer_;
  std::unique_ptr<FaultInjector> fault_;
  ShardGate shard_gate_;
  LoadListener load_listener_;
  CommitListener commit_listener_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  uint32_t primary_view_ = 0;
  uint64_t next_client_id_ = 0;
  uint64_t next_repl_sequence_ = 0;
  // Set when the acting primary crashes; consumed by the next promotion to
  // measure failover downtime.
  SimTime failover_started_at_ = 0;
  bool failover_pending_ = false;
  GroupStats stats_;
  // Untimed preload: true until the first touch other than Load; while it
  // holds, Load fills replica 0 only and sets stale_replicas_.
  bool pristine_ = true;
  bool stale_replicas_ = false;
  LatencyHistogram propagation_lag_ns_;
  LatencyHistogram failover_downtime_ns_;
  LatencyHistogram commit_wait_ns_;  // client write: log append -> quorum
  // The client path's decoded ops, for the gate, and ApplyThrough's key
  // hashes, taken once per entry for the prefetch and the admission both.
  std::vector<KvOpView> ops_;
  std::vector<KeyHash> key_hashes_;
};

}  // namespace kvd

#endif  // SRC_REPLICA_REPLICATION_GROUP_H_
