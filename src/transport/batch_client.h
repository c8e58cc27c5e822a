// The batching client core (paper §3.2, Figure 15): pack operations into
// MTU-sized frames, send them reliably, fan the results back out.
//
// Every KvEndpoint client is a BatchClient. The core owns the work the
// topologies share:
//   - the pending queue, op_budget deadline stamping, and the split-phase
//     BeginFlush / flush_done / TakeResults (Flush runs all three);
//   - greedy packing per bucket under the frame budget minus the frame and
//     request headers, and the per-packet deadline fold; an op that alone
//     exceeds the budget fails with kInvalidArgument and is not sent;
//   - request tracing (Start / RegisterPacket / Finish);
//   - the retry engine (below), response admission (dedup, checksum,
//     sequence echo), result decoding into the flush's slots (including the
//     server's whole-packet kInvalidArgument reject), and the failures that
//     end a packet unanswered;
//   - the kBusy/kOverloaded re-send rounds.
//
// Retry semantics, shared by every router:
//   - the first transmission arms a timer at `timeout`, each retransmission
//     a decorrelated-jitter delay capped at timeout << backoff_shift_cap;
//   - a timer firing after completion, or after a newer attempt superseded
//     it (a bounce already re-sent), is a no-op;
//   - a timer firing on the live attempt counts one retransmit and re-sends;
//     with rotation enabled (attempts_per_target > 0), attempts_per_target
//     consecutive timeouts on one target move the packet to the next —
//     that replica may be crashed;
//   - the max_attempts'th timeout fails the packet with kTimedOut, a timer
//     past the packet's deadline with kDeadlineExceeded, and an empty retry
//     budget with kTimedOut, instead of re-sending. (Callers see a status,
//     not a crashed process — the process outliving an unreachable server
//     is the point.)
//
// A flush owns its operations once; packets carry only slot indices into it.
// A router derives from the core and supplies what differs per topology
// through the protected hooks: how ops are bucketed, the request header, the
// target and the wire round trip, and what a bounce means. The routers are
// Client (one server), ReplicatedClient (one replication group) and
// ClusterClient (sharded groups); MultiNicClient (src/core/multi_nic.h) is
// Client with one bucket per NIC.
#ifndef SRC_TRANSPORT_BATCH_CLIENT_H_
#define SRC_TRANSPORT_BATCH_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/net/kv_types.h"
#include "src/obs/tracer.h"
#include "src/sim/simulator.h"
#include "src/transport/kv_endpoint.h"

namespace kvd {

class BatchClient : public KvEndpoint {
 public:
  // Options every router shares; routers extend this struct.
  struct Options {
    // Frame budget, frame and request headers included, so a full packet
    // still fits one wire MTU instead of spilling into a second segment.
    uint32_t batch_payload_bytes = 4096;
    SimTime timeout = 500 * kMicrosecond;  // first retransmission timer
    // Transmissions per frame; exhausting them fails the frame's operations
    // with kTimedOut instead of retrying forever.
    uint32_t max_attempts = 8;
    // Per-op latency budget: each flushed op gets deadline = now + op_budget
    // (unless the caller stamped a tighter one), carried on the wire and
    // enforced at every layer (retransmissions, server admission, dequeue,
    // retirement). 0 = no deadlines.
    SimTime op_budget = 0;
    // Token-bucket retry budget: retransmissions spend one token, successful
    // responses refill kRetryRefillPerSuccess. During a 100%-failure storm
    // the client converges to ~budget total retransmits instead of
    // amplifying exponentially. 0 disables the budget.
    uint32_t retry_budget = 0;
  };

  // Packets and timers hold `this`.
  BatchClient(const BatchClient&) = delete;
  BatchClient& operator=(const BatchClient&) = delete;

  size_t Enqueue(KvOperation op) override;
  // BeginFlush, step the simulator until flush_done, TakeResults.
  std::vector<KvResultMessage> Flush() override;

  // Split-phase flush for clients sharing one clock: BeginFlush() packs and
  // transmits without stepping the simulator; the caller steps the clock
  // until flush_done(), then TakeResults() (in Enqueue order).
  void BeginFlush();
  bool flush_done() const { return flush_ == nullptr || flush_->outstanding == 0; }
  std::vector<KvResultMessage> TakeResults();
  // Runs inside the simulator step in which a flush begun by BeginFlush
  // completes, so a loop running many clients learns which one finished
  // without polling them all. A flush that sends no packet (no ops, or only
  // ops over the budget) is done when BeginFlush returns, without the hook.
  void set_on_flush_done(std::function<void()> hook) { on_flush_done_ = std::move(hook); }

  Stats endpoint_stats() const override { return stats_; }
  SimTime now() const override { return sim_.Now(); }
  bool Step() override { return sim_.Step(); }

 protected:
  // Per-router constants, fixed at construction.
  struct RouterConfig {
    size_t header_bytes = 0;  // request header between frame and ops
    uint32_t max_ops_per_packet = 0xffffffff;
    uint32_t backoff_shift_cap = 20;
    uint32_t attempts_per_target = 0;  // 0 = never rotate targets
    uint32_t num_targets = 1;
    // kBusy/kOverloaded re-send rounds; exhausting them yields kTimedOut.
    // 0 surfaces the codes to the caller unchanged.
    uint32_t busy_rounds = 0;
    SimTime busy_backoff = 0;  // doubles per round
  };

  struct FlushState {
    std::vector<KvOperation> ops;
    std::vector<KvResultMessage> results;
    std::vector<uint64_t> traces;  // per-op trace handles (0 when untraced)
    // Per-op key digests the router took while bucketing (ClusterClient's
    // routing digest); empty when it takes none.
    std::vector<uint64_t> digests;
    // Packets in flight, plus one while a busy backoff is pending.
    size_t outstanding = 0;
    uint32_t busy_round = 0;
  };

  // Per-packet routing and retry state. Shares the flush (late duplicate
  // responses can land after TakeResults and must find live state, not a
  // dead stack frame).
  struct Packet {
    std::shared_ptr<FlushState> flush;
    std::vector<size_t> slots;         // flush op/result indices, packet order
    std::vector<uint8_t> ops_payload;  // PacketBuilder output, never rebuilt
    std::vector<uint8_t> framed;       // full framed bytes, re-sent verbatim
    std::vector<uint64_t> traces;      // per-op trace handles, packet order
    uint64_t sequence = 0;
    // Earliest absolute deadline across the packet's ops (0 = none). The
    // client stops retransmitting once it passes — retrying work nobody
    // will wait for is how overload turns into collapse.
    SimTime deadline = 0;
    // Previous backoff delay, for decorrelated jitter.
    SimTime backoff = 0;
    uint32_t bucket = 0;  // BucketOf() of every op in the packet
    uint32_t group = 0;   // destination replication group
    uint32_t target = 0;  // replica index (single-server: always 0)
    uint32_t attempts = 0;
    uint32_t attempts_at_target = 0;
    bool is_write = false;
    // Answered or failed: timers and late responses find it done.
    bool completed = false;
  };
  using PacketPtr = std::shared_ptr<Packet>;

  // `stats` is the router's own (derived) stats struct; the core counts
  // into it. Sequence bases are unique per client, so `sequence_base` also
  // seeds the client's own deterministic retransmission-jitter stream.
  BatchClient(Simulator& sim, uint64_t sequence_base, const Options& options,
              const RouterConfig& router, Stats* stats);

  // --- router hooks ---
  // The bucket of `flush.ops[slot]`; packets never mix buckets. A router
  // that hashes the key for it may keep the digest in `flush.digests`.
  virtual uint32_t BucketOf(FlushState& /*flush*/, size_t /*slot*/) { return 0; }
  // Sets the packet's group and target before its first transmission.
  virtual void Route(Packet& /*packet*/) {}
  // Exactly RouterConfig::header_bytes, framed ahead of the ops payload.
  virtual std::vector<uint8_t> RequestHeader(const Packet& /*packet*/) { return {}; }
  // One wire round trip toward packet->target; the response goes to Receive.
  virtual void Wire(const PacketPtr& packet) = 0;
  // An admitted response: unwrap the router's header, handle bounces, and
  // Complete the packet with the results payload.
  virtual void OnResponse(const PacketPtr& packet, std::span<const uint8_t> payload) {
    Complete(packet, payload);
  }
  // Where this client's requests are traced; nullptr = untraced.
  virtual Tracer* tracer() { return nullptr; }

  // --- core services for routers ---
  // Admits a framed response and hands its payload to OnResponse. Drops
  // duplicates (a completed packet) and corrupt or foreign frames, counting
  // them; the retransmission timer covers the latter.
  void Receive(const PacketPtr& packet, std::vector<uint8_t> bytes);
  // Fills the packet's result slots from an EncodeResults payload. False
  // (counted as a corrupt response; the retransmission timer re-asks) when
  // the payload does not match the packet.
  bool Complete(const PacketPtr& packet, std::span<const uint8_t> results_payload);
  // Fails the packet's operations with `code` and stops its timer.
  void Abandon(const PacketPtr& packet, ResultCode code);
  // Bounce-path re-send (the server said "not me"/"not yet": redirect, stale
  // read, migrating): re-transmits without counting a retransmit — the wire
  // worked; the target was wrong. A packet that bounces forever fails just
  // like one that times out forever (deadline, then max_attempts).
  void Resend(const PacketPtr& packet);
  // Re-routes the packet (modulo num_targets) and resets its per-target
  // timeout streak.
  void Retarget(Packet& packet, uint32_t target);
  // A decode failure after admission (the frame was intact but its payload
  // was not): counted; the retransmission timer re-asks.
  void NoteCorruptResponse() { stats_.corrupt_responses++; }
  // Retires the packet unanswered and re-sends its operations under the
  // current routing as fresh packets (new sequences).
  void Repack(const PacketPtr& packet);
  // Re-frames the packet after its route changed; the sequence and ops
  // payload stay as they are.
  void Reframe(Packet& packet);

  Simulator& sim() { return sim_; }

 private:
  // Packs flush->ops[slots] per bucket and transmits each packet.
  void Send(const std::shared_ptr<FlushState>& flush, const std::vector<size_t>& slots);
  // One attempt: counts it, traces it, wires it, then arms its
  // retransmission timer.
  void Transmit(const PacketPtr& packet);
  void TraceAttempt(const Packet& packet);
  // Backoff delay for the timer armed after the packet's latest attempt.
  SimTime BackoffDelay(Packet& packet);
  // Abandons a packet that may not be sent again: past its deadline
  // (kDeadlineExceeded) or out of attempts (kTimedOut). True when it did.
  bool GiveUp(const PacketPtr& packet);
  void PacketDone(const std::shared_ptr<FlushState>& flush);
  // All of a round's packets are answered: re-send its busy operations.
  void EndBusyRound(const std::shared_ptr<FlushState>& flush);
  Tracer* ActiveTracer();

  Simulator& sim_;
  Options options_;
  RouterConfig router_;
  Stats& stats_;
  uint64_t next_sequence_;
  std::vector<KvOperation> pending_;
  std::shared_ptr<FlushState> flush_;
  std::function<void()> on_flush_done_;
  // Decorrelated retransmission jitter: each retry waits uniform[timeout,
  // 3 * previous_wait), capped at timeout << backoff_shift_cap. Deterministic
  // backoff retransmits every client in lockstep — a built-in thundering
  // herd; jitter spreads the herd while staying same-seed reproducible. The
  // first attempt's timer is always exactly `timeout`, so fault-free timing
  // does not depend on the stream.
  Rng jitter_rng_;
  double retry_tokens_;  // remaining retry budget (unused when disabled)
  static constexpr double kRetryRefillPerSuccess = 0.1;
};

}  // namespace kvd

#endif  // SRC_TRANSPORT_BATCH_CLIENT_H_
