// Client-side half of the reliable channel: per-packet retransmission with
// exponential backoff, optional target rotation, and response dedup.
//
// One instance per client, owned by the batching client core (BatchClient,
// src/transport/batch_client.h). The sender owns the retry state machine;
// the owner supplies what differs per topology through hooks:
//
//   wire     — actually puts the packet's framed bytes on the wire toward
//              packet->target and arranges for AcceptResponse on delivery.
//   on_fail  — invoked once when a packet exhausts max_attempts: the owner
//              fills its result slots with kTimedOut and unblocks the flush.
//              (Callers see a status, not a crashed process — the process
//              outliving an unreachable server is the point.)
//
// Retry semantics, shared by all owners:
//   - the first transmission arms a timer at `timeout`, each retransmission
//     a decorrelated-jitter delay capped at timeout << backoff_shift_cap;
//   - a timer firing after completion, or after a newer attempt superseded
//     it (a bounce already re-sent), is a no-op;
//   - a timer firing on the live attempt counts one retransmit and re-sends;
//     with rotation enabled (attempts_per_target > 0), attempts_per_target
//     consecutive timeouts on one target move the packet to the next —
//     that replica may be crashed;
//   - the max_attempts'th timeout fails the packet instead of re-sending.
//
// Resend() is the bounce path (server said "not me"/"not yet": redirect,
// stale read): it re-transmits without counting a retransmit — the wire
// worked; the target was wrong.
#ifndef SRC_TRANSPORT_RELIABLE_SENDER_H_
#define SRC_TRANSPORT_RELIABLE_SENDER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/net/kv_types.h"
#include "src/sim/simulator.h"
#include "src/transport/frame.h"

namespace kvd {

// Per-packet retry state. Owners derive from it to attach their own routing
// and result-slot bookkeeping; the sender only touches these fields.
struct ReliablePacket {
  uint64_t sequence = 0;
  std::vector<uint8_t> framed;  // full framed bytes, re-sent verbatim
  uint32_t target = 0;          // replica index (single-server: always 0)
  uint32_t attempts = 0;
  uint32_t attempts_at_target = 0;
  bool completed = false;
  bool failed = false;           // set by Fail(); implies completed
  // Earliest absolute deadline across the packet's ops (0 = none). The
  // sender stops retransmitting once it passes — retrying work nobody will
  // wait for is how overload turns into collapse.
  SimTime deadline = 0;
  // Why Fail() gave up; the owner copies this into its result slots.
  ResultCode fail_code = ResultCode::kTimedOut;
  // Previous backoff delay, for decorrelated jitter (0 until the first
  // retransmission timer is armed).
  SimTime backoff = 0;
  std::vector<uint64_t> traces;  // per-op trace handles, packet order

  virtual ~ReliablePacket() = default;
};

class ReliableSender {
 public:
  struct RetryPolicy {
    SimTime timeout = 500 * kMicrosecond;
    uint32_t max_attempts = 8;
    // Caps the retransmission backoff at timeout << backoff_shift_cap.
    uint32_t backoff_shift_cap = 20;
    // Consecutive timeouts on one target before rotating to the next;
    // 0 disables rotation (single-target topologies).
    uint32_t attempts_per_target = 0;
    uint32_t num_targets = 1;
    // Seeds the decorrelated retransmission jitter: each retry waits
    // uniform[timeout, 3 * previous_wait), capped at timeout << shift_cap.
    // Deterministic backoff retransmits every client in lockstep — a
    // built-in thundering herd; jitter spreads the herd while staying
    // same-seed reproducible through the per-sender RNG stream. The first
    // attempt's timer is always exactly `timeout`, so fault-free timing
    // does not depend on the seed.
    uint64_t jitter_seed = 0;
    // Token-bucket retry budget: retransmissions spend one token, successful
    // responses refill kRetryRefillPerSuccess. During a 100%-failure storm
    // the sender converges to ~budget total retransmits instead of
    // amplifying exponentially. 0 disables the budget.
    uint32_t retry_budget = 0;
  };
  static constexpr double kRetryRefillPerSuccess = 0.1;

  // Owned by the client (stable address, readable through client.stats()).
  // The sender updates retransmits / corrupt_responses / duplicate_responses;
  // the owner counts packets_sent and busy_retries itself.
  struct Stats {
    Stats& operator+=(const Stats& other);

    uint64_t packets_sent = 0;
    uint64_t retransmits = 0;
    uint64_t busy_retries = 0;
    uint64_t corrupt_responses = 0;
    uint64_t duplicate_responses = 0;
    uint64_t deadline_failures = 0;  // packets abandoned past their deadline
    uint64_t budget_exhausted = 0;   // retransmits suppressed by the budget
  };

  using PacketPtr = std::shared_ptr<ReliablePacket>;
  using Hook = std::function<void(const PacketPtr&)>;

  ReliableSender(Simulator& sim, RetryPolicy policy, Stats* stats, Hook wire,
                 Hook on_fail)
      : sim_(sim),
        policy_(policy),
        stats_(stats),
        wire_(std::move(wire)),
        on_fail_(std::move(on_fail)),
        retry_tokens_(policy_.retry_budget) {
    jitter_rng_.Seed(Mix64(policy_.jitter_seed ^ 0x9e1bd5a7c3f0d24bULL));
  }

  // First transmission of a packet (the owner has already framed it and
  // counted packets_sent).
  void Send(const PacketPtr& packet) { Transmit(packet); }

  // Bounce path re-send (see file comment). Checks exhaustion: a packet that
  // bounces forever fails just like one that times out forever.
  void Resend(const PacketPtr& packet);

  // Re-routes the packet (modulo num_targets) and resets its per-target
  // timeout streak.
  void Retarget(const PacketPtr& packet, uint32_t target) {
    packet->target = target % policy_.num_targets;
    packet->attempts_at_target = 0;
  }

  // Response admission: drops duplicates (a completed packet) and corrupt or
  // foreign frames, counting them. Returns the frame payload for the owner
  // to decode, or nullopt when the response was consumed here.
  std::optional<std::vector<uint8_t>> AcceptResponse(
      const PacketPtr& packet, std::span<const uint8_t> response);

  // For owner-side decode failures after AcceptResponse succeeded (the frame
  // was intact but its payload was not): the retransmission timer recovers.
  void NoteCorruptResponse() { stats_->corrupt_responses++; }

  const RetryPolicy& policy() const { return policy_; }
  // Remaining retry-budget tokens (== configured budget when disabled).
  double retry_tokens() const { return retry_tokens_; }

 private:
  void Transmit(const PacketPtr& packet);
  void Fail(const PacketPtr& packet);
  // Backoff delay for the timer armed after attempt `attempts`.
  SimTime BackoffDelay(const PacketPtr& packet);

  Simulator& sim_;
  RetryPolicy policy_;
  Stats* stats_;
  Hook wire_;
  Hook on_fail_;
  Rng jitter_rng_;
  double retry_tokens_;
};

}  // namespace kvd

#endif  // SRC_TRANSPORT_RELIABLE_SENDER_H_
