#include "src/transport/reliable_sender.h"

#include <algorithm>
#include <utility>

namespace kvd {

ReliableSender::Stats& ReliableSender::Stats::operator+=(const Stats& other) {
  packets_sent += other.packets_sent;
  retransmits += other.retransmits;
  busy_retries += other.busy_retries;
  corrupt_responses += other.corrupt_responses;
  duplicate_responses += other.duplicate_responses;
  deadline_failures += other.deadline_failures;
  budget_exhausted += other.budget_exhausted;
  return *this;
}

SimTime ReliableSender::BackoffDelay(const PacketPtr& packet) {
  if (packet->attempts <= 1) {
    // The first attempt's timer is exact, so fault-free timing never
    // depends on the jitter stream.
    packet->backoff = policy_.timeout;
    return policy_.timeout;
  }
  // Decorrelated jitter: uniform[timeout, 3 * previous_wait), capped. Grows
  // at least as fast as exponential backoff in expectation but desynchronizes
  // retransmissions across packets and senders.
  const SimTime cap = policy_.timeout << policy_.backoff_shift_cap;
  const SimTime prev =
      std::min(packet->backoff != 0 ? packet->backoff : policy_.timeout, cap);
  const SimTime hi = prev > cap / 3 ? cap : prev * 3;
  SimTime delay = policy_.timeout;
  if (hi > policy_.timeout) {
    delay += jitter_rng_.NextBelow(hi - policy_.timeout);
  }
  delay = std::min(delay, cap);
  packet->backoff = delay;
  return delay;
}

void ReliableSender::Transmit(const PacketPtr& packet) {
  packet->attempts++;
  packet->attempts_at_target++;
  wire_(packet);
  // Retransmission timer for this attempt (decorrelated-jitter backoff). A
  // timer that fires after completion (or after a newer attempt took over)
  // is a no-op.
  const uint32_t seen = packet->attempts;
  const SimTime timeout = BackoffDelay(packet);
  sim_.Schedule(timeout, [this, packet, seen] {
    if (packet->completed || packet->attempts != seen) {
      return;  // answered, or a bounce already re-sent it
    }
    if (packet->deadline != 0 && sim_.Now() >= packet->deadline) {
      // Past the deadline nobody is waiting for this answer; retransmitting
      // would only feed the overload that delayed it.
      stats_->deadline_failures++;
      packet->fail_code = ResultCode::kDeadlineExceeded;
      Fail(packet);
      return;
    }
    if (packet->attempts >= policy_.max_attempts) {
      Fail(packet);
      return;
    }
    if (policy_.retry_budget > 0) {
      if (retry_tokens_ < 1.0) {
        // Budget empty: the server (or network) is failing everything, so
        // more retries are gasoline. Fail fast and let the caller decide.
        stats_->budget_exhausted++;
        Fail(packet);
        return;
      }
      retry_tokens_ -= 1.0;
    }
    stats_->retransmits++;
    if (policy_.attempts_per_target > 0 &&
        packet->attempts_at_target >= policy_.attempts_per_target) {
      Retarget(packet, packet->target + 1);  // this replica may be crashed
    }
    Transmit(packet);
  });
}

void ReliableSender::Resend(const PacketPtr& packet) {
  if (packet->deadline != 0 && sim_.Now() >= packet->deadline) {
    stats_->deadline_failures++;
    packet->fail_code = ResultCode::kDeadlineExceeded;
    Fail(packet);
    return;
  }
  if (packet->attempts >= policy_.max_attempts) {
    Fail(packet);
    return;
  }
  Transmit(packet);
}

void ReliableSender::Fail(const PacketPtr& packet) {
  packet->failed = true;
  packet->completed = true;  // late responses dedup instead of double-filling
  on_fail_(packet);
}

std::optional<std::vector<uint8_t>> ReliableSender::AcceptResponse(
    const PacketPtr& packet, std::span<const uint8_t> response) {
  if (packet->completed) {
    stats_->duplicate_responses++;  // injected duplicate or late retransmit
    return std::nullopt;
  }
  Result<Frame> frame = ParseFrame(response);
  if (!frame.ok() || frame->sequence != packet->sequence) {
    // Bit-flipped in flight (or a foreign frame): await the timer.
    stats_->corrupt_responses++;
    return std::nullopt;
  }
  if (policy_.retry_budget > 0) {
    // Successes refill the retry budget, so a healthy system keeps its full
    // allowance and a failing one converges to the refill rate.
    retry_tokens_ = std::min(static_cast<double>(policy_.retry_budget),
                             retry_tokens_ + kRetryRefillPerSuccess);
  }
  return std::move(frame->payload);
}

}  // namespace kvd
