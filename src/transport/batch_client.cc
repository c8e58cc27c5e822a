#include "src/transport/batch_client.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/assert.h"
#include "src/common/hashing.h"
#include "src/net/wire_format.h"
#include "src/transport/frame.h"

namespace kvd {
namespace {

bool IsBusy(ResultCode code) {
  return code == ResultCode::kBusy || code == ResultCode::kOverloaded;
}

}  // namespace

BatchClient::BatchClient(Simulator& sim, uint64_t sequence_base,
                         const Options& options, const RouterConfig& router,
                         Stats* stats)
    : sim_(sim),
      options_(options),
      router_(router),
      stats_(*stats),
      next_sequence_(sequence_base),
      jitter_rng_(Mix64(sequence_base ^ 0x9e1bd5a7c3f0d24bULL)),
      retry_tokens_(options.retry_budget) {
  KVD_CHECK_MSG(options.batch_payload_bytes >= kFrameHeaderBytes + router.header_bytes + 64,
                "packet budget too small for the frame and request headers");
}

size_t BatchClient::Enqueue(KvOperation op) {
  pending_.push_back(std::move(op));
  return pending_.size() - 1;
}

void BatchClient::BeginFlush() {
  KVD_CHECK_MSG(flush_done(), "previous flush still in progress");
  flush_ = std::make_shared<FlushState>();
  flush_->ops = std::move(pending_);
  pending_.clear();
  const size_t count = flush_->ops.size();
  flush_->results.resize(count);
  flush_->traces.resize(count, 0);
  if (count == 0) {
    return;
  }
  if (options_.op_budget != 0) {
    // Stamp the latency budget before packing: the deadline rides the wire.
    // A caller who already set one keeps the tighter of the two.
    const SimTime limit = sim_.Now() + options_.op_budget;
    for (KvOperation& op : flush_->ops) {
      op.deadline = op.deadline == 0 ? limit : std::min(op.deadline, limit);
    }
  }
  std::vector<size_t> slots(count);
  for (size_t i = 0; i < count; i++) {
    slots[i] = i;
  }
  Send(flush_, slots);
}

std::vector<KvResultMessage> BatchClient::TakeResults() {
  KVD_CHECK_MSG(flush_ != nullptr && flush_->outstanding == 0, "flush not complete");
  std::vector<KvResultMessage> results = std::move(flush_->results);
  // Packets keep the state alive until their timers fire, but nothing reads
  // a completed packet's ops again.
  flush_->ops = {};
  flush_.reset();
  return results;
}

std::vector<KvResultMessage> BatchClient::Flush() {
  BeginFlush();
  while (!flush_done()) {
    KVD_CHECK_MSG(sim_.Step(), "simulation idle with packets outstanding");
  }
  return TakeResults();
}

Tracer* BatchClient::ActiveTracer() {
  Tracer* rt = tracer();
  return rt != nullptr && rt->enabled() ? rt : nullptr;
}

void BatchClient::Send(const std::shared_ptr<FlushState>& flush,
                       const std::vector<size_t>& slots) {
  // Greedy packing in slot order, one bucket at a time (std::map keeps the
  // bucket order deterministic).
  std::map<uint32_t, std::vector<size_t>> buckets;
  for (const size_t slot : slots) {
    buckets[BucketOf(*flush, slot)].push_back(slot);
  }
  const auto budget = static_cast<uint32_t>(options_.batch_payload_bytes -
                                            kFrameHeaderBytes - router_.header_bytes);
  std::vector<PacketPtr> packets;
  for (const auto& [bucket, members] : buckets) {
    PacketBuilder builder(budget);
    size_t next = 0;
    while (next < members.size()) {
      auto packet = std::make_shared<Packet>();
      packet->flush = flush;
      packet->bucket = bucket;
      while (next < members.size() &&
             packet->slots.size() < router_.max_ops_per_packet) {
        const KvOperation& op = flush->ops[members[next]];
        if (!builder.FitsAlone(op)) {
          // The op alone exceeds the packet budget: it can never be sent, so
          // it fails by itself and the packet goes on filling.
          flush->results[members[next++]].code = ResultCode::kInvalidArgument;
          continue;
        }
        if (!builder.Add(op)) {
          break;
        }
        packet->slots.push_back(members[next++]);
        packet->is_write = packet->is_write || IsWriteOpcode(op.opcode);
        // The packet dies with its most urgent op: past that point the
        // client stops retransmitting the whole frame.
        if (op.deadline != 0 && (packet->deadline == 0 || op.deadline < packet->deadline)) {
          packet->deadline = op.deadline;
        }
      }
      if (packet->slots.empty()) {
        break;  // the bucket's last ops were all oversize
      }
      packet->ops_payload = builder.Finish();
      packets.push_back(std::move(packet));
    }
  }

  flush->outstanding += packets.size();
  for (const PacketPtr& packet : packets) {
    packet->sequence = next_sequence_++;
    Route(*packet);
    Reframe(*packet);
    if (Tracer* rt = ActiveTracer()) {
      // First send starts the trace; a busy re-send keeps its handle and
      // re-registers it under the new wire sequence so the server-side
      // lookup still resolves.
      packet->traces.reserve(packet->slots.size());
      for (size_t i = 0; i < packet->slots.size(); i++) {
        uint64_t& handle = flush->traces[packet->slots[i]];
        if (handle == 0) {
          handle = rt->Start(flush->ops[packet->slots[i]].opcode, packet->sequence,
                             static_cast<uint32_t>(i));
        }
        packet->traces.push_back(handle);
      }
      rt->RegisterPacket(packet->sequence, packet->traces);
    }
    stats_.packets_sent++;
    Transmit(packet);
  }
}

void BatchClient::Reframe(Packet& packet) {
  std::vector<uint8_t> payload = RequestHeader(packet);
  KVD_CHECK(payload.size() == router_.header_bytes);
  payload.insert(payload.end(), packet.ops_payload.begin(), packet.ops_payload.end());
  packet.framed = FramePacket(packet.sequence, payload);
}

void BatchClient::Transmit(const PacketPtr& packet) {
  packet->attempts++;
  packet->attempts_at_target++;
  TraceAttempt(*packet);
  Wire(packet);
  // A timer that fires after completion (or after a newer attempt took
  // over) is a no-op.
  const uint32_t seen = packet->attempts;
  sim_.Schedule(BackoffDelay(*packet), [this, packet, seen] {
    if (packet->completed || packet->attempts != seen) {
      return;  // answered, or a bounce already re-sent it
    }
    if (GiveUp(packet)) {
      return;
    }
    if (options_.retry_budget > 0) {
      if (retry_tokens_ < 1.0) {
        // Budget empty: the server (or network) is failing everything, so
        // more retries are gasoline. Fail fast and let the caller decide.
        stats_.budget_exhausted++;
        Abandon(packet, ResultCode::kTimedOut);
        return;
      }
      retry_tokens_ -= 1.0;
    }
    stats_.retransmits++;
    if (router_.attempts_per_target > 0 &&
        packet->attempts_at_target >= router_.attempts_per_target) {
      Retarget(*packet, packet->target + 1);  // this replica may be crashed
    }
    Transmit(packet);
  });
}

void BatchClient::TraceAttempt(const Packet& packet) {
  Tracer* rt = ActiveTracer();
  if (rt == nullptr) {
    return;
  }
  for (const uint64_t handle : packet.traces) {
    rt->CountAttempt(handle);
    if (packet.attempts > 1) {
      // Timeout-driven retransmission marker (detail: attempt number).
      rt->Span(handle, SpanKind::kRetransmit, sim_.Now(), sim_.Now(),
               packet.attempts - 1);
    }
  }
}

SimTime BatchClient::BackoffDelay(Packet& packet) {
  const SimTime timeout = options_.timeout;
  if (packet.attempts <= 1) {
    // The first attempt's timer is exact, so fault-free timing never
    // depends on the jitter stream.
    packet.backoff = timeout;
    return timeout;
  }
  // Decorrelated jitter: uniform[timeout, 3 * previous_wait), capped. Grows
  // at least as fast as exponential backoff in expectation but desynchronizes
  // retransmissions across packets and clients.
  const SimTime cap = timeout << router_.backoff_shift_cap;
  const SimTime prev = std::min(packet.backoff != 0 ? packet.backoff : timeout, cap);
  const SimTime hi = prev > cap / 3 ? cap : prev * 3;
  SimTime delay = timeout;
  if (hi > timeout) {
    delay += jitter_rng_.NextBelow(hi - timeout);
  }
  delay = std::min(delay, cap);
  packet.backoff = delay;
  return delay;
}

bool BatchClient::GiveUp(const PacketPtr& packet) {
  if (packet->deadline != 0 && sim_.Now() >= packet->deadline) {
    // Past the deadline nobody is waiting for this answer; re-sending would
    // only feed the overload that delayed it.
    stats_.deadline_failures++;
    Abandon(packet, ResultCode::kDeadlineExceeded);
    return true;
  }
  if (packet->attempts >= options_.max_attempts) {
    Abandon(packet, ResultCode::kTimedOut);
    return true;
  }
  return false;
}

void BatchClient::Resend(const PacketPtr& packet) {
  if (!GiveUp(packet)) {
    Transmit(packet);
  }
}

void BatchClient::Retarget(Packet& packet, uint32_t target) {
  packet.target = target % router_.num_targets;
  packet.attempts_at_target = 0;
}

void BatchClient::Receive(const PacketPtr& packet, std::vector<uint8_t> bytes) {
  if (packet->completed) {
    stats_.duplicate_responses++;  // injected duplicate or late retransmit
    return;
  }
  Result<Frame> frame = ParseFrame(bytes);
  if (!frame.ok() || frame->sequence != packet->sequence) {
    // Bit-flipped in flight (or a foreign frame): await the timer.
    stats_.corrupt_responses++;
    return;
  }
  if (options_.retry_budget > 0) {
    // Successes refill the retry budget, so a healthy system keeps its full
    // allowance and a failing one converges to the refill rate.
    retry_tokens_ = std::min(static_cast<double>(options_.retry_budget),
                             retry_tokens_ + kRetryRefillPerSuccess);
  }
  OnResponse(packet, frame->payload);
}

bool BatchClient::Complete(const PacketPtr& packet,
                           std::span<const uint8_t> results_payload) {
  Result<std::vector<KvResultMessage>> decoded = DecodeResults(results_payload);
  std::vector<KvResultMessage>& results = packet->flush->results;
  if (decoded.ok() && decoded->size() == packet->slots.size()) {
    for (size_t i = 0; i < decoded->size(); i++) {
      results[packet->slots[i]] = std::move((*decoded)[i]);
    }
  } else if (decoded.ok() && decoded->size() == 1 &&
             (*decoded)[0].code == ResultCode::kInvalidArgument) {
    // The server rejected the whole packet as malformed.
    for (const size_t slot : packet->slots) {
      results[slot] = (*decoded)[0];
    }
  } else {
    NoteCorruptResponse();  // checksum-valid but inconsistent: re-ask
    return false;
  }
  packet->completed = true;
  if (Tracer* rt = ActiveTracer()) {
    for (size_t i = 0; i < packet->traces.size(); i++) {
      const ResultCode code = results[packet->slots[i]].code;
      if (router_.busy_rounds > 0 && IsBusy(code)) {
        continue;  // bounced ops stay live: re-sent under a new sequence
      }
      rt->Finish(packet->traces[i], code);
    }
  }
  PacketDone(packet->flush);
  return true;
}

// Retransmission attempts exhausted (kTimedOut), the deadline passed, the
// budget ran dry, or the router gave up: surface the code on every operation
// in the packet and unblock the flush — callers get a status, not a dead
// process.
void BatchClient::Abandon(const PacketPtr& packet, ResultCode code) {
  packet->completed = true;  // late responses dedup instead of double-filling
  KvResultMessage failed;
  failed.code = code;
  for (const size_t slot : packet->slots) {
    packet->flush->results[slot] = failed;
  }
  if (Tracer* rt = ActiveTracer()) {
    for (const uint64_t handle : packet->traces) {
      rt->Finish(handle, code);
    }
  }
  PacketDone(packet->flush);
}

void BatchClient::Repack(const PacketPtr& packet) {
  packet->completed = true;  // stops the old frame's retransmission timer
  Send(packet->flush, packet->slots);
  PacketDone(packet->flush);
}

void BatchClient::PacketDone(const std::shared_ptr<FlushState>& flush) {
  if (--flush->outstanding == 0 && router_.busy_rounds > 0) {
    EndBusyRound(flush);
  }
  if (flush->outstanding == 0 && flush == flush_ && on_flush_done_) {
    on_flush_done_();
  }
}

void BatchClient::EndBusyRound(const std::shared_ptr<FlushState>& flush) {
  // Operations bounced with kBusy/kOverloaded are re-sent — and only those,
  // under new sequences: their effects did not happen, while the rest of the
  // packet already executed and must not run twice. An op whose deadline has
  // passed gives up as kDeadlineExceeded instead. Only the round just ended
  // can hold busy codes, so scanning every slot finds exactly its bounces.
  Tracer* rt = ActiveTracer();
  std::vector<size_t> busy;
  for (size_t slot = 0; slot < flush->results.size(); slot++) {
    KvResultMessage& result = flush->results[slot];
    if (!IsBusy(result.code)) {
      continue;
    }
    const SimTime deadline = flush->ops[slot].deadline;
    if (deadline != 0 && sim_.Now() >= deadline) {
      result.code = ResultCode::kDeadlineExceeded;
      if (rt != nullptr) {
        rt->Finish(flush->traces[slot], ResultCode::kDeadlineExceeded);
      }
      continue;
    }
    busy.push_back(slot);
  }
  if (busy.empty()) {
    return;
  }
  if (flush->busy_round >= router_.busy_rounds) {
    // Rounds exhausted: the still-busy operations time out instead of
    // retrying forever.
    KvResultMessage timed_out;
    timed_out.code = ResultCode::kTimedOut;
    for (const size_t slot : busy) {
      flush->results[slot] = timed_out;
      if (rt != nullptr) {
        rt->Finish(flush->traces[slot], ResultCode::kTimedOut);
      }
    }
    return;
  }
  const SimTime backoff = router_.busy_backoff << std::min(flush->busy_round, uint32_t{20});
  flush->busy_round++;
  stats_.busy_retries += busy.size();
  flush->outstanding++;  // the backoff holds the flush open
  const SimTime backoff_start = sim_.Now();
  sim_.Schedule(backoff, [this, flush, busy = std::move(busy), backoff_start] {
    if (Tracer* retry_tracer = ActiveTracer()) {
      for (const size_t slot : busy) {
        retry_tracer->Span(flush->traces[slot], SpanKind::kBusyRetry, backoff_start,
                           sim_.Now(), flush->busy_round);
      }
    }
    flush->outstanding--;
    Send(flush, busy);
  });
}

}  // namespace kvd
