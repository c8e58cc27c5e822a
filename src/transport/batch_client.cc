#include "src/transport/batch_client.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "src/common/assert.h"
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
                         ReliableSender::Stats* stats)
    : sim_(sim),
      options_(options),
      router_(router),
      stats_(*stats),
      next_sequence_(sequence_base),
      sender_(sim,
              ReliableSender::RetryPolicy{
                  .timeout = options.timeout,
                  .max_attempts = options.max_attempts,
                  .backoff_shift_cap = router.backoff_shift_cap,
                  .attempts_per_target = router.attempts_per_target,
                  .num_targets = router.num_targets,
                  // Sequence bases are unique per client, so each client
                  // gets its own deterministic jitter stream.
                  .jitter_seed = sequence_base,
                  .retry_budget = options.retry_budget},
              stats,
              [this](const ReliableSender::PacketPtr& packet) {
                auto p = std::static_pointer_cast<Packet>(packet);
                TraceAttempt(*p);
                Wire(p);
              },
              [this](const ReliableSender::PacketPtr& packet) {
                OnFail(std::static_pointer_cast<Packet>(packet));
              }) {
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
    buckets[BucketOf(flush->ops[slot])].push_back(slot);
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
             packet->slots.size() < router_.max_ops_per_packet &&
             builder.Add(flush->ops[members[next]])) {
        const KvOperation& op = flush->ops[members[next]];
        packet->slots.push_back(members[next++]);
        packet->is_write = packet->is_write || IsWriteOpcode(op.opcode);
        // The packet dies with its most urgent op: past that point the
        // sender stops retransmitting the whole frame.
        if (op.deadline != 0 && (packet->deadline == 0 || op.deadline < packet->deadline)) {
          packet->deadline = op.deadline;
        }
      }
      KVD_CHECK_MSG(!packet->slots.empty(), "operation exceeds the packet budget");
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
    sender_.Send(packet);
  }
}

void BatchClient::Reframe(Packet& packet) {
  std::vector<uint8_t> payload = RequestHeader(packet);
  KVD_CHECK(payload.size() == router_.header_bytes);
  payload.insert(payload.end(), packet.ops_payload.begin(), packet.ops_payload.end());
  packet.framed = FramePacket(packet.sequence, payload);
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

bool BatchClient::Receive(const PacketPtr& packet, std::vector<uint8_t> bytes) {
  std::optional<std::vector<uint8_t>> payload = sender_.AcceptResponse(packet, bytes);
  if (!payload.has_value()) {
    return false;  // duplicate, corrupt, or foreign frame — counted by the sender
  }
  OnResponse(packet, std::move(*payload));
  return packet->completed && !packet->failed;
}

bool BatchClient::Complete(const PacketPtr& packet,
                           const std::vector<uint8_t>& results_payload) {
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
    sender_.NoteCorruptResponse();  // checksum-valid but inconsistent: re-ask
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

void BatchClient::Abandon(const PacketPtr& packet, ResultCode code) {
  packet->fail_code = code;
  packet->failed = true;
  packet->completed = true;  // stops the retransmission timer
  OnFail(packet);
}

void BatchClient::Repack(const PacketPtr& packet) {
  packet->completed = true;  // stops the old frame's retransmission timer
  Send(packet->flush, packet->slots);
  PacketDone(packet->flush);
}

// The sender gave up on the packet: retransmission attempts exhausted
// (kTimedOut) or its deadline passed / budget ran dry. Surface the fail code
// on every operation in the packet and unblock the flush — callers get a
// status, not a dead process.
void BatchClient::OnFail(const PacketPtr& packet) {
  KvResultMessage failed;
  failed.code = packet->fail_code;
  for (const size_t slot : packet->slots) {
    packet->flush->results[slot] = failed;
  }
  if (Tracer* rt = ActiveTracer()) {
    for (const uint64_t handle : packet->traces) {
      rt->Finish(handle, packet->fail_code);
    }
  }
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
