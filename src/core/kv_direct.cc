#include "src/core/kv_direct.h"

#include <utility>

namespace kvd {

KvDirectServer::KvDirectServer(const ServerConfig& config, Simulator* external_sim,
                               Tracer* external_tracer)
    : runtime_(config, external_sim, external_tracer),
      endpoint_(runtime_.simulator(),
                {config.replay_cache_entries, config.replay_retain_time}) {
  // The transport endpoint's counters join the runtime's registry so one
  // exposition covers the whole node.
  MetricRegistry& metrics = runtime_.metrics_mutable();
  metrics.RegisterCounter("kvd_server_replayed_responses_total",
                          "Retransmitted requests answered from the replay cache",
                          {}, endpoint_.replayed_responses_counter());
  metrics.RegisterCounter("kvd_server_corrupt_frames_total",
                          "Request frames dropped on checksum failure", {},
                          endpoint_.corrupt_frames_counter());
  metrics.RegisterCounter("kvd_server_stale_retransmits_total",
                          "Retransmits dropped while the original executes", {},
                          endpoint_.stale_retransmits_counter());
  metrics.RegisterCounter("kvd_replay_evict_scan_steps_total",
                          "Replay-cache eviction queue entries examined", {},
                          endpoint_.evict_scan_steps_counter());
  metrics.RegisterGauge("kvd_server_batch_records_peak",
                        "Peak packets admitted and not yet answered", {},
                        [this] { return static_cast<double>(packets_.peak()); });
}

void KvDirectServer::Submit(KvOperation op, KvProcessor::Completion done) {
  runtime_.processor().Submit(std::move(op), std::move(done));
}

void KvDirectServer::Submit(KvOperation op, KvProcessor::Completion done,
                            OpClass cls) {
  runtime_.processor().Submit(std::move(op), std::move(done), cls);
}

void KvDirectServer::DeliverFrame(std::vector<uint8_t> packet,
                                  std::function<void(std::vector<uint8_t>)> respond) {
  // The endpoint drops corrupt frames (the client's retransmission timer
  // covers them), replays cached responses, and swallows retransmissions of
  // still-executing sequences; only genuinely new frames come back.
  std::optional<Frame> frame = endpoint_.Accept(packet, respond);
  if (!frame.has_value()) {
    return;
  }
  const uint64_t sequence = frame->sequence;
  endpoint_.Admit(sequence);
  PacketParser parser(std::move(frame->payload));
  std::vector<KvOperation> ops;
  while (true) {
    Result<std::optional<KvOperation>> next = parser.Next();
    if (!next.ok()) {
      // Malformed packet: respond with a single error result.
      KvResultMessage error;
      error.code = ResultCode::kInvalidArgument;
      respond(endpoint_.Complete(sequence, EncodeResults({error}), /*cache=*/true));
      return;
    }
    if (!next->has_value()) {
      break;
    }
    ops.push_back(std::move(**next));
  }
  if (ops.empty()) {
    respond(endpoint_.Complete(sequence, {}, /*cache=*/true));
    return;
  }
  // Collect results in request order; answer when the last one retires.
  const uint32_t batch = packets_.Open(ops.size());
  PacketReply& reply = packets_[batch].context;
  reply.sequence = sequence;
  reply.respond = std::move(respond);
  reply.tracer = nullptr;
  reply.traces.clear();
  if (runtime_.tracer().enabled()) {
    // Resolve each op's trace handle from the client-registered packet map
    // and stamp kServerReceive (first delivery wins, so retransmissions and
    // injected duplicates cannot move it).
    reply.tracer = &runtime_.tracer();
    reply.traces.resize(ops.size());
    for (size_t i = 0; i < ops.size(); i++) {
      const uint64_t handle = reply.tracer->LookupOp(sequence, i);
      reply.traces[i] = handle;
      ops[i].trace = handle;
      if (handle != 0) {
        reply.tracer->Point(handle, TracePoint::kServerReceive);
      }
    }
  }
  // Start every op's bucket-line miss before the first admission needs one.
  for (const KvOperation& op : ops) {
    runtime_.index().Prefetch(op.key);
  }
  for (size_t i = 0; i < ops.size(); i++) {
    runtime_.processor().Submit(std::move(ops[i]),
                                packets_.Completion(batch, static_cast<uint32_t>(i)));
  }
}

void KvDirectServer::AnswerPacket(uint32_t batch) {
  auto& record = packets_[batch];
  PacketReply& reply = record.context;
  if (reply.tracer != nullptr) {
    for (const uint64_t handle : reply.traces) {
      if (handle != 0) {
        reply.tracer->Point(handle, TracePoint::kResponseSent);
      }
    }
  }
  std::vector<uint8_t> response =
      endpoint_.Complete(reply.sequence, EncodeResults(record.results), /*cache=*/true);
  // Respond through a local: the call may deliver more frames, which can grow
  // the pool under `reply`.
  const std::function<void(std::vector<uint8_t>)> respond = std::move(reply.respond);
  respond(std::move(response));
}

KvResultMessage KvDirectServer::Execute(const KvOperation& op) {
  return runtime_.processor().ExecuteFunctional(op);
}

Status KvDirectServer::Load(std::span<const uint8_t> key,
                            std::span<const uint8_t> value) {
  return runtime_.index().Put(key, value);
}

Client::Client(KvDirectServer& server, const Options& options, uint64_t sequence_base)
    : BatchClient(server.simulator(), sequence_base, options,
                  {.max_ops_per_packet = options.max_ops_per_packet,
                   .backoff_shift_cap = 20,
                   .busy_rounds = 16,
                   .busy_backoff = 10 * kMicrosecond},
                  &stats_),
      server_(server) {}

// One wire round trip for the sender: frame copy to the server, framed
// delivery, framed response back to Receive. Fault sites on both wire
// directions may drop/duplicate/corrupt; the sender's timer recovers.
void Client::Wire(const PacketPtr& packet) {
  KvDirectServer& server = ServerOf(*packet);
  server.network().SendPayloadToServer(
      packet->framed,
      [this, &server, packet](std::vector<uint8_t> request) {
        server.DeliverFrame(
            std::move(request), [this, &server, packet](std::vector<uint8_t> response) {
              server.network().SendPayloadToClient(
                  std::move(response),
                  [this, packet](std::vector<uint8_t> delivered) {
                    Receive(packet, std::move(delivered));
                  },
                  packet->traces);
            });
      },
      packet->traces);
}

}  // namespace kvd
