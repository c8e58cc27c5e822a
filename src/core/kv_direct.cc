#include "src/core/kv_direct.h"

#include <utility>

namespace kvd {

KvDirectServer::KvDirectServer(const ServerConfig& config, Simulator* external_sim)
    : runtime_(config, external_sim),
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
}

void KvDirectServer::Submit(KvOperation op, KvProcessor::Completion done) {
  runtime_.processor().Submit(std::move(op), std::move(done));
}

void KvDirectServer::Submit(KvOperation op, KvProcessor::Completion done,
                            OpClass cls) {
  runtime_.processor().Submit(std::move(op), std::move(done), cls);
}

void KvDirectServer::DeliverPacket(std::vector<uint8_t> payload,
                                   std::function<void(std::vector<uint8_t>)> respond,
                                   uint64_t traced_sequence) {
  PacketParser parser(std::move(payload));
  std::vector<KvOperation> ops;
  while (true) {
    Result<std::optional<KvOperation>> next = parser.Next();
    if (!next.ok()) {
      // Malformed packet: respond with a single error result.
      KvResultMessage error;
      error.code = ResultCode::kInvalidArgument;
      respond(EncodeResults({error}));
      return;
    }
    if (!next->has_value()) {
      break;
    }
    ops.push_back(std::move(**next));
  }
  if (ops.empty()) {
    respond({});
    return;
  }
  // Collect results in request order; respond when the last one retires.
  struct PacketState {
    std::vector<KvResultMessage> results;
    std::vector<uint64_t> traces;
    size_t remaining;
    std::function<void(std::vector<uint8_t>)> respond;
    Tracer* tracer = nullptr;
  };
  auto state = std::make_shared<PacketState>();
  state->results.resize(ops.size());
  state->remaining = ops.size();
  state->respond = std::move(respond);
  if (traced_sequence != 0 && runtime_.tracer().enabled()) {
    // Resolve each op's trace handle from the client-registered packet map
    // and stamp kServerReceive (first delivery wins, so retransmissions and
    // injected duplicates cannot move it).
    state->tracer = &runtime_.tracer();
    state->traces.resize(ops.size());
    for (size_t i = 0; i < ops.size(); i++) {
      const uint64_t handle = state->tracer->LookupOp(traced_sequence, i);
      state->traces[i] = handle;
      ops[i].trace = handle;
      if (handle != 0) {
        state->tracer->Point(handle, TracePoint::kServerReceive);
      }
    }
  }
  for (size_t i = 0; i < ops.size(); i++) {
    runtime_.processor().Submit(std::move(ops[i]), [state, i](KvResultMessage result) {
      state->results[i] = std::move(result);
      if (--state->remaining == 0) {
        if (state->tracer != nullptr) {
          for (const uint64_t handle : state->traces) {
            if (handle != 0) {
              state->tracer->Point(handle, TracePoint::kResponseSent);
            }
          }
        }
        state->respond(EncodeResults(state->results));
      }
    });
  }
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
  endpoint_.Admit(frame->sequence);
  const uint64_t sequence = frame->sequence;
  DeliverPacket(
      std::move(frame->payload),
      [this, sequence, respond = std::move(respond)](
          std::vector<uint8_t> response) {
        respond(endpoint_.Complete(sequence, response, /*cache=*/true));
      },
      /*traced_sequence=*/sequence);
}

KvResultMessage KvDirectServer::Execute(const KvOperation& op) {
  return runtime_.processor().ExecuteFunctional(op);
}

Status KvDirectServer::Load(std::span<const uint8_t> key,
                            std::span<const uint8_t> value) {
  return runtime_.index().Put(key, value);
}

Client::Client(KvDirectServer& server, const Options& options)
    : BatchClient(server.simulator(), server.AcquireClientSequenceBase(), options,
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
  server_.network().SendPayloadToServer(
      packet->framed,
      [this, packet](std::vector<uint8_t> request) {
        server_.DeliverFrame(
            std::move(request), [this, packet](std::vector<uint8_t> response) {
              server_.network().SendPayloadToClient(
                  std::move(response),
                  [this, packet](std::vector<uint8_t> delivered) {
                    Receive(packet, std::move(delivered));
                  },
                  packet->traces);
            });
      },
      packet->traces);
}

bool Client::SubmitPacket(std::vector<uint8_t> ops_payload,
                          std::function<void()> done) {
  stats_.packets_sent++;
  NetworkModel& network = server_.network();
  // The payload size must be read before the move below captures it (the
  // evaluation order of arguments vs. captures is unspecified).
  const auto payload_size = static_cast<uint32_t>(ops_payload.size());
  network.SendToServer(
      payload_size,
      [this, payload = std::move(ops_payload), done = std::move(done),
       &network]() mutable {
        server_.DeliverPacket(
            std::move(payload),
            [done = std::move(done), &network](std::vector<uint8_t> response) {
              const auto response_size = static_cast<uint32_t>(response.size());
              network.SendToClient(response_size,
                                   [done = std::move(done)] { done(); });
            });
      });
  return true;
}

}  // namespace kvd
