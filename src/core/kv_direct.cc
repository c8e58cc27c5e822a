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
  auto reply = [this, sequence, respond = std::move(respond)](
                   const std::vector<uint8_t>& results) {
    respond(endpoint_.Complete(sequence, results, /*cache=*/true));
  };
  PacketParser parser(std::move(frame->payload));
  std::vector<KvOperation> ops;
  while (true) {
    Result<std::optional<KvOperation>> next = parser.Next();
    if (!next.ok()) {
      // Malformed packet: respond with a single error result.
      KvResultMessage error;
      error.code = ResultCode::kInvalidArgument;
      reply(EncodeResults({error}));
      return;
    }
    if (!next->has_value()) {
      break;
    }
    ops.push_back(std::move(**next));
  }
  if (ops.empty()) {
    reply({});
    return;
  }
  // Collect results in request order; respond when the last one retires.
  struct PacketState {
    std::vector<KvResultMessage> results;
    std::vector<uint64_t> traces;
    size_t remaining;
    std::function<void(const std::vector<uint8_t>&)> reply;
    Tracer* tracer = nullptr;
  };
  auto state = std::make_shared<PacketState>();
  state->results.resize(ops.size());
  state->remaining = ops.size();
  state->reply = std::move(reply);
  if (runtime_.tracer().enabled()) {
    // Resolve each op's trace handle from the client-registered packet map
    // and stamp kServerReceive (first delivery wins, so retransmissions and
    // injected duplicates cannot move it).
    state->tracer = &runtime_.tracer();
    state->traces.resize(ops.size());
    for (size_t i = 0; i < ops.size(); i++) {
      const uint64_t handle = state->tracer->LookupOp(sequence, i);
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
        state->reply(EncodeResults(state->results));
      }
    });
  }
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
