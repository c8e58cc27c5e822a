// Public entry points of the KV-Direct library.
//
// The layered architecture (DESIGN.md §11):
//   - NodeRuntime (src/core/node_runtime.h) assembles the per-node subsystem
//     stack of paper Figure 2/4 — memory, index, allocator, DMA, NIC DRAM,
//     dispatcher, processor, network — on one simulator.
//   - The transport layer (src/transport) owns reliability: FrameEndpoint
//     terminates framed requests server-side (checksum, replay dedup);
//     ReliableSender drives client-side retransmission.
//   - KvDirectServer composes one runtime with one frame endpoint; Client is
//     the matching single-server router over the batching client core
//     (src/transport/batch_client.h): single synchronous operations for
//     convenience, and batched pipelined operations (the paper's client-side
//     network batching, Figure 15) for throughput.
#ifndef SRC_CORE_KV_DIRECT_H_
#define SRC_CORE_KV_DIRECT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/units.h"
#include "src/core/node_runtime.h"
#include "src/core/result_batch.h"
#include "src/net/wire_format.h"
#include "src/transport/batch_client.h"
#include "src/transport/frame_endpoint.h"

namespace kvd {

class KvDirectServer {
 public:
  // By default the server owns its simulator and its tracer. Passing
  // `external_sim` puts several servers on one clock — required when they
  // exchange messages (MultiNicServer shards, src/replica replication
  // groups) — and passing the clock owner's `external_tracer` makes the
  // server record into it instead of building its own.
  explicit KvDirectServer(const ServerConfig& config,
                          Simulator* external_sim = nullptr,
                          Tracer* external_tracer = nullptr);

  KvDirectServer(const KvDirectServer&) = delete;
  KvDirectServer& operator=(const KvDirectServer&) = delete;

  // --- timed paths ---
  // Submits one operation directly to the KV processor (no network). The
  // explicit-class overload lets callers mark control traffic (replication
  // applies) exempt from admission shedding.
  void Submit(KvOperation op, KvProcessor::Completion done);
  void Submit(KvOperation op, KvProcessor::Completion done, OpClass cls);
  // Delivers a framed client request ([sequence | checksum | ops payload]).
  // Frames that fail the checksum are dropped (the client retransmits on
  // timeout); a sequence seen before is answered from the replay cache
  // without re-executing, making retransmission idempotent. A new frame's
  // ops are submitted to the processor, and `respond` fires with the framed
  // response echoing the request sequence once every one has retired; a
  // malformed ops payload is answered with one kInvalidArgument result. With
  // tracing on, the sequence resolves each op's trace handle through the
  // tracer's packet registry and stamps the server-side checkpoints.
  void DeliverFrame(std::vector<uint8_t> packet,
                    std::function<void(std::vector<uint8_t>)> respond);

  // --- untimed convenience (warm-up fills, tests) ---
  KvResultMessage Execute(const KvOperation& op);
  Status Load(std::span<const uint8_t> key, std::span<const uint8_t> value);

  // --- component access for benchmarks and diagnostics ---
  NodeRuntime& runtime() { return runtime_; }
  Simulator& simulator() { return runtime_.simulator(); }
  KvProcessor& processor() { return runtime_.processor(); }
  HashIndex& index() { return runtime_.index(); }
  SlabAllocator& allocator() { return runtime_.allocator(); }
  LoadDispatcher& dispatcher() { return runtime_.dispatcher(); }
  DmaEngine& dma() { return runtime_.dma(); }
  NicDram& nic_dram() { return runtime_.nic_dram(); }
  NetworkModel& network() { return runtime_.network(); }
  UpdateFunctionRegistry& registry() { return runtime_.registry(); }
  FaultInjector& faults() { return runtime_.faults(); }
  const ServerConfig& config() const { return runtime_.config(); }
  uint64_t replayed_responses() const { return endpoint_.stats().replayed_responses; }
  uint64_t corrupt_frames() const { return endpoint_.stats().corrupt_frames; }
  uint64_t stale_retransmits() const { return endpoint_.stats().stale_retransmits; }
  const FrameEndpoint& frame_endpoint() const { return endpoint_; }
  // Hands each client a disjoint 2^40-sequence space so frames from
  // different clients never collide in the replay cache.
  uint64_t AcquireClientSequenceBase() { return ++next_client_id_ << 40; }
  const AccessStats& memory_stats() const { return runtime_.memory_stats(); }
  // Every subsystem's counters, gauges, and histograms (Prometheus / JSON /
  // plain-text exposition).
  const MetricRegistry& metrics() const { return runtime_.metrics(); }
  // Tracing; enable via ServerConfig::enable_request_tracing. `tracer()` is
  // the server's own, or the owner's it was built into.
  Tracer& tracer() { return runtime_.tracer(); }
  FlightRecorder& flight_recorder() { return tracer().flight_recorder(); }
  LatencyBreakdown& breakdown() { return tracer().breakdown(); }
  SloMonitor& slo_monitor() { return tracer().slo_monitor(); }

 private:
  // What answering a delivered frame takes: its sequence, the transport's
  // respond, and (tracing on) the tracer and each op's trace handle.
  struct PacketReply {
    uint64_t sequence = 0;
    std::function<void(std::vector<uint8_t>)> respond;
    Tracer* tracer = nullptr;
    std::vector<uint64_t> traces;
  };
  // Encodes a packet's results once its last op retired, and responds.
  void AnswerPacket(uint32_t batch);

  NodeRuntime runtime_;
  FrameEndpoint endpoint_;
  ResultBatches<PacketReply> packets_{
      [this](uint32_t batch) { AnswerPacket(batch); }};
  uint64_t next_client_id_ = 0;
};

// The single-server router over the batching client core: one bucket, no
// request header, framed delivery to the server's FrameEndpoint. Operations
// bounced with kBusy/kOverloaded are re-sent after a backoff (10 us, doubling
// per round) for up to 16 rounds, then time out. Synchronous calls
// (KvEndpoint::Get, ...) advance the simulator until their response arrives,
// so examples read like ordinary key-value code while every microsecond is
// accounted for.
class Client : public BatchClient {
 public:
  struct Options : BatchClient::Options {
    // 1 disables client-side batching entirely (Figure 15/17 ablation).
    uint32_t max_ops_per_packet = 0xffffffff;
  };

  // packets_sent: distinct frames (first transmissions); retransmits:
  // timeout-driven re-sends; busy_retries: ops re-sent after kBusy;
  // corrupt_responses / duplicate_responses: dropped response frames.
  using Stats = ReliableSender::Stats;

  explicit Client(KvDirectServer& server) : Client(server, Options()) {}
  Client(KvDirectServer& server, const Options& options)
      : Client(server, options, server.AcquireClientSequenceBase()) {}

  uint64_t packets_sent() const { return stats_.packets_sent; }
  const Stats& stats() const { return stats_; }

 protected:
  // For routers over several servers: `server` is the default target and
  // owns the tracer; `sequence_base` must be unused on every target.
  Client(KvDirectServer& server, const Options& options, uint64_t sequence_base);

  // The server a packet travels to.
  virtual KvDirectServer& ServerOf(const Packet& /*packet*/) { return server_; }

 private:
  void Wire(const PacketPtr& packet) override;
  Tracer* tracer() override { return &server_.tracer(); }

  KvDirectServer& server_;
  Stats stats_;
};

}  // namespace kvd

#endif  // SRC_CORE_KV_DIRECT_H_
