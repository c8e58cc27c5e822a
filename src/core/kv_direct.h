// Public entry points of the KV-Direct library.
//
// The layered architecture (DESIGN.md §11):
//   - KvDirectServer is one node: it assembles the subsystem stack of paper
//     Figure 2/4 — host memory holding the hash index and slab heap, the
//     PCIe DMA engine, the NIC DRAM load dispatcher, the reservation
//     station, the KV processor, and the 40 GbE network model — on one
//     discrete-event simulator, plus the node's observability (metrics and
//     the tracer, which owns the latency breakdown, the SLO monitor and the
//     flight recorder), in front of one FrameEndpoint (src/transport) that
//     terminates framed requests (checksum, replay dedup). A frame's ops
//     take one packet path: one record per packet that keeps the packet and
//     its op views, submit, and one answer once the last retires, encoded
//     by the node's PacketOwner. MultiNicServer NICs and ReplicationGroup
//     replicas are KvDirectServers on a shared simulator; a replica's client
//     frames terminate at its own endpoint, its reads and its writes take
//     its node's packet path, and the replica is its node's owner: it logs
//     each write as it retires and holds a write packet's answer until the
//     packet's log prefix commits.
//   - Client is the matching single-server router over the batching client
//     core (src/transport/batch_client.h), which owns client-side
//     retransmission: single synchronous operations for convenience, and
//     batched pipelined operations (the paper's client-side network
//     batching, Figure 15) for throughput.
#ifndef SRC_CORE_KV_DIRECT_H_
#define SRC_CORE_KV_DIRECT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/common/units.h"
#include "src/core/kv_processor.h"
#include "src/core/result_batch.h"
#include "src/core/update_functions.h"
#include "src/dram/load_dispatcher.h"
#include "src/dram/nic_dram.h"
#include "src/fault/fault_injector.h"
#include "src/hash/hash_index.h"
#include "src/mem/access_engine.h"
#include "src/mem/host_memory.h"
#include "src/net/network_model.h"
#include "src/net/wire_format.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"
#include "src/pcie/dma_engine.h"
#include "src/sim/record_pool.h"
#include "src/sim/simulator.h"
#include "src/transport/batch_client.h"
#include "src/transport/frame_endpoint.h"

namespace kvd {

struct ServerConfig {
  // KVS region in host memory (the paper reserves 64 GiB; scaled here).
  uint64_t kvs_memory_bytes = 64 * kMiB;
  double hash_index_ratio = 0.5;
  uint32_t inline_threshold_bytes = 10;
  uint32_t min_slab_bytes = 32;
  uint32_t max_slab_bytes = 512;

  DmaEngineConfig pcie;
  NicDramConfig nic_dram;
  DispatchPolicy dispatch_policy = DispatchPolicy::kHybrid;
  // < 0 selects the analytically optimal ratio for a uniform workload;
  // AutoTune sets it for the workload's skew.
  double dispatch_ratio = -1.0;

  NetworkConfig network;
  KvProcessorConfig processor;

  // Tracing (src/obs/tracer.h): per-request traces created at client send,
  // propagated through every layer, and aggregated into the latency
  // breakdown, the SLO monitor, and the flight recorder; plus the hardware
  // event timeline (DMA, dispatch, station, network) for Chrome trace export
  // and flight dumps. Off by default; when disabled every hook is one branch.
  // A node built into its owner's tracer ignores these three fields.
  bool enable_request_tracing = false;
  SloConfig slo;
  FlightRecorderConfig flight;

  // Deterministic fault injection across the network, PCIe, and NIC DRAM
  // models (src/fault). All-zero probabilities (the default) inject nothing.
  FaultPlan faults;
  // Server-side idempotent-replay cache for the framed request path: the
  // most recent N responses are kept so a retransmitted request is answered
  // from the cache instead of re-executing its (non-idempotent) operations.
  uint32_t replay_cache_entries = 4096;
  // Completed replay entries younger than this are never evicted, even when
  // the cache is over budget: a retransmission of a just-answered frame may
  // still be in flight, and evicting its entry would re-execute the ops.
  // The cache may temporarily exceed `replay_cache_entries` to honor this.
  SimTime replay_retain_time = 100 * kMillisecond;

  // Tunes hash_index_ratio / inline_threshold / dispatch_ratio for a workload
  // of `kv_bytes` key+value pairs, as §5.2.1 does before each benchmark.
  void AutoTune(uint32_t kv_bytes, bool long_tail);
};

// The owner of a node's packets: how each is answered, and what happens as
// its ops retire. Null (a plain server) answers a packet once its last op
// retired, with the results as EncodeResults lays them out. A replication
// group's replica (src/replica) wraps them with its epoch and its view of
// the primary and answers nothing once crashed; as primary it logs each
// write as it retires and holds a write packet's answer until the packet's
// log prefix commits.
class PacketOwner {
 public:
  virtual ~PacketOwner() = default;
  // The payload answering `results`, in request order (the owner may stamp
  // them), or nullopt to send no answer. `log_index` is the one the owner
  // passed to AnswerPacket, else 0.
  virtual std::optional<std::vector<uint8_t>> Encode(
      std::vector<KvResultMessage>& results, uint64_t log_index) = 0;
  // Op `slot` of packet record `batch` retired with `result`, which the
  // record stores next.
  virtual void OnRetire(uint32_t batch, uint32_t slot,
                        KvResultMessage& result) = 0;
  // The last op of `batch` retired. True releases the record, answered
  // (AnswerPacket) or not; false holds it until the owner answers and
  // releases it (ReleasePacket).
  virtual bool OnDone(uint32_t batch) = 0;
};

// A result a packet's slot already has: the owner's record of a write that
// executed before (a replica's session record). Lists of them are sorted by
// slot.
struct SlotResult {
  uint16_t slot = 0;
  KvResultMessage result;
};

class KvDirectServer {
 public:
  using Responder = FrameEndpoint::Responder;

  // By default the server owns its simulator and its tracer. Passing
  // `external_sim` puts several servers on one clock — required when they
  // exchange messages (MultiNicServer shards, src/replica replication
  // groups) — and passing the clock owner's `external_tracer` makes the
  // server record into it instead of building its own. `owner` (borrowed,
  // null for a plain server) owns the node's packets and encodes every
  // answer the node sends.
  explicit KvDirectServer(const ServerConfig& config,
                          Simulator* external_sim = nullptr,
                          Tracer* external_tracer = nullptr,
                          PacketOwner* owner = nullptr);

  KvDirectServer(const KvDirectServer&) = delete;
  KvDirectServer& operator=(const KvDirectServer&) = delete;

  // --- timed paths ---
  // Submits one operation directly to the KV processor (no network). The
  // server holds `op` in a pooled record until `done` fires, and the
  // processor borrows its bytes from there: the one place an owned op enters
  // the processor. The explicit-class overload lets callers mark control
  // traffic exempt from admission shedding.
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
  void DeliverFrame(std::vector<uint8_t> packet, Responder respond);
  // DeliverFrame's packet step, for an owner that terminated and admitted
  // frame `sequence` at endpoint() itself (a replica). OpenPacket makes the
  // packet's record, which keeps `packet` and its op views `ops` (non-empty)
  // until the answer, and stamps each op's arrival. ExecutePacket fills in
  // the slots `answered` already holds (write slots only), submits the
  // other ops, and returns how many it filled in; the owner may park a
  // record between the two. ServePacket does both at once.
  uint32_t OpenPacket(uint64_t sequence, std::span<const KvOpView> ops,
                      std::vector<uint8_t> packet, Responder respond);
  uint32_t ExecutePacket(uint32_t batch,
                         std::span<const SlotResult> answered = {});
  void ServePacket(uint64_t sequence, std::span<const KvOpView> ops,
                   std::vector<uint8_t> packet, Responder respond) {
    ExecutePacket(OpenPacket(sequence, ops, std::move(packet), std::move(respond)));
  }
  // For the packet's owner: record `batch`'s frame sequence and op views;
  // its answer, encoded with `log_index`, which stamps kResponseSent; and
  // the release of a record the owner held or parked.
  uint64_t packet_sequence(uint32_t batch) { return packets_[batch].context.sequence; }
  std::span<const KvOpView> packet_ops(uint32_t batch) {
    return packets_[batch].context.ops;
  }
  void AnswerPacket(uint32_t batch, uint64_t log_index = 0);
  void ReleasePacket(uint32_t batch) { packets_.Release(batch); }

  // --- untimed convenience (warm-up fills, tests) ---
  KvResultMessage Execute(const KvOperation& op);
  Status Load(std::span<const uint8_t> key, std::span<const uint8_t> value);

  // --- component access for benchmarks and diagnostics ---
  Simulator& simulator() { return sim_; }
  KvProcessor& processor() { return *processor_; }
  HashIndex& index() { return *index_; }
  SlabAllocator& allocator() { return *allocator_; }
  LoadDispatcher& dispatcher() { return *dispatcher_; }
  DmaEngine& dma() { return *dma_; }
  NicDram& nic_dram() { return *nic_dram_; }
  NetworkModel& network() { return *network_; }
  UpdateFunctionRegistry& registry() { return registry_; }
  FaultInjector& faults() { return *fault_; }
  const ServerConfig& config() const { return config_; }
  uint64_t replayed_responses() const { return endpoint_.stats().replayed_responses; }
  uint64_t corrupt_frames() const { return endpoint_.stats().corrupt_frames; }
  uint64_t stale_retransmits() const { return endpoint_.stats().stale_retransmits; }
  // The node's wire end. A replication group answers its replica's client
  // frames through it, so each node counts its own replays once.
  FrameEndpoint& endpoint() { return endpoint_; }
  // Packet records held: packets in the packet step and not yet answered or
  // dropped, and their high-water mark.
  uint32_t packets_live() const { return packets_.live(); }
  uint32_t packets_peak() const { return packets_.peak(); }
  // Hands each client a disjoint 2^40-sequence space so frames from
  // different clients never collide in the replay cache.
  uint64_t AcquireClientSequenceBase() { return ++next_client_id_ << 40; }
  const AccessStats& memory_stats() const { return engine_->stats(); }
  // The store arena: hash index plus slab heap.
  const HostMemory& memory() const { return *memory_; }
  // Makes this node's store a copy of `source`'s, untimed: the arena (only
  // the pages that differ), the slab allocator and its host daemon, the
  // index counts and stats, and the access counts. Nothing else of the node
  // changes. The store configs must be equal. A replication group uses it
  // to seed replicas from one preloaded replica (DESIGN.md §9).
  void CloneStoreFrom(const KvDirectServer& source);
  // Every subsystem's counters, gauges, and histograms (Prometheus / JSON /
  // plain-text exposition).
  const MetricRegistry& metrics() const { return metrics_; }
  // Tracing; enable via ServerConfig::enable_request_tracing. `tracer()` is
  // the server's own, or the owner's it was built into.
  Tracer& tracer() { return tracer_; }
  FlightRecorder& flight_recorder() { return tracer_.flight_recorder(); }
  LatencyBreakdown& breakdown() { return tracer_.breakdown(); }
  SloMonitor& slo_monitor() { return tracer_.slo_monitor(); }

 private:
  // What answering a delivered frame takes: its sequence and the
  // transport's respond. It also holds the packet and its ops, views of it
  // carrying (tracing on) each op's trace handle: the processor borrows an
  // op's bytes until its admission, and the owner reads the op as it
  // retires.
  struct PacketReply {
    uint64_t sequence = 0;
    std::vector<uint8_t> packet;
    Responder respond;
    std::vector<KvOpView> ops;
  };
  // An op submitted through Submit(KvOperation, ...), held until it retires.
  struct OwnedOp {
    KvOperation op;
    KvProcessor::Completion done;
  };
  // Encodes `results` through the owner; nullopt sends nothing.
  std::optional<std::vector<uint8_t>> EncodeAnswer(
      std::vector<KvResultMessage>& results, uint64_t log_index = 0);

  ServerConfig config_;
  // Null when running on an external (shared) simulator; sim_ aliases either
  // the owned instance or the external one. Declared before every member
  // that captures Simulator& at construction.
  std::unique_ptr<Simulator> owned_sim_;
  Simulator& sim_;
  MetricRegistry metrics_;
  // Null when recording into an external tracer; tracer_ aliases either.
  std::unique_ptr<Tracer> owned_tracer_;
  Tracer& tracer_;
  UpdateFunctionRegistry registry_;
  // The subsystem stack, built in the constructor in this order.
  std::unique_ptr<HostMemory> memory_;
  std::unique_ptr<AccessEngine> engine_;
  std::unique_ptr<SlabAllocator> allocator_;
  std::unique_ptr<HashIndex> index_;
  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<DmaEngine> dma_;
  std::unique_ptr<NicDram> nic_dram_;
  std::unique_ptr<LoadDispatcher> dispatcher_;
  std::unique_ptr<NetworkModel> network_;
  std::unique_ptr<KvProcessor> processor_;
  FrameEndpoint endpoint_;
  PacketOwner* owner_;
  // A plain server answers each packet once its last op retired; an owner
  // acts at each retirement and decides when.
  ResultBatches<PacketReply> packets_;
  RecordPool<OwnedOp> owned_ops_;
  // DeliverFrame's decoded ops, and the packet step's key hashes, taken once
  // per submitted op for the prefetch and the admission both.
  std::vector<KvOpView> ops_;
  std::vector<KeyHash> key_hashes_;
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
