// NodeRuntime: the assembled per-node subsystem stack.
//
// One runtime is the full system of paper Figure 2/4 — host memory holding
// the hash index and slab heap, the PCIe DMA engine, the NIC DRAM load
// dispatcher, the reservation station, the KV processor, and the 40 GbE
// network model — wired to one discrete-event simulator plus the node's
// observability (metrics and the tracer, which owns the latency breakdown,
// the SLO monitor and the flight recorder).
//
// The runtime is the composable unit of the layered architecture: a
// standalone KvDirectServer embeds exactly one; MultiNicServer shards and
// ReplicationGroup replicas each embed one per node on a shared simulator.
// The runtime contains no protocol state — framing, replay dedup, and retry
// live in src/transport and are attached by the embedding server.
#ifndef SRC_CORE_NODE_RUNTIME_H_
#define SRC_CORE_NODE_RUNTIME_H_

#include <cstdint>
#include <memory>

#include "src/alloc/slab_allocator.h"
#include "src/common/units.h"
#include "src/core/kv_processor.h"
#include "src/core/update_functions.h"
#include "src/dram/load_dispatcher.h"
#include "src/dram/nic_dram.h"
#include "src/fault/fault_injector.h"
#include "src/hash/hash_index.h"
#include "src/mem/access_engine.h"
#include "src/mem/host_memory.h"
#include "src/net/network_model.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"
#include "src/pcie/dma_engine.h"
#include "src/sim/simulator.h"

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
  // < 0 selects the analytically optimal ratio for the workload skew.
  double dispatch_ratio = -1.0;
  bool long_tail_workload = false;

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

class NodeRuntime {
 public:
  // By default the runtime owns its simulator and its tracer. Passing
  // `external_sim` puts several nodes on one clock — required when they
  // exchange messages (MultiNicServer shards, src/replica replication
  // groups); passing the clock owner's `external_tracer` as well makes the
  // node record into it, so one trace resolves on whichever node serves it.
  explicit NodeRuntime(const ServerConfig& config,
                       Simulator* external_sim = nullptr,
                       Tracer* external_tracer = nullptr);

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

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
  const AccessStats& memory_stats() const { return direct_engine_->stats(); }
  // The store arena: hash index plus slab heap.
  const HostMemory& memory() const { return *memory_; }

  // Makes this node's store a copy of `source`'s, untimed: the arena (only
  // the pages that differ), the slab allocator and its host daemon, the
  // index counts and stats, and the access counts. Nothing else of the node
  // changes. The store configs must be equal. A replication group uses it
  // to seed replicas from one preloaded replica (DESIGN.md §9).
  void CloneStoreFrom(const NodeRuntime& source);
  const MetricRegistry& metrics() const { return metrics_; }
  // Mutable registry for the embedding server's own counters (the transport
  // endpoint's replay stats, for example).
  MetricRegistry& metrics_mutable() { return metrics_; }

  // The node's own tracer, or the owner's it was built into.
  Tracer& tracer() { return tracer_; }

 private:
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
  std::unique_ptr<HostMemory> memory_;
  std::unique_ptr<DirectEngine> direct_engine_;
  std::unique_ptr<TraceRecordingEngine> trace_engine_;
  std::unique_ptr<SlabAllocator> allocator_;
  std::unique_ptr<HashIndex> index_;
  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<DmaEngine> dma_;
  std::unique_ptr<NicDram> nic_dram_;
  std::unique_ptr<LoadDispatcher> dispatcher_;
  std::unique_ptr<NetworkModel> network_;
  std::unique_ptr<KvProcessor> processor_;
};

}  // namespace kvd

#endif  // SRC_CORE_NODE_RUNTIME_H_
