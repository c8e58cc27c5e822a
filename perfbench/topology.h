// The benchmark's workloads and the topologies they run on.
//
// A workload names a topology (one server, one RF3 replication group, or a
// 4-group x RF3 cluster), a YCSB mix and the store sizing. `Topology` builds
// the servers and the framed production client (`Client`,
// `ReplicatedClient`, `ClusterClient`) behind the one `KvEndpoint`
// interface, loads the store, reads keys back untimed, and sums every
// server's public metric registry into one `SimCounters` snapshot.
#ifndef PERFBENCH_TOPOLOGY_H_
#define PERFBENCH_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/common/stats.h"
#include "src/core/kv_direct.h"
#include "src/replica/replication_group.h"
#include "src/transport/kv_endpoint.h"
#include "src/workload/ycsb.h"

namespace kvd {
namespace perfbench {

struct WorkloadSpec {
  enum class Kind : uint8_t { kServer, kGroup, kCluster };

  std::string_view name;
  Kind kind = Kind::kServer;
  uint64_t num_keys = 0;
  uint32_t key_bytes = 8;
  uint32_t value_bytes = 8;
  double get_ratio = 1.0;
  KeyDistribution distribution = KeyDistribution::kUniform;
  uint64_t kvs_memory_bytes = 0;  // per server
  uint64_t nic_dram_bytes = 0;    // per server
  // 256-op batches per phase: the fixed work every run times.
  uint64_t phase_flushes = 0;

  WorkloadConfig Ycsb(uint64_t seed) const;
  // The per-server configuration, tuned for the KV size and skew.
  ServerConfig Server(bool request_tracing) const;
};

// The fixed workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

// Simulated-side counters summed over every server (and group) of a
// topology. Differences of two snapshots give per-phase counts.
struct SimCounters {
  uint64_t events = 0;
  uint64_t hash_chain_follows = 0;
  uint64_t hash_false_hits = 0;
  uint64_t slab_allocs = 0;
  uint64_t slab_frees = 0;
  uint64_t slab_sync_dma = 0;
  uint64_t pcie_read_tlps = 0;
  uint64_t dram_hits = 0;
  uint64_t dram_misses = 0;
  uint64_t proc_retired = 0;
  uint64_t proc_fast_path = 0;
  uint64_t net_bytes_to_server = 0;
  uint64_t net_bytes_to_client = 0;
  uint64_t replayed_responses = 0;
  uint64_t entries_shipped = 0;
  uint64_t wrong_shard_bounces = 0;
  uint64_t map_fetches = 0;
  uint64_t retransmits = 0;

  SimCounters operator-(const SimCounters& base) const;
};

class Topology {
 public:
  Topology(const WorkloadSpec& spec, bool request_tracing);
  ~Topology();

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  KvEndpoint& endpoint() { return *client_; }
  Simulator& simulator() { return *sim_; }
  // The single server of a server workload; nullptr for groups and clusters.
  KvDirectServer* standalone_server() { return server_.get(); }

  // Untimed load into the owning server(s), as the topology's own Load does.
  Status Load(std::span<const uint8_t> key, std::span<const uint8_t> value);
  // Untimed functional read on the key's owning primary (the topology's
  // Execute).
  KvResultMessage Read(const KvOperation& op);
  // The server whose store holds `key` (the primary of its group).
  KvDirectServer& PrimaryFor(std::span<const uint8_t> key);

  SimCounters Counters() const;
  // Distributions and peaks that do not subtract: merged over servers.
  LatencyHistogram ProcLatencyNs() const;
  LatencyHistogram CommitWaitNs() const;
  uint64_t ReadTagsPeak() const;
  // Simulated ns per traced op spent in the stage ending at `stage`
  // (request tracing on); 0 when nothing was traced.
  double StageNsPerOp(TracePoint stage) const;

 private:
  std::vector<const LatencyBreakdown*> Breakdowns() const;
  uint64_t TracedOps() const;

  std::unique_ptr<KvDirectServer> server_;
  std::unique_ptr<ReplicationGroup> group_;
  std::unique_ptr<ClusterCoordinator> cluster_;
  Simulator* sim_ = nullptr;
  std::vector<KvDirectServer*> servers_;
  std::vector<ReplicationGroup*> groups_;
  // Declared last: the client is destroyed before what it talks to.
  std::unique_ptr<KvEndpoint> client_;
};

}  // namespace perfbench
}  // namespace kvd

#endif  // PERFBENCH_TOPOLOGY_H_
