#include "perfbench/topology.h"

#include <algorithm>
#include <string>

#include "src/cluster/cluster_client.h"
#include "src/common/assert.h"
#include "src/replica/replicated_client.h"

namespace kvd {
namespace perfbench {
namespace {

constexpr uint32_t kGroups = 4;
constexpr uint32_t kPartitions = 16;

uint64_t Counter(const MetricRegistry& registry, std::string_view name,
                 const MetricLabels& labels = {}) {
  return registry.CounterValue(name, labels).value_or(0);
}

// Sums a counter over the PCIe links a DMA engine registered (pcie0, ...).
uint64_t SumOverLinks(const MetricRegistry& registry, std::string_view name) {
  uint64_t sum = 0;
  for (int link = 0;; link++) {
    const std::optional<uint64_t> value =
        registry.CounterValue(name, {{"link", "pcie" + std::to_string(link)}});
    if (!value) {
      return sum;
    }
    sum += *value;
  }
}

}  // namespace

WorkloadConfig WorkloadSpec::Ycsb(uint64_t seed) const {
  WorkloadConfig config;
  config.num_keys = num_keys;
  config.key_bytes = key_bytes;
  config.value_bytes = value_bytes;
  config.get_ratio = get_ratio;
  config.distribution = distribution;
  config.seed = seed;
  return config;
}

ServerConfig WorkloadSpec::Server(bool request_tracing) const {
  ServerConfig config;
  config.kvs_memory_bytes = kvs_memory_bytes;
  config.nic_dram.capacity_bytes = nic_dram_bytes;
  config.AutoTune(key_bytes + value_bytes,
                  distribution == KeyDistribution::kLongTail);
  config.enable_request_tracing = request_tracing;
  return config;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {.name = "server_ycsbb_uniform_16B",
       .kind = WorkloadSpec::Kind::kServer,
       .num_keys = 1000000,
       .key_bytes = 8,
       .value_bytes = 8,
       .get_ratio = 0.95,
       .distribution = KeyDistribution::kUniform,
       .kvs_memory_bytes = 64 * kMiB,
       .nic_dram_bytes = 4 * kMiB,
       // Enough batches that seed-to-seed throughput differences stay small.
       .phase_flushes = 2048},
      {.name = "rf3_ycsba_zipf_60B",
       .kind = WorkloadSpec::Kind::kGroup,
       .num_keys = 100000,
       .key_bytes = 8,
       .value_bytes = 52,
       .get_ratio = 0.5,
       .distribution = KeyDistribution::kLongTail,
       .kvs_memory_bytes = 16 * kMiB,
       .nic_dram_bytes = 4 * kMiB,
       // Enough batches that seed-to-seed throughput differences stay small.
       .phase_flushes = 2048},
      {.name = "cluster_ycsba_zipf_60B",
       .kind = WorkloadSpec::Kind::kCluster,
       .num_keys = 100000,
       .key_bytes = 8,
       .value_bytes = 52,
       .get_ratio = 0.5,
       .distribution = KeyDistribution::kLongTail,
       .kvs_memory_bytes = 16 * kMiB,
       .nic_dram_bytes = 4 * kMiB,
       // The client's per-packet routing scans every key it has written, so
       // host time per op grows through the phase; half the batches keep a
       // run near the others' length.
       .phase_flushes = 512},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

SimCounters SimCounters::operator-(const SimCounters& base) const {
  SimCounters d;
  d.events = events - base.events;
  d.hash_chain_follows = hash_chain_follows - base.hash_chain_follows;
  d.hash_false_hits = hash_false_hits - base.hash_false_hits;
  d.slab_allocs = slab_allocs - base.slab_allocs;
  d.slab_frees = slab_frees - base.slab_frees;
  d.slab_sync_dma = slab_sync_dma - base.slab_sync_dma;
  d.pcie_read_tlps = pcie_read_tlps - base.pcie_read_tlps;
  d.dram_hits = dram_hits - base.dram_hits;
  d.dram_misses = dram_misses - base.dram_misses;
  d.proc_retired = proc_retired - base.proc_retired;
  d.proc_fast_path = proc_fast_path - base.proc_fast_path;
  d.net_bytes_to_server = net_bytes_to_server - base.net_bytes_to_server;
  d.net_bytes_to_client = net_bytes_to_client - base.net_bytes_to_client;
  d.replayed_responses = replayed_responses - base.replayed_responses;
  d.entries_shipped = entries_shipped - base.entries_shipped;
  d.wrong_shard_bounces = wrong_shard_bounces - base.wrong_shard_bounces;
  d.map_fetches = map_fetches - base.map_fetches;
  d.retransmits = retransmits - base.retransmits;
  return d;
}

Topology::Topology(const WorkloadSpec& spec, bool request_tracing) {
  // Replication groups trace through one group-level tracer; only a
  // standalone server enables its own.
  const ServerConfig server_config =
      spec.Server(request_tracing && spec.kind == WorkloadSpec::Kind::kServer);
  switch (spec.kind) {
    case WorkloadSpec::Kind::kServer: {
      server_ = std::make_unique<KvDirectServer>(server_config);
      sim_ = &server_->simulator();
      servers_.push_back(server_.get());
      client_ = std::make_unique<Client>(*server_);
      return;
    }
    case WorkloadSpec::Kind::kGroup: {
      ReplicationConfig config;
      config.num_replicas = 3;
      config.server = server_config;
      config.enable_request_tracing = request_tracing;
      group_ = std::make_unique<ReplicationGroup>(config);
      sim_ = &group_->simulator();
      groups_.push_back(group_.get());
      client_ = std::make_unique<ReplicatedClient>(*group_);
      break;
    }
    case WorkloadSpec::Kind::kCluster: {
      ClusterConfig config;
      config.num_groups = kGroups;
      config.num_partitions = kPartitions;
      config.group.num_replicas = 3;
      config.group.server = server_config;
      config.group.enable_request_tracing = request_tracing;
      config.enable_request_tracing = request_tracing;
      cluster_ = std::make_unique<ClusterCoordinator>(config);
      sim_ = &cluster_->simulator();
      for (uint32_t g = 0; g < cluster_->num_groups(); g++) {
        groups_.push_back(&cluster_->group(g));
      }
      client_ = std::make_unique<ClusterClient>(*cluster_);
      break;
    }
  }
  for (ReplicationGroup* group : groups_) {
    for (uint32_t r = 0; r < group->num_replicas(); r++) {
      servers_.push_back(&group->replica(r));
    }
  }
}

Topology::~Topology() = default;

Status Topology::Load(std::span<const uint8_t> key,
                      std::span<const uint8_t> value) {
  if (server_ != nullptr) {
    return server_->Load(key, value);
  }
  if (group_ != nullptr) {
    return group_->Load(key, value);
  }
  return cluster_->Load(key, value);
}

KvResultMessage Topology::Read(const KvOperation& op) {
  if (server_ != nullptr) {
    return server_->Execute(op);
  }
  if (group_ != nullptr) {
    return group_->Execute(op);
  }
  const ShardMap& map = cluster_->shard_map();
  return cluster_->group(map.OwnerOf(map.router().PartitionOf(op.key)))
      .Execute(op);
}

KvDirectServer& Topology::PrimaryFor(std::span<const uint8_t> key) {
  if (server_ != nullptr) {
    return *server_;
  }
  ReplicationGroup* group = group_.get();
  if (group == nullptr) {
    const ShardMap& map = cluster_->shard_map();
    group = &cluster_->group(map.OwnerOf(map.router().PartitionOf(key)));
  }
  return group->replica(group->primary_id());
}

SimCounters Topology::Counters() const {
  SimCounters c;
  c.events = sim_->executed_events();
  for (const KvDirectServer* server : servers_) {
    const MetricRegistry& m = server->metrics();
    c.hash_chain_follows += Counter(m, "kvd_store_chain_follows_total");
    c.hash_false_hits += Counter(m, "kvd_store_secondary_false_hits_total");
    c.slab_allocs += Counter(m, "kvd_slab_allocations_total");
    c.slab_frees += Counter(m, "kvd_slab_frees_total");
    c.slab_sync_dma += Counter(m, "kvd_slab_sync_dma_total", {{"direction", "read"}}) +
                       Counter(m, "kvd_slab_sync_dma_total", {{"direction", "write"}});
    c.pcie_read_tlps += SumOverLinks(m, "kvd_pcie_read_tlps_total");
    c.dram_hits += Counter(m, "kvd_dispatch_dram_hits_total");
    c.dram_misses += Counter(m, "kvd_dispatch_dram_misses_total");
    c.proc_retired += Counter(m, "kvd_proc_retired_total");
    c.proc_fast_path += Counter(m, "kvd_proc_fast_path_total");
    c.net_bytes_to_server +=
        Counter(m, "kvd_net_bytes_total", {{"direction", "to_server"}});
    c.net_bytes_to_client +=
        Counter(m, "kvd_net_bytes_total", {{"direction", "to_client"}});
    c.replayed_responses += Counter(m, "kvd_server_replayed_responses_total");
  }
  for (const ReplicationGroup* group : groups_) {
    const MetricRegistry& m = group->metrics();
    c.replayed_responses += Counter(m, "kvd_repl_replayed_responses_total");
    c.entries_shipped += Counter(m, "kvd_repl_entries_shipped_total");
    c.wrong_shard_bounces += Counter(m, "kvd_repl_wrong_shard_total");
  }
  if (cluster_ != nullptr) {
    c.map_fetches = Counter(cluster_->metrics(), "kvd_cluster_map_fetches_total");
  }
  c.retransmits = client_->endpoint_stats().retransmits;
  return c;
}

LatencyHistogram Topology::ProcLatencyNs() const {
  LatencyHistogram merged;
  for (const KvDirectServer* server : servers_) {
    merged.Merge(server->metrics().HistogramValue("kvd_proc_latency_ns").value());
  }
  return merged;
}

LatencyHistogram Topology::CommitWaitNs() const {
  LatencyHistogram merged;
  for (const ReplicationGroup* group : groups_) {
    merged.Merge(group->commit_wait_ns());
  }
  return merged;
}

uint64_t Topology::ReadTagsPeak() const {
  double peak = 0;
  for (const KvDirectServer* server : servers_) {
    peak = std::max(
        peak, server->metrics().GaugeValue("kvd_dma_read_tags_peak").value_or(0));
  }
  return static_cast<uint64_t>(peak);
}

std::vector<const LatencyBreakdown*> Topology::Breakdowns() const {
  std::vector<const LatencyBreakdown*> breakdowns;
  if (server_ != nullptr) {
    breakdowns.push_back(&server_->breakdown());
  }
  for (ReplicationGroup* group : groups_) {
    breakdowns.push_back(&group->breakdown());
  }
  return breakdowns;
}

uint64_t Topology::TracedOps() const {
  uint64_t ops = 0;
  for (const LatencyBreakdown* breakdown : Breakdowns()) {
    for (size_t op = 0; op < LatencyBreakdown::kNumOpcodes; op++) {
      ops += breakdown->EndToEnd(static_cast<Opcode>(op)).count();
    }
  }
  return ops;
}

double Topology::StageNsPerOp(TracePoint stage) const {
  double total_ns = 0;
  for (const LatencyBreakdown* breakdown : Breakdowns()) {
    for (size_t op = 0; op < LatencyBreakdown::kNumOpcodes; op++) {
      const LatencyHistogram& h = breakdown->Stage(static_cast<Opcode>(op), stage);
      total_ns += h.mean() * static_cast<double>(h.count());
    }
  }
  const uint64_t ops = TracedOps();
  return ops > 0 ? total_ns / static_cast<double>(ops) : 0.0;
}

}  // namespace perfbench
}  // namespace kvd
