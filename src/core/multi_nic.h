// Multi-NIC deployment (paper §1, Table 3): "With 10 programmable NIC cards
// in a commodity server, we achieve 1.22 billion KV operations per second".
//
// Each NIC runs an independent KV processor over its own PCIe endpoints and
// its own partition of host memory; there is no cross-NIC communication. The
// key space is partitioned by key hash, so clients route each operation to
// the owning NIC — the same sharding a multi-server deployment would use,
// which is why scaling is near-linear.
//
// MultiNicServer owns N independent KvDirectServer instances (each with its
// own simulator: the NICs share nothing). MultiNicClient routes operations
// and aggregates results; simulated time for a mixed batch is the maximum
// across the involved NICs, matching wall-clock behaviour of parallel
// hardware.
#ifndef SRC_CORE_MULTI_NIC_H_
#define SRC_CORE_MULTI_NIC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/key_router.h"
#include "src/core/kv_direct.h"

namespace kvd {

class MultiNicServer {
 public:
  // `per_nic_config` applies to every NIC; kvs_memory_bytes is the size of
  // each NIC's partition (total capacity = num_nics x partition). Passing
  // `shared_sim` runs every NIC on one clock instead of one simulator per
  // NIC — needed when the shards are composed with subsystems that exchange
  // messages across them (src/replica).
  MultiNicServer(uint32_t num_nics, const ServerConfig& per_nic_config,
                 Simulator* shared_sim = nullptr);

  uint32_t num_nics() const { return static_cast<uint32_t>(nics_.size()); }
  KvDirectServer& nic(uint32_t i) { return *nics_[i]; }

  // The NIC owning `key` (stable hash partitioning).
  uint32_t OwnerOf(std::span<const uint8_t> key) const;

  // Untimed convenience across the cluster.
  Status Load(std::span<const uint8_t> key, std::span<const uint8_t> value);
  KvResultMessage Execute(const KvOperation& op);

  // Aggregate statistics.
  uint64_t TotalKvs() const;
  uint64_t TotalRetired() const;
  // The slowest NIC's simulated clock — the wall-clock of the parallel rig.
  SimTime MaxSimTime() const;
  // Cluster-wide submission->retirement latency distribution: every NIC's
  // histogram merged exactly (Merge sums per-bucket counts, so quantiles over
  // the merged histogram equal quantiles over the pooled samples).
  LatencyHistogram MergedLatency();

 private:
  KeyRouter router_;
  std::vector<std::unique_ptr<KvDirectServer>> nics_;
};

// Routes client operations to the owning NIC over each NIC's network model.
class MultiNicClient : public KvEndpoint {
 public:
  explicit MultiNicClient(MultiNicServer& cluster,
                          const Client::Options& options = Client::Options());

  // Batched pipeline: ops are partitioned per NIC, flushed in parallel
  // (each NIC's simulator runs its own packets), and results return in
  // enqueue order.
  size_t Enqueue(KvOperation op) override;
  std::vector<KvResultMessage> Flush() override;

  // Cluster-wide transport stats: the per-NIC clients' counters summed.
  ReliableSender::Stats endpoint_stats() const override;
  // The slowest NIC's clock — the wall-clock of the parallel rig. The NICs
  // share nothing, so there is no single clock to Step(); Flush() drives
  // each NIC's simulator itself.
  SimTime now() const override { return cluster_.MaxSimTime(); }
  bool Step() override { return false; }

 private:
  MultiNicServer& cluster_;
  std::vector<std::unique_ptr<Client>> clients_;  // one per NIC
  std::vector<KvOperation> pending_;
};

}  // namespace kvd

#endif  // SRC_CORE_MULTI_NIC_H_
