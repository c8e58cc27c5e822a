// Multi-NIC deployment (paper §1, Table 3): "With 10 programmable NIC cards
// in a commodity server, we achieve 1.22 billion KV operations per second".
//
// Each NIC runs an independent KV processor over its own PCIe endpoints, its
// own partition of host memory and its own network port; there is no
// cross-NIC communication. The key space is partitioned by key hash, so
// clients route each operation to the owning NIC — the same sharding a
// multi-server deployment would use, which is why scaling is near-linear.
//
// MultiNicServer owns N KvDirectServer instances on one simulated clock and
// builds NICs 1..n into NIC 0's tracer, so one client trace resolves on
// whichever NIC executes it. MultiNicClient is a hash router over
// the batching client core: packets never mix NICs, and a mixed flush
// completes when the slowest NIC answers, matching the wall-clock behaviour
// of parallel hardware.
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
  // each NIC's partition (total capacity = num_nics x partition).
  MultiNicServer(uint32_t num_nics, const ServerConfig& per_nic_config);

  uint32_t num_nics() const { return static_cast<uint32_t>(nics_.size()); }
  KvDirectServer& nic(uint32_t i) { return *nics_[i]; }
  Simulator& simulator() { return sim_; }

  // The NIC owning `key` (stable hash partitioning).
  uint32_t OwnerOf(std::span<const uint8_t> key) const;

  // Untimed convenience across the cluster.
  Status Load(std::span<const uint8_t> key, std::span<const uint8_t> value);
  KvResultMessage Execute(const KvOperation& op);

  // Aggregate statistics.
  uint64_t TotalKvs() const;
  // Cluster-wide submission->retirement latency distribution: every NIC's
  // histogram merged exactly (Merge sums per-bucket counts, so quantiles over
  // the merged histogram equal quantiles over the pooled samples).
  LatencyHistogram MergedLatency();

 private:
  KeyRouter router_;
  Simulator sim_;
  std::vector<std::unique_ptr<KvDirectServer>> nics_;
};

// The multi-NIC router over the single-server client: a packet's bucket is
// the NIC that owns its keys, and its wire round trip is Client's, toward
// that NIC. Results return in Enqueue order.
class MultiNicClient : public Client {
 public:
  explicit MultiNicClient(MultiNicServer& cluster,
                          const Client::Options& options = Client::Options());

 private:
  uint32_t BucketOf(FlushState& flush, size_t slot) override {
    return cluster_.OwnerOf(flush.ops[slot].key);
  }
  KvDirectServer& ServerOf(const Packet& packet) override {
    return cluster_.nic(packet.bucket);
  }

  MultiNicServer& cluster_;
};

}  // namespace kvd

#endif  // SRC_CORE_MULTI_NIC_H_
