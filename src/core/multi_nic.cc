#include "src/core/multi_nic.h"

#include <algorithm>

#include "src/common/assert.h"

namespace kvd {

MultiNicServer::MultiNicServer(uint32_t num_nics, const ServerConfig& per_nic_config)
    : router_(num_nics) {
  KVD_CHECK(num_nics >= 1);
  for (uint32_t i = 0; i < num_nics; i++) {
    nics_.push_back(std::make_unique<KvDirectServer>(
        per_nic_config, &sim_, i == 0 ? nullptr : &nics_[0]->tracer()));
  }
}

uint32_t MultiNicServer::OwnerOf(std::span<const uint8_t> key) const {
  return router_.PartitionOf(key);
}

Status MultiNicServer::Load(std::span<const uint8_t> key,
                            std::span<const uint8_t> value) {
  return nics_[OwnerOf(key)]->Load(key, value);
}

KvResultMessage MultiNicServer::Execute(const KvOperation& op) {
  return nics_[OwnerOf(op.key)]->Execute(op);
}

uint64_t MultiNicServer::TotalKvs() const {
  uint64_t total = 0;
  for (const auto& nic : nics_) {
    total += nic->index().num_kvs();
  }
  return total;
}

LatencyHistogram MultiNicServer::MergedLatency() {
  LatencyHistogram merged;
  for (const auto& nic : nics_) {
    merged.Merge(nic->processor().stats().latency_ns);
  }
  return merged;
}

namespace {

// A sequence base no NIC has handed out: each NIC's counter is advanced to
// the highest base any of them returns, so a plain Client created later on
// any NIC cannot collide with the router in that NIC's replay cache.
uint64_t SharedSequenceBase(MultiNicServer& cluster) {
  std::vector<uint64_t> bases(cluster.num_nics());
  for (uint32_t i = 0; i < cluster.num_nics(); i++) {
    bases[i] = cluster.nic(i).AcquireClientSequenceBase();
  }
  const uint64_t base = *std::max_element(bases.begin(), bases.end());
  for (uint32_t i = 0; i < cluster.num_nics(); i++) {
    while (bases[i] < base) {
      bases[i] = cluster.nic(i).AcquireClientSequenceBase();
    }
  }
  return base;
}

}  // namespace

MultiNicClient::MultiNicClient(MultiNicServer& cluster, const Client::Options& options)
    : Client(cluster.nic(0), options, SharedSequenceBase(cluster)), cluster_(cluster) {}

}  // namespace kvd
