#include "src/core/multi_nic.h"

#include <algorithm>

#include "src/common/assert.h"

namespace kvd {

MultiNicServer::MultiNicServer(uint32_t num_nics, const ServerConfig& per_nic_config,
                               Simulator* shared_sim)
    : router_(num_nics) {
  KVD_CHECK(num_nics >= 1);
  for (uint32_t i = 0; i < num_nics; i++) {
    nics_.push_back(std::make_unique<KvDirectServer>(per_nic_config, shared_sim));
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

uint64_t MultiNicServer::TotalRetired() const {
  uint64_t total = 0;
  for (const auto& nic : nics_) {
    total += nic->processor().stats().retired;
  }
  return total;
}

SimTime MultiNicServer::MaxSimTime() const {
  SimTime latest = 0;
  for (const auto& nic : nics_) {
    latest = std::max(latest, nic->simulator().Now());
  }
  return latest;
}

LatencyHistogram MultiNicServer::MergedLatency() {
  LatencyHistogram merged;
  for (const auto& nic : nics_) {
    merged.Merge(nic->processor().stats().latency_ns);
  }
  return merged;
}

MultiNicClient::MultiNicClient(MultiNicServer& cluster, const Client::Options& options)
    : cluster_(cluster) {
  for (uint32_t i = 0; i < cluster.num_nics(); i++) {
    clients_.push_back(std::make_unique<Client>(cluster.nic(i), options));
  }
}

size_t MultiNicClient::Enqueue(KvOperation op) {
  pending_.push_back(std::move(op));
  return pending_.size() - 1;
}

std::vector<KvResultMessage> MultiNicClient::Flush() {
  std::vector<KvOperation> ops = std::move(pending_);
  pending_.clear();
  // Partition by owner, remembering each op's original position.
  std::vector<std::vector<size_t>> positions(clients_.size());
  for (size_t i = 0; i < ops.size(); i++) {
    const uint32_t owner = cluster_.OwnerOf(ops[i].key);
    positions[owner].push_back(i);
    clients_[owner]->Enqueue(std::move(ops[i]));
  }
  // Flush every NIC; each runs its own simulator (parallel hardware).
  std::vector<KvResultMessage> results(ops.size());
  for (uint32_t nic = 0; nic < clients_.size(); nic++) {
    std::vector<KvResultMessage> partial = clients_[nic]->Flush();
    KVD_CHECK(partial.size() == positions[nic].size());
    for (size_t i = 0; i < partial.size(); i++) {
      results[positions[nic][i]] = std::move(partial[i]);
    }
  }
  return results;
}

ReliableSender::Stats MultiNicClient::endpoint_stats() const {
  ReliableSender::Stats total;
  for (const auto& client : clients_) {
    total += client->stats();
  }
  return total;
}

}  // namespace kvd
