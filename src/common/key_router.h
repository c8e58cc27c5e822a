// Stable hash partitioning of the key space across N owners.
//
// Both deployment layers route by key hash: MultiNicClient picks the NIC that
// owns a key's partition (paper §1, Table 3 — sharding across 10 NICs), and
// the cluster control plane (src/cluster) assigns partitions to replication
// groups through its ShardMap. They must agree byte-for-byte, so the logic
// lives here instead of being re-derived privately in each client.
//
// Hash contract (pinned by cluster_test.RoutingStability):
//   - PartitionOf(key) == HashBytes(key, 0x9c1c) % num_partitions. The seed
//     is a compile-time constant, distinct from the in-server bucket hash, so
//     the partition choice is independent of bucket placement inside the
//     owning server and identical in every process.
//   - HashBytes consumes key BYTES in little-endian lane order (no
//     host-endianness dependence), so two machines routing the same key bytes
//     always pick the same partition.
//   - Modulo refinement: h % 2N is either h % N or h % N + N, so doubling
//     num_partitions splits partition p into exactly {p, p + N}. The cluster
//     Rebalancer relies on this to split hot partitions without moving data:
//     both halves inherit p's owner, and only later migrations separate them.
#ifndef SRC_COMMON_KEY_ROUTER_H_
#define SRC_COMMON_KEY_ROUTER_H_

#include <cstdint>
#include <span>

namespace kvd {

class KeyRouter {
 public:
  explicit KeyRouter(uint32_t num_partitions);

  // The partition owning `key`; stable across calls and processes.
  uint32_t PartitionOf(std::span<const uint8_t> key) const {
    return PartitionOfDigest(Digest(key));
  }
  // PartitionOf in two steps: the key's routing digest, which is the same
  // for every partition count, so a client may keep it as its key hash;
  // and the partition owning a digest.
  static uint64_t Digest(std::span<const uint8_t> key);
  uint32_t PartitionOfDigest(uint64_t digest) const {
    return static_cast<uint32_t>(digest % num_partitions_);
  }

  uint32_t num_partitions() const { return num_partitions_; }

 private:
  uint32_t num_partitions_;
};

}  // namespace kvd

#endif  // SRC_COMMON_KEY_ROUTER_H_
