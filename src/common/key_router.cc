#include "src/common/key_router.h"

#include "src/common/assert.h"
#include "src/common/hashing.h"

namespace kvd {

namespace {
// Kept identical to the seed MultiNicServer::OwnerOf so existing multi-NIC
// placements (and their tests) are unchanged by the extraction.
constexpr uint64_t kPartitionSeed = 0x9c1c;
}  // namespace

KeyRouter::KeyRouter(uint32_t num_partitions) : num_partitions_(num_partitions) {
  KVD_CHECK(num_partitions >= 1);
}

uint64_t KeyRouter::Digest(std::span<const uint8_t> key) {
  return HashBytes(key, kPartitionSeed);
}

}  // namespace kvd
