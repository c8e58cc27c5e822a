// Configuration shared by the NIC-side slab allocator and the host daemon.
#ifndef SRC_ALLOC_SLAB_CONFIG_H_
#define SRC_ALLOC_SLAB_CONFIG_H_

#include <bit>
#include <cstdint>

#include "src/common/assert.h"

namespace kvd {

struct SlabConfig {
  // Dynamic region inside host memory (follows the hash index).
  uint64_t region_base = 0;
  uint64_t region_size = 0;

  // Slab size classes are powers of two in [min_slab_bytes, max_slab_bytes].
  // The paper uses 32..512 B; vector values may enable larger classes.
  uint32_t min_slab_bytes = 32;
  uint32_t max_slab_bytes = 512;

  // NIC-side free-slab stack per class (on-chip; entries, not bytes).
  uint32_t nic_stack_capacity = 256;
  // Entries moved per DMA sync with the host-side stack (paper: batching
  // amortizes to <0.07 DMA per allocation).
  uint32_t sync_batch = 32;
  // Fetch from host when the NIC stack drops below `low_watermark`; flush to
  // host when it rises above `high_watermark`.
  uint32_t low_watermark = 8;
  uint32_t high_watermark = 224;

  bool operator==(const SlabConfig&) const = default;

  uint8_t NumClasses() const {
    return static_cast<uint8_t>(std::countr_zero(max_slab_bytes) -
                                std::countr_zero(min_slab_bytes) + 1);
  }
  uint32_t ClassBytes(uint8_t cls) const { return min_slab_bytes << cls; }
  uint8_t ClassFor(uint32_t bytes) const {
    KVD_DCHECK(bytes > 0 && bytes <= max_slab_bytes);
    uint32_t rounded = std::bit_ceil(bytes);
    if (rounded < min_slab_bytes) {
      rounded = min_slab_bytes;
    }
    return static_cast<uint8_t>(std::countr_zero(rounded) -
                                std::countr_zero(min_slab_bytes));
  }

  void Validate() const {
    KVD_CHECK(region_size > 0);
    KVD_CHECK(std::has_single_bit(min_slab_bytes));
    KVD_CHECK(std::has_single_bit(max_slab_bytes));
    KVD_CHECK(min_slab_bytes <= max_slab_bytes);
    KVD_CHECK(region_size % max_slab_bytes == 0);
    KVD_CHECK(sync_batch > 0 && sync_batch <= nic_stack_capacity);
    KVD_CHECK(low_watermark < high_watermark);
    KVD_CHECK(high_watermark <= nic_stack_capacity);
  }
};

// One entry of a free-slab pool: address plus size class. Including the type
// in the entry lets splitting move entries between pools without computation
// (paper §3.3.2). Wire size: 5 B in hardware; 8 B here for alignment, the DMA
// byte accounting uses the hardware size.
struct SlabEntry {
  uint64_t address;
  uint8_t type;
};

inline constexpr uint32_t kSlabEntryWireBytes = 5;

}  // namespace kvd

#endif  // SRC_ALLOC_SLAB_CONFIG_H_
