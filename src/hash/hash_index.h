// DMA-frugal chained hash index (paper §3.3.1).
//
// The index is an array of 64-byte buckets at the front of the KVS region;
// the rest of the region is the slab-allocated heap. KVs whose key+value size
// is at or below the inline threshold live directly in hash slots (GET = 1
// access, PUT = 2); larger KVs live in one slab and cost one extra access.
// Collisions chain 64-byte buckets allocated from the slab heap — the paper
// chooses chaining over cuckoo/hopscotch because it balances GET and PUT cost
// and stays robust under write-intensive load (Figure 11).
//
// All memory is touched through an AccessEngine, so the same code path runs
// untimed (unit tests), counted (accesses-per-op figures), or fully simulated
// (PCIe/DRAM timing).
#ifndef SRC_HASH_HASH_INDEX_H_
#define SRC_HASH_HASH_INDEX_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/common/hashing.h"
#include "src/common/status.h"
#include "src/hash/hash_index_layout.h"
#include "src/mem/access_engine.h"
#include "src/obs/metric_registry.h"

namespace kvd {

struct HashIndexConfig {
  uint64_t memory_base = 0;   // start of the KVS region in host memory
  uint64_t memory_size = 0;   // index + dynamic heap combined
  double hash_index_ratio = 0.5;       // fraction of the region used as index
  uint32_t inline_threshold_bytes = 10;  // key+value <= threshold -> inline
  // Must match the SlabConfig of the allocator managing the heap region.
  uint32_t min_slab_bytes = 32;
  uint32_t max_slab_bytes = 512;

  struct Regions {
    uint64_t index_base;
    uint64_t num_buckets;
    uint64_t heap_base;
    uint64_t heap_size;
  };
  // Splits the region into hash index and slab heap (heap aligned to
  // max_slab_bytes). The caller builds the SlabAllocator over the heap part.
  Regions ComputeRegions() const;
};

struct HashIndexStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t chain_follows = 0;        // extra buckets read due to collisions
  uint64_t secondary_false_hits = 0; // 9-bit hash matched, key did not
  uint64_t chained_buckets_live = 0;
};

class HashIndex {
 public:
  // The allocator must manage exactly the heap region from ComputeRegions().
  HashIndex(AccessEngine& engine, Allocator& allocator, const HashIndexConfig& config);

  // Reads the value of `key` into `value_out`.
  Status Get(std::span<const uint8_t> key, std::vector<uint8_t>& value_out);

  // Inserts or replaces `key` with `value`.
  Status Put(std::span<const uint8_t> key, std::span<const uint8_t> value);

  // Removes `key`.
  Status Delete(std::span<const uint8_t> key);

  // Atomic read-modify-write used by the KV processor's atomics and vector
  // update paths: reads the value, applies `updater` (which must preserve the
  // value's size), and writes it back in place — one read plus one write.
  // `original_out`, when non-null, receives the pre-update value.
  using ValueUpdater = std::function<void(std::vector<uint8_t>& value)>;
  Status UpdateInPlace(std::span<const uint8_t> key, const ValueUpdater& updater,
                       std::vector<uint8_t>* original_out = nullptr);

  // True if `key` is present (same cost as Get without the value copy).
  bool Contains(std::span<const uint8_t> key);

  uint64_t num_buckets() const { return num_buckets_; }
  uint64_t num_kvs() const { return num_kvs_; }
  uint64_t payload_bytes() const { return payload_bytes_; }
  // Stored payload over total region size: the paper's "memory utilization".
  double Utilization() const {
    return static_cast<double>(payload_bytes_) / static_cast<double>(config_.memory_size);
  }
  const HashIndexStats& stats() const { return stats_; }
  const HashIndexConfig& config() const { return config_; }

  void RegisterMetrics(MetricRegistry& registry) const;

  // Size limits for validation.
  static constexpr uint32_t kMaxKeyBytes = 255;
  static constexpr uint32_t kSlabHeaderBytes = 4;  // u16 klen + u16 vlen

  // Address of the chain-head bucket for `key` (used by the KV processor's
  // write-back path, which targets the key's bucket line).
  uint64_t BucketAddressFor(std::span<const uint8_t> key) const;

 private:
  // Where `key` lives: bucket address, first slot, and (non-inline) the slab.
  struct Location {
    uint64_t bucket_address;
    BucketView bucket;
    uint32_t slot;
    bool is_inline;
    uint32_t kv_bytes;        // key+value bytes of the stored entry
    PointerSlot pointer;      // valid when !is_inline
    uint64_t parent_address;  // previous bucket in chain, or kNoParent
  };
  static constexpr uint64_t kNoParent = ~uint64_t{0};

  uint8_t SlabClassFor(uint32_t slab_bytes) const;
  BucketView ReadBucket(uint64_t address);
  void WriteBucket(uint64_t address, const BucketView& bucket);

  // A bucket read during a chain walk, kept so a following insert can reuse
  // it instead of re-reading (PUT must cost one bucket read + one write).
  struct WalkedBucket {
    uint64_t address;
    BucketView view;
  };

  // Walks the chain for `key`. Returns its location (and optionally the
  // stored value), or nullopt. When `walked` is non-null it receives every
  // bucket read along the way, covering the full chain on a miss.
  std::optional<Location> Find(std::span<const uint8_t> key,
                               std::vector<uint8_t>* value_out = nullptr,
                               std::vector<WalkedBucket>* walked = nullptr);

  // Reads the KV stored in a slab; returns its value length, or nullopt on
  // key mismatch (secondary-hash false positive).
  std::optional<uint16_t> ReadSlabKv(const PointerSlot& pointer,
                                     std::span<const uint8_t> key,
                                     std::vector<uint8_t>* value_out);

  // Inserts a fresh key (caller guarantees absence). `walked_` holds the
  // chain buckets a preceding Find() already read; clear it to re-walk.
  Status Insert(std::span<const uint8_t> key, std::span<const uint8_t> value);

  // Removes the entry at `loc` and frees its storage; rewrites the bucket and
  // unlinks it from the chain if it became empty.
  void RemoveAt(Location& loc);

  // Rewrites `bucket` compacted (entries packed from slot 0). Preserves the
  // chain pointer.
  static BucketView Compacted(const BucketView& bucket);

  // Entry placement into a specific bucket; returns false if it lacks space.
  bool TryPlace(BucketView& bucket, std::span<const uint8_t> key,
                std::span<const uint8_t> value, bool inline_kv,
                uint64_t slab_address, uint8_t slab_class, uint16_t secondary);

  AccessEngine& engine_;
  Allocator& allocator_;
  HashIndexConfig config_;
  uint64_t index_base_;
  uint64_t num_buckets_;
  uint64_t num_kvs_ = 0;
  uint64_t payload_bytes_ = 0;
  HashIndexStats stats_;
  // Put's walked chain, shared by Find and Insert and reused across calls so
  // a PUT allocates nothing.
  std::vector<WalkedBucket> walked_;
};

}  // namespace kvd

#endif  // SRC_HASH_HASH_INDEX_H_
