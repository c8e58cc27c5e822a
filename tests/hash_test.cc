// Tests for the bucket layout and the chained hash index (paper §3.3.1).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/hash/hash_index.h"
#include "src/hash/hash_index_layout.h"
#include "src/mem/access_engine.h"
#include "src/mem/host_memory.h"

namespace kvd {
namespace {

std::vector<uint8_t> MakeKey(uint64_t id, size_t len = 8) {
  std::vector<uint8_t> key(len, 0);
  std::memcpy(key.data(), &id, std::min(len, sizeof(id)));
  return key;
}

std::vector<uint8_t> MakeValue(uint8_t fill, size_t len) {
  return std::vector<uint8_t>(len, fill);
}

TEST(BucketViewTest, EmptyBucketHasTenFreeSlots) {
  BucketView bucket;
  EXPECT_EQ(bucket.FreeSlots(), kSlotsPerBucket);
  EXPECT_FALSE(bucket.HasChain());
  for (uint32_t s = 0; s < kSlotsPerBucket; s++) {
    EXPECT_EQ(bucket.SlotType(s), kSlotEmpty);
  }
}

TEST(BucketViewTest, PointerSlotRoundTrip) {
  BucketView bucket;
  bucket.SetPointerSlot(3, 0x12340 * 32, 0x1ab, 2);
  EXPECT_EQ(bucket.SlotType(3), 3);  // class 2 -> type 3
  const PointerSlot slot = bucket.GetPointerSlot(3);
  EXPECT_EQ(slot.address, 0x12340ull * 32);
  EXPECT_EQ(slot.secondary_hash, 0x1ab);
  EXPECT_EQ(slot.slab_class, 2);
  EXPECT_EQ(bucket.FreeSlots(), kSlotsPerBucket - 1);
}

TEST(BucketViewTest, AdjacentSlotsDoNotInterfere) {
  BucketView bucket;
  bucket.SetPointerSlot(0, 32 * 1, 0x155, 0);
  bucket.SetPointerSlot(1, 32 * 2, 0x0aa, 1);
  bucket.SetPointerSlot(9, 32 * 3, 0x1ff, 4);
  EXPECT_EQ(bucket.GetPointerSlot(0).address, 32u * 1);
  EXPECT_EQ(bucket.GetPointerSlot(0).secondary_hash, 0x155);
  EXPECT_EQ(bucket.GetPointerSlot(1).address, 32u * 2);
  EXPECT_EQ(bucket.GetPointerSlot(1).secondary_hash, 0x0aa);
  EXPECT_EQ(bucket.GetPointerSlot(9).address, 32u * 3);
  EXPECT_EQ(bucket.GetPointerSlot(9).secondary_hash, 0x1ff);
}

TEST(BucketViewTest, InlineBytesSpanSlots) {
  BucketView bucket;
  std::vector<uint8_t> data = {9, 3, 'k', 'e', 'y', 'k', 'e', 'y', 'k', 'e', 'y',
                               'v', 'a', 'l'};
  bucket.WriteInlineBytes(2, data);
  bucket.SetInlineBegin(2, true);
  for (uint32_t s = 2; s < 2 + 3; s++) {
    bucket.SetSlotType(s, kSlotInline);
  }
  const std::span<const uint8_t> read = bucket.InlineBytes(2, data.size());
  EXPECT_EQ(std::vector<uint8_t>(read.begin(), read.end()), data);
  EXPECT_TRUE(bucket.InlineBegin(2));
  EXPECT_FALSE(bucket.InlineBegin(3));
}

TEST(BucketViewTest, ChainRoundTrip) {
  BucketView bucket;
  bucket.SetChain(4096);
  EXPECT_TRUE(bucket.HasChain());
  EXPECT_EQ(bucket.ChainAddress(), 4096u);
  bucket.ClearChain();
  EXPECT_FALSE(bucket.HasChain());
}

TEST(BucketViewTest, ChainDoesNotClobberSlots) {
  BucketView bucket;
  bucket.SetPointerSlot(9, 32 * 99, 0x123, 1);
  bucket.SetChain(64 * 1000);
  EXPECT_EQ(bucket.GetPointerSlot(9).address, 32u * 99);
  EXPECT_EQ(bucket.GetPointerSlot(9).secondary_hash, 0x123);
}

TEST(BucketViewTest, InlineSlotSpan) {
  EXPECT_EQ(BucketView::InlineSlotSpan(3), 1u);   // 2 + 3 = 5 bytes
  EXPECT_EQ(BucketView::InlineSlotSpan(8), 2u);   // 10 bytes
  EXPECT_EQ(BucketView::InlineSlotSpan(10), 3u);  // 12 bytes
  EXPECT_EQ(BucketView::InlineSlotSpan(48), 10u); // 50 bytes: whole bucket
}

TEST(BucketViewTest, RawRoundTripThroughMemory) {
  BucketView bucket;
  bucket.SetPointerSlot(4, 32 * 7, 0x0f0, 3);
  bucket.SetChain(128);
  BucketView copy(bucket.raw());
  EXPECT_EQ(copy.GetPointerSlot(4).address, 32u * 7);
  EXPECT_EQ(copy.ChainAddress(), 128u);
}

// --- HashIndex fixture ---

struct IndexRig {
  HostMemory memory;
  DirectEngine engine;
  SlabAllocator allocator;
  HashIndex index;

  static SlabConfig MakeSlabConfig(const HashIndexConfig& config) {
    const auto regions = config.ComputeRegions();
    SlabConfig slab;
    slab.region_base = regions.heap_base;
    slab.region_size = regions.heap_size;
    slab.max_slab_bytes = config.max_slab_bytes;
    return slab;
  }

  explicit IndexRig(const HashIndexConfig& config)
      : memory(config.memory_base + config.memory_size),
        engine(memory),
        allocator(MakeSlabConfig(config)),
        index(engine, allocator, config) {}
};

HashIndexConfig SmallIndexConfig() {
  HashIndexConfig config;
  config.memory_size = 1 * kMiB;
  config.hash_index_ratio = 0.5;
  config.inline_threshold_bytes = 16;
  return config;
}

TEST(HashIndexTest, RegionsPartitionMemory) {
  HashIndexConfig config = SmallIndexConfig();
  const auto regions = config.ComputeRegions();
  EXPECT_EQ(regions.num_buckets, 1 * kMiB / 2 / 64);
  EXPECT_GE(regions.heap_base, regions.index_base + regions.num_buckets * 64);
  EXPECT_EQ(regions.heap_base % config.max_slab_bytes, 0u);
  EXPECT_LE(regions.heap_base + regions.heap_size, config.memory_size);
}

TEST(HashIndexTest, GetMissingKeyReturnsNotFound) {
  IndexRig rig(SmallIndexConfig());
  std::vector<uint8_t> value;
  EXPECT_EQ(rig.index.Get(MakeKey(1), value).code(), StatusCode::kNotFound);
}

TEST(HashIndexTest, InlinePutGetRoundTrip) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(42);
  const auto value = MakeValue(0xab, 8);  // kv = 16 <= inline threshold
  ASSERT_TRUE(rig.index.Put(key, value).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  EXPECT_EQ(out, value);
  EXPECT_EQ(rig.index.num_kvs(), 1u);
}

TEST(HashIndexTest, NonInlinePutGetRoundTrip) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(42);
  const auto value = MakeValue(0xcd, 200);
  ASSERT_TRUE(rig.index.Put(key, value).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  EXPECT_EQ(out, value);
}

TEST(HashIndexTest, OverwriteInlineSameSpan) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(7);
  ASSERT_TRUE(rig.index.Put(key, MakeValue(1, 8)).ok());
  ASSERT_TRUE(rig.index.Put(key, MakeValue(2, 7)).ok());  // same slot span
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  EXPECT_EQ(out, MakeValue(2, 7));
  EXPECT_EQ(rig.index.num_kvs(), 1u);
}

TEST(HashIndexTest, OverwriteChangesShapeInlineToSlab) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(7);
  ASSERT_TRUE(rig.index.Put(key, MakeValue(1, 4)).ok());   // inline
  ASSERT_TRUE(rig.index.Put(key, MakeValue(2, 100)).ok()); // slab
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  EXPECT_EQ(out, MakeValue(2, 100));
  ASSERT_TRUE(rig.index.Put(key, MakeValue(3, 4)).ok());   // back to inline
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  EXPECT_EQ(out, MakeValue(3, 4));
  EXPECT_EQ(rig.index.num_kvs(), 1u);
}

TEST(HashIndexTest, OverwriteSlabSameClassInPlace) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(9);
  ASSERT_TRUE(rig.index.Put(key, MakeValue(1, 100)).ok());
  const AccessStats before = rig.engine.stats();
  ASSERT_TRUE(rig.index.Put(key, MakeValue(2, 101)).ok());  // same 128 B class
  const AccessStats delta = rig.engine.stats() - before;
  // Find (bucket read + slab read) + in-place slab write: no bucket write.
  EXPECT_EQ(delta.writes, 1u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  EXPECT_EQ(out, MakeValue(2, 101));
}

TEST(HashIndexTest, DeleteInline) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(1);
  ASSERT_TRUE(rig.index.Put(key, MakeValue(5, 8)).ok());
  ASSERT_TRUE(rig.index.Delete(key).ok());
  std::vector<uint8_t> out;
  EXPECT_EQ(rig.index.Get(key, out).code(), StatusCode::kNotFound);
  EXPECT_EQ(rig.index.num_kvs(), 0u);
  EXPECT_EQ(rig.index.payload_bytes(), 0u);
}

TEST(HashIndexTest, DeleteNonInlineFreesSlab) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(1);
  const uint64_t free_before = rig.allocator.FreeBytes();
  ASSERT_TRUE(rig.index.Put(key, MakeValue(5, 200)).ok());
  EXPECT_LT(rig.allocator.FreeBytes(), free_before);
  ASSERT_TRUE(rig.index.Delete(key).ok());
  EXPECT_EQ(rig.allocator.FreeBytes(), free_before);
}

TEST(HashIndexTest, DeleteMissingReturnsNotFound) {
  IndexRig rig(SmallIndexConfig());
  EXPECT_EQ(rig.index.Delete(MakeKey(404)).code(), StatusCode::kNotFound);
}

TEST(HashIndexTest, UpdateInPlacePreservesSizeAndReturnsOriginal) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(3);
  std::vector<uint8_t> value = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(rig.index.Put(key, value).ok());
  std::vector<uint8_t> original;
  ASSERT_TRUE(rig.index
                  .UpdateInPlace(
                      key, [](std::vector<uint8_t>& v) { v[0] = 99; }, &original)
                  .ok());
  EXPECT_EQ(original, value);
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  EXPECT_EQ(out[0], 99);
}

TEST(HashIndexTest, InlineGetCostsOneAccessPutCostsTwo) {
  HashIndexConfig config = SmallIndexConfig();
  config.inline_threshold_bytes = 16;
  IndexRig rig(config);
  const auto key = MakeKey(11);
  const auto value = MakeValue(1, 8);

  AccessStats before = rig.engine.stats();
  ASSERT_TRUE(rig.index.Put(key, value).ok());
  AccessStats delta = rig.engine.stats() - before;
  EXPECT_EQ(delta.total(), 2u);  // bucket read + bucket write

  before = rig.engine.stats();
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  delta = rig.engine.stats() - before;
  EXPECT_EQ(delta.total(), 1u);  // bucket read only
}

TEST(HashIndexTest, NonInlineAddsOneAccess) {
  IndexRig rig(SmallIndexConfig());
  const auto key = MakeKey(11);
  const auto value = MakeValue(1, 100);

  AccessStats before = rig.engine.stats();
  ASSERT_TRUE(rig.index.Put(key, value).ok());
  AccessStats delta = rig.engine.stats() - before;
  EXPECT_EQ(delta.total(), 3u);  // slab write + bucket read + bucket write

  before = rig.engine.stats();
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(key, out).ok());
  delta = rig.engine.stats() - before;
  EXPECT_EQ(delta.total(), 2u);  // bucket read + slab read
}

TEST(HashIndexTest, ChainingKeepsAllKeysReachable) {
  // Tiny index: 16 buckets, thousands of keys -> deep chains.
  HashIndexConfig config;
  config.memory_size = 256 * kKiB;
  config.hash_index_ratio = 16.0 * 64 / (256 * kKiB);
  config.inline_threshold_bytes = 10;
  IndexRig rig(config);
  ASSERT_EQ(rig.index.num_buckets(), 16u);
  constexpr uint64_t kKeys = 2000;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(rig.index.Put(MakeKey(i), MakeValue(static_cast<uint8_t>(i), 2)).ok())
        << i;
  }
  EXPECT_GT(rig.index.stats().chained_buckets_live, 100u);
  std::vector<uint8_t> out;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(rig.index.Get(MakeKey(i), out).ok()) << i;
    EXPECT_EQ(out, MakeValue(static_cast<uint8_t>(i), 2));
  }
}

TEST(HashIndexTest, DeletionUnlinksEmptyChainedBuckets) {
  HashIndexConfig config;
  config.memory_size = 256 * kKiB;
  config.hash_index_ratio = 16.0 * 64 / (256 * kKiB);
  config.inline_threshold_bytes = 10;
  IndexRig rig(config);
  constexpr uint64_t kKeys = 2000;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(rig.index.Put(MakeKey(i), MakeValue(1, 2)).ok());
  }
  const uint64_t chained_at_peak = rig.index.stats().chained_buckets_live;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(rig.index.Delete(MakeKey(i)).ok()) << i;
  }
  EXPECT_EQ(rig.index.num_kvs(), 0u);
  EXPECT_LT(rig.index.stats().chained_buckets_live, chained_at_peak / 4);
}

TEST(HashIndexTest, UtilizationTracksPayload) {
  IndexRig rig(SmallIndexConfig());
  ASSERT_TRUE(rig.index.Put(MakeKey(1), MakeValue(1, 8)).ok());    // kv = 16
  ASSERT_TRUE(rig.index.Put(MakeKey(2), MakeValue(1, 120)).ok());  // kv = 128
  EXPECT_EQ(rig.index.payload_bytes(), 16u + 128u);
  EXPECT_DOUBLE_EQ(rig.index.Utilization(),
                   static_cast<double>(16 + 128) / (1 * kMiB));
}

TEST(HashIndexTest, FillsToHighUtilizationBeforeOom) {
  HashIndexConfig config;
  config.memory_size = 512 * kKiB;
  config.hash_index_ratio = 0.05;  // mostly heap: 254 B KVs
  config.inline_threshold_bytes = 10;
  IndexRig rig(config);
  uint64_t i = 0;
  while (true) {
    const Status status = rig.index.Put(MakeKey(i), MakeValue(1, 244));
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
      break;
    }
    i++;
  }
  // 254 B KVs in 256 B slabs: utilization can approach 254/256 of the heap
  // fraction; require at least 70% overall.
  EXPECT_GT(rig.index.Utilization(), 0.7);
}

TEST(HashIndexTest, RandomizedAgainstReferenceMap) {
  HashIndexConfig config;
  config.memory_size = 2 * kMiB;
  config.hash_index_ratio = 0.3;
  config.inline_threshold_bytes = 20;
  IndexRig rig(config);
  std::map<std::string, std::vector<uint8_t>> reference;
  Rng rng(2024);
  for (int op = 0; op < 20000; op++) {
    const uint64_t id = rng.NextBelow(500);
    const auto key = MakeKey(id, 8);
    const std::string key_str(key.begin(), key.end());
    const uint32_t action = static_cast<uint32_t>(rng.NextBelow(10));
    if (action < 5) {  // PUT with a random size: inline and slab both covered
      const size_t len = 1 + rng.NextBelow(300);
      const auto value = MakeValue(static_cast<uint8_t>(rng.Next()), len);
      ASSERT_TRUE(rig.index.Put(key, value).ok());
      reference[key_str] = value;
    } else if (action < 8) {  // GET
      std::vector<uint8_t> out;
      const Status status = rig.index.Get(key, out);
      auto it = reference.find(key_str);
      if (it == reference.end()) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(status.ok());
        EXPECT_EQ(out, it->second);
      }
    } else {  // DELETE
      const Status status = rig.index.Delete(key);
      EXPECT_EQ(status.ok(), reference.erase(key_str) > 0);
    }
  }
  EXPECT_EQ(rig.index.num_kvs(), reference.size());
  // Final sweep: everything in the reference is retrievable.
  for (const auto& [key_str, value] : reference) {
    std::vector<uint8_t> out;
    const std::vector<uint8_t> key(key_str.begin(), key_str.end());
    ASSERT_TRUE(rig.index.Get(key, out).ok());
    EXPECT_EQ(out, value);
  }
}

// Parameterized sweep: round trip across the inline/non-inline boundary.
class KvSizeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(KvSizeSweepTest, RoundTripAtSize) {
  HashIndexConfig config = SmallIndexConfig();
  config.inline_threshold_bytes = 25;
  IndexRig rig(config);
  const size_t value_len = static_cast<size_t>(GetParam());
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(
        rig.index.Put(MakeKey(i), MakeValue(static_cast<uint8_t>(i), value_len)).ok());
  }
  std::vector<uint8_t> out;
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(rig.index.Get(MakeKey(i), out).ok());
    EXPECT_EQ(out, MakeValue(static_cast<uint8_t>(i), value_len));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KvSizeSweepTest,
                         ::testing::Values(1, 2, 7, 8, 16, 17, 24, 40, 54, 100, 246,
                                           500));

}  // namespace
}  // namespace kvd
