// Tests for the baseline hash tables (MemC3-style cuckoo, FaRM-style
// hopscotch) and the analytic models (Figure 11 / 13 / Table 3 inputs).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/baseline/analytic_models.h"
#include "src/baseline/cuckoo_hash_table.h"
#include "src/baseline/hopscotch_hash_table.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/mem/access_engine.h"
#include "src/mem/host_memory.h"

namespace kvd {
namespace {

std::vector<uint8_t> MakeKey(uint64_t id) {
  std::vector<uint8_t> key(6, 0);
  std::memcpy(key.data(), &id, 6);
  return key;
}

std::vector<uint8_t> MakeValue(uint8_t fill, size_t len) {
  return std::vector<uint8_t>(len, fill);
}

// Shared rig: index region at the front, slab heap behind it.
struct BaselineRig {
  static constexpr uint64_t kIndexBytes = 64 * kKiB;
  static constexpr uint64_t kHeapBytes = 1 * kMiB;

  HostMemory memory;
  AccessEngine engine;
  SlabAllocator allocator;

  BaselineRig()
      : memory(kIndexBytes + kHeapBytes),
        engine(memory),
        allocator([] {
          SlabConfig config;
          config.region_base = kIndexBytes;
          config.region_size = kHeapBytes;
          return config;
        }()) {}
};

// --- Cuckoo (MemC3) ---

CuckooConfig SmallCuckooConfig() {
  CuckooConfig config;
  config.num_buckets = 1024;  // 4096 slots
  return config;
}

TEST(CuckooTest, PutGetDeleteRoundTrip) {
  BaselineRig rig;
  CuckooHashTable table(rig.engine, rig.allocator, SmallCuckooConfig());
  ASSERT_TRUE(table.Put(MakeKey(1), MakeValue(9, 32)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(table.Get(MakeKey(1), out).ok());
  EXPECT_EQ(out, MakeValue(9, 32));
  ASSERT_TRUE(table.Delete(MakeKey(1)).ok());
  EXPECT_EQ(table.Get(MakeKey(1), out).code(), StatusCode::kNotFound);
}

TEST(CuckooTest, OverwriteReplacesValue) {
  BaselineRig rig;
  CuckooHashTable table(rig.engine, rig.allocator, SmallCuckooConfig());
  ASSERT_TRUE(table.Put(MakeKey(1), MakeValue(1, 16)).ok());
  ASSERT_TRUE(table.Put(MakeKey(1), MakeValue(2, 40)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(table.Get(MakeKey(1), out).ok());
  EXPECT_EQ(out, MakeValue(2, 40));
  EXPECT_EQ(table.num_kvs(), 1u);
}

TEST(CuckooTest, FillsToHighLoadFactorWithDisplacements) {
  BaselineRig rig;
  CuckooHashTable table(rig.engine, rig.allocator, SmallCuckooConfig());
  uint64_t inserted = 0;
  while (true) {
    const Status status = table.Put(MakeKey(inserted), MakeValue(1, 8));
    if (!status.ok()) {
      break;
    }
    inserted++;
  }
  // 4-way bucketized cuckoo reaches > 90% slot load factor.
  EXPECT_GT(inserted, 4096u * 90 / 100);
  EXPECT_GT(table.displacements(), 0u);
  // Everything inserted remains retrievable after all the kicking.
  std::vector<uint8_t> out;
  for (uint64_t i = 0; i < inserted; i++) {
    ASSERT_TRUE(table.Get(MakeKey(i), out).ok()) << i;
  }
}

TEST(CuckooTest, GetCostsAtMostTwoBucketReadsPlusValue) {
  BaselineRig rig;
  CuckooHashTable table(rig.engine, rig.allocator, SmallCuckooConfig());
  ASSERT_TRUE(table.Put(MakeKey(3), MakeValue(5, 16)).ok());
  const AccessStats before = rig.engine.stats();
  std::vector<uint8_t> out;
  ASSERT_TRUE(table.Get(MakeKey(3), out).ok());
  const AccessStats delta = rig.engine.stats() - before;
  EXPECT_LE(delta.reads, 3u);
  EXPECT_GE(delta.reads, 2u);  // >= 1 bucket + value
  EXPECT_EQ(delta.writes, 0u);
}

TEST(CuckooTest, PutAccessCostGrowsWithLoadFactor) {
  BaselineRig rig;
  CuckooHashTable table(rig.engine, rig.allocator, SmallCuckooConfig());
  // Cost of 100 inserts at ~10% load.
  for (uint64_t i = 0; i < 400; i++) {
    ASSERT_TRUE(table.Put(MakeKey(i), MakeValue(1, 8)).ok());
  }
  AccessStats before = rig.engine.stats();
  for (uint64_t i = 400; i < 500; i++) {
    ASSERT_TRUE(table.Put(MakeKey(i), MakeValue(1, 8)).ok());
  }
  const double low_cost =
      static_cast<double>((rig.engine.stats() - before).total()) / 100;
  // Fill to ~93% and measure again.
  uint64_t id = 500;
  while (table.num_kvs() < 4096 * 93 / 100) {
    if (!table.Put(MakeKey(id++), MakeValue(1, 8)).ok()) {
      break;
    }
  }
  before = rig.engine.stats();
  int measured = 0;
  for (int i = 0; i < 100; i++) {
    if (table.Put(MakeKey(id++), MakeValue(1, 8)).ok()) {
      measured++;
    }
  }
  ASSERT_GT(measured, 10);
  const double high_cost =
      static_cast<double>((rig.engine.stats() - before).total()) / measured;
  EXPECT_GT(high_cost, low_cost * 1.5);  // Figure 11b/d shape
}

// --- Hopscotch (FaRM) ---

HopscotchConfig SmallHopscotchConfig() {
  HopscotchConfig config;
  config.num_slots = 4096;
  return config;
}

TEST(HopscotchTest, PutGetDeleteRoundTrip) {
  BaselineRig rig;
  HopscotchHashTable table(rig.engine, rig.allocator, SmallHopscotchConfig());
  ASSERT_TRUE(table.Put(MakeKey(1), MakeValue(9, 32)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(table.Get(MakeKey(1), out).ok());
  EXPECT_EQ(out, MakeValue(9, 32));
  ASSERT_TRUE(table.Delete(MakeKey(1)).ok());
  EXPECT_EQ(table.Get(MakeKey(1), out).code(), StatusCode::kNotFound);
}

TEST(HopscotchTest, GetIsOneNeighborhoodReadPlusValue) {
  BaselineRig rig;
  HopscotchHashTable table(rig.engine, rig.allocator, SmallHopscotchConfig());
  ASSERT_TRUE(table.Put(MakeKey(3), MakeValue(5, 16)).ok());
  const AccessStats before = rig.engine.stats();
  std::vector<uint8_t> out;
  ASSERT_TRUE(table.Get(MakeKey(3), out).ok());
  const AccessStats delta = rig.engine.stats() - before;
  EXPECT_LE(delta.reads, 3u);  // neighborhood (may wrap) + value
  EXPECT_EQ(delta.writes, 0u);
}

TEST(HopscotchTest, NeighborhoodInvariantHolds) {
  BaselineRig rig;
  HopscotchHashTable table(rig.engine, rig.allocator, SmallHopscotchConfig());
  Rng rng(17);
  uint64_t inserted = 0;
  // Fill to 70%: displacements certain, invariant must survive them.
  while (table.num_kvs() < 4096 * 70 / 100) {
    ASSERT_TRUE(table.Put(MakeKey(rng.Next() % 100000 + 1), MakeValue(1, 8)).ok() ||
                true);
    inserted++;
    ASSERT_LT(inserted, 100000u);
  }
  EXPECT_GT(table.displacements(), 0u);
  // GET finds every present key by reading only its neighborhood — the test
  // walks a sample of ids; misses are fine, wrong values are not.
  Rng replay(17);
  std::vector<uint8_t> out;
  int found = 0;
  for (uint64_t i = 0; i < inserted; i++) {
    const uint64_t id = replay.Next() % 100000 + 1;
    if (table.Get(MakeKey(id), out).ok()) {
      found++;
      EXPECT_EQ(out, MakeValue(1, 8));
    }
  }
  EXPECT_GT(found, static_cast<int>(table.num_kvs()) * 9 / 10);
}

TEST(HopscotchTest, RandomizedAgainstReference) {
  BaselineRig rig;
  HopscotchHashTable table(rig.engine, rig.allocator, SmallHopscotchConfig());
  std::map<std::string, std::vector<uint8_t>> reference;
  Rng rng(99);
  for (int op = 0; op < 5000; op++) {
    const uint64_t id = rng.NextBelow(800) + 1;
    const auto key = MakeKey(id);
    const std::string key_str(key.begin(), key.end());
    const uint64_t action = rng.NextBelow(10);
    if (action < 6) {
      const auto value = MakeValue(static_cast<uint8_t>(rng.Next()),
                                   1 + rng.NextBelow(64));
      if (table.Put(key, value).ok()) {
        reference[key_str] = value;
      }
    } else if (action < 8) {
      std::vector<uint8_t> out;
      const Status status = table.Get(key, out);
      const auto it = reference.find(key_str);
      if (it == reference.end()) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(status.ok());
        EXPECT_EQ(out, it->second);
      }
    } else {
      const Status status = table.Delete(key);
      EXPECT_EQ(status.ok(), reference.erase(key_str) > 0);
    }
  }
  EXPECT_EQ(table.num_kvs(), reference.size());
}

TEST(CuckooTest, RandomizedAgainstReference) {
  BaselineRig rig;
  CuckooHashTable table(rig.engine, rig.allocator, SmallCuckooConfig());
  std::map<std::string, std::vector<uint8_t>> reference;
  Rng rng(98);
  for (int op = 0; op < 5000; op++) {
    const uint64_t id = rng.NextBelow(800) + 1;
    const auto key = MakeKey(id);
    const std::string key_str(key.begin(), key.end());
    const uint64_t action = rng.NextBelow(10);
    if (action < 6) {
      const auto value = MakeValue(static_cast<uint8_t>(rng.Next()),
                                   1 + rng.NextBelow(64));
      if (table.Put(key, value).ok()) {
        reference[key_str] = value;
      }
    } else if (action < 8) {
      std::vector<uint8_t> out;
      const Status status = table.Get(key, out);
      const auto it = reference.find(key_str);
      if (it == reference.end()) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(status.ok());
        EXPECT_EQ(out, it->second);
      }
    } else {
      const Status status = table.Delete(key);
      EXPECT_EQ(status.ok(), reference.erase(key_str) > 0);
    }
  }
  EXPECT_EQ(table.num_kvs(), reference.size());
}

// --- analytic models ---

TEST(CpuKvsModelTest, ReproducesPaperMeasurements) {
  CpuKvsModel model;
  // §2.2: 29.3 M random 64 B accesses/s/core, 5.5 Mops interleaved,
  // 7.9 Mops batched.
  EXPECT_NEAR(model.RandomAccessMopsPerCore(), 29.3, 4.0);
  EXPECT_NEAR(model.InterleavedMopsPerCore(), 5.5, 1.5);
  EXPECT_NEAR(model.BatchedMopsPerCore(), 7.9, 2.0);
  EXPECT_GT(model.BatchedMopsPerCore(), model.InterleavedMopsPerCore());
}

TEST(RdmaKvsModelTest, SingleKeyAndScaling) {
  RdmaKvsModel model;
  EXPECT_NEAR(model.OneSidedAtomicsMops(1), 2.24, 0.01);
  EXPECT_LT(model.OneSidedAtomicsMops(1000), 20);
  EXPECT_GT(model.TwoSidedAtomicsMops(64), model.OneSidedAtomicsMops(64));
  // Both plateau far below KV-Direct's 180 Mops clock bound (Figure 13a).
  EXPECT_LT(model.OneSidedAtomicsMops(1 << 20), 180);
  EXPECT_LT(model.TwoSidedAtomicsMops(1 << 20), 180);
}

TEST(PublishedSystemsTest, KvDirectBeatsAllOnPowerEfficiency) {
  // Paper Table 3: KV-Direct at 180 Mops / 121.6 W full-system power.
  const double kvdirect_kops_per_watt = 180e3 / 121.6;
  for (const PublishedSystem& system : kPublishedSystems) {
    EXPECT_GT(kvdirect_kops_per_watt, system.KopsPerWatt() * 2.9)
        << system.name;  // "3x more power efficient" claim
  }
}

}  // namespace
}  // namespace kvd
