// Edge-path coverage: station stall-mode shared readers, the no-return wire
// flag, extreme key/value shapes, forced secondary-hash false positives, and
// parameterized configuration sweeps.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/common/hashing.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/hash/hash_index.h"
#include "src/mem/access_engine.h"
#include "src/mem/host_memory.h"
#include "src/net/wire_format.h"
#include "src/ooo/reservation_station.h"

namespace kvd {
namespace {

std::vector<uint8_t> Key(uint64_t id, size_t len = 8) {
  std::vector<uint8_t> key(len, 0xee);
  std::memcpy(key.data(), &id, std::min(len, sizeof(id)));
  return key;
}

// --- stall-mode shared readers (the Figure 13 strawman refinement) ---

TEST(StallModeTest, ConcurrentReadsShareTheSlot) {
  OooConfig config;
  config.station_slots = 4;
  config.enable_out_of_order = false;
  ReservationStation station(config);
  // Three reads on the same slot/key issue concurrently.
  EXPECT_EQ(station.Admit(1, 0, 5, false), ReservationStation::Action::kIssueToPipeline);
  EXPECT_EQ(station.Admit(2, 0, 5, false), ReservationStation::Action::kIssueToPipeline);
  EXPECT_EQ(station.Admit(3, 0, 5, false), ReservationStation::Action::kIssueToPipeline);
  EXPECT_EQ(station.inflight(), 3u);
  // A write must park.
  EXPECT_EQ(station.Admit(4, 0, 5, true), ReservationStation::Action::kPark);
  // And a read after the write parks too (ordering).
  EXPECT_EQ(station.Admit(5, 0, 5, false), ReservationStation::Action::kPark);
  // Reads drain one by one; the write may issue only after the last.
  EXPECT_TRUE(station.CompletePipeline(0).empty());
  EXPECT_EQ(station.TryIssueNext(0), std::nullopt);  // still shared
  EXPECT_TRUE(station.CompletePipeline(0).empty());
  EXPECT_EQ(station.TryIssueNext(0), std::nullopt);
  EXPECT_TRUE(station.CompletePipeline(0).empty());
  const auto next = station.TryIssueNext(0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 4u);  // the parked write
  EXPECT_TRUE(station.CompletePipeline(0).empty());
  const auto next_read = station.TryIssueNext(0);
  ASSERT_TRUE(next_read.has_value());
  EXPECT_EQ(*next_read, 5u);
}

TEST(StallModeTest, WriteBlocksSubsequentReads) {
  OooConfig config;
  config.station_slots = 4;
  config.enable_out_of_order = false;
  ReservationStation station(config);
  EXPECT_EQ(station.Admit(1, 0, 5, true), ReservationStation::Action::kIssueToPipeline);
  EXPECT_EQ(station.Admit(2, 0, 5, false), ReservationStation::Action::kPark);
  EXPECT_EQ(station.Admit(3, 0, 5, false), ReservationStation::Action::kPark);
}

// --- wire format: no-return flag and vector params ---

TEST(WireFlagsTest, NoReturnFlagRoundTrips) {
  KvOperation op;
  op.opcode = Opcode::kUpdateScalarVector;
  op.key = Key(1);
  op.param = 7;
  op.function_id = kFnAddU64;
  op.element_width = 8;
  op.return_value = false;
  PacketBuilder builder(4096);
  ASSERT_TRUE(builder.Add(op));
  PacketParser parser(builder.Finish());
  auto decoded = parser.Next();
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->has_value());
  EXPECT_FALSE((*decoded)->return_value);
}

TEST(WireFlagsTest, VectorToVectorParamsRoundTrip) {
  KvOperation op;
  op.opcode = Opcode::kUpdateVector;
  op.key = Key(1);
  op.value.assign(32, 0x5a);  // the parameter vector rides in `value`
  op.function_id = kFnXorU64;
  op.element_width = 8;
  PacketBuilder builder(4096);
  ASSERT_TRUE(builder.Add(op));
  PacketParser parser(builder.Finish());
  auto decoded = parser.Next();
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->has_value());
  EXPECT_EQ((*decoded)->value, op.value);
  EXPECT_EQ((*decoded)->function_id, kFnXorU64);
}

TEST(WireFlagsTest, NoReturnSuppressesResponseValue) {
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 512 * kKiB;
  KvDirectServer server(config);
  ASSERT_TRUE(server.Load(Key(1), std::vector<uint8_t>(64, 3)).ok());

  KvOperation op;
  op.opcode = Opcode::kUpdateScalarVector;
  op.key = Key(1);
  op.param = 1;
  op.function_id = kFnAddU64;
  op.element_width = 8;
  op.return_value = false;
  KvResultMessage result;
  server.Submit(op, [&](KvResultMessage r) { result = std::move(r); });
  server.simulator().RunUntilIdle();
  EXPECT_EQ(result.code, ResultCode::kOk);
  EXPECT_TRUE(result.value.empty());  // original vector suppressed
  // The update itself still happened.
  KvOperation get;
  get.opcode = Opcode::kGet;
  get.key = Key(1);
  uint64_t first_element = 0;
  std::memcpy(&first_element, server.Execute(get).value.data(), 8);
  EXPECT_EQ(first_element, 0x0303030303030304ull);
}

// --- hash index: extreme shapes ---

struct IndexRig {
  HostMemory memory;
  AccessEngine engine;
  SlabAllocator allocator;
  HashIndex index;

  static SlabConfig Slab(const HashIndexConfig& config) {
    const auto regions = config.ComputeRegions();
    SlabConfig slab;
    slab.region_base = regions.heap_base;
    slab.region_size = regions.heap_size;
    return slab;
  }
  explicit IndexRig(const HashIndexConfig& config)
      : memory(config.memory_size),
        engine(memory),
        allocator(Slab(config)),
        index(engine, allocator, config) {}
};

HashIndexConfig EdgeConfig() {
  HashIndexConfig config;
  config.memory_size = 2 * kMiB;
  config.hash_index_ratio = 0.5;
  config.inline_threshold_bytes = 20;
  return config;
}

TEST(HashIndexEdgeTest, OneByteKeyAndMaxKey) {
  IndexRig rig(EdgeConfig());
  const std::vector<uint8_t> tiny_key = {7};
  const std::vector<uint8_t> huge_key(HashIndex::kMaxKeyBytes, 0xab);
  const std::vector<uint8_t> value_a = {1, 2, 3};
  const std::vector<uint8_t> value_b = {4, 5, 6};
  ASSERT_TRUE(rig.index.Put(tiny_key, value_a).ok());
  ASSERT_TRUE(rig.index.Put(huge_key, value_b).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(tiny_key, out).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3}));
  ASSERT_TRUE(rig.index.Get(huge_key, out).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{4, 5, 6}));
  // Over-long key rejected, empty key rejected.
  const std::vector<uint8_t> one = {1};
  EXPECT_FALSE(rig.index.Put(std::vector<uint8_t>(256, 1), one).ok());
  EXPECT_FALSE(rig.index.Put(std::vector<uint8_t>{}, one).ok());
}

TEST(HashIndexEdgeTest, EmptyValueRoundTrips) {
  IndexRig rig(EdgeConfig());
  ASSERT_TRUE(rig.index.Put(Key(1), std::vector<uint8_t>{}).ok());
  std::vector<uint8_t> out = {9, 9};
  ASSERT_TRUE(rig.index.Get(Key(1), out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(rig.index.Contains(Key(1)));
  ASSERT_TRUE(rig.index.Delete(Key(1)).ok());
}

TEST(HashIndexEdgeTest, KeysDifferingOnlyInLength) {
  IndexRig rig(EdgeConfig());
  for (size_t len = 1; len <= 16; len++) {
    const std::vector<uint8_t> value = {static_cast<uint8_t>(len)};
    ASSERT_TRUE(rig.index.Put(Key(0x42, len), value).ok());
  }
  std::vector<uint8_t> out;
  for (size_t len = 1; len <= 16; len++) {
    ASSERT_TRUE(rig.index.Get(Key(0x42, len), out).ok()) << len;
    EXPECT_EQ(out[0], static_cast<uint8_t>(len));
  }
  EXPECT_EQ(rig.index.num_kvs(), 16u);
}

// Construct two different keys with the same bucket AND the same 9-bit
// secondary hash: GET of one must survive the false-positive slab read of
// the other (the "key always checked" guarantee of §3.3.1).
TEST(HashIndexEdgeTest, SecondaryHashFalsePositiveIsVerified) {
  HashIndexConfig config = EdgeConfig();
  config.inline_threshold_bytes = 10;  // force pointer slots
  IndexRig rig(config);
  const uint64_t buckets = rig.index.num_buckets();
  // Find two colliding keys by search.
  const KeyHash reference = HashKey(Key(0));
  uint64_t other = 0;
  for (uint64_t candidate = 1;; candidate++) {
    const KeyHash kh = HashKey(Key(candidate));
    if (kh.BucketIndex(buckets) == reference.BucketIndex(buckets) &&
        kh.SecondaryHash() == reference.SecondaryHash()) {
      other = candidate;
      break;
    }
    ASSERT_LT(candidate, 100000000ull) << "no collision found";
  }
  ASSERT_TRUE(rig.index.Put(Key(0), std::vector<uint8_t>(40, 1)).ok());
  ASSERT_TRUE(rig.index.Put(Key(other), std::vector<uint8_t>(40, 2)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(rig.index.Get(Key(other), out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(40, 2));
  ASSERT_TRUE(rig.index.Get(Key(0), out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(40, 1));
  // At least one false positive was recorded along the way.
  EXPECT_GE(rig.index.stats().secondary_false_hits, 1u);
}

// --- parameterized sweeps ---

// Slab allocator invariants across batch/watermark configurations.
class SlabConfigSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(SlabConfigSweepTest, ChurnPreservesBitmapConsistency) {
  const auto [sync_batch, stack_capacity] = GetParam();
  SlabConfig config;
  config.region_size = 1 * kMiB;
  config.sync_batch = sync_batch;
  config.nic_stack_capacity = stack_capacity;
  config.low_watermark = std::max(1u, sync_batch / 2);
  config.high_watermark = stack_capacity - sync_batch;
  SlabAllocator allocator(config);
  Rng rng(sync_batch * 131 + stack_capacity);
  std::vector<std::pair<uint64_t, uint32_t>> live;
  for (int i = 0; i < 20000; i++) {
    if (live.empty() || rng.NextBool(0.6)) {
      const auto size = static_cast<uint32_t>(1 + rng.NextBelow(512));
      Result<uint64_t> r = allocator.Allocate(size);
      if (r.ok()) {
        live.emplace_back(*r, size);
      }
    } else {
      const size_t victim = rng.NextBelow(live.size());
      allocator.Free(live[victim].first, live[victim].second);
      live.erase(live.begin() + static_cast<long>(victim));
    }
  }
  // Bitmap agrees with the live set's total footprint.
  uint64_t live_bytes = 0;
  for (const auto& [address, size] : live) {
    live_bytes += allocator.FootprintFor(size);
    EXPECT_TRUE(allocator.daemon().bitmap().IsAllocated(address, size));
  }
  EXPECT_EQ(allocator.FreeBytes(), config.region_size - live_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SlabConfigSweepTest,
    ::testing::Values(std::make_tuple(1u, 16u), std::make_tuple(8u, 64u),
                      std::make_tuple(32u, 256u), std::make_tuple(64u, 512u)));

// End-to-end round trip across inline thresholds and hash index ratios.
class ServerConfigSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double>> {};

TEST_P(ServerConfigSweepTest, HundredKeysRoundTrip) {
  const auto [inline_threshold, ratio] = GetParam();
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 512 * kKiB;
  config.inline_threshold_bytes = inline_threshold;
  config.hash_index_ratio = ratio;
  KvDirectServer server(config);
  Client client(server);
  for (uint64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(client.Put(Key(i), std::vector<uint8_t>(1 + i % 60,
                                                        static_cast<uint8_t>(i)))
                    .ok());
  }
  for (uint64_t i = 0; i < 100; i++) {
    auto v = client.Get(Key(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(v->size(), 1 + i % 60);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ServerConfigSweepTest,
    ::testing::Combine(::testing::Values(10u, 24u, 48u),
                       ::testing::Values(0.2, 0.5, 0.8)));

// Dispatch policies all preserve functional results (timing-only layer).
class DispatchPolicySweepTest : public ::testing::TestWithParam<DispatchPolicy> {};

TEST_P(DispatchPolicySweepTest, PolicyDoesNotChangeResults) {
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 512 * kKiB;
  config.dispatch_policy = GetParam();
  config.dispatch_ratio = 0.5;
  KvDirectServer server(config);
  int mismatches = 0;
  int outstanding = 0;
  for (uint64_t i = 0; i < 500; i++) {
    KvOperation put;
    put.opcode = Opcode::kPut;
    put.key = Key(i);
    put.value = Key(i * 3);
    outstanding++;
    server.Submit(put, [&](KvResultMessage r) {
      outstanding--;
      mismatches += r.code == ResultCode::kOk ? 0 : 1;
    });
  }
  for (uint64_t i = 0; i < 500; i++) {
    KvOperation get;
    get.opcode = Opcode::kGet;
    get.key = Key(i);
    const auto expected = Key(i * 3);
    outstanding++;
    server.Submit(get, [&, expected](KvResultMessage r) {
      outstanding--;
      mismatches += (r.code == ResultCode::kOk && r.value == expected) ? 0 : 1;
    });
  }
  server.simulator().RunUntilIdle();
  EXPECT_EQ(outstanding, 0);
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Policies, DispatchPolicySweepTest,
                         ::testing::Values(DispatchPolicy::kHybrid,
                                           DispatchPolicy::kPcieOnly,
                                           DispatchPolicy::kCacheAll));

// Element widths 1..8 through the full update/reduce/filter surface.
class ElementWidthSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ElementWidthSweepTest, UpdateReduceFilterAgree) {
  const auto width = static_cast<uint8_t>(GetParam());
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value(static_cast<size_t>(width) * 16, 0);
  // Elements 0..15.
  for (uint64_t i = 0; i < 16; i++) {
    std::memcpy(value.data() + i * width, &i, width);
  }
  ASSERT_TRUE(registry.ApplyScalarToVector(kFnAddU64, value, 100, width).ok());
  auto sum = registry.Reduce(kFnAddU64, value, 0, width);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 16u * 100 + 120);
  auto filtered = registry.Filter(kFnGreater, value, 110, width);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->size(), 5u * width);  // 111..115
}

INSTANTIATE_TEST_SUITE_P(Widths, ElementWidthSweepTest, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace kvd
