// Integration tests: update functions, the KV processor's timed pipeline,
// and the full client/server path over the simulated network.
#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/core/id_table.h"
#include "src/core/kv_direct.h"
#include "src/core/update_functions.h"
#include "src/net/wire_format.h"
#include "src/transport/frame.h"

namespace kvd {
namespace {

std::vector<uint8_t> Key(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, 8);
  return key;
}

std::vector<uint8_t> U64Value(uint64_t v) {
  std::vector<uint8_t> value(8);
  std::memcpy(value.data(), &v, 8);
  return value;
}

uint64_t AsU64(const std::vector<uint8_t>& value) {
  uint64_t v = 0;
  std::memcpy(&v, value.data(), std::min<size_t>(8, value.size()));
  return v;
}

ServerConfig SmallServerConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  return config;
}

// --- UpdateFunctionRegistry ---

TEST(UpdateFunctionsTest, ScalarFetchAdd) {
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value = U64Value(100);
  auto original = registry.ApplyScalar(kFnAddU64, value, 5, 8);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, 100u);
  EXPECT_EQ(AsU64(value), 105u);
}

TEST(UpdateFunctionsTest, CompareAndSwap) {
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value(8, 0);
  value[0] = 7;
  // expected=7, new=9
  auto r = registry.ApplyScalar(kFnCasU64, value, (7ull << 32) | 9, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(AsU64(value), 9u);
  // expected mismatch: unchanged
  r = registry.ApplyScalar(kFnCasU64, value, (7ull << 32) | 11, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(AsU64(value), 9u);
}

TEST(UpdateFunctionsTest, ScalarToVectorAddsEveryElement) {
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value(32, 0);  // 4 x u64 zeros
  ASSERT_TRUE(registry.ApplyScalarToVector(kFnAddU64, value, 3, 8).ok());
  for (int i = 0; i < 4; i++) {
    uint64_t element;
    std::memcpy(&element, value.data() + i * 8, 8);
    EXPECT_EQ(element, 3u);
  }
}

TEST(UpdateFunctionsTest, VectorToVectorElementwise) {
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value(16);
  std::vector<uint8_t> params(16);
  uint64_t a = 10;
  uint64_t b = 20;
  std::memcpy(value.data(), &a, 8);
  std::memcpy(value.data() + 8, &b, 8);
  uint64_t pa = 1;
  uint64_t pb = 2;
  std::memcpy(params.data(), &pa, 8);
  std::memcpy(params.data() + 8, &pb, 8);
  ASSERT_TRUE(registry.ApplyVectorToVector(kFnAddU64, value, params, 8).ok());
  uint64_t ra;
  uint64_t rb;
  std::memcpy(&ra, value.data(), 8);
  std::memcpy(&rb, value.data() + 8, 8);
  EXPECT_EQ(ra, 11u);
  EXPECT_EQ(rb, 22u);
}

TEST(UpdateFunctionsTest, ReduceSum) {
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value(24);
  for (uint64_t i = 0; i < 3; i++) {
    const uint64_t v = i + 1;
    std::memcpy(value.data() + i * 8, &v, 8);
  }
  auto sum = registry.Reduce(kFnAddU64, value, 0, 8);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 6u);
}

TEST(UpdateFunctionsTest, FilterNonZero) {
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value(32, 0);
  const uint64_t v = 77;
  std::memcpy(value.data() + 16, &v, 8);
  auto filtered = registry.Filter(kFnNonZero, value, 0, 8);
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->size(), 8u);
  EXPECT_EQ(AsU64(*filtered), 77u);
}

TEST(UpdateFunctionsTest, FloatAddOnF32Elements) {
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value(8);
  const float a = 1.5f;
  const float b = 2.5f;
  std::memcpy(value.data(), &a, 4);
  std::memcpy(value.data() + 4, &b, 4);
  float p = 0.5f;
  uint32_t pbits;
  std::memcpy(&pbits, &p, 4);
  ASSERT_TRUE(registry.ApplyScalarToVector(kFnAddF32, value, pbits, 4).ok());
  float ra;
  float rb;
  std::memcpy(&ra, value.data(), 4);
  std::memcpy(&rb, value.data() + 4, 4);
  EXPECT_FLOAT_EQ(ra, 2.0f);
  EXPECT_FLOAT_EQ(rb, 3.0f);
}

TEST(UpdateFunctionsTest, RejectsBadWidthAndUnknownFunction) {
  UpdateFunctionRegistry registry;
  std::vector<uint8_t> value(10, 0);  // not a multiple of 8
  EXPECT_FALSE(registry.ApplyScalarToVector(kFnAddU64, value, 1, 8).ok());
  std::vector<uint8_t> ok_value(8, 0);
  EXPECT_FALSE(registry.ApplyScalarToVector(999, ok_value, 1, 8).ok());
}

TEST(UpdateFunctionsTest, UserRegisteredFunction) {
  UpdateFunctionRegistry registry;
  registry.RegisterFunction(kFnFirstUserFunction,
                            [](uint64_t e, uint64_t p) { return e * p; });
  std::vector<uint8_t> value = U64Value(6);
  auto r = registry.ApplyScalar(kFnFirstUserFunction, value, 7, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(AsU64(value), 42u);
}

// --- KvProcessor timed pipeline ---

TEST(KvProcessorTest, TimedGetReturnsCorrectValueWithLatency) {
  KvDirectServer server(SmallServerConfig());
  ASSERT_TRUE(server.Load(Key(1), U64Value(1234)).ok());

  KvOperation op;
  op.opcode = Opcode::kGet;
  op.key = Key(1);
  bool done = false;
  KvResultMessage result;
  server.Submit(op, [&](KvResultMessage r) {
    done = true;
    result = std::move(r);
  });
  server.simulator().RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.code, ResultCode::kOk);
  EXPECT_EQ(AsU64(result.value), 1234u);
  // One inline GET: about a bucket read over PCIe or NIC DRAM -> sub-2 µs.
  const auto& lat = server.processor().stats().latency_ns;
  EXPECT_GT(lat.mean(), 100);
  EXPECT_LT(lat.mean(), 2500);
}

TEST(KvProcessorTest, PipelinedIndependentGetsOverlap) {
  KvDirectServer server(SmallServerConfig());
  for (uint64_t i = 0; i < 512; i++) {
    ASSERT_TRUE(server.Load(Key(i), U64Value(i)).ok());
  }
  int completed = 0;
  const SimTime start = server.simulator().Now();
  for (uint64_t i = 0; i < 512; i++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(i);
    server.Submit(op, [&](KvResultMessage r) {
      EXPECT_EQ(r.code, ResultCode::kOk);
      completed++;
    });
  }
  server.simulator().RunUntilIdle();
  EXPECT_EQ(completed, 512);
  const double elapsed_us =
      static_cast<double>(server.simulator().Now() - start) / kMicrosecond;
  // Serial execution would take 512 x ~1 µs = 512 µs; pipelining must bring
  // this down by an order of magnitude.
  EXPECT_LT(elapsed_us, 60);
}

TEST(KvProcessorTest, SingleKeyAtomicsUseFastPath) {
  KvDirectServer server(SmallServerConfig());
  ASSERT_TRUE(server.Load(Key(7), U64Value(0)).ok());
  constexpr int kOps = 1000;
  int completed = 0;
  uint64_t last_original = 0;
  for (int i = 0; i < kOps; i++) {
    KvOperation op;
    op.opcode = Opcode::kUpdateScalar;
    op.key = Key(7);
    op.param = 1;
    op.function_id = kFnAddU64;
    server.Submit(op, [&](KvResultMessage r) {
      EXPECT_EQ(r.code, ResultCode::kOk);
      last_original = r.scalar;
      completed++;
    });
  }
  server.simulator().RunUntilIdle();
  EXPECT_EQ(completed, kOps);
  EXPECT_EQ(last_original, static_cast<uint64_t>(kOps - 1));  // ordered adds
  // Nearly every op should have been forwarded, not sent to memory.
  EXPECT_GT(server.processor().stats().fast_path_ops, kOps * 9 / 10);
  // Functional state reflects all increments.
  KvOperation get;
  get.opcode = Opcode::kGet;
  get.key = Key(7);
  EXPECT_EQ(AsU64(server.Execute(get).value), static_cast<uint64_t>(kOps));
}

TEST(KvProcessorTest, StallModeIsMuchSlowerOnSingleKey) {
  auto run = [](bool enable_ooo) {
    ServerConfig config = SmallServerConfig();
    config.processor.ooo.enable_out_of_order = enable_ooo;
    KvDirectServer server(config);
    EXPECT_TRUE(server.Load(Key(7), U64Value(0)).ok());
    constexpr int kOps = 300;
    int completed = 0;
    for (int i = 0; i < kOps; i++) {
      KvOperation op;
      op.opcode = Opcode::kUpdateScalar;
      op.key = Key(7);
      op.param = 1;
      op.function_id = kFnAddU64;
      server.Submit(op, [&](KvResultMessage) { completed++; });
    }
    server.simulator().RunUntilIdle();
    EXPECT_EQ(completed, kOps);
    return server.simulator().Now();
  };
  const SimTime with_ooo = run(true);
  const SimTime without_ooo = run(false);
  EXPECT_GT(without_ooo, with_ooo * 20);  // paper: 191x at full scale
}

TEST(KvProcessorTest, DependentOpsSeeEachOthersEffects) {
  KvDirectServer server(SmallServerConfig());
  ASSERT_TRUE(server.Load(Key(1), U64Value(10)).ok());
  std::vector<uint64_t> get_results;
  for (int round = 0; round < 5; round++) {
    KvOperation put;
    put.opcode = Opcode::kPut;
    put.key = Key(1);
    put.value = U64Value(100 + round);
    server.Submit(put, [](KvResultMessage) {});
    KvOperation get;
    get.opcode = Opcode::kGet;
    get.key = Key(1);
    server.Submit(get, [&](KvResultMessage r) { get_results.push_back(AsU64(r.value)); });
  }
  server.simulator().RunUntilIdle();
  ASSERT_EQ(get_results.size(), 5u);
  for (int round = 0; round < 5; round++) {
    EXPECT_EQ(get_results[round], 100u + round);  // GET sees preceding PUT
  }
}

TEST(KvProcessorTest, BacklogDrainsUnderCapacityPressure) {
  ServerConfig config = SmallServerConfig();
  config.processor.ooo.max_inflight = 16;
  KvDirectServer server(config);
  for (uint64_t i = 0; i < 64; i++) {
    ASSERT_TRUE(server.Load(Key(i), U64Value(i)).ok());
  }
  int completed = 0;
  for (uint64_t i = 0; i < 2000; i++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(i % 64);
    server.Submit(op, [&](KvResultMessage) { completed++; });
  }
  server.simulator().RunUntilIdle();
  EXPECT_EQ(completed, 2000);
  EXPECT_EQ(server.processor().backlog(), 0u);
}

// The admitted-op table is sized from max_inflight, but fast-path ops
// retire outside the station's count, so a burst on a cached key admits more
// than max_inflight at once. With max_inflight = 2 the table starts at four
// entries and has to grow; every GET must still see exactly the PUTs
// submitted before it on its key.
TEST(KvProcessorTest, AdmittedOpTableGrowsAndKeepsPerKeyOrder) {
  ServerConfig config = SmallServerConfig();
  config.processor.ooo.max_inflight = 2;
  KvDirectServer server(config);
  constexpr uint64_t kKeys = 4;
  std::vector<uint64_t> model(kKeys);
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(server.Load(Key(k), U64Value(k)).ok());
    model[k] = k;
  }
  Rng rng(7);
  uint64_t completed = 0;
  for (uint64_t wave = 0; wave < 40; wave++) {
    for (uint64_t i = 0; i < 50; i++) {
      const uint64_t k = rng.NextBelow(kKeys);
      KvOperation op;
      op.key = Key(k);
      if (rng.NextBelow(4) == 0) {
        op.opcode = Opcode::kPut;
        model[k] = wave * 1000 + i;
        op.value = U64Value(model[k]);
        server.Submit(op, [&](KvResultMessage r) {
          EXPECT_EQ(r.code, ResultCode::kOk);
          completed++;
        });
      } else {
        op.opcode = Opcode::kGet;
        server.Submit(op, [&, expected = model[k]](KvResultMessage r) {
          EXPECT_EQ(r.code, ResultCode::kOk);
          EXPECT_EQ(AsU64(r.value), expected);
          completed++;
        });
      }
    }
    server.simulator().RunUntilIdle();
  }
  EXPECT_EQ(completed, 2000u);
  EXPECT_GT(server.processor().stats().fast_path_ops, 100u);
  EXPECT_EQ(server.metrics().GaugeValue("kvd_proc_inflight"), 0.0);
}

// IdTable against a map model: fresh ids sometimes jump by multiples of the
// capacity so they share a home entry, probe runs wrap past the end, erases
// in random order shift displaced entries back, and the table grows from
// four entries. Lookups of retired ids must come back empty.
TEST(IdTableTest, MatchesMapModelUnderCollisionsAndGrowth) {
  struct Record {
    uint64_t id = 0;
    uint64_t payload = 0;
  };
  IdTable<Record> table(2);
  ASSERT_EQ(table.capacity(), 4u);
  std::unordered_map<uint64_t, uint64_t> model;
  std::vector<uint64_t> live;
  Rng rng(11);
  uint64_t next_id = 0;
  for (int step = 0; step < 200000; step++) {
    const uint64_t choice = rng.NextBelow(100);
    if (choice < 45 || live.empty()) {
      next_id += rng.NextBelow(8) == 0 ? table.capacity() * (1 + rng.NextBelow(3)) : 1;
      Record& record = table.Insert(next_id);
      record.payload = next_id * 3 + 1;
      model[next_id] = record.payload;
      live.push_back(next_id);
    } else if (choice < 90) {
      const size_t index = rng.NextBelow(live.size());
      const uint64_t id = live[index];
      live[index] = live.back();
      live.pop_back();
      Record* record = table.Find(id);
      ASSERT_NE(record, nullptr) << "live id " << id;
      EXPECT_EQ(record->payload, model[id]);
      table.Erase(*record);
      model.erase(id);
    } else {
      const uint64_t id = 1 + rng.NextBelow(next_id);
      const Record* record = table.Find(id);
      if (model.count(id) != 0) {
        ASSERT_NE(record, nullptr) << "live id " << id;
        EXPECT_EQ(record->payload, model[id]);
      } else {
        EXPECT_EQ(record, nullptr) << "retired or unused id " << id;
      }
    }
    ASSERT_EQ(table.size(), model.size());
    ASSERT_LE(2 * table.size(), table.capacity());
  }
  EXPECT_GT(table.capacity(), 4u);
  for (const uint64_t id : live) {
    ASSERT_NE(table.Find(id), nullptr);
  }
}

// --- full client/server path ---

TEST(ClientTest, SyncOperationsRoundTrip) {
  KvDirectServer server(SmallServerConfig());
  Client client(server);
  ASSERT_TRUE(client.Put(Key(1), U64Value(11)).ok());
  auto got = client.Get(Key(1));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(AsU64(*got), 11u);
  ASSERT_TRUE(client.Delete(Key(1)).ok());
  EXPECT_EQ(client.Get(Key(1)).status().code(), StatusCode::kNotFound);
}

TEST(ClientTest, FetchAddThroughNetwork) {
  KvDirectServer server(SmallServerConfig());
  Client client(server);
  ASSERT_TRUE(client.Put(Key(5), U64Value(100)).ok());
  auto original = client.Update(Key(5), 7);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, 100u);
  auto now = client.Get(Key(5));
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(AsU64(*now), 107u);
}

TEST(ClientTest, VectorOperationsEndToEnd) {
  ServerConfig config = SmallServerConfig();
  // Six slab classes (the 3-bit slot type maximum): 128..4096 B.
  config.min_slab_bytes = 128;
  config.max_slab_bytes = 4096;
  KvDirectServer server(config);
  Client client(server);
  // A 16-element u64 vector.
  std::vector<uint8_t> vec(128, 0);
  for (uint64_t i = 0; i < 16; i++) {
    std::memcpy(vec.data() + i * 8, &i, 8);
  }
  ASSERT_TRUE(client.Put(Key(9), vec).ok());

  // update_scalar2vector: add 100 to all, returns the original.
  auto original = client.UpdateVectorWithScalar(Key(9), 100, kFnAddU64, 8);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, vec);

  // reduce: sum of 100..115 = 16*100 + 120.
  auto sum = client.Reduce(Key(9), 0, kFnAddU64, 8);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 16u * 100 + 120);

  // filter: elements > 110 -> 111..115.
  auto filtered = client.Filter(Key(9), 110, kFnGreater, 8);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->size(), 5u * 8);
}

// The processor borrows a framed op's bytes from its packet until admission.
// With a station that holds four ops, most of a 64-op packet waits in the
// admission queue; the server keeps the packet until its last op is
// answered, so every queued op, including those whose value is a view of
// the previous op's (kFlagCopyValueBytes), executes on its own bytes.
TEST(KvDirectServerTest, PacketOpsQueuedBehindAFullStationAnswerCorrectly) {
  ServerConfig config = SmallServerConfig();
  config.processor.ooo.max_inflight = 4;
  KvDirectServer server(config);
  constexpr uint64_t kOps = 64;
  // GETs read preloaded keys: the station forwards recently written ones
  // without queueing them.
  constexpr uint64_t kLoaded = 1000;
  for (uint64_t i = 0; i < kOps; i++) {
    ASSERT_TRUE(server.Load(Key(kLoaded + i), U64Value(7 * i)).ok());
  }
  uint64_t sequence = 1;
  size_t queued = 0;
  auto deliver = [&](Opcode opcode) {
    PacketBuilder builder;
    for (uint64_t i = 0; i < kOps; i++) {
      KvOperation op;
      op.opcode = opcode;
      if (opcode == Opcode::kPut) {
        op.key = Key(i);
        op.value = U64Value(i / 2);  // pairs share a value
      } else {
        op.key = Key(kLoaded + i);
      }
      EXPECT_TRUE(builder.Add(op));
    }
    std::vector<uint8_t> response;
    server.DeliverFrame(FramePacket(sequence++, builder.Finish()),
                        [&](std::vector<uint8_t> bytes) { response = std::move(bytes); });
    queued = server.processor().backlog();
    server.simulator().RunUntilIdle();
    Result<Frame> frame = ParseFrame(response);
    EXPECT_TRUE(frame.ok());
    Result<std::vector<KvResultMessage>> results = DecodeResults(frame->payload);
    EXPECT_TRUE(results.ok());
    return std::move(*results);
  };
  const std::vector<KvResultMessage> puts = deliver(Opcode::kPut);
  EXPECT_GE(queued, kOps - 4);
  ASSERT_EQ(puts.size(), kOps);
  for (uint64_t i = 0; i < kOps; i++) {
    EXPECT_EQ(puts[i].code, ResultCode::kOk);
    KvOperation get;
    get.key = Key(i);
    EXPECT_EQ(AsU64(server.Execute(get).value), i / 2) << "key " << i;
  }
  const std::vector<KvResultMessage> gets = deliver(Opcode::kGet);
  EXPECT_GE(queued, kOps - 4);
  ASSERT_EQ(gets.size(), kOps);
  for (uint64_t i = 0; i < kOps; i++) {
    EXPECT_EQ(gets[i].code, ResultCode::kOk);
    EXPECT_EQ(AsU64(gets[i].value), 7 * i) << "key " << kLoaded + i;
  }
}

TEST(ClientTest, BatchFlushPreservesOrderAcrossPackets) {
  KvDirectServer server(SmallServerConfig());
  Client::Options options;
  options.batch_payload_bytes = 256;  // force multiple packets
  Client client(server, options);
  constexpr uint64_t kOps = 200;
  for (uint64_t i = 0; i < kOps; i++) {
    KvOperation op;
    op.opcode = Opcode::kPut;
    op.key = Key(i);
    op.value = U64Value(i * 3);
    client.Enqueue(std::move(op));
  }
  auto put_results = client.Flush();
  ASSERT_EQ(put_results.size(), kOps);
  EXPECT_GT(client.packets_sent(), 5u);
  for (uint64_t i = 0; i < kOps; i++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(i);
    client.Enqueue(std::move(op));
  }
  auto get_results = client.Flush();
  ASSERT_EQ(get_results.size(), kOps);
  for (uint64_t i = 0; i < kOps; i++) {
    EXPECT_EQ(get_results[i].code, ResultCode::kOk);
    EXPECT_EQ(AsU64(get_results[i].value), i * 3);
  }
}

TEST(ClientTest, BatchingImprovesNetworkBoundThroughput) {
  // GETs of inline 40 B values: one PCIe read each, so the per-packet 88 B
  // header overhead — not the memory system — limits the unbatched run
  // (paper Figure 15). The batched run amortizes it.
  auto run = [](uint32_t batch_payload, uint64_t ops, uint64_t* wire_bytes) {
    ServerConfig config = SmallServerConfig();
    config.inline_threshold_bytes = 48;
    KvDirectServer server(config);
    for (uint64_t i = 0; i < 256; i++) {
      std::vector<uint8_t> value(40, static_cast<uint8_t>(i));
      EXPECT_TRUE(server.Load(Key(i), value).ok());
    }
    Client::Options options;
    if (batch_payload == 1) {
      options.max_ops_per_packet = 1;  // no batching: one op per packet
    } else {
      options.batch_payload_bytes = batch_payload;
    }
    Client client(server, options);
    for (uint64_t i = 0; i < ops; i++) {
      KvOperation op;
      op.opcode = Opcode::kGet;
      op.key = Key(i % 256);
      client.Enqueue(std::move(op));
    }
    const SimTime start = server.simulator().Now();
    client.Flush();
    *wire_bytes = server.network().bytes_to_server() + server.network().bytes_to_client();
    return server.simulator().Now() - start;
  };
  uint64_t batched_bytes = 0;
  uint64_t tiny_bytes = 0;
  const SimTime batched = run(4096, 2000, &batched_bytes);
  const SimTime tiny_packets = run(1, 2000, &tiny_bytes);
  EXPECT_LT(batched * 3 / 2, tiny_packets);
  EXPECT_LT(batched_bytes * 2, tiny_bytes);  // header amortization
}

TEST(ServerConfigTest, AutoTuneInlineVsNonInline) {
  ServerConfig small;
  small.AutoTune(10, false);
  EXPECT_EQ(small.inline_threshold_bytes, 10u);
  EXPECT_GT(small.hash_index_ratio, 0.8);

  ServerConfig big;
  big.AutoTune(254, false);
  EXPECT_LT(big.hash_index_ratio, 0.1);
  EXPECT_GE(big.dispatch_ratio, 0.0);
  EXPECT_LE(big.dispatch_ratio, 1.0);
}

}  // namespace
}  // namespace kvd
