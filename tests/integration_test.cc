// Full-system integration tests: YCSB workloads through the timed pipeline
// and the network path, verified against reference state; consistency under
// hot-key contention; malformed-input robustness; capacity behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/net/wire_format.h"
#include "src/transport/frame.h"
#include "src/workload/ycsb.h"

namespace kvd {
namespace {

std::vector<uint8_t> Key(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, 8);
  return key;
}

uint64_t AsU64(const std::vector<uint8_t>& value) {
  uint64_t v = 0;
  std::memcpy(&v, value.data(), std::min<size_t>(8, value.size()));
  return v;
}

ServerConfig IntegrationConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  config.inline_threshold_bytes = 24;
  return config;
}

// The timed pipeline must compute exactly what a sequential reference does,
// for any interleaving of admitted operations.
TEST(SystemTest, TimedPipelineMatchesSequentialReference) {
  KvDirectServer server(IntegrationConfig());
  std::map<std::string, std::vector<uint8_t>> reference;
  Rng rng(31);
  int mismatches = 0;
  int outstanding = 0;

  for (int op_index = 0; op_index < 20000; op_index++) {
    const uint64_t id = rng.NextBelow(300);
    const auto key = Key(id);
    const std::string key_str(key.begin(), key.end());
    KvOperation op;
    op.key = key;
    const uint64_t action = rng.NextBelow(10);
    if (action < 4) {
      op.opcode = Opcode::kPut;
      op.value.assign(1 + rng.NextBelow(100), static_cast<uint8_t>(rng.Next()));
      reference[key_str] = op.value;
      outstanding++;
      server.Submit(op, [&](KvResultMessage r) {
        outstanding--;
        if (r.code != ResultCode::kOk) {
          mismatches++;
        }
      });
    } else if (action < 8) {
      op.opcode = Opcode::kGet;
      // Capture the expected value at *submission* time: per-key ordering is
      // admission order, so this GET must observe every earlier same-key PUT.
      const auto it = reference.find(key_str);
      const bool expect_found = it != reference.end();
      const std::vector<uint8_t> expected = expect_found ? it->second
                                                         : std::vector<uint8_t>{};
      outstanding++;
      server.Submit(op, [&, expect_found, expected](KvResultMessage r) {
        outstanding--;
        if (expect_found) {
          if (r.code != ResultCode::kOk || r.value != expected) {
            mismatches++;
          }
        } else if (r.code != ResultCode::kNotFound) {
          mismatches++;
        }
      });
    } else {
      op.opcode = Opcode::kDelete;
      const bool expect_found = reference.erase(key_str) > 0;
      outstanding++;
      server.Submit(op, [&, expect_found](KvResultMessage r) {
        outstanding--;
        const bool found = r.code == ResultCode::kOk;
        if (found != expect_found) {
          mismatches++;
        }
      });
    }
  }
  server.simulator().RunUntilIdle();
  EXPECT_EQ(outstanding, 0);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(server.index().num_kvs(), reference.size());
}

// Hot-key torture: interleaved PUT/GET/atomics on one key must serialize in
// admission order even though most retire through the fast path.
TEST(SystemTest, HotKeyOrderingUnderContention) {
  KvDirectServer server(IntegrationConfig());
  ASSERT_TRUE(server.Load(Key(1), std::vector<uint8_t>(8, 0)).ok());
  uint64_t expected_value = 0;
  int mismatches = 0;
  int outstanding = 0;
  Rng rng(5);
  for (int i = 0; i < 5000; i++) {
    KvOperation op;
    op.key = Key(1);
    if (rng.NextBool(0.5)) {
      op.opcode = Opcode::kUpdateScalar;
      op.param = 1;
      op.function_id = kFnAddU64;
      const uint64_t expect_original = expected_value;
      expected_value++;
      outstanding++;
      server.Submit(op, [&, expect_original](KvResultMessage r) {
        outstanding--;
        if (r.code != ResultCode::kOk || r.scalar != expect_original) {
          mismatches++;
        }
      });
    } else {
      op.opcode = Opcode::kGet;
      const uint64_t expect = expected_value;
      outstanding++;
      server.Submit(op, [&, expect](KvResultMessage r) {
        outstanding--;
        if (r.code != ResultCode::kOk || AsU64(r.value) != expect) {
          mismatches++;
        }
      });
    }
  }
  server.simulator().RunUntilIdle();
  EXPECT_EQ(outstanding, 0);
  EXPECT_EQ(mismatches, 0);
  // The engine must have merged most operations (hot key => fast path).
  EXPECT_GT(server.processor().stats().fast_path_ops, 3000u);
}

// bench::Preload against the loop it replaced (one LoadOpFor and Load per
// key, stopping at the first refusal): the same count and the same store,
// below the look-ahead distance, just past it, and when the store fills up.
TEST(PreloadTest, MatchesThePlainLoadLoop) {
  const auto plain = [](KvDirectServer& server, const YcsbWorkload& workload,
                        uint64_t count) {
    for (uint64_t id = 0; id < count; id++) {
      const KvOperation op = workload.LoadOpFor(id);
      if (!server.Load(op.key, op.value).ok()) {
        return id;
      }
    }
    return count;
  };
  struct Case {
    const char* name;
    uint64_t memory_bytes;
    uint64_t count;
    bool fills;
  };
  for (const Case& c : {Case{"below the look-ahead", 8 * kMiB, 3, false},
                        Case{"one past it", 8 * kMiB, bench::kPreloadLookahead + 1, false},
                        Case{"store fills up", 1 * kMiB, 100000, true}}) {
    SCOPED_TRACE(c.name);
    ServerConfig config = IntegrationConfig();
    config.kvs_memory_bytes = c.memory_bytes;
    config.nic_dram.capacity_bytes = 256 * kKiB;
    WorkloadConfig wl;
    wl.num_keys = c.count;
    wl.value_bytes = 52;
    const YcsbWorkload workload(wl);
    KvDirectServer preloaded(config);
    KvDirectServer looped(config);
    const uint64_t loaded = bench::Preload(preloaded, workload, c.count);
    EXPECT_EQ(loaded, plain(looped, workload, c.count));
    if (c.fills) {
      EXPECT_LT(loaded, c.count);
      EXPECT_GT(loaded, 1000u);
    } else {
      EXPECT_EQ(loaded, c.count);
    }
    EXPECT_EQ(preloaded.index().num_kvs(), looped.index().num_kvs());
    EXPECT_EQ(preloaded.index().stats(), looped.index().stats());
    EXPECT_EQ(preloaded.memory_stats(), looped.memory_stats());
    const HostMemory& a = preloaded.memory();
    const HostMemory& b = looped.memory();
    EXPECT_TRUE(std::ranges::equal(a.Span(0, a.size()), b.Span(0, b.size())));
  }
}

// A full YCSB-A run through the network path: every response decodes, and
// final store contents equal the functional replay of the same op stream.
TEST(SystemTest, YcsbOverNetworkMatchesFunctionalReplay) {
  WorkloadConfig wl = WorkloadConfig::YcsbA();
  wl.num_keys = 2000;
  wl.value_bytes = 16;

  // Timed run over the network.
  KvDirectServer timed(IntegrationConfig());
  {
    YcsbWorkload workload(wl);
    Client client(timed);
    for (uint64_t id = 0; id < wl.num_keys; id++) {
      const KvOperation op = workload.LoadOpFor(id);
      ASSERT_TRUE(timed.Load(op.key, op.value).ok());
    }
    for (int batch = 0; batch < 20; batch++) {
      for (int i = 0; i < 200; i++) {
        client.Enqueue(workload.NextOp());
      }
      const auto results = client.Flush();
      for (const auto& result : results) {
        ASSERT_NE(result.code, ResultCode::kInvalidArgument);
      }
    }
  }
  // Functional replay with an identically seeded workload.
  KvDirectServer functional(IntegrationConfig());
  {
    YcsbWorkload workload(wl);
    for (uint64_t id = 0; id < wl.num_keys; id++) {
      const KvOperation op = workload.LoadOpFor(id);
      ASSERT_TRUE(functional.Load(op.key, op.value).ok());
    }
    for (int i = 0; i < 20 * 200; i++) {
      (void)functional.Execute(workload.NextOp());
    }
  }
  // Store states must agree exactly.
  YcsbWorkload probe(wl);
  EXPECT_EQ(timed.index().num_kvs(), functional.index().num_kvs());
  for (uint64_t id = 0; id < wl.num_keys; id++) {
    KvOperation get;
    get.opcode = Opcode::kGet;
    get.key = probe.KeyFor(id);
    const KvResultMessage a = timed.Execute(get);
    const KvResultMessage b = functional.Execute(get);
    ASSERT_EQ(a.code, b.code) << id;
    ASSERT_EQ(a.value, b.value) << id;
  }
}

// Fuzz: random bytes framed as a valid request must never crash the packet
// parser, and the server must answer every malformed packet with an error
// response.
TEST(SystemTest, MalformedPacketsAreRejectedGracefully) {
  KvDirectServer server(IntegrationConfig());
  Rng rng(2025);
  int responses = 0;
  for (int trial = 0; trial < 2000; trial++) {
    std::vector<uint8_t> junk(rng.NextBelow(96));
    for (auto& byte : junk) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    server.DeliverFrame(FramePacket(trial + 1, junk),
                        [&](std::vector<uint8_t>) { responses++; });
    server.simulator().RunUntilIdle();
  }
  EXPECT_EQ(responses, 2000);
  // The store must still work afterwards.
  Client client(server);
  ASSERT_TRUE(client.Put(Key(1), Key(2)).ok());
  EXPECT_TRUE(client.Get(Key(1)).ok());
}

// Truncating a *valid* packet at every byte offset: parser never crashes,
// never fabricates operations beyond the prefix.
TEST(SystemTest, TruncatedValidPacketsNeverCrash) {
  PacketBuilder builder(4096);
  for (uint64_t i = 0; i < 10; i++) {
    KvOperation op;
    op.opcode = i % 2 == 0 ? Opcode::kPut : Opcode::kUpdateScalar;
    op.key = Key(i);
    op.value.assign(i % 2 == 0 ? 12 : 0, static_cast<uint8_t>(i));
    builder.Add(op);
  }
  const std::vector<uint8_t> full = builder.Finish();
  for (size_t cut = 0; cut < full.size(); cut++) {
    PacketParser parser(std::vector<uint8_t>(full.begin(),
                                             full.begin() + static_cast<long>(cut)));
    int parsed = 0;
    while (true) {
      auto next = parser.Next();
      if (!next.ok() || !next->has_value()) {
        break;
      }
      parsed++;
    }
    EXPECT_LE(parsed, 10);
  }
}

// Store-full behaviour: clients get OUT_OF_MEMORY, nothing corrupts, and
// deleting frees capacity for new inserts.
TEST(SystemTest, GracefulOutOfMemoryAndRecovery) {
  ServerConfig config = IntegrationConfig();
  config.kvs_memory_bytes = 256 * kKiB;
  KvDirectServer server(config);
  Client client(server);
  const std::vector<uint8_t> value(200, 7);
  uint64_t inserted = 0;
  while (true) {
    const Status status = client.Put(Key(inserted), value);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
      break;
    }
    inserted++;
    ASSERT_LT(inserted, 100000u);
  }
  EXPECT_GT(inserted, 100u);
  // Everything inserted is still retrievable.
  for (uint64_t probe = 0; probe < inserted; probe += 37) {
    EXPECT_TRUE(client.Get(Key(probe)).ok()) << probe;
  }
  // Freeing makes room again.
  for (uint64_t victim = 0; victim < 10; victim++) {
    ASSERT_TRUE(client.Delete(Key(victim)).ok());
  }
  EXPECT_TRUE(client.Put(Key(1000000), value).ok());
}

// Deterministic simulation: identical runs produce identical clocks, stats,
// and results.
TEST(SystemTest, SimulationIsDeterministic) {
  auto run = [] {
    KvDirectServer server(IntegrationConfig());
    WorkloadConfig wl = WorkloadConfig::YcsbB();
    wl.num_keys = 500;
    YcsbWorkload workload(wl);
    for (uint64_t id = 0; id < wl.num_keys; id++) {
      const KvOperation op = workload.LoadOpFor(id);
      (void)server.Load(op.key, op.value);
    }
    for (int i = 0; i < 3000; i++) {
      server.Submit(workload.NextOp(), [](KvResultMessage) {});
    }
    server.simulator().RunUntilIdle();
    return std::pair<SimTime, uint64_t>(server.simulator().Now(),
                                        server.processor().stats().fast_path_ops);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// Station capacity backpressure: a flood far beyond max_inflight completes
// exactly once per op, in bounded simulated time.
TEST(SystemTest, BackpressureUnderFlood) {
  ServerConfig config = IntegrationConfig();
  config.processor.ooo.max_inflight = 32;
  KvDirectServer server(config);
  for (uint64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(server.Load(Key(i), Key(i)).ok());
  }
  int completions = 0;
  constexpr int kFlood = 10000;
  Rng rng(8);
  for (int i = 0; i < kFlood; i++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(rng.NextBelow(100));
    server.Submit(op, [&](KvResultMessage) { completions++; });
  }
  server.simulator().RunUntilIdle();
  EXPECT_EQ(completions, kFlood);
}

// Mixed vector + scalar traffic through one server stays consistent.
TEST(SystemTest, VectorAndScalarTrafficInterleaved) {
  ServerConfig config = IntegrationConfig();
  config.min_slab_bytes = 128;
  config.max_slab_bytes = 4096;
  KvDirectServer server(config);
  Client client(server);
  // One vector of 64 u64 elements and 50 scalar counters.
  std::vector<uint8_t> vec(512, 0);
  ASSERT_TRUE(client.Put(Key(9999), vec).ok());
  for (uint64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(client.Put(Key(i), std::vector<uint8_t>(8, 0)).ok());
  }
  for (int round = 0; round < 20; round++) {
    ASSERT_TRUE(
        client.UpdateVectorWithScalar(Key(9999), 1, kFnAddU64, 8).ok());
    for (uint64_t i = 0; i < 50; i++) {
      ASSERT_TRUE(client.Update(Key(i), 2).ok());
    }
  }
  auto sum = client.Reduce(Key(9999), 0, kFnAddU64, 8);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 64u * 20);  // every element incremented 20 times
  for (uint64_t i = 0; i < 50; i++) {
    auto v = client.Get(Key(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(AsU64(*v), 40u);
  }
}

}  // namespace
}  // namespace kvd
