// Tests for the multi-NIC deployment (paper Table 3: 10 NICs, near-linear).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "src/common/units.h"
#include "src/core/multi_nic.h"

namespace kvd {
namespace {

std::vector<uint8_t> Key(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, 8);
  return key;
}

ServerConfig PerNicConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 2 * kMiB;
  config.nic_dram.capacity_bytes = 256 * kKiB;
  config.inline_threshold_bytes = 24;
  return config;
}

TEST(MultiNicTest, PartitioningIsStableAndCoversAllNics) {
  MultiNicServer cluster(4, PerNicConfig());
  std::set<uint32_t> owners;
  for (uint64_t i = 0; i < 1000; i++) {
    const uint32_t owner = cluster.OwnerOf(Key(i));
    EXPECT_LT(owner, 4u);
    EXPECT_EQ(owner, cluster.OwnerOf(Key(i)));  // stable
    owners.insert(owner);
  }
  EXPECT_EQ(owners.size(), 4u);  // all NICs carry load
}

TEST(MultiNicTest, RoutedOperationsRoundTrip) {
  MultiNicServer cluster(4, PerNicConfig());
  MultiNicClient client(cluster);
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(client.Put(Key(i), Key(i * 7)).ok());
  }
  for (uint64_t i = 0; i < 200; i++) {
    auto v = client.Get(Key(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, Key(i * 7));
  }
  EXPECT_EQ(cluster.TotalKvs(), 200u);
  // Keys land in the NIC that owns them and nowhere else.
  for (uint64_t i = 0; i < 200; i++) {
    KvOperation get;
    get.opcode = Opcode::kGet;
    get.key = Key(i);
    for (uint32_t nic = 0; nic < cluster.num_nics(); nic++) {
      const KvResultMessage r = cluster.nic(nic).Execute(get);
      EXPECT_EQ(r.code == ResultCode::kOk, nic == cluster.OwnerOf(Key(i)));
    }
  }
}

TEST(MultiNicTest, DeleteAndUpdateRouteCorrectly) {
  MultiNicServer cluster(3, PerNicConfig());
  MultiNicClient client(cluster);
  ASSERT_TRUE(client.Put(Key(1), std::vector<uint8_t>(8, 0)).ok());
  auto original = client.Update(Key(1), 5);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, 0u);
  ASSERT_TRUE(client.Delete(Key(1)).ok());
  EXPECT_EQ(client.Get(Key(1)).status().code(), StatusCode::kNotFound);
}

TEST(MultiNicTest, BatchFlushPreservesOrderAcrossPartitions) {
  MultiNicServer cluster(4, PerNicConfig());
  MultiNicClient client(cluster);
  constexpr uint64_t kOps = 300;
  for (uint64_t i = 0; i < kOps; i++) {
    KvOperation op;
    op.opcode = Opcode::kPut;
    op.key = Key(i);
    op.value = Key(i + 1);
    client.Enqueue(std::move(op));
  }
  auto put_results = client.Flush();
  ASSERT_EQ(put_results.size(), kOps);
  for (uint64_t i = 0; i < kOps; i++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(i);
    client.Enqueue(std::move(op));
  }
  auto get_results = client.Flush();
  ASSERT_EQ(get_results.size(), kOps);
  for (uint64_t i = 0; i < kOps; i++) {
    ASSERT_EQ(get_results[i].code, ResultCode::kOk) << i;
    EXPECT_EQ(get_results[i].value, Key(i + 1)) << i;  // order preserved
  }
}

TEST(MultiNicTest, ThroughputScalesNearLinearly) {
  // Weak scaling, like the paper's 10-NIC experiment: every NIC serves its
  // own partition at full load on one shared clock, so the aggregate is ops
  // over the time the slowest NIC takes.
  auto run = [](uint32_t num_nics) {
    MultiNicServer cluster(num_nics, PerNicConfig());
    MultiNicClient client(cluster);
    const uint64_t ops = 10000 * num_nics;
    for (uint64_t i = 0; i < 512; i++) {
      (void)cluster.Load(Key(i), Key(i));
    }
    for (uint64_t i = 0; i < ops; i++) {
      KvOperation op;
      op.opcode = Opcode::kGet;
      op.key = Key(i % 512);
      client.Enqueue(std::move(op));
    }
    client.Flush();
    return static_cast<double>(ops) /
           (static_cast<double>(cluster.simulator().Now()) / kMicrosecond);
  };
  const double one = run(1);
  const double four = run(4);
  EXPECT_GT(four, one * 3.2);  // near-linear (paper: 9.6x at 10 NICs)
}

TEST(MultiNicTest, SingleNicDegeneratesToPlainServer) {
  MultiNicServer cluster(1, PerNicConfig());
  MultiNicClient client(cluster);
  ASSERT_TRUE(client.Put(Key(1), Key(2)).ok());
  EXPECT_EQ(cluster.OwnerOf(Key(1)), 0u);
  EXPECT_EQ(cluster.TotalKvs(), 1u);
}

TEST(MultiNicTest, SummedStatsIncludeDeadlineFailures) {
  // Every request frame is dropped, so each NIC's packet retransmits until
  // its op budget runs out and the sender abandons it past the deadline.
  ServerConfig config = PerNicConfig();
  config.faults.at(FaultSite::kNetDropToServer) = 1.0;
  MultiNicServer cluster(4, config);
  Client::Options options;
  options.timeout = 10 * kMicrosecond;
  options.max_attempts = 64;  // the deadline must fire long before this
  options.op_budget = 50 * kMicrosecond;
  MultiNicClient client(cluster, options);
  for (uint64_t i = 0; i < 64; i++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(i);
    client.Enqueue(std::move(op));
  }
  for (const KvResultMessage& result : client.Flush()) {
    EXPECT_EQ(result.code, ResultCode::kDeadlineExceeded);
  }
  const KvEndpoint::Stats stats = client.endpoint_stats();
  EXPECT_EQ(stats.packets_sent, 4u);  // one packet per NIC
  EXPECT_EQ(stats.deadline_failures, stats.packets_sent);
  EXPECT_GT(stats.retransmits, 0u);
}

TEST(MultiNicTest, RouterAndPlainClientsShareANicWithoutReplays) {
  MultiNicServer cluster(4, PerNicConfig());
  // nic(0) hands out two sequence bases before the router exists and nic(1)
  // none, so the router's base is ahead of nic(1)'s counter. None of the
  // next three bases nic(1) hands out may equal the router's.
  Client earlier(cluster.nic(0));
  Client earlier_too(cluster.nic(0));
  MultiNicClient router(cluster);
  std::vector<std::unique_ptr<Client>> plain;
  for (int i = 0; i < 3; i++) {
    plain.push_back(std::make_unique<Client>(cluster.nic(1)));
  }
  // Each plain client writes 20 keys nic(1) owns; the router writes keys on
  // every NIC, nic(1) included, under the same sequence numbers when the
  // bases collide.
  std::vector<uint64_t> nic1_keys;
  for (uint64_t i = 0; nic1_keys.size() < 60; i++) {
    if (cluster.OwnerOf(Key(i)) == 1) {
      nic1_keys.push_back(i);
    }
  }
  for (uint64_t round = 0; round < 4; round++) {
    for (uint64_t i = 0; i < 60; i++) {
      router.Enqueue({.opcode = Opcode::kPut, .key = Key(1000 + i), .value = Key(round)});
      plain[i % 3]->Enqueue(
          {.opcode = Opcode::kPut, .key = Key(nic1_keys[i]), .value = Key(round + 7)});
    }
    router.BeginFlush();
    for (auto& client : plain) {
      client->BeginFlush();
    }
    auto all_done = [&] {
      return router.flush_done() &&
             std::all_of(plain.begin(), plain.end(),
                         [](const auto& client) { return client->flush_done(); });
    };
    while (!all_done()) {
      ASSERT_TRUE(cluster.simulator().Step());
    }
    for (const KvResultMessage& result : router.TakeResults()) {
      EXPECT_EQ(result.code, ResultCode::kOk);
    }
    for (auto& client : plain) {
      for (const KvResultMessage& result : client->TakeResults()) {
        EXPECT_EQ(result.code, ResultCode::kOk);
      }
    }
  }
  for (uint64_t i = 0; i < 60; i++) {
    auto routed = router.Get(Key(1000 + i));
    ASSERT_TRUE(routed.ok()) << i;
    EXPECT_EQ(*routed, Key(3));
    auto direct = plain[i % 3]->Get(Key(nic1_keys[i]));
    ASSERT_TRUE(direct.ok()) << i;
    EXPECT_EQ(*direct, Key(10));
  }
  EXPECT_EQ(cluster.nic(1).replayed_responses(), 0u);
}

TEST(MultiNicTest, OneFlushIsTracedOnEveryNic) {
  ServerConfig config = PerNicConfig();
  config.enable_request_tracing = true;
  MultiNicServer cluster(4, config);
  MultiNicClient client(cluster);
  constexpr uint64_t kOps = 64;
  std::set<uint32_t> owners;
  for (uint64_t i = 0; i < kOps; i++) {
    owners.insert(cluster.OwnerOf(Key(i)));
    client.Enqueue({.opcode = Opcode::kPut, .key = Key(i), .value = Key(i)});
  }
  ASSERT_EQ(owners.size(), 4u);
  for (const KvResultMessage& result : client.Flush()) {
    EXPECT_EQ(result.code, ResultCode::kOk);
  }
  // The client starts its traces in nic(0)'s tracer; every NIC records into
  // it, so each op is stamped on arrival at whichever NIC executed it.
  const LatencyBreakdown& breakdown = cluster.nic(0).breakdown();
  EXPECT_EQ(breakdown.EndToEnd(Opcode::kPut).count(), kOps);
  EXPECT_EQ(breakdown.Stage(Opcode::kPut, TracePoint::kServerReceive).count(), kOps);
}

}  // namespace
}  // namespace kvd
