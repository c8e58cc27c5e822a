// Tests for the CPU-KVS baseline and the server's plain-text metrics report.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/baseline/cpu_kvs.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"

namespace kvd {
namespace {

std::vector<uint8_t> Key(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, 8);
  return key;
}

TEST(CpuKvsTest, BasicRoundTrip) {
  CpuKvs store;
  ASSERT_TRUE(store.Put(Key(1), Key(2)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.Get(Key(1), out).ok());
  EXPECT_EQ(out, Key(2));
  ASSERT_TRUE(store.Delete(Key(1)).ok());
  EXPECT_EQ(store.Get(Key(1), out).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Delete(Key(1)).code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.Put(std::vector<uint8_t>{}, Key(1)).ok());
}

TEST(CpuKvsTest, FetchAddSemantics) {
  CpuKvs store;
  ASSERT_TRUE(store.Put(Key(1), std::vector<uint8_t>(8, 0)).ok());
  auto first = store.FetchAdd(Key(1), 5);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  auto second = store.FetchAdd(Key(1), 3);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 5u);
  EXPECT_FALSE(store.FetchAdd(Key(2), 1).ok());  // missing key
  ASSERT_TRUE(store.Put(Key(3), std::vector<uint8_t>(4, 0)).ok());
  EXPECT_FALSE(store.FetchAdd(Key(3), 1).ok());  // non-scalar value
}

TEST(CpuKvsTest, ConcurrentMixedOperationsStayConsistent) {
  CpuKvs store(8);
  constexpr uint64_t kKeys = 64;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(store.Put(Key(i), std::vector<uint8_t>(8, 0)).ok());
  }
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kAddsPerThread; i++) {
        const uint64_t id = (static_cast<uint64_t>(t) * 31 + i) % kKeys;
        ASSERT_TRUE(store.FetchAdd(Key(id), 1).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Total increments conserved across all keys.
  uint64_t total = 0;
  std::vector<uint8_t> out;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(store.Get(Key(i), out).ok());
    uint64_t v;
    std::memcpy(&v, out.data(), 8);
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(CpuKvsTest, ThroughputHarnessRuns) {
  const double mops = MeasureCpuKvsMops(1, 10000, 200000);
  EXPECT_GT(mops, 0.5);  // sane order of magnitude on any host
}

TEST(DiagnosticsTest, ReportCoversEveryComponent) {
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 512 * kKiB;
  KvDirectServer server(config);
  Client client(server);
  for (uint64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(client.Put(Key(i), std::vector<uint8_t>(40, 1)).ok());
    ASSERT_TRUE(client.Get(Key(i)).ok());
  }
  const std::string report = server.metrics().PlainText();
  // One representative metric per subsystem: the report renders the whole
  // registry, so a missing prefix means a component never registered.
  for (const char* metric :
       {"kvd_store_kvs", "kvd_proc_retired_total", "kvd_proc_latency_ns",
        "kvd_station_parked_total", "kvd_slab_allocations_total",
        "kvd_dispatch_hit_rate", "kvd_pcie_read_tlps_total{link=\"pcie0\"}",
        "kvd_pcie_read_tlps_total{link=\"pcie1\"}", "kvd_dma_read_tags_peak",
        "kvd_nicdram_accesses_total",
        "kvd_net_packets_total{direction=\"to_server\"}"}) {
    EXPECT_NE(report.find(metric), std::string::npos) << metric;
  }
  // Exact values for the 100 PUT + 100 GET run above.
  EXPECT_NE(report.find("kvd_store_kvs 100\n"), std::string::npos);
  EXPECT_NE(report.find("kvd_proc_retired_total 200\n"), std::string::npos);
  EXPECT_NE(report.find("kvd_proc_submitted_total 200\n"), std::string::npos);
}

TEST(DiagnosticsTest, ReportIsDeterministicAndSorted) {
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 512 * kKiB;
  auto run = [&config] {
    KvDirectServer server(config);
    Client client(server);
    for (uint64_t i = 0; i < 50; i++) {
      EXPECT_TRUE(client.Put(Key(i), std::vector<uint8_t>(16, 2)).ok());
    }
    return server.metrics().PlainText();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());

  // Every line is sorted by metric name.
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < first.size()) {
    size_t end = first.find('\n', start);
    if (end == std::string::npos) {
      end = first.size();
    }
    lines.push_back(first.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_GT(lines.size(), 1u);
  for (size_t i = 1; i < lines.size(); i++) {
    EXPECT_LE(lines[i - 1].substr(0, lines[i - 1].find(' ')),
              lines[i].substr(0, lines[i].find(' ')))
        << "line " << i;
  }
}

}  // namespace
}  // namespace kvd
