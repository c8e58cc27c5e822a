// Tests for src/obs: the JSON writer, the metric registry and its three
// exposition formats, and the tracer's event timeline with Chrome trace
// export — plus an end-to-end YCSB-B run through KvDirectServer exporting
// all of them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/obs/json_writer.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"
#include "src/sim/simulator.h"
#include "src/workload/ycsb.h"

namespace kvd {
namespace {

TEST(JsonWriterTest, NestedStructure) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", std::string_view("bench"));
  w.Key("rows").BeginArray();
  w.BeginObject().Field("mops", 1.5).Field("n", uint64_t{42}).EndObject();
  w.Null();
  w.Bool(true);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            R"({"name":"bench","rows":[{"mops":1.5,"n":42},null,true]})");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  JsonWriter w;
  w.BeginObject().Field("k\"ey", std::string_view("v\nal")).EndObject();
  EXPECT_EQ(w.str(), "{\"k\\\"ey\":\"v\\nal\"}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Number(std::numeric_limits<double>::quiet_NaN());
  w.Number(std::numeric_limits<double>::infinity());
  w.Number(2.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,2.5]");
}

TEST(MetricRegistryTest, RegistrationAndLookup) {
  MetricRegistry registry;
  uint64_t ops = 7;
  double depth = 1.25;
  registry.RegisterCounter("test_ops_total", "ops", {}, &ops);
  registry.RegisterGauge("test_depth", "queue depth", {}, [&] { return depth; });
  LatencyHistogram hist;
  hist.Add(100);
  registry.RegisterHistogram("test_latency_ns", "latency", {},
                             [&] { return hist; });

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.CounterValue("test_ops_total"), 7u);
  EXPECT_EQ(registry.GaugeValue("test_depth"), 1.25);
  ASSERT_TRUE(registry.HistogramValue("test_latency_ns").has_value());
  EXPECT_EQ(registry.HistogramValue("test_latency_ns")->count(), 1u);

  // Readers are live: mutating the backing store changes the reported value.
  ops = 9;
  depth = 2.5;
  EXPECT_EQ(registry.CounterValue("test_ops_total"), 9u);
  EXPECT_EQ(registry.GaugeValue("test_depth"), 2.5);

  // Missing names and kind mismatches return nullopt.
  EXPECT_FALSE(registry.CounterValue("no_such_metric").has_value());
  EXPECT_FALSE(registry.CounterValue("test_depth").has_value());
  EXPECT_FALSE(registry.GaugeValue("test_ops_total").has_value());
}

TEST(MetricRegistryTest, LabelsDistinguishSeries) {
  MetricRegistry registry;
  uint64_t a = 1;
  uint64_t b = 2;
  registry.RegisterCounter("link_tlps_total", "tlps", {{"link", "0"}}, &a);
  registry.RegisterCounter("link_tlps_total", "tlps", {{"link", "1"}}, &b);
  EXPECT_EQ(registry.CounterValue("link_tlps_total", {{"link", "0"}}), 1u);
  EXPECT_EQ(registry.CounterValue("link_tlps_total", {{"link", "1"}}), 2u);
  EXPECT_FALSE(registry.CounterValue("link_tlps_total").has_value());
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"link_tlps_total"});
}

TEST(MetricRegistryTest, PrometheusTextGolden) {
  MetricRegistry registry;
  uint64_t gets = 150;
  // Registration order is intentionally unsorted; exposition sorts by name.
  registry.RegisterGauge("kvd_util", "utilization", {}, [] { return 0.5; });
  registry.RegisterCounter("kvd_gets_total", "GET ops", {}, &gets);
  LatencyHistogram hist;
  for (uint64_t i = 1; i <= 4; i++) {
    hist.Add(10);
  }
  registry.RegisterHistogram("kvd_lat_ns", "latency", {}, [&] { return hist; });

  EXPECT_EQ(registry.PrometheusText(),
            "# HELP kvd_gets_total GET ops\n"
            "# TYPE kvd_gets_total counter\n"
            "kvd_gets_total 150\n"
            "# HELP kvd_lat_ns latency\n"
            "# TYPE kvd_lat_ns summary\n"
            "kvd_lat_ns{quantile=\"0.5\"} 10\n"
            "kvd_lat_ns{quantile=\"0.95\"} 10\n"
            "kvd_lat_ns{quantile=\"0.99\"} 10\n"
            "kvd_lat_ns_sum 40\n"
            "kvd_lat_ns_count 4\n"
            "# HELP kvd_util utilization\n"
            "# TYPE kvd_util gauge\n"
            "kvd_util 0.5\n");
}

TEST(MetricRegistryTest, JsonGolden) {
  MetricRegistry registry;
  uint64_t n = 3;
  registry.RegisterCounter("b_total", "b", {{"kind", "x"}}, &n);
  registry.RegisterGauge("a_rate", "a", {}, [] { return 0.25; });
  EXPECT_EQ(registry.ToJson(),
            R"({"metrics":[)"
            R"({"name":"a_rate","type":"gauge","labels":{},"value":0.25},)"
            R"({"name":"b_total","type":"counter","labels":{"kind":"x"},"value":3})"
            R"(]})");
}

TEST(MetricRegistryTest, PlainTextIsSorted) {
  MetricRegistry registry;
  uint64_t z = 1;
  uint64_t a = 2;
  registry.RegisterCounter("z_total", "z", {}, &z);
  registry.RegisterCounter("a_total", "a", {}, &a);
  registry.RegisterGauge("m_rate", "m", {}, [] { return 7.0; });
  EXPECT_EQ(registry.PlainText(),
            "a_total 2\n"
            "m_rate 7\n"
            "z_total 1\n");
}

TEST(TracerTimelineTest, DisabledRecordsNothing) {
  Simulator sim;
  Tracer tracer(sim);
  EXPECT_FALSE(tracer.enabled());
  tracer.Instant("cat", "evt");
  tracer.Complete("cat", "span", 0, 100);
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TracerTimelineTest, ChromeTraceShape) {
  Simulator sim;
  Tracer tracer(sim, /*enabled=*/true);
  sim.Schedule(2 * kMicrosecond, [&] {
    tracer.Instant("station", "park", {{"slot", 3}});
  });
  sim.RunUntilIdle();
  tracer.Complete("pcie", "dma_read", kMicrosecond, 3 * kMicrosecond,
                  {{"bytes", 64}});
  ASSERT_EQ(tracer.num_events(), 2u);

  const std::string json = tracer.ToChromeTraceJson();
  // Track metadata: one named lane per category.
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"pcie\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"station\"}"), std::string::npos);
  // The instant event: 2 us in, thread-scoped.
  EXPECT_NE(json.find("\"name\":\"park\",\"cat\":\"station\",\"ph\":\"i\","
                      "\"ts\":2,\"s\":\"t\""),
            std::string::npos);
  // The complete event: starts at 1 us, lasts 2 us.
  EXPECT_NE(json.find("\"name\":\"dma_read\",\"cat\":\"pcie\",\"ph\":\"X\","
                      "\"ts\":1,\"dur\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bytes\":64}"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
}

// The ring keeps the newest events: once full, each record overwrites the
// oldest one, and the overwrites are counted as dropped.
TEST(TracerTimelineTest, BoundedRingDropsOldest) {
  Simulator sim;
  Tracer tracer(sim, /*enabled=*/true, SloConfig{}, FlightRecorderConfig{},
                /*registry=*/nullptr, /*max_events=*/3);
  for (uint64_t i = 0; i < 5; i++) {
    tracer.Instant("cat", "evt", {{"i", i}});
  }
  ASSERT_EQ(tracer.num_events(), 3u);
  EXPECT_EQ(tracer.dropped_events(), 2u);
  for (size_t i = 0; i < 3; i++) {
    EXPECT_EQ(tracer.Event(i).args[0].value, i + 2);  // oldest first
  }
}

TEST(TracerTimelineTest, WriteChromeTraceSmoke) {
  Simulator sim;
  Tracer tracer(sim, /*enabled=*/true);
  tracer.Complete("net", "packet", 0, kMicrosecond);
  const std::string path = ::testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char buf[16] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, file), 0u);
  std::fclose(file);
  EXPECT_EQ(std::strncmp(buf, "{\"traceEvents\"", 14), 0);
  std::remove(path.c_str());
}

// Acceptance: a YCSB-B run through the full server exports per-subsystem
// counters in Prometheus text and JSON, and a Perfetto-loadable trace.
TEST(ObservabilityIntegrationTest, YcsbBExportsMetricsAndTrace) {
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 512 * kKiB;
  config.enable_request_tracing = true;
  KvDirectServer server(config);

  WorkloadConfig wl;
  wl.num_keys = 2000;
  wl.value_bytes = 32;
  wl.get_ratio = 0.95;  // YCSB-B
  wl.distribution = KeyDistribution::kLongTail;
  YcsbWorkload workload(wl);
  for (uint64_t id = 0; id < wl.num_keys; id++) {
    const KvOperation op = workload.LoadOpFor(id);
    ASSERT_TRUE(server.Load(op.key, op.value).ok());
  }

  Client client(server);
  constexpr uint64_t kOps = 2000;
  for (uint64_t i = 0; i < kOps; i++) {
    client.Enqueue(workload.NextOp());
  }
  const std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), kOps);

  const MetricRegistry& metrics = server.metrics();
  // Per-subsystem counters moved: fast-path ops, DMA bytes, dispatcher
  // decisions, slab syncs, network packets.
  EXPECT_EQ(metrics.CounterValue("kvd_proc_retired_total"), kOps);
  EXPECT_GT(*metrics.CounterValue("kvd_pcie_upstream_bytes_total",
                                  {{"link", "pcie0"}}),
            0u);
  EXPECT_GT(*metrics.CounterValue("kvd_dispatch_pcie_total") +
                *metrics.CounterValue("kvd_dispatch_dram_hits_total") +
                *metrics.CounterValue("kvd_dispatch_dram_misses_total"),
            0u);
  EXPECT_GT(*metrics.CounterValue("kvd_slab_sync_dma_total", {{"direction", "read"}}),
            0u);
  EXPECT_GT(*metrics.CounterValue("kvd_net_packets_total", {{"direction", "to_server"}}),
            0u);
  EXPECT_TRUE(metrics.GaugeValue("kvd_dispatch_hit_rate").has_value());
  ASSERT_TRUE(metrics.HistogramValue("kvd_proc_latency_ns").has_value());
  EXPECT_EQ(metrics.HistogramValue("kvd_proc_latency_ns")->count(), kOps);

  // All three exposition formats render.
  const std::string prom = metrics.PrometheusText();
  EXPECT_NE(prom.find("# TYPE kvd_proc_retired_total counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE kvd_proc_latency_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("kvd_pcie_read_tlps_total{link=\"pcie1\"}"),
            std::string::npos);
  const std::string json = metrics.ToJson();
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"kvd_store_kvs\""), std::string::npos);

  // The trace captured hardware events across categories.
  EXPECT_GT(server.tracer().num_events(), 0u);
  const std::string trace = server.tracer().ToChromeTraceJson();
  for (const char* category : {"pcie", "dispatch", "station", "proc", "net"}) {
    EXPECT_NE(trace.find("{\"name\":\"" + std::string(category) + "\"}"),
              std::string::npos)
        << category;
  }
}

}  // namespace
}  // namespace kvd
