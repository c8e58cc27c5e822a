// Tests for the PCIe link and DMA engine models: latency distribution, tag
// and credit limits, and the throughput ceilings the paper reports (§2.4).
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/common/hashing.h"
#include "src/common/units.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metric_registry.h"
#include "src/pcie/dma_engine.h"
#include "src/pcie/pcie_link.h"
#include "src/sim/simulator.h"

namespace kvd {
namespace {

PcieLinkConfig DeterministicLinkConfig() {
  PcieLinkConfig config;
  config.random_read_extra_mean = 0;  // fixed latency for exact assertions
  return config;
}

TEST(PcieLinkTest, SingleReadLatencyIsCachedLatencyPlusWire) {
  Simulator sim;
  PcieLink link(sim, DeterministicLinkConfig(), "pcie0");
  SimTime completed_at = 0;
  link.SubmitRead(64, /*random_access=*/false, [&] { completed_at = sim.Now(); });
  sim.RunUntilIdle();
  // 26 B request upstream + 800 ns memory + (26+64) B completion downstream.
  const auto wire_up = static_cast<SimTime>(26 * PicosPerByte(7.87e9));
  const auto wire_down = static_cast<SimTime>(90 * PicosPerByte(7.87e9));
  EXPECT_NEAR(static_cast<double>(completed_at),
              static_cast<double>(wire_up + 800 * kNanosecond + wire_down),
              2000.0);  // 2 ns rounding slack
}

TEST(PcieLinkTest, RandomReadsHaveLatencyTail) {
  Simulator sim;
  PcieLinkConfig config;  // default: 250 ns exponential extra
  PcieLink link(sim, config, "pcie0");
  int done = 0;
  // Issue serially so queueing does not inflate latency.
  std::function<void()> next = [&] {
    done++;
    if (done < 2000) {
      link.SubmitRead(64, true, next);
    }
  };
  link.SubmitRead(64, true, next);
  sim.RunUntilIdle();
  const LatencyHistogram& lat = link.read_latency();
  EXPECT_EQ(lat.count(), 2000u);
  // Mean ~ 800 + 250 + wire ~ 1060 ns; p95 well above the mean (Figure 3b).
  EXPECT_NEAR(lat.mean(), 1060, 60);
  EXPECT_GT(lat.Percentile(0.95), lat.Percentile(0.50) + 300);
  EXPECT_GE(lat.min(), 800u);
}

TEST(PcieLinkTest, PostedWriteCompletesBeforeCreditReturns) {
  Simulator sim;
  PcieLink link(sim, DeterministicLinkConfig(), "pcie0");
  SimTime write_done = 0;
  link.SubmitWrite(64, [&] { write_done = sim.Now(); });
  sim.RunUntilIdle();
  // Write completes at wire time (~11 ns for 90 B), long before the 200 ns
  // host consume latency has elapsed.
  EXPECT_LT(write_done, 50 * kNanosecond);
  EXPECT_GT(sim.Now(), 200 * kNanosecond);  // credit-return event ran after
}

TEST(PcieLinkTest, NonPostedCreditsLimitOutstandingReads) {
  Simulator sim;
  PcieLinkConfig config = DeterministicLinkConfig();
  config.nonposted_header_credits = 4;
  PcieLink link(sim, config, "pcie0");
  int completed = 0;
  for (int i = 0; i < 16; i++) {
    link.SubmitRead(64, false, [&] { completed++; });
  }
  // Before any time passes only the credit-limited subset is on the wire.
  sim.RunUntil(1);
  EXPECT_EQ(completed, 0);
  sim.RunUntilIdle();
  EXPECT_EQ(completed, 16);
  EXPECT_EQ(link.read_tlps(), 16u);
}

TEST(DmaEngineTest, TagAndCreditWaitsAreCounted) {
  Simulator sim;
  DmaEngineConfig config;
  config.num_links = 1;
  config.read_tags = 8;
  config.link = DeterministicLinkConfig();
  config.link.nonposted_header_credits = 4;
  DmaEngine dma(sim, config);
  MetricRegistry registry;
  dma.RegisterMetrics(registry);
  int completed = 0;
  for (int i = 0; i < 16; i++) {
    dma.Read(static_cast<uint64_t>(i) * kCacheLineBytes, 64, [&] { completed++; });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(completed, 16);
  // Eight reads queue for a tag. Of the eight holding one, four queue for a
  // credit; the later eight get their tags about a microsecond on, long
  // after the credits (held 200 ns past the request) have come back.
  const MetricLabels nonposted = {{"link", "pcie0"}, {"kind", "nonposted"}};
  const MetricLabels posted = {{"link", "pcie0"}, {"kind", "posted"}};
  EXPECT_EQ(registry.CounterValue("kvd_dma_read_tag_waits_total"), 8u);
  EXPECT_EQ(registry.CounterValue("kvd_pcie_credit_waits_total", nonposted), 4u);
  EXPECT_EQ(registry.GaugeValue("kvd_pcie_credits_peak", nonposted), 4.0);
  EXPECT_EQ(registry.CounterValue("kvd_pcie_credit_waits_total", posted), 0u);
  EXPECT_EQ(registry.GaugeValue("kvd_dma_read_tags_peak"), 8.0);
}

TEST(PcieLinkTest, WireBytesAccounted) {
  Simulator sim;
  PcieLink link(sim, DeterministicLinkConfig(), "pcie0");
  link.SubmitRead(64, false, [] {});
  link.SubmitWrite(128, [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(link.upstream_bytes(), 26u + 26u + 128u);  // read hdr + write TLP
  EXPECT_EQ(link.downstream_bytes(), 26u + 64u);       // completion TLP
}

TEST(PcieLinkTest, RejectsOversizedPayload) {
  Simulator sim;
  PcieLink link(sim, DeterministicLinkConfig(), "pcie0");
  EXPECT_DEATH(link.SubmitRead(4096, false, [] {}), "payload");
}

// Paper §2.4: with 64 tags and ~1050 ns random read latency, 64 B DMA read
// throughput saturates around 60 Mops.
TEST(DmaEngineTest, RandomReadThroughputMatchesPaperCeiling) {
  Simulator sim;
  DmaEngineConfig config;
  DmaEngine dma(sim, config);
  uint64_t completed = 0;
  // Closed loop with far more parallelism than tags: tags are the limiter.
  std::function<void()> refill = [&] {
    completed++;
    dma.Read(Mix64(completed) % (1 << 30) * 64 % (1ull << 36), 64, refill);
  };
  for (int i = 0; i < 256; i++) {
    dma.Read(static_cast<uint64_t>(i) * 4096, 64, refill);
  }
  const SimTime horizon = 2 * kMillisecond;
  sim.RunUntil(horizon);
  const double mops = static_cast<double>(completed) /
                      (static_cast<double>(horizon) / kSecond) / 1e6;
  EXPECT_GT(mops, 50);
  EXPECT_LT(mops, 75);
  EXPECT_EQ(dma.tag_pool().peak_in_use(), 64u);
}

// Writes are posted: 64 B write throughput is bandwidth-bound near the
// theoretical 2 x 7.87 GB/s / 90 B = ~175 Mops, far above read throughput.
TEST(DmaEngineTest, WriteThroughputExceedsReadThroughput) {
  Simulator sim;
  DmaEngineConfig config;
  DmaEngine dma(sim, config);
  uint64_t completed = 0;
  std::function<void()> refill = [&] {
    completed++;
    dma.Write(Mix64(completed) * 64 % (1ull << 36), 64, refill);
  };
  for (int i = 0; i < 256; i++) {
    dma.Write(static_cast<uint64_t>(i) * 4096, 64, refill);
  }
  const SimTime horizon = 1 * kMillisecond;
  sim.RunUntil(horizon);
  const double mops = static_cast<double>(completed) /
                      (static_cast<double>(horizon) / kSecond) / 1e6;
  EXPECT_GT(mops, 120);
}

TEST(DmaEngineTest, LargeReadsSplitIntoTlps) {
  Simulator sim;
  DmaEngineConfig config;
  config.link.random_read_extra_mean = 0;
  DmaEngine dma(sim, config);
  bool done = false;
  dma.Read(0, 1024, [&] { done = true; }, false);
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  uint64_t tlps = 0;
  for (uint32_t i = 0; i < dma.num_links(); i++) {
    tlps += dma.link(i).read_tlps();
  }
  EXPECT_EQ(tlps, 4u);  // 1024 / 256 max payload
}

// Completion records under replay: one tag serializes every TLP, so read i's
// `done` must come after exactly 4 (i + 1) good completions plus the replays
// so far — after its own last TLP, never before — and only once. Issued in
// waves, the record pools stay at one wave's size, not the total read count.
TEST(DmaEngineTest, MultiTlpReadsUnderReplayCompleteOnceAfterLastTlp) {
  Simulator sim;
  DmaEngineConfig config;
  config.read_tags = 1;
  config.max_tlp_attempts = 64;
  config.link.random_read_extra_mean = 0;
  DmaEngine dma(sim, config);
  FaultPlan plan;
  plan.at(FaultSite::kPcieReadCompletion) = 0.3;
  FaultInjector faults(plan);
  dma.SetFaultInjector(&faults);

  constexpr uint32_t kBytes = 3 * 256 + 64;  // 4 TLPs at 256 B max payload
  constexpr int kWaves = 10;
  constexpr int kPerWave = 20;
  std::vector<int> fired(kWaves * kPerWave, 0);
  int completed = 0;
  for (int wave = 0; wave < kWaves; wave++) {
    for (int j = 0; j < kPerWave; j++) {
      const int read = wave * kPerWave + j;
      dma.Read(static_cast<uint64_t>(read) * 4096, kBytes, [&, read] {
        fired[read]++;
        EXPECT_EQ(read, completed++) << "reads complete in issue order";
        const uint64_t transmissions = dma.AggregateReadLatency().count();
        EXPECT_EQ(transmissions, 4u * (read + 1) + dma.read_retries());
      });
    }
    sim.RunUntilIdle();
  }
  EXPECT_EQ(fired, std::vector<int>(kWaves * kPerWave, 1));
  EXPECT_GT(dma.read_retries(), 100u);  // the replay path really ran
  EXPECT_EQ(dma.tag_pool().peak_in_use(), 1u);
  EXPECT_EQ(dma.tag_pool().available(), 1u);
  // Pools sized by one wave in flight, all records back once idle.
  EXPECT_EQ(dma.request_records().peak(), static_cast<uint32_t>(kPerWave));
  EXPECT_EQ(dma.request_records().size(), dma.request_records().peak());
  EXPECT_EQ(dma.tlp_records().peak(), 4u * kPerWave);
  EXPECT_EQ(dma.tlp_records().size(), dma.tlp_records().peak());
  EXPECT_EQ(dma.request_records().live(), 0u);
  EXPECT_EQ(dma.tlp_records().live(), 0u);
  for (uint32_t i = 0; i < dma.num_links(); i++) {
    EXPECT_EQ(dma.link(i).peak_tlp_records(), 1u);  // one tag, one TLP
  }
}

TEST(DmaEngineTest, MultiTlpWritesUnderReplayCompleteOnce) {
  Simulator sim;
  DmaEngineConfig config;
  config.max_tlp_attempts = 64;
  DmaEngine dma(sim, config);
  FaultPlan plan;
  plan.at(FaultSite::kPcieWriteCompletion) = 0.3;
  FaultInjector faults(plan);
  dma.SetFaultInjector(&faults);
  std::vector<int> fired(100, 0);
  for (int i = 0; i < 100; i++) {
    dma.Write(static_cast<uint64_t>(i) * 4096, 1000, [&fired, i] { fired[i]++; });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(fired, std::vector<int>(100, 1));
  EXPECT_GT(dma.write_retries(), 20u);
  EXPECT_EQ(dma.request_records().live(), 0u);
  EXPECT_EQ(dma.request_records().peak(), 100u);
  EXPECT_EQ(dma.tlp_records().peak(), 400u);
}

TEST(DmaEngineTest, SpreadsLoadAcrossLinks) {
  Simulator sim;
  DmaEngineConfig config;
  DmaEngine dma(sim, config);
  for (uint64_t i = 0; i < 2000; i++) {
    dma.Write(i * 64, 64, [] {});
  }
  sim.RunUntilIdle();
  const uint64_t a = dma.link(0).write_tlps();
  const uint64_t b = dma.link(1).write_tlps();
  EXPECT_EQ(a + b, 2000u);
  EXPECT_NEAR(static_cast<double>(a), 1000, 150);
}

}  // namespace
}  // namespace kvd
