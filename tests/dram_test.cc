// Tests for the NIC DRAM model and the load dispatcher (paper §3.3.4).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/dram/load_dispatcher.h"
#include "src/dram/nic_dram.h"
#include "src/fault/fault_injector.h"
#include "src/pcie/dma_engine.h"
#include "src/sim/simulator.h"

namespace kvd {
namespace {

struct Rig {
  Simulator sim;
  DmaEngine dma;
  NicDram dram;

  explicit Rig(NicDramConfig dram_config = {}, DmaEngineConfig dma_config = {})
      : dma(sim, dma_config), dram(sim, dram_config) {}
};

TEST(NicDramTest, LatencyAndSerialization) {
  Rig rig;
  SimTime first = 0;
  SimTime second = 0;
  rig.dram.Access(64, [&] { first = rig.sim.Now(); });
  rig.dram.Access(64, [&] { second = rig.sim.Now(); });
  rig.sim.RunUntilIdle();
  // 64 B at 12.8 GB/s x 0.6 random efficiency = 8.3 ns occupancy + 120 ns
  // latency.
  EXPECT_NEAR(static_cast<double>(first), 128.3 * kNanosecond, 0.2 * kNanosecond);
  // Second access starts only after the first vacates the channel.
  EXPECT_NEAR(static_cast<double>(second), 136.7 * kNanosecond, 0.2 * kNanosecond);
  EXPECT_EQ(rig.dram.bytes_transferred(), 128u);
}

TEST(LoadDispatcherTest, PcieOnlyPolicyNeverTouchesDram) {
  Rig rig;
  LoadDispatcherConfig config;
  config.policy = DispatchPolicy::kPcieOnly;
  LoadDispatcher dispatcher(rig.sim, rig.dma, rig.dram, config);
  for (uint64_t i = 0; i < 100; i++) {
    dispatcher.Access(AccessKind::kRead, i * 64, 64, [] {});
  }
  rig.sim.RunUntilIdle();
  EXPECT_EQ(dispatcher.stats().pcie_accesses, 100u);
  EXPECT_EQ(rig.dram.accesses(), 0u);
}

TEST(LoadDispatcherTest, DispatchRatioSelectsExpectedFraction) {
  Rig rig;
  LoadDispatcherConfig config;
  config.policy = DispatchPolicy::kHybrid;
  config.dispatch_ratio = 0.5;
  LoadDispatcher dispatcher(rig.sim, rig.dma, rig.dram, config);
  constexpr int kAccesses = 20000;
  for (int i = 0; i < kAccesses; i++) {
    dispatcher.Access(AccessKind::kRead, static_cast<uint64_t>(i) * 64, 64, [] {});
  }
  rig.sim.RunUntilIdle();
  const auto& stats = dispatcher.stats();
  const uint64_t cacheable = stats.dram_hits + stats.dram_misses;
  EXPECT_NEAR(static_cast<double>(cacheable) / kAccesses, 0.5, 0.02);
}

TEST(LoadDispatcherTest, RepeatedAccessHitsAfterFill) {
  Rig rig;
  LoadDispatcherConfig config;
  config.policy = DispatchPolicy::kCacheAll;
  LoadDispatcher dispatcher(rig.sim, rig.dma, rig.dram, config);
  dispatcher.Access(AccessKind::kRead, 4096, 64, [] {});
  rig.sim.RunUntilIdle();
  EXPECT_EQ(dispatcher.stats().dram_misses, 1u);
  dispatcher.Access(AccessKind::kRead, 4096, 64, [] {});
  rig.sim.RunUntilIdle();
  EXPECT_EQ(dispatcher.stats().dram_hits, 1u);
}

TEST(LoadDispatcherTest, DirtyEvictionCausesWriteback) {
  // 16-line cache for easy conflicts.
  Rig rig(NicDramConfig{.capacity_bytes = 64 * 16});
  LoadDispatcherConfig config;
  config.policy = DispatchPolicy::kCacheAll;
  LoadDispatcher dispatcher(rig.sim, rig.dma, rig.dram, config);
  // Write line 0, then touch the conflicting line 16 (same slot).
  dispatcher.Access(AccessKind::kWrite, 0, 64, [] {});
  dispatcher.Access(AccessKind::kRead, 16 * 64, 64, [] {});
  rig.sim.RunUntilIdle();
  EXPECT_EQ(dispatcher.stats().writebacks, 1u);
}

TEST(LoadDispatcherTest, CleanEvictionCausesNoWriteback) {
  Rig rig(NicDramConfig{.capacity_bytes = 64 * 16});
  LoadDispatcherConfig config;
  config.policy = DispatchPolicy::kCacheAll;
  LoadDispatcher dispatcher(rig.sim, rig.dma, rig.dram, config);
  dispatcher.Access(AccessKind::kRead, 0, 64, [] {});
  dispatcher.Access(AccessKind::kRead, 16 * 64, 64, [] {});
  rig.sim.RunUntilIdle();
  EXPECT_EQ(dispatcher.stats().writebacks, 0u);
}

// An uncorrectable ECC error on a dirty cached line demotes it: the host copy
// replaces the dead cached one, so the line is no longer dirty and evicting it
// writes nothing back.
TEST(LoadDispatcherTest, UncorrectableEccOnDirtyCachedLineDemotesWithoutWriteback) {
  Rig rig(NicDramConfig{.capacity_bytes = 64 * 16});
  FaultPlan plan;
  plan.schedule.push_back({FaultSite::kDramUncorrectableFlip, 1});
  FaultInjector faults(plan);
  rig.dram.SetFaultInjector(&faults);
  LoadDispatcherConfig config;
  config.policy = DispatchPolicy::kCacheAll;
  LoadDispatcher dispatcher(rig.sim, rig.dma, rig.dram, config);
  dispatcher.Access(AccessKind::kWrite, 0, 64, [] {});
  dispatcher.Access(AccessKind::kRead, 0, 64, [] {});  // the demotion
  dispatcher.Access(AccessKind::kRead, 16 * 64, 64, [] {});
  rig.sim.RunUntilIdle();
  EXPECT_EQ(dispatcher.stats().ecc_demotions, 1u);
  EXPECT_EQ(dispatcher.stats().writebacks, 0u);
}

TEST(LoadDispatcherTest, MultiLineAccessIsOneDispatch) {
  Rig rig;
  LoadDispatcherConfig config;
  config.policy = DispatchPolicy::kCacheAll;
  LoadDispatcher dispatcher(rig.sim, rig.dma, rig.dram, config);
  dispatcher.Access(AccessKind::kRead, 0, 256, [] {});  // 4 lines
  rig.sim.RunUntilIdle();
  EXPECT_EQ(dispatcher.stats().total(), 1u);
  dispatcher.Access(AccessKind::kRead, 0, 256, [] {});
  rig.sim.RunUntilIdle();
  EXPECT_EQ(dispatcher.stats().dram_hits, 1u);  // all 4 lines present
}

// The dispatcher's completion records over a replaying, one-tag DMA engine:
// every multi-TLP access (hits, misses with refill, PCIe-direct reads) fires
// `done` exactly once, after its PCIe data has fully landed, and the record
// pool stays at the peak number of accesses in flight, not the total.
TEST(LoadDispatcherTest, MultiTlpAccessesUnderReplayCompleteOnce) {
  DmaEngineConfig dma_config;
  dma_config.read_tags = 1;
  dma_config.max_tlp_attempts = 64;
  Rig rig(NicDramConfig{.capacity_bytes = 64 * kMiB}, dma_config);
  FaultPlan plan;
  plan.at(FaultSite::kPcieReadCompletion) = 0.3;
  FaultInjector faults(plan);
  rig.dma.SetFaultInjector(&faults);
  LoadDispatcherConfig config;
  config.policy = DispatchPolicy::kHybrid;
  config.dispatch_ratio = 0.5;
  LoadDispatcher dispatcher(rig.sim, rig.dma, rig.dram, config);

  constexpr uint32_t kBytes = 512;  // two 256 B TLPs over PCIe
  constexpr int kWaves = 8;
  constexpr int kPerWave = 16;
  std::vector<int> fired(kWaves * kPerWave, 0);
  std::vector<bool> hit(kWaves * kPerWave, false);
  for (int wave = 0; wave < kWaves; wave++) {
    for (int j = 0; j < kPerWave; j++) {
      // Even waves touch fresh extents (misses / PCIe), odd waves revisit the
      // previous wave's (hits on the cacheable ones).
      const int access = wave * kPerWave + j;
      const uint64_t address = static_cast<uint64_t>((wave / 2) * kPerWave + j) * 4096;
      const uint64_t reads_before = rig.dma.AggregateReadLatency().count();
      const uint64_t hits_before = dispatcher.stats().dram_hits;
      dispatcher.Access(AccessKind::kRead, address, kBytes,
                        [&, access, reads_before] {
                          fired[access]++;
                          // A PCIe-served access returns only after both of
                          // its TLPs have completed.
                          if (!hit[access]) {
                            EXPECT_GE(rig.dma.AggregateReadLatency().count(),
                                      reads_before + 2);
                          }
                        });
      hit[access] = dispatcher.stats().dram_hits != hits_before;
    }
    rig.sim.RunUntilIdle();
  }
  EXPECT_EQ(fired, std::vector<int>(kWaves * kPerWave, 1));
  EXPECT_GT(dispatcher.stats().dram_hits, 0u);
  EXPECT_GT(dispatcher.stats().dram_misses, 0u);
  EXPECT_GT(dispatcher.stats().pcie_accesses, 0u);
  EXPECT_GT(rig.dma.read_retries(), 10u);
  EXPECT_EQ(dispatcher.peak_routes_in_flight(), static_cast<uint32_t>(kPerWave));
  EXPECT_EQ(rig.dma.request_records().live(), 0u);
  EXPECT_LE(rig.dma.request_records().peak(), static_cast<uint32_t>(kPerWave));
}

TEST(OptimalDispatchRatioTest, UniformWorkloadPrefersHighRatio) {
  // With DRAM nearly as fast as PCIe and a tiny cache (k = 1/16), uniform
  // workloads gain little from caching: optimal l routes roughly half the
  // load to DRAM (paper: l ~ 0.5 used in Figure 14).
  const double l = LoadDispatcher::OptimalDispatchRatio(13.2e9, 12.8e9, 1.0 / 16,
                                                        /*long_tail=*/false);
  EXPECT_GT(l, 0.4);
  EXPECT_LT(l, 0.75);
}

TEST(OptimalDispatchRatioTest, LongTailToleratesLargerRatio) {
  // Zipf hit rates stay high as l grows, so more load can shift to DRAM.
  const double uniform = LoadDispatcher::OptimalDispatchRatio(13.2e9, 12.8e9,
                                                              1.0 / 16, false);
  const double long_tail = LoadDispatcher::OptimalDispatchRatio(13.2e9, 12.8e9,
                                                                1.0 / 16, true);
  EXPECT_GT(long_tail, uniform);
  EXPECT_LE(long_tail, 1.0);
}

TEST(OptimalDispatchRatioTest, SlowDramPushesLoadToPcie) {
  const double fast = LoadDispatcher::OptimalDispatchRatio(13.2e9, 12.8e9,
                                                           1.0 / 16, false);
  const double slow = LoadDispatcher::OptimalDispatchRatio(13.2e9, 3.2e9,
                                                           1.0 / 16, false);
  EXPECT_LT(slow, fast);
}

// Paper §3.3.4: "the cache hit probability is as high as 0.7 with 100M cache
// in 10G corpus" under the long-tail approximation h(l)=log(kn)/log(ln).
TEST(OptimalDispatchRatioTest, PaperHitRateExample) {
  const double k = 0.01;       // 100M / 10G
  const double n = 1e10 / 64;  // corpus keys (ratio is what matters)
  const double h = std::log(k * n) / std::log(1.0 * n);
  EXPECT_NEAR(h, 0.75, 0.05);
}

}  // namespace
}  // namespace kvd
