// DRAM load dispatcher (paper §3.3.4, Figure 7, §4 "DRAM Load Dispatcher").
//
// The on-NIC DRAM (4 GiB, 12.8 GB/s) is too small to hold the store and too
// slow to serve as a pure cache in front of PCIe (13.2 GB/s). KV-Direct
// instead caches only a *hash-selected fraction l* of host memory — the load
// dispatch ratio — so the two bandwidths add:
//
//   cacheable(addr)  = Hash(addr / 64) < l          (64 B granularity)
//   non-cacheable    -> PCIe directly
//   cacheable hit    -> NIC DRAM
//   cacheable miss   -> PCIe fetch + DRAM fill (+ writeback when dirty)
//
// Cache metadata (4 tag bits + dirty bit per 64 B line) lives in spare ECC
// bits (§4), so metadata costs no extra DRAM transaction — the model keeps
// the metadata in a side array and charges no access for it. The cache is
// direct-mapped: with host:NIC = 16:1, 4 tag bits suffice.
//
// Policies (ablation for Figure 14):
//   kHybrid        — the paper's design, dispatch ratio l
//   kPcieOnly      — baseline: all accesses to PCIe
//   kCacheAll      — classic cache: every line cacheable (l = 1)
//   kFixedPartition— first l fraction of memory pinned in DRAM, rest on PCIe
#ifndef SRC_DRAM_LOAD_DISPATCHER_H_
#define SRC_DRAM_LOAD_DISPATCHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/units.h"
#include "src/dram/nic_dram.h"
#include "src/mem/access_engine.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"
#include "src/pcie/dma_engine.h"
#include "src/sim/record_pool.h"
#include "src/sim/simulator.h"

namespace kvd {

enum class DispatchPolicy : uint8_t {
  kHybrid,
  kPcieOnly,
  kCacheAll,
  kFixedPartition,
};

struct LoadDispatcherConfig {
  DispatchPolicy policy = DispatchPolicy::kHybrid;
  double dispatch_ratio = 0.5;       // l: fraction of host memory cacheable
  uint64_t host_memory_bytes = 0;    // required; cache indexing is derived
  uint64_t nic_dram_bytes = 4 * kGiB;
};

struct DispatchStats {
  uint64_t pcie_accesses = 0;
  uint64_t dram_hits = 0;
  uint64_t dram_misses = 0;   // cacheable but absent: PCIe fetch + fill
  uint64_t writebacks = 0;    // dirty evictions
  uint64_t ecc_demotions = 0; // uncorrectable ECC: line dropped, host re-read

  uint64_t total() const { return pcie_accesses + dram_hits + dram_misses; }
  double HitRate() const {
    const uint64_t cacheable = dram_hits + dram_misses;
    return cacheable > 0 ? static_cast<double>(dram_hits) / static_cast<double>(cacheable)
                         : 0.0;
  }
};

class LoadDispatcher {
 public:
  LoadDispatcher(Simulator& sim, DmaEngine& dma, NicDram& dram,
                 const LoadDispatcherConfig& config);

  // Routes one timed memory access. `done` fires when the data is available
  // (read) or accepted (write). `trace` (if nonzero) records a kMemAccess
  // span with the chosen route as detail, plus the underlying DMA/DRAM spans.
  void Access(AccessKind kind, uint64_t address, uint32_t bytes,
              std::function<void()> done, uint64_t trace = 0);

  const DispatchStats& stats() const { return stats_; }
  const LoadDispatcherConfig& config() const { return config_; }
  // Accesses between Access() and `done`; the record pool grows only to this
  // peak, which the KV processor's in-flight bound (plus its write-backs)
  // caps.
  uint32_t peak_routes_in_flight() const { return routes_.peak(); }

  void RegisterMetrics(MetricRegistry& registry) const;
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  // ECC demotions fire the flight recorder once the recovery read completes.
  void SetFlightRecorder(FlightRecorder* recorder) { flight_ = recorder; }

  // Solves the paper's load-balance condition for the optimal dispatch ratio:
  // PCIe demand [(1-l) + l(1-h(l))] / tput_pcie equals DRAM demand
  // [l·h(l) + 2·l·(1-h(l))] / tput_dram, where h(l) is the cache hit rate.
  //   uniform workload: h(l) = min(k/l, 1),  k = nic_size / host_size
  //   long-tail (Zipf): h(l) = log(k·n) / log(l·n) for an n-key corpus
  static double OptimalDispatchRatio(double tput_pcie, double tput_dram, double k,
                                     bool long_tail, double corpus_keys = 1e9);

 private:
  bool IsCacheable(uint64_t address) const;
  // Per-line cache state transition; returns hit/miss/writeback via stats.
  struct LineOutcome {
    bool hit = false;
    bool writeback = false;
  };
  LineOutcome TouchLine(uint64_t address, bool is_write);
  // One routed access in flight: the caller's `done` and what completing it
  // takes — an optional NIC DRAM refill first, the route's timeline interval
  // (which is also a kMemAccess span of op `trace`) when tracing was on at
  // issue, and an optional flight-recorder trigger after `done`.
  struct Route {
    std::function<void()> done;
    SimTime start = 0;
    uint64_t trace = 0;
    uint64_t route = 0;  // kRoute* (src/obs/tracer.h)
    uint32_t bytes = 0;
    bool traced = false;
    bool fill = false;
    const char* flight_message = nullptr;
  };
  uint32_t OpenRoute(uint64_t route, uint32_t bytes, uint64_t trace,
                     std::function<void()> done);
  void FinishRoute(uint32_t index);
  // Fetches the extent over PCIe, refills the NIC DRAM line when the read
  // lands, then completes `index`.
  void ReadAndFill(uint64_t address, uint32_t bytes, uint32_t index);

  Simulator& sim_;
  DmaEngine& dma_;
  NicDram& dram_;
  LoadDispatcherConfig config_;
  Tracer* tracer_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  uint64_t cacheable_threshold_;  // dispatch ratio scaled to the hash range
  uint64_t num_cache_lines_;

  // Direct-mapped cache metadata: tag (line address) or kInvalidTag per slot,
  // plus a dirty flag. Lives in spare ECC bits in the real hardware.
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};
  std::vector<uint64_t> line_tag_;
  std::vector<bool> line_dirty_;

  RecordPool<Route> routes_;
  DispatchStats stats_;
};

}  // namespace kvd

#endif  // SRC_DRAM_LOAD_DISPATCHER_H_
