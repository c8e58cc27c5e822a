#include "src/dram/load_dispatcher.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/assert.h"
#include "src/common/hashing.h"

namespace kvd {

LoadDispatcher::LoadDispatcher(Simulator& sim, DmaEngine& dma, NicDram& dram,
                               const LoadDispatcherConfig& config)
    : sim_(sim), dma_(dma), dram_(dram), config_(config) {
  KVD_CHECK_MSG(config.host_memory_bytes > 0, "host_memory_bytes required");
  KVD_CHECK(config.dispatch_ratio >= 0.0 && config.dispatch_ratio <= 1.0);
  double ratio = config.dispatch_ratio;
  if (config.policy == DispatchPolicy::kCacheAll) {
    ratio = 1.0;
  }
  cacheable_threshold_ = static_cast<uint64_t>(
      ratio * static_cast<double>(~uint64_t{0}));
  num_cache_lines_ = std::max<uint64_t>(1, config.nic_dram_bytes / kCacheLineBytes);
  line_tag_.assign(num_cache_lines_, kInvalidTag);
  line_dirty_.assign(num_cache_lines_, false);
}

bool LoadDispatcher::IsCacheable(uint64_t address) const {
  switch (config_.policy) {
    case DispatchPolicy::kPcieOnly:
      return false;
    case DispatchPolicy::kCacheAll:
      return true;
    case DispatchPolicy::kFixedPartition:
      // First `ratio` fraction of host memory lives permanently in NIC DRAM.
      return static_cast<double>(address) <
             config_.dispatch_ratio * static_cast<double>(config_.host_memory_bytes);
    case DispatchPolicy::kHybrid:
      return AddressLineHash(address) <= cacheable_threshold_;
  }
  return false;
}

LoadDispatcher::LineOutcome LoadDispatcher::TouchLine(uint64_t address, bool is_write) {
  const uint64_t line = address / kCacheLineBytes;
  const uint64_t slot = line % num_cache_lines_;
  LineOutcome outcome;
  if (line_tag_[slot] == line) {
    outcome.hit = true;
  } else {
    outcome.writeback = line_tag_[slot] != kInvalidTag && line_dirty_[slot];
    line_tag_[slot] = line;
    line_dirty_[slot] = false;
  }
  if (is_write) {
    line_dirty_[slot] = true;
  }
  return outcome;
}

uint32_t LoadDispatcher::OpenRoute(uint64_t route, uint32_t bytes, uint64_t trace,
                                   std::function<void()> done) {
  const uint32_t index = routes_.Acquire();
  Route& record = routes_[index];
  record.done = std::move(done);
  record.start = sim_.Now();
  record.trace = trace;
  record.route = route;
  record.bytes = bytes;
  record.traced = tracer_ != nullptr && tracer_->enabled();
  record.fill = false;
  record.flight_message = nullptr;
  return index;
}

void LoadDispatcher::FinishRoute(uint32_t index) {
  Route& record = routes_[index];
  if (record.fill) {
    dram_.Access(record.bytes, [] {}, record.trace);
  }
  if (record.traced) {
    tracer_->Complete("dispatch", RouteName(record.route), record.start, sim_.Now(),
                      {{"bytes", record.bytes}},
                      OpMark::Span(record.trace, SpanKind::kMemAccess, record.route));
  }
  const char* flight_message = record.flight_message;
  std::function<void()> done = std::move(record.done);
  routes_.Release(index);
  done();
  // Fire once the recovery read has landed (and `done` has closed the route
  // span) so the dump's live trace carries the demoted access's full span
  // tree.
  if (flight_message != nullptr && flight_ != nullptr) {
    flight_->Trigger(FlightTrigger::kEccDemotion, flight_message);
  }
}

void LoadDispatcher::ReadAndFill(uint64_t address, uint32_t bytes, uint32_t index) {
  routes_[index].fill = true;
  dma_.Read(address, bytes, [this, index] { FinishRoute(index); },
            /*random_access=*/true, routes_[index].trace);
}

void LoadDispatcher::Access(AccessKind kind, uint64_t address, uint32_t bytes,
                            std::function<void()> done, uint64_t op_trace) {
  KVD_CHECK(bytes > 0);
  if (!IsCacheable(address)) {
    stats_.pcie_accesses++;
    const uint32_t index = OpenRoute(kRoutePcie, bytes, op_trace, std::move(done));
    if (kind == AccessKind::kRead) {
      dma_.Read(address, bytes, [this, index] { FinishRoute(index); },
                /*random_access=*/true, op_trace);
    } else {
      dma_.Write(address, bytes, [this, index] { FinishRoute(index); }, op_trace);
    }
    return;
  }

  if (config_.policy == DispatchPolicy::kFixedPartition) {
    if (kind == AccessKind::kRead &&
        dram_.CheckLineRead(address) == EccReadOutcome::kUncorrectable) {
      // Uncorrectable ECC on the pinned copy: serve from host memory and
      // refill the DRAM line from there.
      stats_.ecc_demotions++;
      const uint32_t index =
          OpenRoute(kRouteEccDemotion, bytes, op_trace, std::move(done));
      routes_[index].flight_message = "uncorrectable ECC; line demoted to host";
      ReadAndFill(address, bytes, index);
      return;
    }
    // Pinned data: always a DRAM hit, never a fill or writeback.
    stats_.dram_hits++;
    const uint32_t index = OpenRoute(kRouteCacheHit, bytes, op_trace, std::move(done));
    dram_.Access(bytes, [this, index] { FinishRoute(index); }, op_trace);
    return;
  }

  // Cacheable: walk the covered lines; any absent line makes the access a
  // miss (PCIe fetch of the full extent + DRAM fill). The ECC-spare-bit
  // metadata scheme means tag checks themselves cost no DRAM transactions.
  const bool is_write = kind == AccessKind::kWrite;
  bool all_hit = true;
  uint32_t writebacks = 0;
  for (uint64_t offset = 0; offset < bytes; offset += kCacheLineBytes) {
    const LineOutcome outcome = TouchLine(address + offset, is_write);
    all_hit = all_hit && outcome.hit;
    writebacks += outcome.writeback ? 1 : 0;
  }

  if (all_hit) {
    if (!is_write &&
        dram_.CheckLineRead(address) == EccReadOutcome::kUncorrectable) {
      // Uncorrectable ECC on a cached line: the cached copy is dead.
      // Demote — clear the dirty flags (the content is being replaced by
      // the host copy) and re-read over PCIe with a DRAM refill, exactly
      // like a read miss. Functional data lives in the processor model;
      // this charges the degradation's timing cost.
      stats_.ecc_demotions++;
      for (uint64_t offset = 0; offset < bytes; offset += kCacheLineBytes) {
        const uint64_t slot =
            ((address + offset) / kCacheLineBytes) % num_cache_lines_;
        line_dirty_[slot] = false;
      }
      const uint32_t index =
          OpenRoute(kRouteEccDemotion, bytes, op_trace, std::move(done));
      routes_[index].flight_message = "uncorrectable ECC; cached line demoted";
      ReadAndFill(address, bytes, index);
      return;
    }
    stats_.dram_hits++;
    const uint32_t index = OpenRoute(kRouteCacheHit, bytes, op_trace, std::move(done));
    dram_.Access(bytes, [this, index] { FinishRoute(index); }, op_trace);
    return;
  }

  stats_.dram_misses++;
  stats_.writebacks += writebacks;
  const uint32_t index = OpenRoute(kRouteCacheMiss, bytes, op_trace, std::move(done));
  // Dirty evictions drain to host memory in the background (posted writes).
  for (uint32_t i = 0; i < writebacks; i++) {
    dma_.Write(address, kCacheLineBytes, [] {}, op_trace);
  }
  if (is_write) {
    // Write miss: the line is allocated in DRAM and marked dirty; the write
    // is durable (w.r.t. NIC-side ordering) once the DRAM accepts it.
    dram_.Access(bytes, [this, index] { FinishRoute(index); }, op_trace);
    return;
  }
  // Read miss: fetch over PCIe, then fill DRAM (fill overlaps the return
  // path; data is available to the pipeline when PCIe completes).
  ReadAndFill(address, bytes, index);
}

void LoadDispatcher::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_dispatch_pcie_total",
                           "Accesses routed directly to PCIe", {},
                           &stats_.pcie_accesses);
  registry.RegisterCounter("kvd_dispatch_dram_hits_total", "NIC DRAM cache hits",
                           {}, &stats_.dram_hits);
  registry.RegisterCounter("kvd_dispatch_dram_misses_total",
                           "Cacheable accesses absent from NIC DRAM", {},
                           &stats_.dram_misses);
  registry.RegisterCounter("kvd_dispatch_writebacks_total", "Dirty line evictions",
                           {}, &stats_.writebacks);
  registry.RegisterCounter("kvd_dispatch_ecc_demotions_total",
                           "Lines demoted to host memory after uncorrectable ECC",
                           {}, &stats_.ecc_demotions);
  registry.RegisterGauge("kvd_dispatch_routes_peak",
                         "Peak dispatched accesses in flight (completion records held)",
                         {}, [this] { return static_cast<double>(routes_.peak()); });
  registry.RegisterGauge("kvd_dispatch_hit_rate", "Hit rate over cacheable accesses",
                         {}, [this] { return stats_.HitRate(); });
}

double LoadDispatcher::OptimalDispatchRatio(double tput_pcie, double tput_dram,
                                            double k, bool long_tail,
                                            double corpus_keys) {
  KVD_CHECK(tput_pcie > 0 && tput_dram > 0);
  KVD_CHECK(k > 0 && k <= 1.0);
  auto hit_rate = [&](double l) {
    if (l <= k) {
      return 1.0;  // cacheable corpus fits entirely in NIC DRAM
    }
    if (!long_tail) {
      return k / l;
    }
    // Zipf long-tail approximation from the paper: h(l) = log(kn)/log(ln).
    const double num = std::log(k * corpus_keys);
    const double den = std::log(l * corpus_keys);
    return den > 0 ? std::clamp(num / den, 0.0, 1.0) : 1.0;
  };
  // PCIe demand falls with l, DRAM demand rises: bisect on their difference.
  auto imbalance = [&](double l) {
    const double h = hit_rate(l);
    const double pcie_load = (1 - l) + l * (1 - h);
    const double dram_load = l * h + 2 * l * (1 - h);  // miss = fill + read
    return pcie_load / tput_pcie - dram_load / tput_dram;
  };
  double lo = 1e-6;
  double hi = 1.0;
  if (imbalance(hi) >= 0) {
    return hi;  // PCIe remains the bottleneck even at l = 1
  }
  for (int i = 0; i < 60; i++) {
    const double mid = (lo + hi) / 2;
    if (imbalance(mid) >= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2;
}

}  // namespace kvd
