// Timing model of the NIC's on-board DRAM (paper §2.3, §3.3.4).
//
// The board carries 4 GiB of DDR3-1600 on a single channel: 12.8 GB/s peak,
// which is *slightly slower* than the two PCIe endpoints combined
// (13.2 GB/s achievable) — the reason pure caching loses to hybrid load
// dispatch in Figure 14. Modelled as a serial resource with fixed access
// latency plus bandwidth-proportional occupancy.
#ifndef SRC_DRAM_NIC_DRAM_H_
#define SRC_DRAM_NIC_DRAM_H_

#include <cstdint>
#include <functional>

#include "src/common/units.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"
#include "src/sim/simulator.h"

namespace kvd {

struct NicDramConfig {
  uint64_t capacity_bytes = 4 * kGiB;
  double bandwidth_bytes_per_sec = 12.8e9;  // DDR3-1600 single channel, peak
  // Random 64 B accesses pay row activation/precharge on most accesses; a
  // closed-page DDR3 channel sustains roughly 60% of peak on such a stream.
  // Effective random throughput ~7.7 GB/s (~120 M 64 B accesses/s) — below
  // the two PCIe endpoints' 13.2 GB/s, which is exactly why the paper
  // dispatches load instead of using the DRAM as a pure cache (§3.3.4).
  double random_access_efficiency = 0.6;
  SimTime access_latency = 120 * kNanosecond;  // controller + DDR3 latency
};

// What the ECC lane reported for a line read under fault injection.
enum class EccReadOutcome : uint8_t {
  kClean,          // no flip injected
  kCorrected,      // single-bit flip repaired by Hamming(71,64)
  kUncorrectable,  // multi-bit flip detected; line content is untrustworthy
};

class NicDram {
 public:
  NicDram(Simulator& sim, const NicDramConfig& config);

  // Performs a timed access of `bytes`; `done` fires when complete. `trace`
  // (if nonzero) records a kNicDramAccess span covering queueing + access.
  // With an empty `done` (a fill nobody waits for) the access still books
  // the channel and reserves its finish on the clock, but schedules nothing.
  void Access(uint32_t bytes, std::function<void()> done, uint64_t trace = 0);

  // Consults the fault injector for a bit flip on a line read at `address`
  // and, if one fires, pushes it through the real ECC codec
  // (src/dram/ecc_metadata): a single-bit flip must come back corrected
  // with data and metadata intact; a double-bit flip in one word must be
  // detected-but-uncorrectable. Callers demote uncorrectable lines.
  EccReadOutcome CheckLineRead(uint64_t address);

  const NicDramConfig& config() const { return config_; }
  uint64_t accesses() const { return accesses_; }
  uint64_t bytes_transferred() const { return bytes_; }
  uint64_t ecc_correctable_injected() const { return correctable_injected_; }
  uint64_t ecc_corrected_words() const { return corrected_words_; }
  uint64_t ecc_uncorrectable_injected() const { return uncorrectable_injected_; }

  void RegisterMetrics(MetricRegistry& registry) const;
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  void SetFaultInjector(FaultInjector* injector) { fault_ = injector; }

 private:
  Simulator& sim_;
  NicDramConfig config_;
  Tracer* tracer_ = nullptr;
  FaultInjector* fault_ = nullptr;
  double picos_per_byte_;
  SimTime channel_free_at_ = 0;
  uint64_t accesses_ = 0;
  uint64_t bytes_ = 0;
  uint64_t correctable_injected_ = 0;
  uint64_t corrected_words_ = 0;
  uint64_t uncorrectable_injected_ = 0;
};

}  // namespace kvd

#endif  // SRC_DRAM_NIC_DRAM_H_
