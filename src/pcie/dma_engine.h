// DMA engine multiplexing the NIC's PCIe endpoints (paper §2.4, §4).
//
// The FPGA's DMA engine supports only 64 outstanding PCIe tags, shared across
// both Gen3 x8 links of the bifurcated x16 connector — this, not raw
// bandwidth, caps random 64 B read throughput at ~60 Mops (Figure 3a).
// Requests larger than the TLP max payload are split into multiple TLPs,
// each consuming a tag for its full round trip.
#ifndef SRC_PCIE_DMA_ENGINE_H_
#define SRC_PCIE_DMA_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/obs/tracer.h"
#include "src/pcie/pcie_link.h"
#include "src/sim/record_pool.h"
#include "src/sim/simulator.h"
#include "src/sim/token_pool.h"

namespace kvd {

struct DmaEngineConfig {
  uint32_t num_links = 2;
  uint32_t read_tags = 64;  // shared across links
  // Transient completion errors (injected via FaultInjector) are replayed up
  // to this many transmissions per TLP; exhausting the budget is fatal, the
  // model's equivalent of a PCIe AER uncorrectable error.
  uint32_t max_tlp_attempts = 8;
  PcieLinkConfig link;
};

// One DMA request in flight: the caller's completion and the TLPs it awaits.
struct DmaRequest {
  std::function<void()> done;
  uint32_t remaining = 0;  // TLPs not yet completed
  bool random_access = true;
  uint64_t trace = 0;
};

// One TLP of a request, from tag grant (reads) or issue (writes) to a good
// completion, across any replays.
struct DmaTlp {
  uint32_t request = 0;
  uint32_t bytes = 0;
  uint64_t address = 0;
  uint32_t attempt = 0;
  uint32_t link = 0;
  SimTime start = 0;  // of the current attempt
};

class DmaEngine {
 public:
  DmaEngine(Simulator& sim, const DmaEngineConfig& config);

  // DMA read of `bytes` starting at `address`; `done` fires when all
  // completions have arrived. `random_access` selects uncached latency.
  // `trace` (if nonzero) records one kDmaTlp span per TLP attempt.
  void Read(uint64_t address, uint32_t bytes, std::function<void()> done,
            bool random_access = true, uint64_t trace = 0);

  // Posted DMA write; `done` fires when the last TLP is on the wire.
  void Write(uint64_t address, uint32_t bytes, std::function<void()> done,
             uint64_t trace = 0);

  const DmaEngineConfig& config() const { return config_; }

  // Registers engine-level counters plus every link's metrics.
  void RegisterMetrics(MetricRegistry& registry) const;
  // Each TLP attempt becomes one "pcie" timeline interval, which is also a
  // kDmaTlp span of the op it serves.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  // Attaches fault injection for transient completion errors; each failed
  // TLP re-runs through the link (holding its tag) with a bounded budget.
  void SetFaultInjector(FaultInjector* injector) { fault_ = injector; }

  PcieLink& link(uint32_t i) { return *links_[i]; }
  uint32_t num_links() const { return static_cast<uint32_t>(links_.size()); }

  uint64_t reads_issued() const { return reads_issued_; }
  uint64_t writes_issued() const { return writes_issued_; }
  uint64_t read_retries() const { return read_retries_; }
  uint64_t write_retries() const { return write_retries_; }
  const TokenPool& tag_pool() const { return read_tags_; }
  // Completion-record pools (src/sim/record_pool.h). Each grows only to its
  // peak in-flight count: DMA requests outstanding, and TLPs outstanding
  // including reads still queued for a tag.
  const RecordPool<DmaRequest>& request_records() const { return requests_; }
  const RecordPool<DmaTlp>& tlp_records() const { return tlps_; }

  // Aggregate read latency over all links, in nanoseconds.
  LatencyHistogram AggregateReadLatency() const;

 private:
  uint32_t PickLink(uint64_t address) const;
  // Parks `done` in a request record awaiting one TLP per max-payload chunk
  // of `bytes`; returns the record's index.
  uint32_t OpenRequest(uint32_t bytes, bool random_access, uint64_t trace,
                       std::function<void()> done);
  // One TLP transmission of record `tlp`; on an injected transient completion
  // error, runs again with the attempt count bumped until the budget is spent.
  void SubmitReadTlp(uint32_t tlp);
  void SubmitWriteTlp(uint32_t tlp);
  void OnReadTlpDone(uint32_t tlp);
  void OnWriteTlpDone(uint32_t tlp);
  // Counts one finished TLP against its request; the last one fires `done`.
  void FinishTlp(uint32_t tlp);

  Simulator& sim_;
  DmaEngineConfig config_;
  FaultInjector* fault_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<PcieLink>> links_;
  TokenPool read_tags_;
  RecordPool<DmaRequest> requests_;
  RecordPool<DmaTlp> tlps_;
  uint64_t reads_issued_ = 0;
  uint64_t writes_issued_ = 0;
  uint64_t read_retries_ = 0;
  uint64_t write_retries_ = 0;
};

}  // namespace kvd

#endif  // SRC_PCIE_DMA_ENGINE_H_
