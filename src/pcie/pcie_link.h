// Discrete-event model of one PCIe Gen3 x8 endpoint (paper §2.4).
//
// The parameters default to the measurements the paper reports for its
// Stratix V programmable NIC:
//   - 7.87 GB/s theoretical bandwidth per direction per endpoint
//   - 26 B TLP header + padding per transaction (64-bit addressing)
//   - 84 non-posted header credits (DMA reads), 88 posted (DMA writes)
//   - cached DMA read latency ~800 ns; random reads add ~250 ns on average
//     (host DRAM access, refresh, response reordering) — Figure 3b
//
// A read holds a non-posted credit until the host accepts the request and a
// DMA tag (owned by the DmaEngine above this link) until the completion
// returns. Writes are posted: they complete at the requester as soon as the
// TLP is on the wire, and the credit returns after the host consumes it.
#ifndef SRC_PCIE_PCIE_LINK_H_
#define SRC_PCIE_PCIE_LINK_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/obs/metric_registry.h"
#include "src/sim/record_pool.h"
#include "src/sim/simulator.h"
#include "src/sim/token_pool.h"

namespace kvd {

struct PcieLinkConfig {
  double bandwidth_bytes_per_sec = 7.87e9;  // per direction
  uint32_t tlp_header_bytes = 26;
  uint32_t max_payload_bytes = 256;           // max TLP payload per transaction
  uint32_t nonposted_header_credits = 84;     // read requests in flight
  uint32_t posted_header_credits = 88;        // write requests in flight
  SimTime cached_read_latency = 800 * kNanosecond;
  SimTime random_read_extra_mean = 250 * kNanosecond;  // exponential tail
  SimTime host_consume_latency = 200 * kNanosecond;    // credit return delay
};

class PcieLink {
 public:
  PcieLink(Simulator& sim, const PcieLinkConfig& config, std::string name,
           uint64_t rng_seed = 1);

  // Issues one read TLP of `payload_bytes` (<= max_payload_bytes).
  // `random_access` selects the uncached latency distribution.
  // `done` fires when the completion has fully arrived back at the NIC.
  void SubmitRead(uint32_t payload_bytes, bool random_access, std::function<void()> done);

  // Issues one posted write TLP. `done` fires when the TLP is on the wire.
  void SubmitWrite(uint32_t payload_bytes, std::function<void()> done);

  const PcieLinkConfig& config() const { return config_; }

  // Observability: wire counters and the read-latency histogram, labelled
  // with this link's name.
  void RegisterMetrics(MetricRegistry& registry) const;

  // Wire-level statistics.
  uint64_t read_tlps() const { return read_tlps_; }
  uint64_t write_tlps() const { return write_tlps_; }
  uint64_t upstream_bytes() const { return upstream_bytes_; }     // NIC -> host
  uint64_t downstream_bytes() const { return downstream_bytes_; }  // host -> NIC
  const LatencyHistogram& read_latency() const { return read_latency_; }
  // Peak TLP records held: reads from submission to completion, writes until
  // their posted credit is granted.
  uint32_t peak_tlp_records() const { return tlps_.peak(); }

 private:
  // One submitted TLP: the caller's `done`, parked until the TLP completes.
  struct Tlp {
    std::function<void()> done;
    uint32_t payload_bytes = 0;
    bool random_access = false;
    SimTime issue_time = 0;
  };

  uint32_t OpenTlp(uint32_t payload_bytes, bool random_access,
                   std::function<void()> done);
  // Read TLP stages: credit granted, host memory done, completion arrived.
  void IssueRead(uint32_t tlp);
  void ReturnCompletion(uint32_t tlp);
  void CompleteRead(uint32_t tlp);
  void IssueWrite(uint32_t tlp);

  SimTime SerializeUpstream(uint32_t bytes);    // returns completion time
  SimTime SerializeDownstream(uint32_t bytes);  // returns completion time
  SimTime SampleReadLatency(bool random_access);

  Simulator& sim_;
  PcieLinkConfig config_;
  std::string name_;
  Rng rng_;
  double picos_per_byte_;

  // Each direction is a serial wire: TLPs occupy it back to back.
  SimTime upstream_free_at_ = 0;
  SimTime downstream_free_at_ = 0;

  TokenPool nonposted_credits_;
  TokenPool posted_credits_;
  RecordPool<Tlp> tlps_;

  uint64_t read_tlps_ = 0;
  uint64_t write_tlps_ = 0;
  uint64_t upstream_bytes_ = 0;
  uint64_t downstream_bytes_ = 0;
  LatencyHistogram read_latency_;
};

}  // namespace kvd

#endif  // SRC_PCIE_PCIE_LINK_H_
