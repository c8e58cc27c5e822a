#include "src/pcie/pcie_link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/assert.h"

namespace kvd {

PcieLink::PcieLink(Simulator& sim, const PcieLinkConfig& config, std::string name,
                   uint64_t rng_seed)
    : sim_(sim),
      config_(config),
      name_(std::move(name)),
      rng_(rng_seed),
      picos_per_byte_(PicosPerByte(config.bandwidth_bytes_per_sec)),
      nonposted_credits_(name_ + "/np_credits", config.nonposted_header_credits),
      posted_credits_(name_ + "/p_credits", config.posted_header_credits) {}

SimTime PcieLink::SerializeUpstream(uint32_t bytes) {
  const auto wire_time = static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * picos_per_byte_));
  const SimTime start = std::max(sim_.Now(), upstream_free_at_);
  upstream_free_at_ = start + wire_time;
  upstream_bytes_ += bytes;
  return upstream_free_at_;
}

SimTime PcieLink::SerializeDownstream(uint32_t bytes) {
  const auto wire_time = static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * picos_per_byte_));
  const SimTime start = std::max(sim_.Now(), downstream_free_at_);
  downstream_free_at_ = start + wire_time;
  downstream_bytes_ += bytes;
  return downstream_free_at_;
}

SimTime PcieLink::SampleReadLatency(bool random_access) {
  SimTime latency = config_.cached_read_latency;
  if (random_access && config_.random_read_extra_mean > 0) {
    // Exponential tail from DRAM row misses, refresh, and completion
    // reordering; mean matches the paper's measured +250 ns.
    const double u = std::max(rng_.NextDouble(), 1e-12);
    const double extra = -std::log(u) * static_cast<double>(config_.random_read_extra_mean);
    latency += static_cast<SimTime>(std::llround(extra));
  }
  return latency;
}

uint32_t PcieLink::OpenTlp(uint32_t payload_bytes, bool random_access,
                           std::function<void()> done) {
  KVD_CHECK(payload_bytes > 0 && payload_bytes <= config_.max_payload_bytes);
  const uint32_t tlp = tlps_.Acquire();
  Tlp& record = tlps_[tlp];
  record.done = std::move(done);
  record.payload_bytes = payload_bytes;
  record.random_access = random_access;
  return tlp;
}

void PcieLink::SubmitRead(uint32_t payload_bytes, bool random_access,
                          std::function<void()> done) {
  const uint32_t tlp = OpenTlp(payload_bytes, random_access, std::move(done));
  nonposted_credits_.Acquire(1, [this, tlp] { IssueRead(tlp); });
}

void PcieLink::IssueRead(uint32_t tlp) {
  read_tlps_++;
  // Request header travels upstream; credit returns once the host root
  // complex has consumed the request.
  const SimTime request_at_host = SerializeUpstream(config_.tlp_header_bytes);
  sim_.ScheduleAt(request_at_host + config_.host_consume_latency,
                  [this] { nonposted_credits_.Release(1); });

  // Host memory access, then the completion TLP travels downstream.
  const SimTime mem_done = request_at_host + SampleReadLatency(tlps_[tlp].random_access);
  tlps_[tlp].issue_time = sim_.Now();
  sim_.ScheduleAt(mem_done, [this, tlp] { ReturnCompletion(tlp); });
}

void PcieLink::ReturnCompletion(uint32_t tlp) {
  const SimTime completion_arrival =
      SerializeDownstream(config_.tlp_header_bytes + tlps_[tlp].payload_bytes);
  sim_.ScheduleAt(completion_arrival, [this, tlp] { CompleteRead(tlp); });
}

void PcieLink::CompleteRead(uint32_t tlp) {
  read_latency_.Add((sim_.Now() - tlps_[tlp].issue_time) / kNanosecond);
  std::function<void()> done = std::move(tlps_[tlp].done);
  tlps_.Release(tlp);
  done();
}

void PcieLink::SubmitWrite(uint32_t payload_bytes, std::function<void()> done) {
  const uint32_t tlp = OpenTlp(payload_bytes, /*random_access=*/false, std::move(done));
  posted_credits_.Acquire(1, [this, tlp] { IssueWrite(tlp); });
}

void PcieLink::IssueWrite(uint32_t tlp) {
  write_tlps_++;
  const SimTime on_wire =
      SerializeUpstream(config_.tlp_header_bytes + tlps_[tlp].payload_bytes);
  // Posted semantics: complete at the requester once the TLP is sent.
  sim_.ScheduleAt(on_wire, std::move(tlps_[tlp].done));
  tlps_.Release(tlp);
  sim_.ScheduleAt(on_wire + config_.host_consume_latency,
                  [this] { posted_credits_.Release(1); });
}

void PcieLink::RegisterMetrics(MetricRegistry& registry) const {
  const MetricLabels labels = {{"link", name_}};
  registry.RegisterCounter("kvd_pcie_read_tlps_total", "Read TLPs issued", labels,
                           &read_tlps_);
  registry.RegisterCounter("kvd_pcie_write_tlps_total", "Write TLPs issued", labels,
                           &write_tlps_);
  registry.RegisterCounter("kvd_pcie_upstream_bytes_total",
                           "Bytes NIC -> host (incl. TLP headers)", labels,
                           &upstream_bytes_);
  registry.RegisterCounter("kvd_pcie_downstream_bytes_total",
                           "Bytes host -> NIC (incl. TLP headers)", labels,
                           &downstream_bytes_);
  registry.RegisterGauge("kvd_pcie_tlp_records_peak",
                         "Peak TLPs in flight (completion records held)", labels,
                         [this] { return static_cast<double>(tlps_.peak()); });
  registry.RegisterHistogram("kvd_pcie_read_latency_ns",
                             "DMA read latency, issue to completion", labels,
                             [this] { return read_latency_; });
}

}  // namespace kvd
