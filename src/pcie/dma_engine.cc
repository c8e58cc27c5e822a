#include "src/pcie/dma_engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/assert.h"
#include "src/common/hashing.h"

namespace kvd {

DmaEngine::DmaEngine(Simulator& sim, const DmaEngineConfig& config)
    : sim_(sim), config_(config), read_tags_("dma/read_tags", config.read_tags) {
  KVD_CHECK(config.num_links >= 1);
  for (uint32_t i = 0; i < config.num_links; i++) {
    links_.push_back(std::make_unique<PcieLink>(sim, config.link,
                                                "pcie" + std::to_string(i),
                                                /*rng_seed=*/0x5eed + i));
  }
}

uint32_t DmaEngine::PickLink(uint64_t address) const {
  // Interleave by 64 B line so both links carry equal load regardless of the
  // KVS layout (hash index low addresses, slab heap high addresses).
  const uint64_t line = address / kCacheLineBytes;
  return static_cast<uint32_t>(Mix64(line) % links_.size());
}

uint32_t DmaEngine::OpenRequest(uint32_t bytes, bool random_access, uint64_t trace,
                               std::function<void()> done) {
  const uint32_t max_payload = config_.link.max_payload_bytes;
  const uint32_t request = requests_.Acquire();
  DmaRequest& record = requests_[request];
  record.done = std::move(done);
  record.remaining = (bytes + max_payload - 1) / max_payload;
  record.random_access = random_access;
  record.trace = trace;
  return request;
}

void DmaEngine::Read(uint64_t address, uint32_t bytes, std::function<void()> done,
                     bool random_access, uint64_t trace) {
  KVD_CHECK(bytes > 0);
  reads_issued_++;
  // Fan out TLPs; `done` fires when the last completion arrives.
  const uint32_t request = OpenRequest(bytes, random_access, trace, std::move(done));
  const uint32_t max_payload = config_.link.max_payload_bytes;
  for (uint32_t offset = 0; offset < bytes; offset += max_payload) {
    const uint32_t tlp = tlps_.Acquire();
    tlps_[tlp] = DmaTlp{request, std::min(max_payload, bytes - offset),
                        address + offset, 1, 0, 0};
    // Each in-flight read TLP needs a unique tag to match its completion.
    read_tags_.Acquire(1, [this, tlp] { SubmitReadTlp(tlp); });
  }
}

void DmaEngine::Write(uint64_t address, uint32_t bytes, std::function<void()> done,
                      uint64_t trace) {
  KVD_CHECK(bytes > 0);
  writes_issued_++;
  const uint32_t request =
      OpenRequest(bytes, /*random_access=*/false, trace, std::move(done));
  const uint32_t max_payload = config_.link.max_payload_bytes;
  for (uint32_t offset = 0; offset < bytes; offset += max_payload) {
    const uint32_t tlp = tlps_.Acquire();
    tlps_[tlp] = DmaTlp{request, std::min(max_payload, bytes - offset),
                        address + offset, 1, 0, 0};
    SubmitWriteTlp(tlp);
  }
}

void DmaEngine::SubmitReadTlp(uint32_t tlp) {
  DmaTlp& record = tlps_[tlp];
  record.start = sim_.Now();
  record.link = PickLink(record.address);
  links_[record.link]->SubmitRead(record.bytes,
                                  requests_[record.request].random_access,
                                  [this, tlp] { OnReadTlpDone(tlp); });
}

void DmaEngine::OnReadTlpDone(uint32_t tlp) {
  DmaTlp& record = tlps_[tlp];
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Complete("pcie", "dma_read", record.start, sim_.Now(),
                      {{"link", record.link}, {"bytes", record.bytes}},
                      OpMark::Span(requests_[record.request].trace,
                                   SpanKind::kDmaTlp, record.bytes));
  }
  if (fault_ != nullptr && fault_->ShouldInject(FaultSite::kPcieReadCompletion)) {
    // Transient completion error: replay the TLP. The tag stays held for the
    // whole transaction, exactly as the hardware would keep it allocated
    // until a good completion arrives.
    KVD_CHECK_MSG(record.attempt < config_.max_tlp_attempts,
                  "PCIe read TLP failed after retry budget");
    read_retries_++;
    record.attempt++;
    SubmitReadTlp(tlp);
    return;
  }
  read_tags_.Release(1);
  FinishTlp(tlp);
}

void DmaEngine::SubmitWriteTlp(uint32_t tlp) {
  DmaTlp& record = tlps_[tlp];
  record.start = sim_.Now();
  record.link = PickLink(record.address);
  links_[record.link]->SubmitWrite(record.bytes,
                                   [this, tlp] { OnWriteTlpDone(tlp); });
}

void DmaEngine::OnWriteTlpDone(uint32_t tlp) {
  DmaTlp& record = tlps_[tlp];
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Complete("pcie", "dma_write", record.start, sim_.Now(),
                      {{"link", record.link}, {"bytes", record.bytes}},
                      OpMark::Span(requests_[record.request].trace,
                                   SpanKind::kDmaTlp, record.bytes));
  }
  if (fault_ != nullptr &&
      fault_->ShouldInject(FaultSite::kPcieWriteCompletion)) {
    KVD_CHECK_MSG(record.attempt < config_.max_tlp_attempts,
                  "PCIe write TLP failed after retry budget");
    write_retries_++;
    record.attempt++;
    SubmitWriteTlp(tlp);
    return;
  }
  FinishTlp(tlp);
}

void DmaEngine::FinishTlp(uint32_t tlp) {
  const uint32_t request = tlps_[tlp].request;
  tlps_.Release(tlp);
  if (--requests_[request].remaining > 0) {
    return;
  }
  std::function<void()> done = std::move(requests_[request].done);
  requests_.Release(request);
  done();
}

void DmaEngine::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_dma_reads_total", "DMA read requests", {},
                           &reads_issued_);
  registry.RegisterCounter("kvd_dma_writes_total", "DMA write requests", {},
                           &writes_issued_);
  registry.RegisterCounter("kvd_dma_retries_total",
                           "TLPs replayed after transient completion errors",
                           {{"kind", "read"}}, &read_retries_);
  registry.RegisterCounter("kvd_dma_retries_total",
                           "TLPs replayed after transient completion errors",
                           {{"kind", "write"}}, &write_retries_);
  registry.RegisterGauge("kvd_dma_read_tags_in_use", "DMA read tags currently held",
                         {}, [this] {
                           return static_cast<double>(read_tags_.capacity() -
                                                      read_tags_.available());
                         });
  registry.RegisterGauge("kvd_dma_read_tags_peak", "Peak DMA read tags held", {},
                         [this] { return static_cast<double>(read_tags_.peak_in_use()); });
  registry.RegisterCounter("kvd_dma_read_tag_waits_total",
                           "Read TLPs that waited for a DMA tag", {},
                           [this] { return read_tags_.waited_grants(); });
  registry.RegisterGauge("kvd_dma_request_records_peak",
                         "Peak DMA requests in flight (completion records held)",
                         {}, [this] { return static_cast<double>(requests_.peak()); });
  registry.RegisterGauge("kvd_dma_tlp_records_peak",
                         "Peak DMA TLPs in flight (completion records held)", {},
                         [this] { return static_cast<double>(tlps_.peak()); });
  for (const auto& link : links_) {
    link->RegisterMetrics(registry);
  }
}

LatencyHistogram DmaEngine::AggregateReadLatency() const {
  LatencyHistogram out;
  for (const auto& link : links_) {
    out.Merge(link->read_latency());
  }
  return out;
}

}  // namespace kvd
