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

void DmaEngine::Read(uint64_t address, uint32_t bytes, std::function<void()> done,
                     bool random_access, uint64_t trace) {
  KVD_CHECK(bytes > 0);
  reads_issued_++;
  const uint32_t max_payload = config_.link.max_payload_bytes;
  const uint32_t num_tlps = (bytes + max_payload - 1) / max_payload;

  // Fan out TLPs; `done` fires when the last completion arrives.
  auto remaining = std::make_shared<uint32_t>(num_tlps);
  auto on_tlp_done = [this, remaining, done = std::move(done)]() mutable {
    read_tags_.Release(1);
    if (--*remaining == 0) {
      done();
    }
  };

  uint32_t offset = 0;
  for (uint32_t i = 0; i < num_tlps; i++) {
    const uint32_t chunk = std::min(max_payload, bytes - offset);
    const uint64_t chunk_address = address + offset;
    offset += chunk;
    // Each in-flight read TLP needs a unique tag to match its completion.
    read_tags_.Acquire(
        1, [this, chunk, chunk_address, random_access, trace, on_tlp_done] {
          SubmitReadTlp(chunk_address, chunk, random_access, 1, trace,
                        on_tlp_done);
        });
  }
}

void DmaEngine::SubmitReadTlp(uint64_t address, uint32_t bytes, bool random_access,
                              uint32_t attempt, uint64_t trace,
                              std::function<void()> on_done) {
  const SimTime start = sim_.Now();
  const uint32_t link = PickLink(address);
  links_[link]->SubmitRead(
      bytes, random_access,
      [this, address, bytes, random_access, attempt, trace, start, link,
       on_done = std::move(on_done)]() mutable {
        if (tracer_ != nullptr && tracer_->enabled()) {
          tracer_->Complete("pcie", "dma_read", start, sim_.Now(),
                            {{"link", link}, {"bytes", bytes}},
                            OpMark::Span(trace, SpanKind::kDmaTlp, bytes));
        }
        if (fault_ != nullptr &&
            fault_->ShouldInject(FaultSite::kPcieReadCompletion)) {
          // Transient completion error: replay the TLP. The tag stays held
          // for the whole transaction, exactly as the hardware would keep it
          // allocated until a good completion arrives.
          KVD_CHECK_MSG(attempt < config_.max_tlp_attempts,
                        "PCIe read TLP failed after retry budget");
          read_retries_++;
          SubmitReadTlp(address, bytes, random_access, attempt + 1, trace,
                        std::move(on_done));
          return;
        }
        on_done();
      });
}

void DmaEngine::SubmitWriteTlp(uint64_t address, uint32_t bytes, uint32_t attempt,
                               uint64_t trace, std::function<void()> on_done) {
  const SimTime start = sim_.Now();
  const uint32_t link = PickLink(address);
  links_[link]->SubmitWrite(
      bytes, [this, address, bytes, attempt, trace, start, link,
              on_done = std::move(on_done)]() mutable {
        if (tracer_ != nullptr && tracer_->enabled()) {
          tracer_->Complete("pcie", "dma_write", start, sim_.Now(),
                            {{"link", link}, {"bytes", bytes}},
                            OpMark::Span(trace, SpanKind::kDmaTlp, bytes));
        }
        if (fault_ != nullptr &&
            fault_->ShouldInject(FaultSite::kPcieWriteCompletion)) {
          KVD_CHECK_MSG(attempt < config_.max_tlp_attempts,
                        "PCIe write TLP failed after retry budget");
          write_retries_++;
          SubmitWriteTlp(address, bytes, attempt + 1, trace,
                         std::move(on_done));
          return;
        }
        on_done();
      });
}

void DmaEngine::Write(uint64_t address, uint32_t bytes, std::function<void()> done,
                      uint64_t trace) {
  KVD_CHECK(bytes > 0);
  writes_issued_++;
  const uint32_t max_payload = config_.link.max_payload_bytes;
  const uint32_t num_tlps = (bytes + max_payload - 1) / max_payload;

  auto remaining = std::make_shared<uint32_t>(num_tlps);
  auto on_tlp_done = [remaining, done = std::move(done)]() mutable {
    if (--*remaining == 0) {
      done();
    }
  };

  uint32_t offset = 0;
  for (uint32_t i = 0; i < num_tlps; i++) {
    const uint32_t chunk = std::min(max_payload, bytes - offset);
    const uint64_t chunk_address = address + offset;
    offset += chunk;
    SubmitWriteTlp(chunk_address, chunk, 1, trace, on_tlp_done);
  }
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
