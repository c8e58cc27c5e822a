#include "src/dram/nic_dram.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "src/common/assert.h"
#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/dram/ecc_metadata.h"

namespace kvd {

NicDram::NicDram(Simulator& sim, const NicDramConfig& config)
    : sim_(sim),
      config_(config),
      picos_per_byte_(PicosPerByte(config.bandwidth_bytes_per_sec *
                                   config.random_access_efficiency)) {}

void NicDram::Access(uint32_t bytes, std::function<void()> done, uint64_t trace) {
  KVD_CHECK(bytes > 0);
  accesses_++;
  bytes_ += bytes;
  const auto occupancy = static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * picos_per_byte_));
  const SimTime start = std::max(sim_.Now(), channel_free_at_);
  channel_free_at_ = start + occupancy;
  if (tracer_ != nullptr && tracer_->enabled()) {
    // The wait for the channel, its occupancy and the access latency are all
    // known at issue time.
    tracer_->Complete("nic_dram", "access", sim_.Now(),
                      channel_free_at_ + config_.access_latency,
                      {{"bytes", bytes}},
                      OpMark::Span(trace, SpanKind::kNicDramAccess, bytes));
  }
  const SimTime finish = channel_free_at_ + config_.access_latency;
  if (done) {
    sim_.ScheduleAt(finish, std::move(done));
  } else {
    sim_.Reserve(finish);
  }
}

EccReadOutcome NicDram::CheckLineRead(uint64_t address) {
  if (fault_ == nullptr) {
    return EccReadOutcome::kClean;
  }
  const bool uncorrectable =
      fault_->ShouldInject(FaultSite::kDramUncorrectableFlip);
  const bool correctable =
      !uncorrectable && fault_->ShouldInject(FaultSite::kDramCorrectableFlip);
  if (!uncorrectable && !correctable) {
    return EccReadOutcome::kClean;
  }
  // Materialise a deterministic stand-in for the stored line and run the
  // flip through the real codec, so correction/detection exercises the
  // actual Hamming + group-parity path rather than a modelled coin toss.
  const uint64_t line_index = address / kCacheLineBytes;
  std::array<uint8_t, kCacheLineBytes> data;
  Rng pattern(Mix64(line_index) ^ 0xeccULL);
  for (auto& b : data) {
    b = static_cast<uint8_t>(pattern.Next());
  }
  const LineMetadata metadata{static_cast<uint8_t>(line_index & 0xf),
                              (line_index & 0x10) != 0};
  EccLine line = EncodeLine(data, metadata);
  Rng& rng = fault_->SiteRng(uncorrectable ? FaultSite::kDramUncorrectableFlip
                                           : FaultSite::kDramCorrectableFlip);
  const int word = static_cast<int>(rng.NextBelow(8));
  const int bit_a = static_cast<int>(rng.NextBelow(64));
  if (uncorrectable) {
    // Two distinct bits in one word: the 256-bit group parity still matches
    // (even flip count) while the word syndrome is inconsistent — the codec
    // must report detected-but-uncorrectable.
    int bit_b = static_cast<int>(rng.NextBelow(63));
    if (bit_b >= bit_a) {
      bit_b++;
    }
    line.words[word] ^= (uint64_t{1} << bit_a) | (uint64_t{1} << bit_b);
  } else {
    line.words[word] ^= uint64_t{1} << bit_a;
  }
  std::array<uint8_t, kCacheLineBytes> decoded;
  const LineDecodeResult result = DecodeLine(line, decoded);
  if (uncorrectable) {
    KVD_CHECK_MSG(result.status == EccDecodeStatus::kUncorrectable,
                  "double-bit flip must be detected as uncorrectable");
    uncorrectable_injected_++;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Instant("nic_dram", "ecc_uncorrectable",
                       {{"line", line_index}});
    }
    return EccReadOutcome::kUncorrectable;
  }
  KVD_CHECK_MSG(result.status == EccDecodeStatus::kCorrectedSingle,
                "single-bit flip must be corrected");
  KVD_CHECK_MSG(decoded == data, "ECC correction must restore the data");
  KVD_CHECK_MSG(result.metadata == metadata,
                "ECC correction must preserve line metadata");
  correctable_injected_++;
  corrected_words_ += static_cast<uint64_t>(result.corrected_words);
  return EccReadOutcome::kCorrected;
}

void NicDram::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_nicdram_accesses_total", "NIC DRAM channel accesses",
                           {}, &accesses_);
  registry.RegisterCounter("kvd_nicdram_bytes_total", "NIC DRAM bytes transferred",
                           {}, &bytes_);
  registry.RegisterCounter("kvd_nicdram_ecc_corrected_total",
                           "Single-bit DRAM errors corrected by ECC", {},
                           &corrected_words_);
  registry.RegisterCounter("kvd_nicdram_ecc_uncorrectable_total",
                           "Multi-bit DRAM errors detected by ECC", {},
                           &uncorrectable_injected_);
}

}  // namespace kvd
