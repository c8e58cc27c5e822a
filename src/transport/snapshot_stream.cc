#include "src/transport/snapshot_stream.h"

#include <algorithm>
#include <utility>

#include "src/common/byte_codec.h"
#include "src/common/units.h"
#include "src/transport/frame.h"

namespace kvd {
namespace {

// A chunk ack's payload: u32 cumulative cursor.
constexpr auto kAckLayout = [](auto& c, auto& installed) { c.U32(installed); };

}  // namespace

void SnapshotStream::Start(std::vector<std::vector<uint8_t>> chunks) {
  Stop();
  run_ = std::make_shared<bool>(true);
  chunks_ = std::move(chunks);
  SendNext();
}

void SnapshotStream::Stop() {
  *run_ = false;
  chunks_.clear();
  next_to_send_ = acked_ = last_observed_ack_ = 0;
  sending_ = false;
}

void SnapshotStream::SendNext() {
  if (sending_ || next_to_send_ >= chunks_.size()) {
    return;
  }
  sending_ = true;
  const std::vector<uint8_t>& chunk = chunks_[next_to_send_++];
  stats_->chunks_sent++;
  stats_->bytes_sent += chunk.size();
  wire_(chunk);
  // The next chunk leaves once this one's bytes have had their slot at the
  // configured rate.
  const SimTime pace = std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(chunk.size()) /
                              bytes_per_sec_ * kSecond));
  sim_.ScheduleAt(sim_.Now() + pace, [this, run = run_] {
    if (!*run) {
      return;
    }
    sending_ = false;
    SendNext();
  });
}

void SnapshotStream::OnAck(uint64_t installed) {
  if (installed <= chunks_.size()) {
    acked_ = std::max(acked_, static_cast<uint32_t>(installed));
  }
}

bool SnapshotStream::CheckProgress() {
  bool went_back = false;
  if (acked_ < chunks_.size() && acked_ == last_observed_ack_) {
    // No cumulative progress for a whole check interval: a chunk or its ack
    // was lost (or the receiver refused). Resend from the ack point.
    stats_->retransmits += next_to_send_ > acked_ ? next_to_send_ - acked_ : 0;
    next_to_send_ = acked_;
    went_back = true;
    SendNext();
  }
  last_observed_ack_ = acked_;
  return went_back;
}

uint32_t SnapshotStream::Receiver::OnChunk(
    uint32_t seq, const std::function<bool()>& install) {
  if (seq != installed) {
    stats->stale_chunks++;  // loss gap or duplicate: go-back-N drops it
  } else if (install()) {
    installed++;
  }
  return installed;
}

std::vector<uint8_t> SnapshotStream::FrameAck(uint64_t sequence,
                                              uint32_t installed) {
  return FramePacket(sequence, EncodeFields([&](auto& c) { kAckLayout(c, installed); }));
}

void SnapshotStream::OnAckFrame(std::span<const uint8_t> packet) {
  Result<Frame> frame = ParseFrame(packet);
  uint32_t installed = 0;
  if (frame.ok() &&
      DecodeFields(frame->payload, [&](auto& c) { kAckLayout(c, installed); })) {
    OnAck(installed);
  }
}

}  // namespace kvd
