#include "src/transport/frame.h"

#include "src/common/byte_codec.h"
#include "src/common/hashing.h"

namespace kvd {
namespace {

// 32-bit payload checksum keyed by the sequence number, so a flip anywhere in
// the frame (sequence, checksum, or payload) breaks verification.
uint32_t FrameChecksum(uint64_t sequence, std::span<const uint8_t> payload) {
  return static_cast<uint32_t>(
      HashBytes(payload.data(), payload.size(), Mix64(sequence) ^ 0xf4a3e));
}

// u64 sequence | u32 checksum | payload bytes.
constexpr auto kFrameLayout = [](auto& c, auto& sequence, auto& checksum,
                                 auto& payload) {
  c.U64(sequence);
  c.U32(checksum);
  c.Rest(payload);
};
static_assert(EncodedSize([](auto& c) {
                const uint64_t sequence = 0;
                const uint32_t checksum = 0;
                const std::span<const uint8_t> payload;
                kFrameLayout(c, sequence, checksum, payload);
              }) == kFrameHeaderBytes);

}  // namespace

std::vector<uint8_t> FramePacket(uint64_t sequence, std::span<const uint8_t> payload) {
  const uint32_t checksum = FrameChecksum(sequence, payload);
  return EncodeFields([&](auto& c) { kFrameLayout(c, sequence, checksum, payload); });
}

Result<Frame> ParseFrame(std::span<const uint8_t> packet) {
  Frame frame;
  uint32_t checksum = 0;
  if (!DecodeFields(packet, [&](auto& c) {
        kFrameLayout(c, frame.sequence, checksum, frame.payload);
      })) {
    return Status::InvalidArgument("truncated frame header");
  }
  if (checksum != FrameChecksum(frame.sequence, frame.payload)) {
    return Status::InvalidArgument("frame checksum mismatch");
  }
  return frame;
}

}  // namespace kvd
