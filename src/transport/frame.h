// Reliable framing (the retry/timeout layer's wire format).
//
// The lossless packet encoding in src/net/wire_format.h carries no identity:
// a retransmitted request is indistinguishable from a new one and a corrupted
// packet decodes as garbage. The frame header adds both:
//
//   u64 sequence | u32 checksum | payload bytes
//
// `sequence` identifies the packet across retransmissions (FrameEndpoint
// dedups on it for idempotent replay) and `checksum` covers sequence +
// payload, so in-flight bit flips are detected and the frame is dropped
// rather than decoded. Responses echo the request sequence.
//
// This is the transport layer's only wire format; every framed path —
// single-server client requests, replica client requests, and replication
// links — uses it. Keep checksum/framing logic here (scripts/ci.sh guards
// against copies appearing elsewhere).
//
// Deadlines ride inside the payload encoding (wire_format kFlagHasDeadline),
// not in this header: a retransmitted frame must stay byte-identical to the
// original so the server replay cache and checksum keep working, which rules
// out restamping anything at the framing layer.
#ifndef SRC_TRANSPORT_FRAME_H_
#define SRC_TRANSPORT_FRAME_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"

namespace kvd {

inline constexpr size_t kFrameHeaderBytes = 12;

std::vector<uint8_t> FramePacket(uint64_t sequence, std::span<const uint8_t> payload);

// A received frame: its payload is a view of the packet it was parsed from,
// so it lives as long as that packet's bytes do.
struct Frame {
  uint64_t sequence = 0;
  std::span<const uint8_t> payload;
};

// Verifies the checksum; kInvalidArgument on truncation or corruption.
Result<Frame> ParseFrame(std::span<const uint8_t> packet);

}  // namespace kvd

#endif  // SRC_TRANSPORT_FRAME_H_
