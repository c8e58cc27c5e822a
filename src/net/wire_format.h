// Packet encoding with client-side batching (paper §4 "Vector Operation
// Decoder", Figure 15).
//
// The network, not PCIe, is the scarce resource: an RDMA write over Ethernet
// carries 88 bytes of header and padding, versus 26 bytes for a PCIe TLP.
// KV-Direct therefore batches multiple KV operations per network packet and
// compresses repetitive fields: two flag bits let an operation copy the key
// size / value size of the previous operation in the packet, and a third
// copies the previous operation's entire value (common in graph and
// parameter-server traffic where many KVs share size or contents).
//
// Per-operation layout (little endian):
//   u8 opcode | u8 flags | [u16 key_len] [u32 value_len]
//   | for vector/update ops: u64 param, u16 function_id, u8 element_width
//   | if kFlagHasDeadline: u64 deadline (absolute sim picoseconds)
//   | key bytes | [value bytes]
// Bracketed fields are omitted when the corresponding flag bit is set; the
// deadline field is present only when the flag is set, so deadline-free
// traffic encodes byte-identically to the pre-deadline format. Each layout
// here is one field list in wire_format.cc over src/common/byte_codec.h,
// which encodes, sizes and decodes it.
#ifndef SRC_NET_WIRE_FORMAT_H_
#define SRC_NET_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/net/kv_types.h"

namespace kvd {

inline constexpr uint8_t kFlagCopyKeyLen = 1u << 0;
inline constexpr uint8_t kFlagCopyValueLen = 1u << 1;
inline constexpr uint8_t kFlagCopyValueBytes = 1u << 2;
inline constexpr uint8_t kFlagNoReturn = 1u << 3;
inline constexpr uint8_t kFlagHasDeadline = 1u << 4;

// Builds one request packet out of batched operations.
class PacketBuilder {
 public:
  // `max_payload_bytes`: packet size budget (network MTU minus headers).
  // `enable_compression`: ablation switch for the copy-flags optimization.
  explicit PacketBuilder(uint32_t max_payload_bytes = 4096,
                         bool enable_compression = true);

  // Appends `op`; returns false (and leaves the packet unchanged) if the
  // encoded operation would overflow the payload budget, or its key the
  // u16 length field.
  bool Add(const KvOperation& op);

  // True if `op` fits an empty packet: false means Add can never take it.
  bool FitsAlone(const KvOperation& op) const;

  size_t payload_size() const { return buffer_.size(); }
  bool empty() const { return count_ == 0; }

  // Returns the payload and resets the builder for the next packet.
  std::vector<uint8_t> Finish();

 private:
  uint32_t max_payload_bytes_;
  bool enable_compression_;
  std::vector<uint8_t> buffer_;
  size_t count_ = 0;
  // Previous operation's fields for the copy flags.
  size_t prev_key_len_ = 0;
  std::vector<uint8_t> prev_value_;
};

// Decodes a request packet back into operations (the NIC-side decoder). Each
// op is a view of the packet's bytes: its key and value point into the
// payload, and an op that copies the previous op's value (kFlagCopyValueBytes)
// points at that earlier value in the same packet.
class PacketParser {
 public:
  // Views `payload`, which must outlive every op the parser yields.
  explicit PacketParser(std::span<const uint8_t> payload);
  // Holds `payload` itself; its ops live as long as the parser.
  explicit PacketParser(std::vector<uint8_t> payload);
  // A copy would view the original's bytes.
  PacketParser(const PacketParser&) = delete;
  PacketParser& operator=(const PacketParser&) = delete;

  // Returns the next operation, or nullopt at end of packet. Malformed input
  // yields an error status.
  Result<std::optional<KvOpView>> NextView();
  // NextView, copied into an operation that owns its bytes.
  Result<std::optional<KvOperation>> Next();

 private:
  std::vector<uint8_t> owned_;
  std::span<const uint8_t> payload_;
  size_t offset_ = 0;
  bool has_previous_ = false;
  size_t prev_key_len_ = 0;
  std::span<const uint8_t> prev_value_;
};

// Decodes a whole request packet (possibly empty) into `ops`, views of
// `payload`, replacing what `ops` held; malformed input yields an error
// status. A caller that keeps `ops` across packets reuses its buffer.
Status DecodeOps(std::span<const uint8_t> payload, std::vector<KvOpView>& ops);

// Response packet: a sequence of results mirroring the request order.
// Layout per result:
//   u8 code | u32 epoch | u32 value_len | u64 scalar | value bytes.
// `epoch` is the server epoch at execution (0 unreplicated); the decoder
// rejects values above kMaxWireEpoch as corruption.
inline constexpr size_t kResultHeaderBytes = 17;
std::vector<uint8_t> EncodeResults(const std::vector<KvResultMessage>& results);
Result<std::vector<KvResultMessage>> DecodeResults(std::span<const uint8_t> payload);

// Reliable framing (sequence + checksum) lives in src/transport/frame.h:
// this file is only the lossless payload encoding the frames carry.

// Encoded size of one operation given the previous op in the packet (used by
// benchmarks to reason about network efficiency without building packets).
// PacketBuilder::Add budgets each op with the same size rule.
uint32_t EncodedOperationSize(const KvOperation& op, const KvOperation* previous,
                              bool enable_compression);

}  // namespace kvd

#endif  // SRC_NET_WIRE_FORMAT_H_
