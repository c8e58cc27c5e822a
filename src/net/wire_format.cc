#include "src/net/wire_format.h"

#include <algorithm>

#include "src/common/assert.h"
#include "src/common/byte_codec.h"

namespace kvd {
namespace {

bool NeedsFunctionFields(Opcode opcode) {
  return IsVectorOpcode(opcode) || opcode == Opcode::kUpdateScalar;
}

// The key and value lengths an op's bytes are read with: from the wire, or
// the previous op's under kFlagCopyKeyLen / kFlagCopyValueLen. The writer
// and the sizer take the lengths from the op itself and leave these alone.
struct OpLengths {
  size_t key = 0;
  size_t value = 0;
};

// One operation, as laid out in wire_format.h; `flags` say which of the
// bracketed fields are present.
constexpr auto kOpLayout = [](auto& c, auto& op, auto& flags, OpLengths& lengths) {
  c.Enum(op.opcode, kMaxOpcodeByte);
  c.U8(flags);
  if ((flags & kFlagCopyKeyLen) == 0) {
    lengths.key = c.Len16(op.key);
  }
  if ((flags & kFlagCopyValueLen) == 0) {
    lengths.value = c.Len32(op.value);
  }
  if (NeedsFunctionFields(op.opcode)) {
    c.U64(op.param);
    c.U16(op.function_id);
    c.U8(op.element_width);
  }
  if ((flags & kFlagHasDeadline) != 0) {
    c.U64(op.deadline);
  }
  c.Bytes(op.key, lengths.key);
  if ((flags & kFlagCopyValueBytes) == 0) {
    c.Bytes(op.value, lengths.value);
  }
};

// The flags `op` is encoded with. `copy`: a previous op with a key of
// `prev_key_len` bytes and value `prev_value` is in the packet and
// compression is on.
uint8_t FlagsFor(const KvOperation& op, bool copy, size_t prev_key_len,
                 std::span<const uint8_t> prev_value) {
  uint8_t flags = 0;
  if (copy && prev_key_len == op.key.size()) {
    flags |= kFlagCopyKeyLen;
  }
  if (copy && prev_value.size() == op.value.size()) {
    flags |= kFlagCopyValueLen;
    if (!op.value.empty() && std::ranges::equal(prev_value, op.value)) {
      flags |= kFlagCopyValueBytes;
    }
  }
  if (!op.return_value) {
    flags |= kFlagNoReturn;
  }
  if (op.deadline != 0) {
    flags |= kFlagHasDeadline;
  }
  return flags;
}

size_t OpBytes(const KvOperation& op, uint8_t flags) {
  OpLengths unused;
  return EncodedSize([&](auto& c) { kOpLayout(c, op, flags, unused); });
}

// u8 code | u32 epoch | u32 value_len | u64 scalar | value bytes.
constexpr auto kResultLayout = [](auto& c, auto& result) {
  c.Enum(result.code, kMaxResultCodeByte);
  c.U32(result.epoch);
  c.Check(result.epoch <= kMaxWireEpoch);
  const size_t value_len = c.Len32(result.value);
  c.U64(result.scalar);
  c.Bytes(result.value, value_len);
};
static_assert(EncodedSize([](auto& c) {
                const KvResultMessage empty;
                kResultLayout(c, empty);
              }) == kResultHeaderBytes);

}  // namespace

uint32_t EncodedOperationSize(const KvOperation& op, const KvOperation* previous,
                              bool enable_compression) {
  const bool copy = enable_compression && previous != nullptr;
  const uint8_t flags =
      FlagsFor(op, copy, copy ? previous->key.size() : 0,
               copy ? std::span<const uint8_t>(previous->value) : std::span<const uint8_t>());
  return static_cast<uint32_t>(OpBytes(op, flags));
}

PacketBuilder::PacketBuilder(uint32_t max_payload_bytes, bool enable_compression)
    : max_payload_bytes_(max_payload_bytes), enable_compression_(enable_compression) {
  KVD_CHECK(max_payload_bytes >= 64);
}

bool PacketBuilder::Add(const KvOperation& op) {
  const uint8_t flags =
      FlagsFor(op, enable_compression_ && count_ > 0, prev_key_len_, prev_value_);
  if (op.key.size() > UINT16_MAX ||
      buffer_.size() + OpBytes(op, flags) > max_payload_bytes_) {
    return false;
  }
  ByteWriter writer(buffer_);
  OpLengths unused;
  kOpLayout(writer, op, flags, unused);
  prev_key_len_ = op.key.size();
  prev_value_ = op.value;
  count_++;
  return true;
}

bool PacketBuilder::FitsAlone(const KvOperation& op) const {
  return op.key.size() <= UINT16_MAX &&
         EncodedOperationSize(op, nullptr, false) <= max_payload_bytes_;
}

std::vector<uint8_t> PacketBuilder::Finish() {
  std::vector<uint8_t> out = std::move(buffer_);
  buffer_.clear();
  count_ = 0;
  prev_key_len_ = 0;
  prev_value_.clear();
  return out;
}

PacketParser::PacketParser(std::span<const uint8_t> payload) : payload_(payload) {}

PacketParser::PacketParser(std::vector<uint8_t> payload)
    : owned_(std::move(payload)), payload_(owned_) {}

Result<std::optional<KvOpView>> PacketParser::NextView() {
  if (offset_ >= payload_.size()) {
    return std::optional<KvOpView>(std::nullopt);
  }
  ByteReader reader(payload_.subspan(offset_));
  KvOpView op;
  uint8_t flags = 0;
  OpLengths lengths{prev_key_len_, prev_value_.size()};
  kOpLayout(reader, op, flags, lengths);
  if (!reader.ok()) {
    return Status::InvalidArgument("truncated or invalid op");
  }
  if (!has_previous_ && (flags & (kFlagCopyKeyLen | kFlagCopyValueLen)) != 0) {
    return Status::InvalidArgument("copied length with no previous op");
  }
  if ((flags & kFlagCopyValueBytes) != 0) {
    if (lengths.value != prev_value_.size()) {
      return Status::InvalidArgument("copy-value size mismatch");
    }
    op.value = prev_value_;
  }
  op.return_value = (flags & kFlagNoReturn) == 0;
  offset_ += reader.consumed();
  has_previous_ = true;
  prev_key_len_ = lengths.key;
  prev_value_ = op.value;
  return std::optional<KvOpView>(op);
}

Result<std::optional<KvOperation>> PacketParser::Next() {
  Result<std::optional<KvOpView>> view = NextView();
  if (!view.ok()) {
    return view.status();
  }
  if (!view->has_value()) {
    return std::optional<KvOperation>(std::nullopt);
  }
  return std::optional<KvOperation>((*view)->ToOwned());
}

Status DecodeOps(std::span<const uint8_t> payload, std::vector<KvOpView>& ops) {
  ops.clear();
  PacketParser parser(payload);
  while (true) {
    Result<std::optional<KvOpView>> next = parser.NextView();
    if (!next.ok()) {
      return next.status();
    }
    if (!next->has_value()) {
      return Status::Ok();
    }
    ops.push_back(**next);
  }
}

std::vector<uint8_t> EncodeResults(const std::vector<KvResultMessage>& results) {
  return EncodeFields([&](auto& c) {
    for (const KvResultMessage& result : results) {
      KVD_CHECK(result.epoch <= kMaxWireEpoch);
      kResultLayout(c, result);
    }
  });
}

Result<std::vector<KvResultMessage>> DecodeResults(std::span<const uint8_t> payload) {
  std::vector<KvResultMessage> results;
  ByteReader reader(payload);
  while (reader.remaining() > 0) {
    kResultLayout(reader, results.emplace_back());
  }
  if (!reader.ok()) {
    return Status::InvalidArgument("truncated or invalid result");
  }
  return results;
}

}  // namespace kvd
