#include "src/net/wire_format.h"

#include <cstring>

#include "src/common/assert.h"

namespace kvd {
namespace {

void AppendU16(std::vector<uint8_t>& buffer, uint16_t v) {
  const size_t at = buffer.size();
  buffer.resize(at + 2);
  std::memcpy(buffer.data() + at, &v, 2);
}

void AppendU32(std::vector<uint8_t>& buffer, uint32_t v) {
  const size_t at = buffer.size();
  buffer.resize(at + 4);
  std::memcpy(buffer.data() + at, &v, 4);
}

void AppendU64(std::vector<uint8_t>& buffer, uint64_t v) {
  const size_t at = buffer.size();
  buffer.resize(at + 8);
  std::memcpy(buffer.data() + at, &v, 8);
}

bool NeedsFunctionFields(Opcode opcode) {
  return IsVectorOpcode(opcode) || opcode == Opcode::kUpdateScalar;
}

void EncodeOperation(std::vector<uint8_t>& buffer, const KvOperation& op,
                     uint8_t flags) {
  buffer.push_back(static_cast<uint8_t>(op.opcode));
  buffer.push_back(flags);
  if ((flags & kFlagCopyKeyLen) == 0) {
    AppendU16(buffer, static_cast<uint16_t>(op.key.size()));
  }
  if ((flags & kFlagCopyValueLen) == 0) {
    AppendU32(buffer, static_cast<uint32_t>(op.value.size()));
  }
  if (NeedsFunctionFields(op.opcode)) {
    AppendU64(buffer, op.param);
    AppendU16(buffer, op.function_id);
    buffer.push_back(op.element_width);
  }
  if (flags & kFlagHasDeadline) {
    AppendU64(buffer, op.deadline);
  }
  buffer.insert(buffer.end(), op.key.begin(), op.key.end());
  if ((flags & kFlagCopyValueBytes) == 0) {
    buffer.insert(buffer.end(), op.value.begin(), op.value.end());
  }
}

}  // namespace

uint32_t EncodedOperationSize(const KvOperation& op, const KvOperation* previous,
                              bool enable_compression) {
  uint32_t size = 2;  // opcode + flags
  const bool copy_key_len =
      enable_compression && previous != nullptr && previous->key.size() == op.key.size();
  const bool copy_value_len = enable_compression && previous != nullptr &&
                              previous->value.size() == op.value.size();
  const bool copy_value = enable_compression && previous != nullptr &&
                          !op.value.empty() && previous->value == op.value;
  size += copy_key_len ? 0 : 2;
  size += copy_value_len ? 0 : 4;
  if (NeedsFunctionFields(op.opcode)) {
    size += 8 + 2 + 1;
  }
  if (op.deadline != 0) {
    size += 8;
  }
  size += static_cast<uint32_t>(op.key.size());
  size += copy_value ? 0 : static_cast<uint32_t>(op.value.size());
  return size;
}

PacketBuilder::PacketBuilder(uint32_t max_payload_bytes, bool enable_compression)
    : max_payload_bytes_(max_payload_bytes), enable_compression_(enable_compression) {
  KVD_CHECK(max_payload_bytes >= 64);
}

bool PacketBuilder::Add(const KvOperation& op) {
  uint8_t flags = 0;
  if (enable_compression_ && count_ > 0) {
    if (prev_key_len_ == op.key.size()) {
      flags |= kFlagCopyKeyLen;
    }
    if (prev_value_len_ == op.value.size()) {
      flags |= kFlagCopyValueLen;
    }
    if (!op.value.empty() && prev_value_ == op.value) {
      flags |= kFlagCopyValueBytes;
    }
  }
  if (!op.return_value) {
    flags |= kFlagNoReturn;
  }
  if (op.deadline != 0) {
    flags |= kFlagHasDeadline;
  }
  // Dry-run size check against the payload budget.
  uint32_t size = 2;
  size += (flags & kFlagCopyKeyLen) ? 0 : 2;
  size += (flags & kFlagCopyValueLen) ? 0 : 4;
  if (NeedsFunctionFields(op.opcode)) {
    size += 11;
  }
  size += (flags & kFlagHasDeadline) ? 8 : 0;
  size += static_cast<uint32_t>(op.key.size());
  size += (flags & kFlagCopyValueBytes) ? 0 : static_cast<uint32_t>(op.value.size());
  if (buffer_.size() + size > max_payload_bytes_) {
    return false;
  }
  EncodeOperation(buffer_, op, flags);
  prev_key_len_ = static_cast<uint16_t>(op.key.size());
  prev_value_len_ = static_cast<uint32_t>(op.value.size());
  prev_value_ = op.value;
  count_++;
  return true;
}

std::vector<uint8_t> PacketBuilder::Finish() {
  std::vector<uint8_t> out = std::move(buffer_);
  buffer_.clear();
  count_ = 0;
  prev_key_len_.reset();
  prev_value_len_.reset();
  prev_value_.clear();
  return out;
}

PacketParser::PacketParser(std::vector<uint8_t> payload)
    : payload_(std::move(payload)) {}

Result<std::optional<KvOperation>> PacketParser::Next() {
  if (offset_ >= payload_.size()) {
    return std::optional<KvOperation>(std::nullopt);
  }
  auto take = [&](void* out, size_t n) -> bool {
    if (offset_ + n > payload_.size()) {
      return false;
    }
    std::memcpy(out, payload_.data() + offset_, n);
    offset_ += n;
    return true;
  };

  KvOperation op;
  uint8_t opcode_byte;
  uint8_t flags;
  if (!take(&opcode_byte, 1) || !take(&flags, 1)) {
    return Status::InvalidArgument("truncated op header");
  }
  if (opcode_byte > kMaxOpcodeByte) {
    return Status::InvalidArgument("unknown opcode byte");
  }
  op.opcode = static_cast<Opcode>(opcode_byte);
  op.return_value = (flags & kFlagNoReturn) == 0;

  uint16_t key_len;
  if (flags & kFlagCopyKeyLen) {
    if (!prev_key_len_.has_value()) {
      return Status::InvalidArgument("copy-key-len with no previous op");
    }
    key_len = *prev_key_len_;
  } else if (!take(&key_len, 2)) {
    return Status::InvalidArgument("truncated key length");
  }

  uint32_t value_len;
  if (flags & kFlagCopyValueLen) {
    if (!prev_value_len_.has_value()) {
      return Status::InvalidArgument("copy-value-len with no previous op");
    }
    value_len = *prev_value_len_;
  } else if (!take(&value_len, 4)) {
    return Status::InvalidArgument("truncated value length");
  }

  if (NeedsFunctionFields(op.opcode)) {
    if (!take(&op.param, 8) || !take(&op.function_id, 2) ||
        !take(&op.element_width, 1)) {
      return Status::InvalidArgument("truncated function fields");
    }
  }

  if (flags & kFlagHasDeadline) {
    if (!take(&op.deadline, 8)) {
      return Status::InvalidArgument("truncated deadline");
    }
  }

  // Validate claimed lengths against the remaining bytes BEFORE allocating:
  // a corrupted length field must produce an error, not a multi-GiB resize.
  if (key_len > payload_.size() - offset_) {
    return Status::InvalidArgument("truncated key");
  }
  op.key.resize(key_len);
  if (key_len > 0 && !take(op.key.data(), key_len)) {
    return Status::InvalidArgument("truncated key");
  }
  if (flags & kFlagCopyValueBytes) {
    if (prev_value_.size() != value_len) {
      return Status::InvalidArgument("copy-value size mismatch");
    }
    op.value = prev_value_;
  } else {
    if (value_len > payload_.size() - offset_) {
      return Status::InvalidArgument("truncated value");
    }
    op.value.resize(value_len);
    if (value_len > 0 && !take(op.value.data(), value_len)) {
      return Status::InvalidArgument("truncated value");
    }
  }

  prev_key_len_ = key_len;
  prev_value_len_ = value_len;
  prev_value_ = op.value;
  return std::optional<KvOperation>(std::move(op));
}

Result<std::vector<KvOperation>> DecodeOps(std::vector<uint8_t> payload) {
  PacketParser parser(std::move(payload));
  std::vector<KvOperation> ops;
  while (true) {
    Result<std::optional<KvOperation>> next = parser.Next();
    if (!next.ok()) {
      return next.status();
    }
    if (!next->has_value()) {
      return ops;
    }
    ops.push_back(std::move(**next));
  }
}

std::vector<uint8_t> EncodeResults(const std::vector<KvResultMessage>& results) {
  std::vector<uint8_t> out;
  for (const KvResultMessage& result : results) {
    KVD_CHECK(result.epoch <= kMaxWireEpoch);
    out.push_back(static_cast<uint8_t>(result.code));
    AppendU32(out, result.epoch);
    AppendU32(out, static_cast<uint32_t>(result.value.size()));
    AppendU64(out, result.scalar);
    out.insert(out.end(), result.value.begin(), result.value.end());
  }
  return out;
}

Result<std::vector<KvResultMessage>> DecodeResults(const std::vector<uint8_t>& payload) {
  std::vector<KvResultMessage> results;
  size_t offset = 0;
  while (offset < payload.size()) {
    if (offset + kResultHeaderBytes > payload.size()) {
      return Status::InvalidArgument("truncated result header");
    }
    if (payload[offset] > kMaxResultCodeByte) {
      return Status::InvalidArgument("unknown result code");
    }
    KvResultMessage result;
    result.code = static_cast<ResultCode>(payload[offset]);
    uint32_t value_len;
    std::memcpy(&result.epoch, payload.data() + offset + 1, 4);
    if (result.epoch > kMaxWireEpoch) {
      return Status::InvalidArgument("result epoch out of range");
    }
    std::memcpy(&value_len, payload.data() + offset + 5, 4);
    std::memcpy(&result.scalar, payload.data() + offset + 9, 8);
    offset += kResultHeaderBytes;
    if (offset + value_len > payload.size()) {
      return Status::InvalidArgument("truncated result value");
    }
    result.value.assign(payload.begin() + static_cast<long>(offset),
                        payload.begin() + static_cast<long>(offset + value_len));
    offset += value_len;
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace kvd
