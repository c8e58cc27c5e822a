#include "src/replica/replica_wire.h"

#include <cstring>

namespace kvd {
namespace {

// type, epoch, sender: the head of every replica message.
constexpr size_t kMessageHeadBytes = 1 + 8 + 4;
// A kAppend's window position and entry count.
constexpr size_t kAppendHeadBytes = kMessageHeadBytes + 4 * 8 + 4;
// An entry's fixed fields (37 B) and its result's (13 B); the key, the value
// and the result's value follow as counted bytes.
constexpr size_t kEntryFixedBytes = 37 + 13;

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  const size_t at = out.size();
  out.resize(at + 2);
  std::memcpy(out.data() + at, &v, 2);
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  const size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  const size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

void PutBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

// Bounds-checked little-endian reader; every take reports truncation.
struct Reader {
  const std::vector<uint8_t>& in;
  size_t offset = 0;

  bool Take(void* out, size_t n) {
    if (offset + n > in.size()) {
      return false;
    }
    std::memcpy(out, in.data() + offset, n);
    offset += n;
    return true;
  }
  bool TakeBytes(std::vector<uint8_t>& out, size_t n) {
    if (n > in.size() - offset) {
      return false;
    }
    out.assign(in.begin() + static_cast<long>(offset),
               in.begin() + static_cast<long>(offset + n));
    offset += n;
    return true;
  }
  bool Done() const { return offset == in.size(); }
};

void EncodeResult(std::vector<uint8_t>& out, const KvResultMessage& result) {
  out.push_back(static_cast<uint8_t>(result.code));
  PutU64(out, result.scalar);
  PutU32(out, static_cast<uint32_t>(result.value.size()));
  PutBytes(out, result.value);
}

bool DecodeResult(Reader& reader, KvResultMessage& result) {
  uint8_t code_byte;
  uint32_t len;
  if (!reader.Take(&code_byte, 1) || !reader.Take(&result.scalar, 8) ||
      !reader.Take(&len, 4) || code_byte > kMaxResultCodeByte) {
    return false;
  }
  result.code = static_cast<ResultCode>(code_byte);
  return reader.TakeBytes(result.value, len);
}

void EncodeMessageHead(std::vector<uint8_t>& out, const ReplicaMessage& msg) {
  out.push_back(static_cast<uint8_t>(msg.type));
  PutU64(out, msg.epoch);
  PutU32(out, msg.sender);
}

bool DecodeEntry(Reader& reader, LogEntry& entry) {
  uint8_t opcode_byte, return_value;
  uint16_t key_len;
  uint32_t value_len;
  if (!reader.Take(&entry.epoch, 8) || !reader.Take(&entry.client_sequence, 8) ||
      !reader.Take(&entry.slot, 2) || !reader.Take(&opcode_byte, 1) ||
      !reader.Take(&entry.op.element_width, 1) || !reader.Take(&return_value, 1) ||
      !reader.Take(&entry.op.function_id, 2) || !reader.Take(&entry.op.param, 8) ||
      !reader.Take(&key_len, 2) || !reader.Take(&value_len, 4)) {
    return false;
  }
  if (opcode_byte > kMaxOpcodeByte) {
    return false;
  }
  entry.op.opcode = static_cast<Opcode>(opcode_byte);
  entry.op.return_value = return_value != 0;
  return reader.TakeBytes(entry.op.key, key_len) &&
         reader.TakeBytes(entry.op.value, value_len) &&
         DecodeResult(reader, entry.result);
}

// The type-specific part of a replica message; false on truncation or an
// out-of-range field.
bool DecodeBody(Reader& reader, ReplicaMessage& msg) {
  uint32_t count;
  switch (msg.type) {
    case ReplicaMessageType::kAppend:
      if (!reader.Take(&msg.first_index, 8) || !reader.Take(&msg.prev_epoch, 8) ||
          !reader.Take(&msg.commit_index, 8) || !reader.Take(&msg.leader_end, 8) ||
          !reader.Take(&count, 4)) {
        return false;
      }
      msg.entries.reserve(count);
      for (uint32_t i = 0; i < count; i++) {
        LogEntry entry;
        if (!DecodeEntry(reader, entry)) {
          return false;
        }
        msg.entries.push_back(std::move(entry));
      }
      return true;
    case ReplicaMessageType::kAppendAck:
      return reader.Take(&msg.ack_index, 8);
    case ReplicaMessageType::kPromoteQuery:
    case ReplicaMessageType::kPromote:
      return reader.Take(&msg.new_epoch, 8);
    case ReplicaMessageType::kPromoteReply: {
      uint8_t granted_byte;
      if (!reader.Take(&msg.last_epoch, 8) || !reader.Take(&msg.last_index, 8) ||
          !reader.Take(&msg.new_epoch, 8) || !reader.Take(&granted_byte, 1)) {
        return false;
      }
      msg.granted = granted_byte != 0;
      return granted_byte <= 1;  // a vote is 0 or 1
    }
    case ReplicaMessageType::kCatchupRequest:
      return reader.Take(&msg.last_epoch, 8) && reader.Take(&msg.last_index, 8);
    case ReplicaMessageType::kStateChunk:
      if (!reader.Take(&msg.snapshot_epoch, 8) ||
          !reader.Take(&msg.snapshot_index, 8) ||
          !reader.Take(&msg.chunk_seq, 4) || !reader.Take(&msg.chunk_flags, 1) ||
          (msg.chunk_flags & ~kStateChunkKnownFlags) != 0 ||
          !reader.Take(&count, 4)) {
        return false;
      }
      msg.kvs.reserve(count);
      for (uint32_t i = 0; i < count; i++) {
        uint16_t key_len;
        uint32_t value_len;
        std::vector<uint8_t> key, value;
        if (!reader.Take(&key_len, 2) || !reader.Take(&value_len, 4) ||
            !reader.TakeBytes(key, key_len) || !reader.TakeBytes(value, value_len)) {
          return false;
        }
        msg.kvs.emplace_back(std::move(key), std::move(value));
      }
      if ((msg.chunk_flags & kStateChunkSessions) == 0) {
        return true;
      }
      if (!reader.Take(&count, 4)) {
        return false;
      }
      for (uint32_t i = 0; i < count; i++) {
        SessionRecord record;
        if (!reader.Take(&record.sequence, 8) || !reader.Take(&record.slot, 2) ||
            !DecodeResult(reader, record.result)) {
          return false;
        }
        msg.sessions.push_back(std::move(record));
      }
      return true;
    case ReplicaMessageType::kStateChunkAck:
      return reader.Take(&msg.snapshot_index, 8) &&
             reader.Take(&msg.ack_index, 8);
  }
  return false;
}

}  // namespace

ReplicaMessage MakeMessage(ReplicaMessageType type, uint64_t epoch, uint32_t sender) {
  ReplicaMessage msg;
  msg.type = type;
  msg.epoch = epoch;
  msg.sender = sender;
  return msg;
}

void EncodeLogEntry(std::vector<uint8_t>& out, const LogEntry& entry) {
  PutU64(out, entry.epoch);
  PutU64(out, entry.client_sequence);
  PutU16(out, entry.slot);
  out.push_back(static_cast<uint8_t>(entry.op.opcode));
  out.push_back(entry.op.element_width);
  out.push_back(entry.op.return_value ? 1 : 0);
  PutU16(out, entry.op.function_id);
  PutU64(out, entry.op.param);
  PutU16(out, static_cast<uint16_t>(entry.op.key.size()));
  PutU32(out, static_cast<uint32_t>(entry.op.value.size()));
  PutBytes(out, entry.op.key);
  PutBytes(out, entry.op.value);
  EncodeResult(out, entry.result);
}

size_t EncodedLogEntryBytes(const LogEntry& entry) {
  return kEntryFixedBytes + entry.op.key.size() + entry.op.value.size() +
         entry.result.value.size();
}

std::vector<uint8_t> EncodeAppendHead(const ReplicaMessage& msg, uint32_t count,
                                      size_t entry_bytes) {
  std::vector<uint8_t> out;
  out.reserve(kAppendHeadBytes + entry_bytes);
  EncodeMessageHead(out, msg);
  PutU64(out, msg.first_index);
  PutU64(out, msg.prev_epoch);
  PutU64(out, msg.commit_index);
  PutU64(out, msg.leader_end);
  PutU32(out, count);
  return out;
}

std::vector<uint8_t> EncodeReplicaMessage(const ReplicaMessage& msg) {
  if (msg.type == ReplicaMessageType::kAppend) {
    size_t entry_bytes = 0;
    for (const LogEntry& entry : msg.entries) {
      entry_bytes += EncodedLogEntryBytes(entry);
    }
    std::vector<uint8_t> out = EncodeAppendHead(
        msg, static_cast<uint32_t>(msg.entries.size()), entry_bytes);
    for (const LogEntry& entry : msg.entries) {
      EncodeLogEntry(out, entry);
    }
    return out;
  }
  std::vector<uint8_t> out;
  out.reserve(kMessageHeadBytes + 4 * 8);  // every fixed-size message fits
  EncodeMessageHead(out, msg);
  switch (msg.type) {
    case ReplicaMessageType::kAppend:
      break;  // encoded above
    case ReplicaMessageType::kAppendAck:
      PutU64(out, msg.ack_index);
      break;
    case ReplicaMessageType::kPromoteQuery:
    case ReplicaMessageType::kPromote:
      PutU64(out, msg.new_epoch);
      break;
    case ReplicaMessageType::kPromoteReply:
      PutU64(out, msg.last_epoch);
      PutU64(out, msg.last_index);
      PutU64(out, msg.new_epoch);
      out.push_back(msg.granted ? 1 : 0);
      break;
    case ReplicaMessageType::kCatchupRequest:
      PutU64(out, msg.last_epoch);
      PutU64(out, msg.last_index);
      break;
    case ReplicaMessageType::kStateChunk:
      PutU64(out, msg.snapshot_epoch);
      PutU64(out, msg.snapshot_index);
      PutU32(out, msg.chunk_seq);
      out.push_back(msg.chunk_flags);
      PutU32(out, static_cast<uint32_t>(msg.kvs.size()));
      for (const auto& [key, value] : msg.kvs) {
        PutU16(out, static_cast<uint16_t>(key.size()));
        PutU32(out, static_cast<uint32_t>(value.size()));
        PutBytes(out, key);
        PutBytes(out, value);
      }
      if ((msg.chunk_flags & kStateChunkSessions) != 0) {
        PutU32(out, static_cast<uint32_t>(msg.sessions.size()));
        for (const SessionRecord& record : msg.sessions) {
          PutU64(out, record.sequence);
          PutU16(out, record.slot);
          EncodeResult(out, record.result);
        }
      }
      break;
    case ReplicaMessageType::kStateChunkAck:
      PutU64(out, msg.snapshot_index);
      PutU64(out, msg.ack_index);
      break;
  }
  return out;
}

Result<ReplicaMessage> DecodeReplicaMessage(const std::vector<uint8_t>& payload) {
  Reader reader{payload};
  ReplicaMessage msg;
  uint8_t type_byte;
  if (!reader.Take(&type_byte, 1) || !reader.Take(&msg.epoch, 8) ||
      !reader.Take(&msg.sender, 4)) {
    return Status::InvalidArgument("truncated replica message header");
  }
  if (type_byte > kMaxReplicaMessageType) {
    return Status::InvalidArgument("unknown replica message type");
  }
  msg.type = static_cast<ReplicaMessageType>(type_byte);
  if (!DecodeBody(reader, msg)) {
    return Status::InvalidArgument("truncated or invalid replica message body");
  }
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes in replica message");
  }
  return msg;
}

std::vector<ReplicaMessage> CutStateChunks(const ReplicaMessage& header,
                                           StateKvs kvs,
                                           std::vector<SessionRecord> sessions,
                                           uint32_t per_chunk) {
  std::vector<ReplicaMessage> chunks;
  ReplicaMessage chunk = header;
  auto add_item = [&](bool force) {
    if (force || chunk.kvs.size() + chunk.sessions.size() >= per_chunk) {
      chunk.chunk_seq = static_cast<uint32_t>(chunks.size());
      chunk.chunk_flags = chunk.sessions.empty() ? 0 : kStateChunkSessions;
      chunks.push_back(chunk);
      chunk.kvs.clear();
      chunk.sessions.clear();
    }
  };
  for (auto& kv : kvs) {
    chunk.kvs.push_back(std::move(kv));
    add_item(false);
  }
  for (SessionRecord& record : sessions) {
    chunk.sessions.push_back(std::move(record));
    add_item(false);
  }
  if (!chunk.kvs.empty() || !chunk.sessions.empty()) {
    add_item(true);
  }
  return chunks;
}

std::vector<uint8_t> EncodeGroupRequest(const GroupRequest& request) {
  std::vector<uint8_t> out;
  out.reserve((request.has_route ? kGroupRouteHeaderBytes : kGroupRequestHeaderBytes) +
              request.ops_payload.size());
  // The watermark itself must never collide with the route marker bit.
  PutU64(out, (request.required_index & ~kGroupRequestRouted) |
                  (request.has_route ? kGroupRequestRouted : 0));
  if (request.has_route) {
    PutU64(out, request.map_epoch);
    PutU32(out, request.partition);
  }
  PutBytes(out, request.ops_payload);
  return out;
}

Result<GroupRequest> DecodeGroupRequest(const std::vector<uint8_t>& payload) {
  Reader reader{payload};
  GroupRequest request;
  if (!reader.Take(&request.required_index, 8)) {
    return Status::InvalidArgument("truncated group request header");
  }
  if ((request.required_index & kGroupRequestRouted) != 0) {
    request.required_index &= ~kGroupRequestRouted;
    request.has_route = true;
    if (!reader.Take(&request.map_epoch, 8) ||
        !reader.Take(&request.partition, 4)) {
      return Status::InvalidArgument("truncated group request route");
    }
  }
  request.ops_payload.assign(payload.begin() + static_cast<long>(reader.offset),
                             payload.end());
  return request;
}

std::vector<uint8_t> EncodeGroupResponse(const GroupResponse& response) {
  std::vector<uint8_t> out;
  out.reserve(21 + response.results_payload.size());
  out.push_back(response.flags);
  PutU64(out, response.epoch);
  PutU32(out, response.primary_id);
  PutU64(out, response.assigned_index);
  if ((response.flags & (kGroupWrongShard | kGroupMigrating)) != 0) {
    PutU64(out, response.map_epoch);
    PutU32(out, response.owner_group);
    PutU32(out, response.num_partitions);
  }
  PutBytes(out, response.results_payload);
  return out;
}

Result<GroupResponse> DecodeGroupResponse(const std::vector<uint8_t>& payload) {
  Reader reader{payload};
  GroupResponse response;
  if (!reader.Take(&response.flags, 1) || !reader.Take(&response.epoch, 8) ||
      !reader.Take(&response.primary_id, 4) ||
      !reader.Take(&response.assigned_index, 8)) {
    return Status::InvalidArgument("truncated group response header");
  }
  if ((response.flags & ~kGroupKnownFlags) != 0) {
    return Status::InvalidArgument("unknown group response flags");
  }
  if ((response.flags & (kGroupWrongShard | kGroupMigrating)) != 0) {
    if (!reader.Take(&response.map_epoch, 8) ||
        !reader.Take(&response.owner_group, 4) ||
        !reader.Take(&response.num_partitions, 4)) {
      return Status::InvalidArgument("truncated group response shard context");
    }
  }
  response.results_payload.assign(
      payload.begin() + static_cast<long>(reader.offset), payload.end());
  return response;
}

}  // namespace kvd
