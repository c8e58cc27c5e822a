#include "src/replica/replica_wire.h"

#include <type_traits>

#include "src/common/byte_codec.h"

namespace kvd {
namespace {

// u8 code | u64 scalar | u32 value_len | value bytes.
constexpr auto kResultLayout = [](auto& c, auto& result) {
  c.Enum(result.code, kMaxResultCodeByte);
  c.U64(result.scalar);
  const size_t value_len = c.Len32(result.value);
  c.Bytes(result.value, value_len);
};

// u64 epoch | u64 client_sequence | u16 slot | u8 opcode | u8 element_width
// | u8 return_value | u16 function_id | u64 param | u16 key_len
// | u32 value_len | key | value | result.
constexpr auto kEntryLayout = [](auto& c, auto& entry) {
  c.U64(entry.epoch);
  c.U64(entry.client_sequence);
  c.U16(entry.slot);
  c.Enum(entry.op.opcode, kMaxOpcodeByte);
  c.U8(entry.op.element_width);
  c.Bool(entry.op.return_value);
  c.U16(entry.op.function_id);
  c.U64(entry.op.param);
  const size_t key_len = c.Len16(entry.op.key);
  const size_t value_len = c.Len32(entry.op.value);
  c.Bytes(entry.op.key, key_len);
  c.Bytes(entry.op.value, value_len);
  kResultLayout(c, entry.result);
};

// A state chunk's KV pair: u16 key_len | u32 value_len | key | value.
constexpr auto kKvLayout = [](auto& c, auto& kv) {
  const size_t key_len = c.Len16(kv.first);
  const size_t value_len = c.Len32(kv.second);
  c.Bytes(kv.first, key_len);
  c.Bytes(kv.second, value_len);
};

// u64 sequence | u16 slot | result.
constexpr auto kSessionLayout = [](auto& c, auto& record) {
  c.U64(record.sequence);
  c.U16(record.slot);
  kResultLayout(c, record.result);
};

// The head of every replica message: u8 type | u64 epoch | u32 sender.
constexpr auto kHeadLayout = [](auto& c, auto& msg) {
  c.Enum(msg.type, kMaxReplicaMessageType);
  c.U64(msg.epoch);
  c.U32(msg.sender);
};

// A kAppend's window position; the entry list follows.
constexpr auto kAppendWindowLayout = [](auto& c, auto& msg) {
  c.U64(msg.first_index);
  c.U64(msg.prev_epoch);
  c.U64(msg.commit_index);
  c.U64(msg.leader_end);
};

// The head, then the type's body.
constexpr auto kMessageLayout = [](auto& c, auto& msg) {
  kHeadLayout(c, msg);
  switch (msg.type) {
    case ReplicaMessageType::kAppend:
      kAppendWindowLayout(c, msg);
      c.List(msg.entries, kEntryLayout);
      break;
    case ReplicaMessageType::kAppendAck:
      c.U64(msg.ack_index);
      break;
    case ReplicaMessageType::kPromoteQuery:
    case ReplicaMessageType::kPromote:
      c.U64(msg.new_epoch);
      break;
    case ReplicaMessageType::kPromoteReply:
      c.U64(msg.last_epoch);
      c.U64(msg.last_index);
      c.U64(msg.new_epoch);
      c.Bool(msg.granted);
      break;
    case ReplicaMessageType::kCatchupRequest:
      c.U64(msg.last_epoch);
      c.U64(msg.last_index);
      break;
    case ReplicaMessageType::kStateChunk:
      c.U64(msg.snapshot_epoch);
      c.U64(msg.snapshot_index);
      c.U32(msg.chunk_seq);
      c.U8(msg.chunk_flags);
      c.Check((msg.chunk_flags & ~kStateChunkKnownFlags) == 0);
      c.List(msg.kvs, kKvLayout);
      if ((msg.chunk_flags & kStateChunkSessions) != 0) {
        c.List(msg.sessions, kSessionLayout);
      }
      break;
    case ReplicaMessageType::kStateChunkAck:
      c.U64(msg.snapshot_index);
      c.U64(msg.ack_index);
      break;
  }
};

// u64 required_index, its top bit set iff the route follows | [u64 map_epoch
// | u32 partition] | ops payload.
constexpr auto kGroupRequestLayout = [](auto& c, auto& request) {
  // The watermark itself must never collide with the route marker bit.
  uint64_t word = (request.required_index & ~kGroupRequestRouted) |
                  (request.has_route ? kGroupRequestRouted : 0);
  c.U64(word);
  if constexpr (std::remove_cvref_t<decltype(c)>::kReads) {
    request.required_index = word & ~kGroupRequestRouted;
    request.has_route = (word & kGroupRequestRouted) != 0;
  }
  if (request.has_route) {
    c.U64(request.map_epoch);
    c.U32(request.partition);
  }
  c.Rest(request.ops_payload);
};
static_assert(EncodedSize([](auto& c) {
                const GroupRequest unrouted;
                kGroupRequestLayout(c, unrouted);
              }) == kGroupRequestHeaderBytes);
static_assert(EncodedSize([](auto& c) {
                GroupRequest routed;
                routed.has_route = true;
                kGroupRequestLayout(c, routed);
              }) == kGroupRouteHeaderBytes);

// u8 flags | u64 epoch | u32 primary_id | u64 assigned_index | [u64 map_epoch
// | u32 owner_group | u32 num_partitions] | results payload.
constexpr auto kGroupResponseLayout = [](auto& c, auto& response) {
  c.U8(response.flags);
  c.Check((response.flags & ~kGroupKnownFlags) == 0);
  c.U64(response.epoch);
  c.U32(response.primary_id);
  c.U64(response.assigned_index);
  if ((response.flags & (kGroupWrongShard | kGroupMigrating)) != 0) {
    c.U64(response.map_epoch);
    c.U32(response.owner_group);
    c.U32(response.num_partitions);
  }
  c.Rest(response.results_payload);
};

}  // namespace

ReplicaMessage MakeMessage(ReplicaMessageType type, uint64_t epoch, uint32_t sender) {
  ReplicaMessage msg;
  msg.type = type;
  msg.epoch = epoch;
  msg.sender = sender;
  return msg;
}

void EncodeLogEntry(std::vector<uint8_t>& out, const LogEntry& entry) {
  ByteWriter writer(out);
  kEntryLayout(writer, entry);
}

size_t EncodedLogEntryBytes(const LogEntry& entry) {
  return EncodedSize([&](auto& c) { kEntryLayout(c, entry); });
}

std::vector<uint8_t> EncodeAppendHead(const ReplicaMessage& msg, uint32_t count,
                                      size_t entry_bytes) {
  return EncodeFields(
      [&](auto& c) {
        kHeadLayout(c, msg);
        kAppendWindowLayout(c, msg);
        c.Count(count);
      },
      entry_bytes);
}

std::vector<uint8_t> EncodeReplicaMessage(const ReplicaMessage& msg) {
  return EncodeFields([&](auto& c) { kMessageLayout(c, msg); });
}

Result<ReplicaMessage> DecodeReplicaMessage(std::span<const uint8_t> payload) {
  ReplicaMessage msg;
  if (!DecodeFields(payload, [&](auto& c) { kMessageLayout(c, msg); })) {
    return Status::InvalidArgument("truncated, invalid or over-long replica message");
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
  return EncodeFields([&](auto& c) { kGroupRequestLayout(c, request); });
}

Result<GroupRequestView> DecodeGroupRequestView(std::span<const uint8_t> payload) {
  GroupRequestView request;
  if (!DecodeFields(payload, [&](auto& c) { kGroupRequestLayout(c, request); })) {
    return Status::InvalidArgument("truncated group request header");
  }
  return request;
}

std::vector<uint8_t> EncodeGroupResponse(const GroupResponse& response) {
  return EncodeFields([&](auto& c) { kGroupResponseLayout(c, response); });
}

Result<GroupResponse> DecodeGroupResponse(std::span<const uint8_t> payload) {
  GroupResponse response;
  if (!DecodeFields(payload, [&](auto& c) { kGroupResponseLayout(c, response); })) {
    return Status::InvalidArgument("truncated or invalid group response header");
  }
  return response;
}

}  // namespace kvd
