// Wire formats of the replication subsystem (DESIGN.md §9).
//
// Two separate vocabularies share this header:
//
//   - replica <-> replica messages (ReplicaMessage): log propagation,
//     cumulative acks, failover elections, catch-up, and bounded-rate state
//     transfer. All ride inside the checksummed framing (src/transport/frame.h)
//     over the group's replication NetworkModel links. The log protocol is
//     idempotent by design (cumulative indices), so a lost window is healed by
//     the next heartbeat window rather than a per-message timer. State chunks
//     are a SnapshotStream (src/transport/snapshot_stream.h): each is answered
//     by a kStateChunkAck cursor, and a lost chunk is resent by go-back-N
//     from the acked point on a later heartbeat.
//
//   - client <-> group messages (GroupRequest/GroupResponse): a thin routing
//     header around the existing batched-operation payload. Requests carry
//     the client's read watermark (read-your-writes), responses carry the
//     epoch, the responder's view of the primary (for redirects), and the log
//     index covering the request's writes.
//
// Each layout is one field list in replica_wire.cc over the byte codec
// (src/common/byte_codec.h), which encodes, sizes and decodes it.
#ifndef SRC_REPLICA_REPLICA_WIRE_H_
#define SRC_REPLICA_REPLICA_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/kv_types.h"

namespace kvd {

// One replicated operation: an effective write exactly as executed at the
// primary, together with the result the primary computed. Shipping the result
// lets every replica store an identical session-result record (for
// exactly-once retransmission handling across failover) without re-deriving
// it from its own execution.
struct LogEntry {
  uint64_t epoch = 0;
  uint64_t client_sequence = 0;  // frame sequence of the originating request
  uint16_t slot = 0;             // op position within that frame
  KvOperation op;
  KvResultMessage result;
};

enum class ReplicaMessageType : uint8_t {
  kAppend = 0,          // log replication; empty entry list == heartbeat
  kAppendAck = 1,       // cumulative: "my log reaches ack_index"
  kPromoteQuery = 2,    // ballot new_epoch: request a vote + log tail position
  kPromoteReply = 3,    // vote (granted at most once per ballot epoch) + tail
  kPromote = 4,         // install the most-caught-up granter at new_epoch
  kCatchupRequest = 5,  // backup asks to be resynced past (last_epoch, last_index)
  kStateChunk = 6,      // bounded-rate full-partition state transfer
  kStateChunkAck = 7,   // cumulative: "chunks [0, ack_index) are installed"
};

inline constexpr uint8_t kMaxReplicaMessageType =
    static_cast<uint8_t>(ReplicaMessageType::kStateChunkAck);

// Chunk 0 of a transfer wipes the target; the stream's in-order cursor makes
// that the first chunk installed, so it needs no flag.
inline constexpr uint8_t kStateChunkLast = 1u << 1;  // snapshot complete
// A session-record list follows the KVs. Migration chunks never set it, so
// their bytes are unchanged by the extension.
inline constexpr uint8_t kStateChunkSessions = 1u << 2;
inline constexpr uint8_t kStateChunkKnownFlags =
    kStateChunkLast | kStateChunkSessions;

// A snapshot's KV pairs, in the order they are shipped.
using StateKvs =
    std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>>;

// One replicated exactly-once record: the result a client write slot
// produced. Replica snapshots and shard migrations carry these so a
// retransmission of an acked write is answered, not re-executed.
struct SessionRecord {
  uint64_t sequence = 0;
  uint16_t slot = 0;
  KvResultMessage result;
};

struct ReplicaMessage {
  ReplicaMessageType type = ReplicaMessageType::kAppend;
  uint64_t epoch = 0;   // sender's epoch
  uint32_t sender = 0;  // sender's replica id

  // kAppend
  uint64_t first_index = 0;  // index of entries[0]
  uint64_t prev_epoch = 0;   // epoch of the sender's entry at first_index - 1
  uint64_t commit_index = 0;
  // The sender's log end. A backup whose log extends past it holds a
  // divergent tail (it was a deposed primary) and must be state-transferred:
  // applied state cannot be rolled back entry-wise.
  uint64_t leader_end = 0;
  std::vector<LogEntry> entries;

  // kAppendAck (log index) / kStateChunkAck (chunk cursor)
  uint64_t ack_index = 0;

  // kPromoteReply / kCatchupRequest: the sender's log tail position
  uint64_t last_epoch = 0;
  uint64_t last_index = 0;

  // kPromoteQuery / kPromoteReply: the ballot epoch being voted on.
  // kPromote: the epoch the target is to assume. A replica grants each
  // ballot epoch at most once (kPromoteReply.granted), so two concurrent
  // coordinators can never both collect a majority for the same epoch.
  uint64_t new_epoch = 0;
  // kPromoteReply: vote outcome for ballot new_epoch.
  bool granted = false;

  // kStateChunk (kStateChunkAck echoes snapshot_index: which transfer)
  uint64_t snapshot_epoch = 0;
  uint64_t snapshot_index = 0;
  uint32_t chunk_seq = 0;
  uint8_t chunk_flags = 0;
  StateKvs kvs;
  std::vector<SessionRecord> sessions;  // encoded iff kStateChunkSessions
};

// A message of `type` from `sender` at `epoch`; the caller sets the rest.
ReplicaMessage MakeMessage(ReplicaMessageType type, uint64_t epoch, uint32_t sender);

std::vector<uint8_t> EncodeReplicaMessage(const ReplicaMessage& msg);
Result<ReplicaMessage> DecodeReplicaMessage(std::span<const uint8_t> payload);

// A kAppend in two steps, so a primary encodes a window straight from its
// log instead of copying it into msg.entries: the message through its entry
// count (msg.entries is not read; the buffer is reserved for `entry_bytes`
// more), then each entry appended in log order. EncodeReplicaMessage encodes
// a kAppend the same way, byte for byte.
std::vector<uint8_t> EncodeAppendHead(const ReplicaMessage& msg, uint32_t count,
                                      size_t entry_bytes);
void EncodeLogEntry(std::vector<uint8_t>& out, const LogEntry& entry);
size_t EncodedLogEntryBytes(const LogEntry& entry);

// Cuts a snapshot into kStateChunk messages that copy `header`: the KVs, then
// the session records (their chunks flagged kStateChunkSessions), at most
// `per_chunk` items per chunk, numbered from 0. An empty snapshot yields no
// chunk. Replica state transfer and shard migration cut with it alike.
std::vector<ReplicaMessage> CutStateChunks(const ReplicaMessage& header,
                                           StateKvs kvs,
                                           std::vector<SessionRecord> sessions,
                                           uint32_t per_chunk);

// --- client <-> group messages (ride inside the PR 2 reliable framing) ---

// The read watermark the serving replica must have applied before answering,
// then the standard batched-operation payload (src/net/wire_format.h).
//
// Cluster-routed requests (src/cluster) additionally carry the client's
// cached shard-map epoch and the partition the packet's keys hash to, so the
// serving group can bounce kWrongShard/kMigrating with enough context for the
// client to patch its map. The extension is flagged in the top bit of the
// required_index field: legacy (unrouted) requests encode byte-identically to
// the pre-cluster format, and log watermarks never approach 2^63.
inline constexpr uint64_t kGroupRequestRouted = 1ull << 63;
// Header bytes ahead of ops_payload: the watermark, plus the route when
// has_route (map epoch + partition).
inline constexpr size_t kGroupRequestHeaderBytes = 8;
inline constexpr size_t kGroupRouteHeaderBytes = kGroupRequestHeaderBytes + 12;

// `Bytes` holds the ops payload: owned bytes in a GroupRequest, which a
// client encodes, and a view of the received packet in a GroupRequestView,
// which a replica decodes.
template <class Bytes>
struct BasicGroupRequest {
  uint64_t required_index = 0;
  // Shard-map routing extension (present iff has_route).
  bool has_route = false;
  uint64_t map_epoch = 0;
  uint32_t partition = 0;
  Bytes ops_payload;
};
using GroupRequest = BasicGroupRequest<std::vector<uint8_t>>;
using GroupRequestView = BasicGroupRequest<std::span<const uint8_t>>;

inline constexpr uint8_t kGroupRedirect = 1u << 0;   // not primary: go there
inline constexpr uint8_t kGroupStaleRead = 1u << 1;  // replica behind watermark
// Shard-map bounces (routed requests only). kGroupWrongShard: this group does
// not own the packet's partition — the response carries the current map
// epoch, the owning group, and the partition count so the client can patch or
// refetch its cached map. kGroupMigrating: the partition is write-frozen for
// a migration cutover window; back off and resend the same frame.
inline constexpr uint8_t kGroupWrongShard = 1u << 2;
inline constexpr uint8_t kGroupMigrating = 1u << 3;

inline constexpr uint8_t kGroupKnownFlags =
    kGroupRedirect | kGroupStaleRead | kGroupWrongShard | kGroupMigrating;

// Routing header, then an EncodeResults payload (empty when a flag rejects
// the request without executing it). The shard-routing fields are encoded
// only when kGroupWrongShard or kGroupMigrating is set, so responses on the
// legacy paths stay byte-identical to the pre-cluster format.
struct GroupResponse {
  uint8_t flags = 0;
  uint64_t epoch = 0;
  uint32_t primary_id = 0;      // the responder's belief, for redirects
  uint64_t assigned_index = 0;  // log index covering the request's writes
  // Shard-map bounce context (kGroupWrongShard / kGroupMigrating only).
  uint64_t map_epoch = 0;
  uint32_t owner_group = 0;     // current owner under map_epoch
  uint32_t num_partitions = 0;  // map granularity (mismatch => full refetch)
  std::vector<uint8_t> results_payload;
};

std::vector<uint8_t> EncodeGroupRequest(const GroupRequest& request);
// Decodes the header; the ops payload is left in place in `payload`.
Result<GroupRequestView> DecodeGroupRequestView(std::span<const uint8_t> payload);
std::vector<uint8_t> EncodeGroupResponse(const GroupResponse& response);
Result<GroupResponse> DecodeGroupResponse(std::span<const uint8_t> payload);

}  // namespace kvd

#endif  // SRC_REPLICA_REPLICA_WIRE_H_
