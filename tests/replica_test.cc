// Replication groups: wire formats, the log, quorum-acknowledged writes,
// read scaling with read-your-writes watermarks, deterministic failover
// (scripted primary crash mid-workload, no acknowledged write lost), replica
// catch-up and full-state resync, session-based exactly-once across epoch
// changes, and the sharded-and-replicated cluster on one simulated clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/check/history.h"
#include "src/check/linearizability.h"
#include "src/check/session_audit.h"
#include "src/common/hashing.h"
#include "src/common/key_router.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/core/multi_nic.h"
#include "src/net/wire_format.h"
#include "src/replica/replica_log.h"
#include "src/replica/replica_wire.h"
#include "src/replica/replicated_client.h"
#include "src/replica/replication_group.h"
#include "src/replica/watermark_table.h"

namespace kvd {
namespace {

std::vector<uint8_t> Key(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, 8);
  return key;
}

std::vector<uint8_t> U64Value(uint64_t v) {
  std::vector<uint8_t> value(8);
  std::memcpy(value.data(), &v, 8);
  return value;
}

KvOperation Put(uint64_t id, uint64_t v) {
  KvOperation op;
  op.opcode = Opcode::kPut;
  op.key = Key(id);
  op.value = U64Value(v);
  return op;
}

KvOperation Delete(uint64_t id) {
  KvOperation op;
  op.opcode = Opcode::kDelete;
  op.key = Key(id);
  return op;
}

KvOperation Get(uint64_t id) {
  KvOperation op;
  op.opcode = Opcode::kGet;
  op.key = Key(id);
  return op;
}

ReplicationConfig SmallGroupConfig(uint32_t replicas = 3) {
  ReplicationConfig config;
  config.num_replicas = replicas;
  config.server.kvs_memory_bytes = 8 * kMiB;
  config.server.nic_dram.capacity_bytes = 1 * kMiB;
  return config;
}

void RunFor(Simulator& sim, SimTime duration) { sim.RunUntil(sim.Now() + duration); }

uint64_t ReadU64(ReplicationGroup& group, uint32_t replica, uint64_t id) {
  KvResultMessage r = group.replica(replica).Execute(Get(id));
  EXPECT_EQ(r.code, ResultCode::kOk);
  uint64_t v = 0;
  std::memcpy(&v, r.value.data(), std::min<size_t>(8, r.value.size()));
  return v;
}

// A replica's whole store as its hash index enumerates it, in key order.
StateKvs StoreContents(ReplicationGroup& group, uint32_t replica) {
  StateKvs kvs;
  group.replica(replica).index().ForEach(
      [&](std::span<const uint8_t> key, std::span<const uint8_t> value) {
        kvs.emplace_back(std::vector<uint8_t>(key.begin(), key.end()),
                         std::vector<uint8_t>(value.begin(), value.end()));
      });
  std::ranges::sort(kvs);
  return kvs;
}

// --- wire formats ---

TEST(ReplicaWireTest, AppendRoundTrip) {
  ReplicaMessage msg;
  msg.type = ReplicaMessageType::kAppend;
  msg.epoch = 3;
  msg.sender = 1;
  msg.first_index = 41;
  msg.prev_epoch = 2;
  msg.commit_index = 40;
  msg.leader_end = 44;
  for (int i = 0; i < 3; i++) {
    LogEntry entry;
    entry.epoch = 3;
    entry.client_sequence = (7ull << 40) + i;
    entry.slot = static_cast<uint16_t>(i);
    entry.op = Put(100 + i, 1000 + i);
    entry.result.code = ResultCode::kOk;
    entry.result.scalar = 5 + i;
    msg.entries.push_back(entry);
  }
  auto decoded = DecodeReplicaMessage(EncodeReplicaMessage(msg));
  ASSERT_TRUE(decoded.ok());
  const ReplicaMessage& out = decoded.value();
  EXPECT_EQ(out.epoch, 3u);
  EXPECT_EQ(out.first_index, 41u);
  EXPECT_EQ(out.leader_end, 44u);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[2].client_sequence, (7ull << 40) + 2);
  EXPECT_EQ(out.entries[2].op.key, Key(102));
  EXPECT_EQ(out.entries[2].result.scalar, 7u);
}

TEST(ReplicaWireTest, EveryTypeRoundTripsAndJunkIsRejected) {
  for (uint8_t t = 0; t <= kMaxReplicaMessageType; t++) {
    ReplicaMessage msg;
    msg.type = static_cast<ReplicaMessageType>(t);
    msg.epoch = 9;
    msg.sender = 2;
    msg.ack_index = 11;
    msg.last_epoch = 7;
    msg.last_index = 13;
    msg.new_epoch = 10;
    msg.granted = true;
    msg.snapshot_epoch = 6;
    msg.snapshot_index = 12;
    msg.chunk_seq = 1;
    msg.chunk_flags = kStateChunkLast | kStateChunkSessions;
    msg.kvs.emplace_back(Key(1), U64Value(2));
    SessionRecord record;
    record.sequence = (3ull << 40) + 5;
    record.slot = 4;
    record.result.code = ResultCode::kOk;
    record.result.scalar = 99;
    record.result.value = U64Value(7);
    msg.sessions.push_back(record);
    auto decoded = DecodeReplicaMessage(EncodeReplicaMessage(msg));
    ASSERT_TRUE(decoded.ok()) << "type " << int(t);
    EXPECT_EQ(static_cast<uint8_t>(decoded.value().type), t);
    if (msg.type == ReplicaMessageType::kStateChunk) {
      // Session records ride behind the KVs under their flag bit.
      ASSERT_EQ(decoded.value().sessions.size(), 1u);
      EXPECT_EQ(decoded.value().sessions[0].sequence, record.sequence);
      EXPECT_EQ(decoded.value().sessions[0].slot, 4u);
      EXPECT_EQ(decoded.value().sessions[0].result.scalar, 99u);
      EXPECT_EQ(decoded.value().sessions[0].result.value, U64Value(7));
    }
    if (msg.type == ReplicaMessageType::kStateChunkAck) {
      // The stream cursor and the transfer it belongs to.
      EXPECT_EQ(decoded.value().ack_index, 11u);
      EXPECT_EQ(decoded.value().snapshot_index, 12u);
    }
    if (msg.type == ReplicaMessageType::kPromoteQuery ||
        msg.type == ReplicaMessageType::kPromote) {
      EXPECT_EQ(decoded.value().new_epoch, 10u);
    }
    if (msg.type == ReplicaMessageType::kPromoteReply) {
      // Votes must survive the wire: ballot echo + grant flag.
      EXPECT_EQ(decoded.value().new_epoch, 10u);
      EXPECT_TRUE(decoded.value().granted);
      EXPECT_EQ(decoded.value().last_epoch, 7u);
      EXPECT_EQ(decoded.value().last_index, 13u);
    }
  }
  // Unknown type byte, truncation, and trailing garbage must all error.
  EXPECT_FALSE(DecodeReplicaMessage({kMaxReplicaMessageType + 1, 0, 0}).ok());
  ReplicaMessage ack;
  ack.type = ReplicaMessageType::kAppendAck;
  std::vector<uint8_t> bytes = EncodeReplicaMessage(ack);
  bytes.pop_back();
  EXPECT_FALSE(DecodeReplicaMessage(bytes).ok());
  bytes = EncodeReplicaMessage(ack);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeReplicaMessage(bytes).ok());
  // A vote byte other than 0/1 is rejected.
  ReplicaMessage vote;
  vote.type = ReplicaMessageType::kPromoteReply;
  bytes = EncodeReplicaMessage(vote);
  bytes.back() = 2;
  EXPECT_FALSE(DecodeReplicaMessage(bytes).ok());
  // State chunks: an unknown flag bit, a session flag with no list behind
  // it, and a truncated session record are all rejected.
  ReplicaMessage chunk;
  chunk.type = ReplicaMessageType::kStateChunk;
  chunk.kvs.emplace_back(Key(1), U64Value(2));
  chunk.chunk_flags = 1u << 3;
  EXPECT_FALSE(DecodeReplicaMessage(EncodeReplicaMessage(chunk)).ok());
  chunk.chunk_flags = 0;
  bytes = EncodeReplicaMessage(chunk);
  ASSERT_TRUE(DecodeReplicaMessage(bytes).ok());
  bytes[33] = kStateChunkSessions;  // flags byte: type|epoch|sender|2xu64|seq
  EXPECT_FALSE(DecodeReplicaMessage(bytes).ok());
  chunk.chunk_flags = kStateChunkSessions;
  chunk.sessions.resize(1);
  chunk.sessions[0].result.value = U64Value(3);
  bytes = EncodeReplicaMessage(chunk);
  ASSERT_TRUE(DecodeReplicaMessage(bytes).ok());
  bytes.pop_back();
  EXPECT_FALSE(DecodeReplicaMessage(bytes).ok());
  // A chunk ack too short for its cursor.
  ReplicaMessage chunk_ack;
  chunk_ack.type = ReplicaMessageType::kStateChunkAck;
  bytes = EncodeReplicaMessage(chunk_ack);
  bytes.resize(bytes.size() - 8);
  EXPECT_FALSE(DecodeReplicaMessage(bytes).ok());
}

TEST(ReplicaWireTest, GroupRequestResponseRoundTrip) {
  GroupRequest request;
  request.required_index = 77;
  request.ops_payload = {1, 2, 3, 4};
  auto req = DecodeGroupRequest(EncodeGroupRequest(request));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().required_index, 77u);
  EXPECT_EQ(req.value().ops_payload, request.ops_payload);

  GroupResponse response;
  response.flags = kGroupRedirect;
  response.epoch = 4;
  response.primary_id = 2;
  response.assigned_index = 99;
  response.results_payload = {9, 9};
  auto resp = DecodeGroupResponse(EncodeGroupResponse(response));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().flags, kGroupRedirect);
  EXPECT_EQ(resp.value().primary_id, 2u);
  EXPECT_EQ(resp.value().assigned_index, 99u);
}

// --- the log ---

// Encodes the append window of at most `max_entries` that starts at `first`
// straight from the log, decodes it, and checks that it carries exactly the
// log's entries [first, expected_last], byte-identical to encoding copies.
void ExpectWindowRoundTrips(const ReplicaLog& log, uint64_t first,
                            uint32_t max_entries, uint64_t expected_last) {
  const uint64_t last = log.WindowLast(first, max_entries);
  ASSERT_EQ(last, expected_last);
  ReplicaMessage header;
  header.type = ReplicaMessageType::kAppend;
  header.epoch = 9;
  header.sender = 2;
  header.first_index = first;
  header.prev_epoch = log.EpochAt(first - 1);
  header.commit_index = first - 1;
  header.leader_end = log.end();
  const std::vector<uint8_t> bytes = log.EncodeWindow(header, first, last);
  auto decoded = DecodeReplicaMessage(bytes);
  ASSERT_TRUE(decoded.ok());
  const ReplicaMessage& out = decoded.value();
  EXPECT_EQ(out.type, ReplicaMessageType::kAppend);
  EXPECT_EQ(out.epoch, 9u);
  EXPECT_EQ(out.sender, 2u);
  EXPECT_EQ(out.first_index, first);
  EXPECT_EQ(out.prev_epoch, log.EpochAt(first - 1));
  EXPECT_EQ(out.commit_index, first - 1);
  EXPECT_EQ(out.leader_end, log.end());
  ASSERT_EQ(out.entries.size(), last + 1 - first);
  for (uint64_t index = first; index <= last; index++) {
    const LogEntry& want = log.At(index);
    const LogEntry& got = out.entries[index - first];
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(got.client_sequence, want.client_sequence);
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(got.op.opcode, want.op.opcode);
    EXPECT_EQ(got.op.key, want.op.key);
    EXPECT_EQ(got.op.value, want.op.value);
    EXPECT_EQ(got.result.code, want.result.code);
    EXPECT_EQ(got.result.scalar, want.result.scalar);
    EXPECT_EQ(got.result.value, want.result.value);
    header.entries.push_back(want);
  }
  EXPECT_EQ(bytes, EncodeReplicaMessage(header));
}

TEST(ReplicaLogTest, IndicesTrimAndSnapshotReset) {
  ReplicaLog log;
  EXPECT_EQ(log.end(), 0u);
  EXPECT_EQ(log.EpochAt(0), 0u);
  for (int i = 1; i <= 10; i++) {
    LogEntry entry;
    entry.epoch = i <= 5 ? 1 : 2;
    entry.client_sequence = (5ull << 40) + i;
    entry.slot = static_cast<uint16_t>(i);
    entry.op = Put(i, 100 + i);
    entry.result.scalar = i;
    entry.result.value = U64Value(1000 + i);
    log.Append(entry);
  }
  EXPECT_EQ(log.end(), 10u);
  EXPECT_EQ(log.EpochAt(5), 1u);
  EXPECT_EQ(log.EpochAt(6), 2u);
  ExpectWindowRoundTrips(log, 8, 64, 10);
  ExpectWindowRoundTrips(log, 11, 64, 10);  // empty: a heartbeat
  ExpectWindowRoundTrips(log, 1, 4, 4);

  log.Trim(4);
  EXPECT_EQ(log.base(), 6u);
  EXPECT_EQ(log.base_epoch(), 2u);
  EXPECT_EQ(log.EpochAt(6), 2u);  // the trimmed boundary keeps its epoch
  EXPECT_FALSE(log.Contains(6));
  EXPECT_TRUE(log.Contains(7));
  // The first window past the trimmed base takes its prev_epoch from there.
  ExpectWindowRoundTrips(log, 7, 64, 10);
  ExpectWindowRoundTrips(log, 7, 2, 8);

  log.ResetToSnapshot(42, 3);
  EXPECT_EQ(log.base(), 42u);
  EXPECT_EQ(log.end(), 42u);
  EXPECT_EQ(log.EpochAt(42), 3u);
}

// --- KeyRouter agreement across subsystems ---

TEST(KeyRouterTest, ShardedClientsAgreeOnOwnership) {
  const uint32_t kShards = 4;
  KeyRouter router(kShards);
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  MultiNicServer multi(kShards, config);
  Rng rng(11);
  for (int i = 0; i < 200; i++) {
    std::vector<uint8_t> key = Key(rng.Next());
    EXPECT_EQ(router.PartitionOf(key), multi.OwnerOf(key));
  }
}

// --- replication basics ---

TEST(ReplicationGroupTest, WritesReachEveryBackupAndCommitNeedsQuorum) {
  ReplicationGroup group(SmallGroupConfig());
  ReplicatedClient client(group);
  for (uint64_t i = 0; i < 20; i++) {
    client.Enqueue(Put(i, 1000 + i));
  }
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), 20u);
  for (const KvResultMessage& r : results) {
    EXPECT_EQ(r.code, ResultCode::kOk);
    EXPECT_EQ(r.epoch, 1u);
  }
  EXPECT_GE(group.commit_index(), 20u);
  // Let the backups drain their apply pipelines.
  RunFor(group.simulator(), 2 * kMillisecond);
  for (uint32_t id = 0; id < 3; id++) {
    EXPECT_EQ(group.log_end(id), 20u) << "replica " << id;
    EXPECT_EQ(ReadU64(group, id, 7), 1007u) << "replica " << id;
  }
  EXPECT_GT(group.stats().entries_applied, 0u);
  EXPECT_GT(group.stats().append_acks, 0u);
}

TEST(ReplicationGroupTest, WriteToBackupRedirectsWithoutExecuting) {
  ReplicationGroup group(SmallGroupConfig());
  PacketBuilder builder;
  ASSERT_TRUE(builder.Add(Put(1, 1)));
  GroupRequest request;
  request.ops_payload = builder.Finish();
  std::vector<uint8_t> frame =
      FramePacket(group.AcquireClientSequenceBase() + 1, EncodeGroupRequest(request));

  std::vector<uint8_t> response;
  group.DeliverClientFrame(1, frame, [&](std::vector<uint8_t> bytes) {
    response = std::move(bytes);
  });
  ASSERT_FALSE(response.empty());
  auto parsed = ParseFrame(response);
  ASSERT_TRUE(parsed.ok());
  auto decoded = DecodeGroupResponse(parsed.value().payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().flags, kGroupRedirect);
  EXPECT_EQ(decoded.value().primary_id, 0u);
  EXPECT_EQ(group.stats().redirects, 1u);
  EXPECT_EQ(group.log_end(0), 0u);  // nothing executed anywhere
}

TEST(ReplicationGroupTest, ReadBelowWatermarkBouncesStale) {
  ReplicationGroup group(SmallGroupConfig());
  PacketBuilder builder;
  ASSERT_TRUE(builder.Add(Get(1)));
  GroupRequest request;
  request.required_index = 100;  // far past anything applied
  request.ops_payload = builder.Finish();
  std::vector<uint8_t> frame =
      FramePacket(group.AcquireClientSequenceBase() + 1, EncodeGroupRequest(request));

  std::vector<uint8_t> response;
  group.DeliverClientFrame(2, frame, [&](std::vector<uint8_t> bytes) {
    response = std::move(bytes);
  });
  ASSERT_FALSE(response.empty());
  auto decoded = DecodeGroupResponse(ParseFrame(response).value().payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().flags, kGroupStaleRead);
  EXPECT_EQ(group.stats().stale_reads, 1u);
}

// A replica's client frames terminate at its own node: a retransmitted read
// is answered from that node's replay cache and a corrupt copy is dropped
// there, each counted once in the node's own counters and registry.
TEST(ReplicationGroupTest, ReplicaAnswersRetransmissionsFromItsOwnNode) {
  ReplicationGroup group(SmallGroupConfig());
  ASSERT_TRUE(group.Load(Key(1), U64Value(11)).ok());
  PacketBuilder builder;
  ASSERT_TRUE(builder.Add(Get(1)));
  GroupRequest request;
  request.ops_payload = builder.Finish();
  const std::vector<uint8_t> frame =
      FramePacket(group.AcquireClientSequenceBase() + 1, EncodeGroupRequest(request));

  std::vector<std::vector<uint8_t>> responses;
  auto deliver = [&](std::vector<uint8_t> bytes) {
    group.DeliverClientFrame(1, std::move(bytes), [&](std::vector<uint8_t> response) {
      responses.push_back(std::move(response));
    });
    RunFor(group.simulator(), kMillisecond);
  };
  deliver(frame);
  ASSERT_EQ(responses.size(), 1u);
  auto decoded = DecodeGroupResponse(ParseFrame(responses[0]).value().payload);
  ASSERT_TRUE(decoded.ok());
  auto results = DecodeResults(decoded.value().results_payload);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].value, U64Value(11));

  deliver(frame);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[1], responses[0]);
  KvDirectServer& node = group.replica(1);
  EXPECT_EQ(node.replayed_responses(), 1u);
  EXPECT_EQ(node.metrics().CounterValue("kvd_server_replayed_responses_total").value_or(0),
            1u);

  std::vector<uint8_t> corrupt = frame;
  corrupt.back() ^= 0x01;
  const uint64_t corrupt_before = node.corrupt_frames();
  deliver(corrupt);
  EXPECT_EQ(node.corrupt_frames(), corrupt_before + 1);
  EXPECT_EQ(responses.size(), 2u);
}

// A packet's batch record lives from admission until its answer, a write's
// through a snapshot drain and its quorum wait too, and no longer once the
// replica that admitted it cannot answer: a crashed replica (reads or
// writes in flight, a write waiting for quorum or parked by a drain) and a
// primary that lost its reign (here: crashed and restarted as a backup with
// writes in flight) release the record and send nothing.
TEST(ReplicationGroupTest, CrashedOrDeposedReplicaReleasesBatchRecords) {
  enum class Fate { kCrash, kDepose };
  // Where the packet is when its replica goes: still executing, executed
  // and waiting for its log prefix to commit, or parked by a snapshot drain.
  enum class Stage { kExecuting, kQuorumWait, kParked };
  struct Case {
    bool writes;
    uint32_t replica;
    Fate fate;
    Stage stage;
  };
  for (const Case& c : {Case{false, 1, Fate::kCrash, Stage::kExecuting},
                        Case{true, 0, Fate::kCrash, Stage::kExecuting},
                        Case{true, 0, Fate::kDepose, Stage::kExecuting},
                        Case{true, 0, Fate::kCrash, Stage::kQuorumWait},
                        Case{true, 0, Fate::kCrash, Stage::kParked}}) {
    SCOPED_TRACE(testing::Message()
                 << "writes " << c.writes << ", replica " << c.replica
                 << ", deposed " << (c.fate == Fate::kDepose) << ", stage "
                 << static_cast<int>(c.stage));
    ReplicationConfig config = SmallGroupConfig();
    config.max_log_entries = 8;  // kParked: nine writes outrun replica 2
    ReplicationGroup group(config);
    Simulator& sim = group.simulator();
    for (uint64_t id = 0; id < 16; id++) {
      ASSERT_TRUE(group.Load(Key(id), U64Value(id)).ok());
    }
    uint64_t sequence = group.AcquireClientSequenceBase();
    auto deliver = [&](uint64_t first, uint64_t keys, int& responses) {
      PacketBuilder builder;
      for (uint64_t id = first; id < first + keys; id++) {
        ASSERT_TRUE(builder.Add(c.writes ? Put(id, 100 + id) : Get(id)));
      }
      GroupRequest request;
      request.ops_payload = builder.Finish();
      group.DeliverClientFrame(c.replica,
                               FramePacket(++sequence, EncodeGroupRequest(request)),
                               [&responses](std::vector<uint8_t>) { responses++; });
    };

    int earlier = 0;
    if (c.stage == Stage::kQuorumWait) {
      group.replication_network(1).SetPartitioned(/*to_server=*/true, true);
      group.replication_network(2).SetPartitioned(/*to_server=*/true, true);
    }
    if (c.stage == Stage::kParked) {
      // Nine writes that replica 2 misses trim the log past it. Two packets
      // keep the window to it running ahead, so only the next heartbeat
      // finds that it needs a state transfer. A packet delivered 20 ns
      // before that heartbeat is still executing at it, so the cut drains
      // until the heartbeat after.
      group.CrashReplica(2);
      deliver(0, 8, earlier);
      RunFor(sim, 20 * kMicrosecond);
      deliver(8, 1, earlier);
      RunFor(sim, 20 * kMicrosecond);
      const SimTime tick = config.heartbeat_interval;
      ASSERT_LT(sim.Now(), tick);
      sim.RunUntil(tick - 20 * kNanosecond);
      deliver(20, 8, earlier);
      RunFor(sim, 50 * kMicrosecond);
      ASSERT_EQ(earlier, 3);  // answered while the drain still holds
      ASSERT_EQ(group.stats().snapshot_deferred_writes, 0u);
    }

    int responses = 0;
    deliver(0, 16, responses);
    if (c.stage == Stage::kQuorumWait) {
      RunFor(sim, 100 * kMicrosecond);
      ASSERT_EQ(group.log_end(0), 16u);  // executed and logged
    }
    if (c.stage == Stage::kParked) {
      ASSERT_EQ(group.stats().snapshot_deferred_writes, 1u);
    }
    EXPECT_EQ(group.read_batches_live(), c.writes ? 0u : 1u);
    EXPECT_EQ(group.write_batches_live(), c.writes ? 1u : 0u);
    group.CrashReplica(c.replica);
    if (c.fate == Fate::kDepose) {
      group.RestartReplica(c.replica);
      ASSERT_FALSE(group.is_primary(c.replica));
    }
    RunFor(sim, kMillisecond);
    EXPECT_EQ(group.read_batches_live(), 0u);
    EXPECT_EQ(group.write_batches_live(), 0u);
    EXPECT_EQ(responses, 0);
  }
}

TEST(ReplicationGroupTest, LaggingBackupRejectsReadThenClientRetriesPrimary) {
  // Quorum of one lets the primary acknowledge before the backups apply;
  // scripted drops of the first replication windows widen that lag so the
  // round-robin reads actually hit a stale backup.
  ReplicationConfig config = SmallGroupConfig();
  config.quorum = 1;
  for (uint64_t n = 1; n <= 12; n++) {
    config.faults.schedule.push_back({FaultSite::kNetDropToServer, n});
  }
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  for (uint64_t i = 0; i < 4; i++) {
    client.Enqueue(Put(i, 2000 + i));
  }
  for (const KvResultMessage& r : client.Flush()) {
    ASSERT_EQ(r.code, ResultCode::kOk);
  }
  // Three single-read flushes walk the round-robin cursor across replicas.
  for (uint64_t round = 0; round < 3; round++) {
    client.Enqueue(Get(1));
    std::vector<KvResultMessage> results = client.Flush();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].code, ResultCode::kOk);
    uint64_t v = 0;
    std::memcpy(&v, results[0].value.data(), 8);
    // Read-your-writes: never a stale value, whichever replica answered.
    EXPECT_EQ(v, 2001u);
  }
  EXPECT_GE(group.stats().stale_reads, 1u);
  EXPECT_GE(client.stats().stale_retries, 1u);
  // One watermark per written key; the table is far from its cap.
  EXPECT_EQ(client.watermark_entries(), 4u);
  EXPECT_EQ(client.stats().watermark_evictions, 0u);
}

TEST(WatermarkTableTest, EntriesMatchOnHashAndGroup) {
  WatermarkTable table(64);
  const uint64_t hash = HashBytes(Key(7));
  table.Raise(hash, 0, 5);
  table.Raise(hash, 1, 9);
  table.Raise(hash, 0, 3);  // a late, lower ack keeps the higher index
  table.Raise(hash, 2, 0);  // index 0 adds nothing
  EXPECT_EQ(table.Required(hash, 0), 5u);
  EXPECT_EQ(table.Required(hash, 1), 9u);
  EXPECT_EQ(table.Required(hash, 2), 0u);
  EXPECT_EQ(table.Required(HashBytes(Key(8)), 0), 0u);
  EXPECT_EQ(table.live(), 2u);
}

// Random writes against an exact model of every (key, group) watermark. The
// key space widens as the run goes on, so distinct keys keep arriving long
// after the table has reached its cap.
TEST(WatermarkTableTest, MatchesTheModelBelowTheCapAndBoundsItAbove) {
  constexpr size_t kMaxSlots = 256;  // grows 64 -> 128 -> 256, then evicts
  constexpr uint32_t kGroups = 3;
  WatermarkTable table(kMaxSlots);
  ASSERT_EQ(table.max_live(), kMaxSlots / 2);
  std::map<std::pair<uint64_t, uint32_t>, uint64_t> model;
  std::vector<uint64_t> log_end(kGroups, 0);  // highest index per group
  Rng rng(28);
  uint64_t evictions = 0;
  uint64_t exact_checks = 0;
  uint64_t mismatches = 0;      // below the cap: any answer but the model's
  uint64_t below_model = 0;     // with evictions: an answer under the model
  uint64_t above_log_end = 0;   // with evictions: past the group's log end
  uint64_t over_cap = 0;        // live entries above max_live()
  size_t max_live_seen = 0;
  auto check = [&](uint64_t key, uint32_t group) {
    const auto it = model.find({key, group});
    const uint64_t expected = it == model.end() ? 0 : it->second;
    const uint64_t got = table.Required(HashBytes(Key(key)), group);
    if (evictions == 0) {
      exact_checks++;
      mismatches += got != expected;
    } else {
      below_model += got < expected;
      above_log_end += got > log_end[group];
    }
  };
  for (uint64_t step = 0; step < 20000; step++) {
    const uint32_t group = static_cast<uint32_t>(rng.NextBelow(kGroups));
    const uint64_t key = rng.NextBelow(16 + step / 40);
    // Acks land out of order: an index up to 8 below the group's log end.
    log_end[group]++;
    const uint64_t index =
        log_end[group] - rng.NextBelow(std::min<uint64_t>(log_end[group], 8));
    evictions += table.Raise(HashBytes(Key(key)), group, index);
    uint64_t& modelled = model[{key, group}];
    modelled = std::max(modelled, index);
    over_cap += table.live() > table.max_live();
    max_live_seen = std::max(max_live_seen, table.live());
    for (int probe = 0; probe < 4; probe++) {
      check(rng.NextBelow(16 + step / 40),
            static_cast<uint32_t>(rng.NextBelow(kGroups)));
    }
  }
  for (const auto& [entry, index] : model) {
    check(entry.first, entry.second);
  }
  EXPECT_GT(exact_checks, 1000u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_EQ(below_model, 0u);
  EXPECT_EQ(above_log_end, 0u);
  // Live entries level off at the cap while distinct keys keep coming.
  EXPECT_EQ(over_cap, 0u);
  EXPECT_EQ(max_live_seen, table.max_live());
  EXPECT_EQ(table.live(), table.max_live());
  EXPECT_GT(model.size(), 4 * table.max_live());
}

TEST(ReplicationGroupTest, BackupAppliesOnlyCommittedEntries) {
  // Quorum = all 3 and one backup down: an appended entry can never commit,
  // so the live backup must hold it in its log without applying it — a read
  // of its store must not see the (potentially discardable) write.
  ReplicationConfig config = SmallGroupConfig();
  config.quorum = 3;
  ReplicationGroup group(config);
  Simulator& sim = group.simulator();
  group.CrashReplica(2);

  PacketBuilder builder;
  ASSERT_TRUE(builder.Add(Put(1, 111)));
  GroupRequest request;
  request.ops_payload = builder.Finish();
  const uint64_t sequence = group.AcquireClientSequenceBase() + 1;
  std::vector<uint8_t> response;
  group.DeliverClientFrame(0, FramePacket(sequence, EncodeGroupRequest(request)),
                           [&](std::vector<uint8_t> bytes) {
                             response = std::move(bytes);
                           });
  RunFor(sim, 5 * kMillisecond);

  // Not acknowledged, not committed; replicated to backup 1's log but
  // invisible in its store (applied cursor lags the uncommitted tail).
  EXPECT_TRUE(response.empty());
  EXPECT_EQ(group.commit_index(), 0u);
  EXPECT_EQ(group.log_end(1), 1u);
  EXPECT_EQ(group.applied_index(1), 0u);
  EXPECT_EQ(group.replica(1).Execute(Get(1)).code, ResultCode::kNotFound);
  // Execute-then-log: the primary's own store does reflect it.
  EXPECT_EQ(group.applied_index(0), 1u);

  // Once the third replica rejoins and acks, the entry commits, the backup
  // applies it, and the client response finally goes out.
  group.RestartReplica(2);
  RunFor(sim, 10 * kMillisecond);
  EXPECT_GE(group.commit_index(), 1u);
  EXPECT_GE(group.applied_index(1), 1u);
  EXPECT_EQ(ReadU64(group, 1, 1), 111u);
  EXPECT_EQ(ReadU64(group, 2, 1), 111u);
  EXPECT_FALSE(response.empty());
}

// --- failover ---

TEST(ReplicationGroupTest, WriteQuorumOfOneStillRequiresMajorityToElect) {
  // A write quorum of 1 must not weaken election safety: with only one of
  // three replicas alive there is no majority, so nobody may be promoted
  // (two such minority elections could otherwise produce two primaries).
  ReplicationConfig config = SmallGroupConfig();
  config.quorum = 1;
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  for (uint64_t i = 0; i < 6; i++) {
    client.Enqueue(Put(i, 300 + i));
  }
  for (const KvResultMessage& r : client.Flush()) {
    ASSERT_EQ(r.code, ResultCode::kOk);
  }
  RunFor(group.simulator(), 2 * kMillisecond);  // replicate to the backups

  group.CrashReplica(0);
  group.CrashReplica(2);
  RunFor(group.simulator(), 20 * kMillisecond);
  // Replica 1 campaigned but could never gather a majority of grants.
  EXPECT_GE(group.stats().elections, 1u);
  EXPECT_EQ(group.stats().failovers, 0u);
  EXPECT_FALSE(group.is_primary(1));

  // A second replica restores the majority and the election goes through.
  group.RestartReplica(2);
  RunFor(group.simulator(), 20 * kMillisecond);
  EXPECT_GE(group.stats().failovers, 1u);
  EXPECT_GE(group.epoch(), 2u);
  uint32_t primaries = 0;
  for (uint32_t id = 0; id < group.num_replicas(); id++) {
    primaries += !group.crashed(id) && group.is_primary(id) ? 1 : 0;
  }
  EXPECT_EQ(primaries, 1u);
  // Nothing acknowledged before the crashes was lost.
  for (uint64_t i = 0; i < 6; i++) {
    KvResultMessage r = group.Execute(Get(i));
    ASSERT_EQ(r.code, ResultCode::kOk) << "key " << i;
    uint64_t v = 0;
    std::memcpy(&v, r.value.data(), 8);
    EXPECT_EQ(v, 300 + i) << "key " << i;
  }
}

TEST(ReplicationGroupTest, SequentialDoubleFailoverKeepsOnePrimaryAndAllAcks) {
  ReplicationConfig config = SmallGroupConfig(5);
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  std::map<uint64_t, uint64_t> acked;

  auto write_batch = [&](uint64_t base) {
    for (uint64_t i = base; i < base + 8; i++) {
      client.Enqueue(Put(i, 9000 + i));
    }
    std::vector<KvResultMessage> results = client.Flush();
    for (size_t s = 0; s < results.size(); s++) {
      if (results[s].code == ResultCode::kOk) {
        acked[base + s] = 9000 + base + s;
      }
    }
  };

  write_batch(0);
  group.CrashReplica(group.primary_id());
  RunFor(group.simulator(), 10 * kMillisecond);
  const uint32_t second_primary = group.primary_id();
  EXPECT_FALSE(group.crashed(second_primary));
  write_batch(100);
  group.CrashReplica(second_primary);
  RunFor(group.simulator(), 10 * kMillisecond);
  write_batch(200);

  // Two epochs of history later: exactly one alive primary, all acks served.
  EXPECT_GE(group.stats().failovers, 2u);
  uint32_t primaries = 0;
  for (uint32_t id = 0; id < group.num_replicas(); id++) {
    primaries += !group.crashed(id) && group.is_primary(id) ? 1 : 0;
  }
  EXPECT_EQ(primaries, 1u);
  ASSERT_FALSE(acked.empty());
  for (const auto& [id, value] : acked) {
    KvResultMessage r = group.Execute(Get(id));
    ASSERT_EQ(r.code, ResultCode::kOk) << "key " << id;
    uint64_t v = 0;
    std::memcpy(&v, r.value.data(), 8);
    EXPECT_EQ(v, value) << "key " << id;
  }
}

TEST(ReplicationGroupTest, CoordinatorThatPromotesAPeerRestartsItsTimer) {
  // Replica 1 misses 16 committed writes, so when the primary crashes it
  // campaigns first (the per-id stagger) and hands the promotion to replica
  // 2. Its election ends at the same instant as one of its heartbeat ticks:
  // unless handing over restarts its failure timer, that tick campaigns
  // again and deposes the primary it just made, forever.
  ReplicationGroup group(SmallGroupConfig());
  ReplicatedClient client(group);
  auto write = [&](uint64_t first, uint64_t count) {
    for (uint64_t i = first; i < first + count; i++) {
      client.Enqueue(Put(i, 500 + i));
    }
    for (const KvResultMessage& r : client.Flush()) {
      ASSERT_EQ(r.code, ResultCode::kOk);
    }
  };
  write(0, 4);
  group.replication_network(1).SetPartitioned(/*to_server=*/true, true);
  write(4, 16);
  ASSERT_EQ(group.log_end(0), 20u);
  ASSERT_EQ(group.log_end(1), 4u);
  ASSERT_EQ(group.log_end(2), 20u);
  group.replication_network(1).SetPartitioned(/*to_server=*/true, false);
  group.CrashReplica(0);

  RunFor(group.simulator(), 100 * kMillisecond);
  EXPECT_EQ(group.stats().elections, 1u);
  EXPECT_EQ(group.stats().failovers, 1u);
  EXPECT_EQ(group.primary_id(), 2u);
  EXPECT_TRUE(group.is_primary(2));
  EXPECT_FALSE(group.is_primary(1));
}

TEST(ReplicationGroupTest, ScriptedPrimaryCrashLosesNoAcknowledgedWrite) {
  ReplicationConfig config = SmallGroupConfig();
  // Tick consults replicas in id order: the first consult ever is replica 0,
  // the initial primary — it crashes at the first heartbeat (200us), between
  // the early batches of the workload below.
  config.faults.schedule.push_back({FaultSite::kReplicaCrash, 1});
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  HistoryRecorder recorder;
  RecordingEndpoint endpoint(client, recorder);

  std::map<uint64_t, uint64_t> acked;  // key id -> last acknowledged value
  Rng rng(42);
  uint64_t next_key = 0;
  for (int batch = 0; batch < 12; batch++) {
    // YCSB-A-ish: half updates (fresh keys + overwrites), half reads of
    // previously acknowledged keys. `slots` records each result slot's
    // meaning: (is_write, key id, value-if-write).
    struct Slot {
      bool is_write;
      uint64_t id;
      uint64_t value;
    };
    std::vector<Slot> slots;
    std::set<uint64_t> used;  // keys touched this batch: keep them distinct so
                              // retransmit reordering can't change the answer
    for (int i = 0; i < 8; i++) {
      if (i % 2 == 0 || acked.empty()) {
        uint64_t id = (rng.Next() % 4 == 0 && next_key > 0)
                          ? rng.Next() % next_key
                          : next_key++;
        if (used.count(id)) {
          id = next_key++;
        }
        const uint64_t value = rng.Next();
        endpoint.Enqueue(Put(id, value));
        slots.push_back({true, id, value});
        used.insert(id);
      } else {
        auto it = acked.begin();
        std::advance(it, rng.Next() % acked.size());
        if (used.count(it->first)) {
          continue;  // already written this batch; skip the read
        }
        endpoint.Enqueue(Get(it->first));
        slots.push_back({false, it->first, 0});
        used.insert(it->first);
      }
    }
    std::vector<KvResultMessage> results = endpoint.Flush();
    ASSERT_EQ(results.size(), slots.size());
    std::map<uint64_t, uint64_t> batch_acked;
    for (size_t s = 0; s < slots.size(); s++) {
      if (slots[s].is_write) {
        if (results[s].code == ResultCode::kOk) {
          batch_acked[slots[s].id] = slots[s].value;
        }
      } else if (results[s].code == ResultCode::kOk &&
                 results[s].value.size() >= 8) {
        // Read-your-writes: a read of a previously acknowledged key must see
        // a value this client acknowledged (keys are written at most once per
        // batch, so the pre-batch value is the only legal answer).
        uint64_t v = 0;
        std::memcpy(&v, results[s].value.data(), 8);
        EXPECT_EQ(v, acked.at(slots[s].id)) << "stale read of key " << slots[s].id;
      }
    }
    for (const auto& [id, value] : batch_acked) {
      acked[id] = value;
    }
    // Let simulated time pass between batches so heartbeats (and the
    // scripted crash) interleave with the workload.
    RunFor(group.simulator(), 100 * kMicrosecond);
  }

  // The failover happened and was measured.
  EXPECT_GE(group.stats().crashes, 1u);
  EXPECT_GE(group.stats().failovers, 1u);
  EXPECT_NE(group.primary_id(), 0u);
  EXPECT_GE(group.epoch(), 2u);
  EXPECT_GT(group.stats().last_failover_downtime_ns, 0u);

  // No acknowledged write was lost: the new primary serves every acked value.
  for (const auto& [id, value] : acked) {
    KvResultMessage r = group.Execute(Get(id));
    ASSERT_EQ(r.code, ResultCode::kOk) << "key " << id;
    uint64_t v = 0;
    std::memcpy(&v, r.value.data(), 8);
    EXPECT_EQ(v, value) << "key " << id;
  }

  // Bounded retry amplification: the crash costs retransmissions, not a storm.
  EXPECT_LE(client.stats().retransmits,
            client.stats().packets_sent * 3 + 32);

  // The crashed ex-primary rejoins as a backup and is healed (log replay or
  // state transfer, depending on whether its tail diverged).
  group.RestartReplica(0);
  RunFor(group.simulator(), 30 * kMillisecond);
  EXPECT_FALSE(group.crashed(0));
  EXPECT_EQ(group.log_end(0), group.log_end(group.primary_id()));
  for (const auto& [id, value] : acked) {
    EXPECT_EQ(ReadU64(group, 0, id), value) << "key " << id;
  }

  // The recorded workload history — every op the client issued across the
  // crash and failover — linearizes and honors the session guarantees.
  const CheckReport lin = CheckLinearizability(recorder.history());
  EXPECT_TRUE(lin.ok()) << lin.ToString();
  const AuditReport audit = AuditSessionGuarantees(recorder.history());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ReplicationGroupTest, SessionDedupAnswersRetransmitAcrossFailover) {
  ReplicationGroup group(SmallGroupConfig());
  Simulator& sim = group.simulator();

  // Seed a counter, then fetch-and-add via a raw framed request so the exact
  // bytes can be retransmitted later.
  ASSERT_TRUE(group.Load(Key(5), U64Value(100)).ok());
  KvOperation update;
  update.opcode = Opcode::kUpdateScalar;
  update.key = Key(5);
  update.param = 7;
  PacketBuilder builder;
  ASSERT_TRUE(builder.Add(update));
  GroupRequest request;
  request.ops_payload = builder.Finish();
  const uint64_t sequence = group.AcquireClientSequenceBase() + 1;
  std::vector<uint8_t> frame = FramePacket(sequence, EncodeGroupRequest(request));

  std::vector<uint8_t> first;
  group.DeliverClientFrame(0, frame, [&](std::vector<uint8_t> bytes) {
    first = std::move(bytes);
  });
  while (first.empty()) {
    ASSERT_TRUE(sim.Step());
  }
  auto first_results =
      DecodeResults(DecodeGroupResponse(ParseFrame(first).value().payload)
                        .value()
                        .results_payload);
  ASSERT_TRUE(first_results.ok());
  EXPECT_EQ(first_results.value()[0].scalar, 100u);  // original value

  // Crash the primary after the entry replicated, fail over, and retransmit
  // the identical frame to the new primary.
  RunFor(sim, 2 * kMillisecond);
  group.CrashReplica(0);
  RunFor(sim, 5 * kMillisecond);
  ASSERT_NE(group.primary_id(), 0u);

  std::vector<uint8_t> second;
  group.DeliverClientFrame(group.primary_id(), frame,
                           [&](std::vector<uint8_t> bytes) {
                             second = std::move(bytes);
                           });
  while (second.empty()) {
    ASSERT_TRUE(sim.Step());
  }
  auto decoded = DecodeGroupResponse(ParseFrame(second).value().payload);
  ASSERT_TRUE(decoded.ok());
  auto second_results = DecodeResults(decoded.value().results_payload);
  ASSERT_TRUE(second_results.ok());
  // Exactly-once: the stored result, not a re-execution (which would return
  // 107), and the counter advanced exactly once.
  EXPECT_EQ(second_results.value()[0].scalar, 100u);
  EXPECT_GE(group.stats().session_dedup_hits, 1u);
  EXPECT_EQ(decoded.value().epoch, group.epoch());

  KvResultMessage counter = group.Execute(Get(5));
  uint64_t v = 0;
  std::memcpy(&v, counter.value.data(), 8);
  EXPECT_EQ(v, 107u);
}

TEST(ReplicationGroupTest, SessionRecordsStayInSlotOrderThroughStateTransfer) {
  ReplicationConfig config = SmallGroupConfig();
  config.max_log_entries = 8;  // the rejoin below resyncs by state transfer
  ReplicationGroup group(config);
  Simulator& sim = group.simulator();
  for (const uint64_t id : {11ull, 13ull, 15ull}) {
    ASSERT_TRUE(group.Load(Key(id), U64Value(100)).ok());
  }
  // Replica 1 misses the installs: it can only learn them from a snapshot.
  group.CrashReplica(1);

  // Records for one sequence arrive out of slot order, as ops retire.
  const uint64_t sequence = group.AcquireClientSequenceBase() + 1;
  for (const uint16_t slot : {5, 1, 3}) {
    KvResultMessage result;
    result.scalar = 1000 + slot;
    group.InstallSessionRecord(sequence, slot, result);
  }

  // The matching frame: fetch-and-adds on keys 11/13/15 at slots 1/3/5,
  // GETs between them.
  PacketBuilder builder;
  for (uint64_t slot = 0; slot < 6; slot++) {
    if (slot % 2 == 0) {
      ASSERT_TRUE(builder.Add(Get(11)));
      continue;
    }
    KvOperation update;
    update.opcode = Opcode::kUpdateScalar;
    update.key = Key(10 + slot);
    update.param = 7;
    ASSERT_TRUE(builder.Add(update));
  }
  GroupRequest request;
  request.ops_payload = builder.Finish();
  const std::vector<uint8_t> frame =
      FramePacket(sequence, EncodeGroupRequest(request));
  auto deliver = [&](uint32_t replica) {
    std::vector<uint8_t> response;
    group.DeliverClientFrame(replica, frame, [&](std::vector<uint8_t> bytes) {
      response = std::move(bytes);
    });
    while (response.empty()) {
      EXPECT_TRUE(sim.Step());
    }
    auto decoded = DecodeGroupResponse(ParseFrame(response).value().payload);
    EXPECT_TRUE(decoded.ok());
    auto results = DecodeResults(decoded.value().results_payload);
    EXPECT_TRUE(results.ok());
    return results.value();
  };
  // Every write slot is answered with its own stored result and none of the
  // three counters moves.
  auto expect_answered_from_sessions = [&](uint32_t replica) {
    const uint64_t hits = group.stats().session_dedup_hits;
    const std::vector<KvResultMessage> results = deliver(replica);
    ASSERT_EQ(results.size(), 6u);
    for (const uint16_t slot : {1, 3, 5}) {
      EXPECT_EQ(results[slot].scalar, 1000u + slot) << "slot " << slot;
    }
    EXPECT_EQ(group.stats().session_dedup_hits, hits + 3);
    for (const uint64_t id : {11ull, 13ull, 15ull}) {
      EXPECT_EQ(ReadU64(group, group.primary_id(), id), 100u) << "key " << id;
    }
  };
  expect_answered_from_sessions(0);

  // Write until the log trims, then rejoin replica 1: the state transfer
  // wipes it and installs the KVs and the session records.
  ReplicatedClient client(group);
  for (uint64_t i = 0; i < 20; i++) {
    client.Enqueue(Put(100 + i, i));
  }
  client.Flush();
  group.RestartReplica(1);
  RunFor(sim, 5 * kMillisecond);
  ASSERT_GE(group.stats().state_transfers, 1u);
  ASSERT_EQ(group.log_end(1), group.log_end(0));

  // Replica 1 wins the election over replica 2 on the lowest-id tie and
  // answers the same frame from the transferred records, slot by slot.
  group.CrashReplica(0);
  RunFor(sim, 5 * kMillisecond);
  ASSERT_EQ(group.primary_id(), 1u);
  expect_answered_from_sessions(1);
}

// --- catch-up and state transfer ---

TEST(ReplicationGroupTest, RestartedBackupCatchesUpByLogReplay) {
  ReplicationGroup group(SmallGroupConfig());
  ReplicatedClient client(group);
  for (uint64_t i = 0; i < 5; i++) {
    client.Enqueue(Put(i, i));
  }
  client.Flush();
  group.CrashReplica(2);
  for (uint64_t i = 5; i < 30; i++) {
    client.Enqueue(Put(i, i));
  }
  client.Flush();
  EXPECT_LT(group.log_end(2), 30u);

  group.RestartReplica(2);
  RunFor(group.simulator(), 10 * kMillisecond);
  EXPECT_EQ(group.log_end(2), 30u);
  EXPECT_EQ(ReadU64(group, 2, 29), 29u);
  // The primary still had the whole log, so heartbeat-driven window replay
  // from the backup's last confirmed position healed it — no state transfer.
  EXPECT_EQ(group.stats().state_transfers, 0u);
}

// The primary ships a packet's entries before it trims its log, so a packet
// with more writes than max_log_entries reaches every healthy backup by log
// replay. Trimming at each append dropped entries no backup had received yet
// and sent every backup into a state transfer (10 across these 5 packets).
TEST(ReplicationGroupTest, PacketLongerThanTheLogShipsBeforeTrim) {
  ReplicationConfig config = SmallGroupConfig();
  config.max_log_entries = 8;  // each 10-put packet outruns the log
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  for (uint64_t packet = 0; packet < 5; packet++) {
    for (uint64_t i = 0; i < 10; i++) {
      client.Enqueue(Put(packet * 10 + i, packet));
    }
    client.Flush();
  }
  RunFor(group.simulator(), 1 * kMillisecond);
  EXPECT_EQ(group.stats().state_transfers, 0u);
  EXPECT_EQ(group.stats().state_transfer_kvs, 0u);
  for (uint32_t id = 0; id < group.num_replicas(); id++) {
    EXPECT_EQ(group.log_end(id), 50u) << "replica " << id;
    EXPECT_EQ(ReadU64(group, id, 49), 4u) << "replica " << id;
    // Op-log bound: the primary peaks at max_log_entries plus one packet's
    // 10 writes. A backup also keeps the window whose commit rides the next
    // append, so it peaks at max(max_log_entries, 10) plus one window.
    // Once trimmed, every log holds max_log_entries.
    const MetricLabels labels{{"replica", std::to_string(id)}};
    const double bound = id == group.primary_id()
                             ? config.max_log_entries + 10
                             : std::max<uint64_t>(config.max_log_entries, 10) + 10;
    EXPECT_EQ(group.metrics().GaugeValue("kvd_repl_log_entries_peak", labels), bound)
        << "replica " << id;
    EXPECT_EQ(group.metrics().GaugeValue("kvd_repl_log_entries", labels),
              config.max_log_entries)
        << "replica " << id;
  }
}

TEST(ReplicationGroupTest, TrimmedLogForcesBoundedRateStateTransfer) {
  ReplicationConfig config = SmallGroupConfig();
  config.max_log_entries = 8;  // aggressive trim: restarts overrun the log
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  for (uint64_t i = 0; i < 4; i++) {
    client.Enqueue(Put(i, 10 + i));
  }
  client.Flush();
  RunFor(group.simulator(), 1 * kMillisecond);  // replica 2 applies keys 0..3
  group.CrashReplica(2);
  for (uint64_t i = 4; i < 40; i++) {
    client.Enqueue(Put(i, 10 + i));
  }
  // Keys replica 2 still holds from before its crash: the snapshot install
  // must wipe them.
  client.Enqueue(Delete(1));
  client.Enqueue(Delete(2));
  client.Flush();
  ASSERT_GT(group.replica(0).simulator().Now(), 0u);

  group.RestartReplica(2);
  RunFor(group.simulator(), 30 * kMillisecond);
  EXPECT_GE(group.stats().state_transfers, 1u);
  EXPECT_GT(group.stats().state_transfer_kvs, 0u);
  EXPECT_GT(group.stats().snapshot_stream.bytes_sent, 0u);
  EXPECT_EQ(group.log_end(2), group.log_end(0));
  for (uint64_t i : {0ull, 17ull, 39ull}) {
    EXPECT_EQ(ReadU64(group, 2, i), 10 + i) << "key " << i;
  }
  // Every replica's whole store equals the primary's.
  const StateKvs primary = StoreContents(group, group.primary_id());
  EXPECT_EQ(primary.size(), 38u);
  for (uint32_t id = 0; id < group.num_replicas(); id++) {
    EXPECT_EQ(StoreContents(group, id), primary) << "replica " << id;
  }
}

TEST(ReplicationGroupTest, StateTransferCompletesUnderSustainedWriteLoad) {
  // Drain-then-cut: sustained client writes must not postpone a snapshot cut
  // indefinitely — arriving writes are parked until the pipeline quiesces,
  // then executed in order.
  ReplicationConfig config = SmallGroupConfig();
  config.max_log_entries = 8;  // force the resync to need a state transfer
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  for (uint64_t i = 0; i < 4; i++) {
    client.Enqueue(Put(i, 40 + i));
  }
  client.Flush();
  group.CrashReplica(2);
  for (uint64_t i = 4; i < 40; i++) {
    client.Enqueue(Put(i, 40 + i));
  }
  client.Flush();
  group.RestartReplica(2);

  // Hammer the primary with back-to-back raw frames (one per simulated
  // microsecond) so its pipeline is never observed idle while the transfer
  // initiates: the cut must park arriving writes instead of starving.
  Simulator& sim = group.simulator();
  const uint64_t base_seq = group.AcquireClientSequenceBase();
  size_t responses = 0;
  for (uint64_t n = 0; n < 400; n++) {
    sim.ScheduleAt(sim.Now() + n * kMicrosecond, [&group, &responses, base_seq,
                                                  n] {
      PacketBuilder builder;
      ASSERT_TRUE(builder.Add(Put(100 + n, 7100 + n)));
      GroupRequest request;
      request.ops_payload = builder.Finish();
      group.DeliverClientFrame(
          0, FramePacket(base_seq + 1 + n, EncodeGroupRequest(request)),
          [&responses](std::vector<uint8_t>) { responses++; });
    });
  }
  RunFor(sim, 30 * kMillisecond);
  EXPECT_GE(group.stats().state_transfers, 1u);
  EXPECT_GE(group.stats().snapshot_deferred_writes, 1u);

  // The load never starved the transfer, and no write was dropped by the
  // drain: every frame was answered and the restarted replica converges.
  EXPECT_EQ(responses, 400u);
  EXPECT_EQ(group.log_end(2), group.log_end(group.primary_id()));
  for (uint64_t n : {0ull, 199ull, 399ull}) {
    EXPECT_EQ(ReadU64(group, 2, 100 + n), 7100 + n) << "key " << 100 + n;
  }
}

TEST(ReplicationGroupTest, StateTransferSurvivesChunkLossWithoutRestarting) {
  ReplicationConfig config = SmallGroupConfig();
  config.max_log_entries = 8;  // the restart below needs a state transfer
  config.state_transfer_chunk_kvs = 4;  // many chunks, one of them lost
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  // Small flushes keep replica 1 inside the retained log, so replica 2 is
  // the only peer that needs a transfer.
  for (uint64_t batch = 0; batch < 6; batch++) {
    if (batch == 1) {
      group.CrashReplica(2);
    }
    for (uint64_t i = 4 * batch; i < 4 * batch + 4; i++) {
      client.Enqueue(Put(i, 10 + i));
    }
    client.Flush();
  }
  group.RestartReplica(2);

  // Each change of the byte counter is one chunk put on the wire. Let three
  // chunks through, then partition the target's inbound link for exactly the
  // fourth and heal it before the fifth leaves.
  Simulator& sim = group.simulator();
  auto streamed = [&group] {
    return group.metrics()
        .CounterValue("kvd_repl_state_transfer_bytes_total")
        .value_or(0);
  };
  auto step_past_next_chunk = [&] {
    const uint64_t before = streamed();
    while (streamed() == before) {
      ASSERT_TRUE(sim.Step());
    }
  };
  for (int chunk = 0; chunk < 3; chunk++) {
    step_past_next_chunk();
  }
  group.replication_network(2).SetPartitioned(/*to_server=*/true, true);
  step_past_next_chunk();
  group.replication_network(2).SetPartitioned(/*to_server=*/true, false);
  RunFor(sim, 30 * kMillisecond);

  // Go-back-N resent from the ack point; the transfer never started over.
  EXPECT_EQ(group.stats().state_transfers, 1u);
  EXPECT_GE(group.metrics()
                .CounterValue("kvd_repl_state_transfer_retransmits_total")
                .value_or(0),
            1u);
  EXPECT_EQ(group.log_end(2), group.log_end(0));
  for (uint64_t i : {0ull, 3ull, 17ull, 23ull}) {
    EXPECT_EQ(ReadU64(group, 2, i), 10 + i) << "key " << i;
  }
}

TEST(ReplicationGroupTest, PrimaryCrashMidTransferDoesNotWedgeTheElection) {
  // Replica 2 is five chunks into a resync when the primary crashes. A
  // target mid-transfer refuses votes and never campaigns, so replica 1
  // alone can never gather a majority: the silent transfer must drop its
  // partial snapshot once the failure timeout passes, and let the target
  // vote (its empty log makes replica 1 the winner) and resync afresh.
  ReplicationConfig config = SmallGroupConfig();
  config.max_log_entries = 8;
  config.state_transfer_chunk_kvs = 2;
  config.state_transfer_bytes_per_sec = 2e6;
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  group.CrashReplica(2);
  for (uint64_t batch = 0; batch < 20; batch++) {
    for (uint64_t i = 10 * batch; i < 10 * batch + 10; i++) {
      client.Enqueue(Put(i, 700 + i));
    }
    for (const KvResultMessage& r : client.Flush()) {
      ASSERT_EQ(r.code, ResultCode::kOk);
    }
  }
  ASSERT_EQ(group.log_end(0), 200u);
  group.RestartReplica(2);

  Simulator& sim = group.simulator();
  auto streamed = [&group] {
    return group.metrics()
        .CounterValue("kvd_repl_state_transfer_bytes_total")
        .value_or(0);
  };
  for (int chunk = 0; chunk < 5; chunk++) {
    const uint64_t before = streamed();
    while (streamed() == before) {
      ASSERT_TRUE(sim.Step());
    }
  }
  ASSERT_EQ(group.stats().failovers, 0u);
  group.CrashReplica(0);

  RunFor(sim, 2 * kMillisecond);
  EXPECT_EQ(group.primary_id(), 1u);
  EXPECT_TRUE(group.is_primary(1));
  RunFor(sim, 98 * kMillisecond);
  EXPECT_EQ(group.stats().failovers, 1u);
  EXPECT_TRUE(group.is_primary(1));
  EXPECT_EQ(group.log_end(1), 201u);  // the promotion barrier
  EXPECT_EQ(group.log_end(2), 201u);
  EXPECT_EQ(StoreContents(group, 2), StoreContents(group, 1));
  EXPECT_EQ(ReadU64(group, 2, 199), 899u);
}

TEST(ReplicationGroupTest, DroppedSnapshotNeverElectsAStaleSurvivor) {
  // Replica 2 acks two writes that replica 1 (crashed) misses, then falls
  // behind the trimmed log, and a resync wipes it before the primary
  // crashes mid-transfer. Only the crashed primary still holds the two
  // acknowledged writes. Replica 2 may drop its partial snapshot, but its
  // vote must not let replica 1 win without them: the group waits for the
  // primary, and loses nothing.
  ReplicationConfig config = SmallGroupConfig();
  config.max_log_entries = 8;
  config.state_transfer_chunk_kvs = 1;
  config.state_transfer_bytes_per_sec = 2e6;
  ReplicationGroup group(config);
  Simulator& sim = group.simulator();
  ReplicatedClient client(group);
  auto write = [&](uint64_t first, uint64_t count) {
    for (uint64_t i = first; i < first + count; i++) {
      client.Enqueue(Put(i, 1000 + i));
    }
    for (const KvResultMessage& r : client.Flush()) {
      ASSERT_EQ(r.code, ResultCode::kOk);
    }
  };
  write(0, 4);
  RunFor(sim, kMillisecond);
  group.CrashReplica(1);
  write(100, 2);  // acknowledged: held by replicas 0 and 2
  group.CrashReplica(2);
  // Ten writes that can never commit trim the primary's log past replica 2.
  uint64_t sequence = group.AcquireClientSequenceBase();
  for (uint64_t n = 0; n < 10; n++) {
    PacketBuilder builder;
    ASSERT_TRUE(builder.Add(Put(200 + n, 1)));
    GroupRequest request;
    request.ops_payload = builder.Finish();
    group.DeliverClientFrame(
        0, FramePacket(++sequence, EncodeGroupRequest(request)),
        [](std::vector<uint8_t>) {});
    RunFor(sim, 5 * kMicrosecond);
  }
  ASSERT_EQ(group.log_end(0), 16u);
  ASSERT_EQ(group.log_end(1), 4u);
  ASSERT_EQ(group.log_end(2), 6u);

  group.RestartReplica(2);
  auto streamed = [&group] {
    return group.metrics()
        .CounterValue("kvd_repl_state_transfer_bytes_total")
        .value_or(0);
  };
  for (int chunk = 0; chunk < 4; chunk++) {
    const uint64_t before = streamed();
    while (streamed() == before) {
      ASSERT_TRUE(sim.Step());
    }
  }
  group.CrashReplica(0);
  group.RestartReplica(1);
  RunFor(sim, 100 * kMillisecond);
  EXPECT_EQ(group.stats().failovers, 0u);
  EXPECT_FALSE(group.is_primary(1));
  EXPECT_FALSE(group.is_primary(2));
  // Nor may replica 2 serve reads from its wiped store: key 0 was applied
  // there before the wipe.
  PacketBuilder read;
  ASSERT_TRUE(read.Add(Get(0)));
  GroupRequest read_request;
  read_request.ops_payload = read.Finish();
  std::vector<uint8_t> answer;
  group.DeliverClientFrame(
      2, FramePacket(++sequence, EncodeGroupRequest(read_request)),
      [&answer](std::vector<uint8_t> packet) { answer = std::move(packet); });
  Result<Frame> frame = ParseFrame(answer);
  ASSERT_TRUE(frame.ok());
  Result<GroupResponse> response = DecodeGroupResponse(frame.value().payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().flags, kGroupStaleRead);

  group.RestartReplica(0);
  RunFor(sim, 100 * kMillisecond);
  EXPECT_EQ(group.stats().failovers, 1u);
  EXPECT_EQ(group.primary_id(), 0u);
  for (uint32_t id = 0; id < group.num_replicas(); id++) {
    EXPECT_EQ(ReadU64(group, id, 100), 1100u) << "replica " << id;
    EXPECT_EQ(ReadU64(group, id, 101), 1101u) << "replica " << id;
  }
}

TEST(ReplicationGroupTest, ResyncedReplicaKeepsExactlyOnceAfterPromotion) {
  ReplicationConfig config = SmallGroupConfig();
  config.max_log_entries = 8;  // the rejoin below resyncs by state transfer
  ReplicationGroup group(config);
  Simulator& sim = group.simulator();
  ASSERT_TRUE(group.Load(Key(5), U64Value(100)).ok());
  group.CrashReplica(1);

  // A fetch-and-add at sequence S, acked by the quorum {0, 2}.
  KvOperation update;
  update.opcode = Opcode::kUpdateScalar;
  update.key = Key(5);
  update.param = 7;
  PacketBuilder builder;
  ASSERT_TRUE(builder.Add(update));
  GroupRequest request;
  request.ops_payload = builder.Finish();
  const std::vector<uint8_t> frame = FramePacket(
      group.AcquireClientSequenceBase() + 1, EncodeGroupRequest(request));
  auto deliver = [&](uint32_t replica) {
    std::vector<uint8_t> response;
    group.DeliverClientFrame(replica, frame, [&](std::vector<uint8_t> bytes) {
      response = std::move(bytes);
    });
    while (response.empty()) {
      EXPECT_TRUE(sim.Step());
    }
    auto decoded = DecodeGroupResponse(ParseFrame(response).value().payload);
    EXPECT_TRUE(decoded.ok());
    auto results = DecodeResults(decoded.value().results_payload);
    EXPECT_TRUE(results.ok());
    return results.value()[0].scalar;
  };
  EXPECT_EQ(deliver(0), 100u);

  // Write until the log trims past S, then rejoin replica 1: it can only be
  // resynced by a state transfer, never by replaying S's log entry.
  ReplicatedClient client(group);
  for (uint64_t i = 0; i < 20; i++) {
    client.Enqueue(Put(100 + i, i));
  }
  client.Flush();
  group.RestartReplica(1);
  RunFor(sim, 5 * kMillisecond);
  ASSERT_GE(group.stats().state_transfers, 1u);
  ASSERT_EQ(group.log_end(1), group.log_end(0));

  // Replica 1 wins the election over replica 2 on the lowest-id tie.
  group.CrashReplica(0);
  RunFor(sim, 5 * kMillisecond);
  ASSERT_EQ(group.primary_id(), 1u);

  // Redelivered to the resynced primary, S is answered from the session
  // record the snapshot carried, not executed a second time.
  const uint64_t hits = group.stats().session_dedup_hits;
  EXPECT_EQ(deliver(1), 100u);
  EXPECT_GT(group.stats().session_dedup_hits, hits);
  KvResultMessage counter = group.Execute(Get(5));
  uint64_t v = 0;
  std::memcpy(&v, counter.value.data(), 8);
  EXPECT_EQ(v, 107u);
}

// --- determinism ---

std::string RunScriptedFailoverScenario(uint64_t seed) {
  ReplicationConfig config = SmallGroupConfig();
  config.faults.seed = seed;
  config.faults.schedule.push_back({FaultSite::kReplicaCrash, 1});
  // The rejoin of replica 0 resyncs by state transfer, over replication
  // links that lose frames.
  config.max_log_entries = 8;
  config.faults.at(FaultSite::kNetDropToServer) = 0.05;
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  HistoryRecorder recorder;
  RecordingEndpoint endpoint(client, recorder);
  Rng rng(seed);
  for (int batch = 0; batch < 8; batch++) {
    for (int i = 0; i < 6; i++) {
      endpoint.Enqueue(Put(rng.Next() % 64, rng.Next()));
    }
    endpoint.Flush();
    RunFor(group.simulator(), 100 * kMicrosecond);
  }
  group.RestartReplica(0);
  RunFor(group.simulator(), 10 * kMillisecond);
  EXPECT_GE(group.stats().state_transfers, 1u);
  EXPECT_EQ(group.log_end(0), group.log_end(group.primary_id()));
  // Every op the client issued across the crash, the failover and the lossy
  // resync linearizes and honors the session guarantees.
  const CheckReport lin = CheckLinearizability(recorder.history());
  EXPECT_TRUE(lin.ok()) << lin.ToString();
  const AuditReport audit = AuditSessionGuarantees(recorder.history());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  return group.metrics().ToJson() + "|epoch=" + std::to_string(group.epoch()) +
         "|commit=" + std::to_string(group.commit_index()) +
         "|primary=" + std::to_string(group.primary_id()) +
         "|history=" + recorder.history().Fingerprint();
}

TEST(ReplicationGroupTest, SameSeedReplayIsBitIdentical) {
  const std::string a = RunScriptedFailoverScenario(7);
  const std::string b = RunScriptedFailoverScenario(7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("kvd_repl_failovers_total"), std::string::npos);
}

// --- untimed preload: a pristine group loads replica 0 and clones it ---

// Preload values: inline, 60 B slab and 200 B slab KVs; every fifth key is
// loaded twice with another shape, so upserts free and reallocate slabs.
std::vector<uint8_t> PreloadValue(uint64_t id, uint32_t round) {
  static constexpr size_t kSizes[] = {2, 52, 192};
  return std::vector<uint8_t>(kSizes[(id + round) % 3], static_cast<uint8_t>(id + round));
}

void PreloadGroup(ReplicationGroup& group, uint64_t keys) {
  for (uint64_t id = 0; id < keys; id++) {
    ASSERT_TRUE(group.Load(Key(id), PreloadValue(id, 0)).ok()) << id;
  }
  for (uint64_t id = 0; id < keys; id += 5) {
    ASSERT_TRUE(group.Load(Key(id), PreloadValue(id, 1)).ok()) << id;
  }
}

// The contents a settled group must hold on every replica.
StateKvs PreloadContents(uint64_t keys) {
  StateKvs kvs;
  for (uint64_t id = 0; id < keys; id++) {
    kvs.emplace_back(Key(id), PreloadValue(id, id % 5 == 0 ? 1 : 0));
  }
  std::ranges::sort(kvs);
  return kvs;
}

std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>> ForEachSequence(
    KvDirectServer& server) {
  std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>> sequence;
  server.index().ForEach([&](std::span<const uint8_t> key, std::span<const uint8_t> value) {
    sequence.emplace_back(std::vector<uint8_t>(key.begin(), key.end()),
                          std::vector<uint8_t>(value.begin(), value.end()));
  });
  return sequence;
}

bool SameBytes(const HostMemory& a, const HostMemory& b) {
  return a.size() == b.size() &&
         std::ranges::equal(a.Span(0, a.size()), b.Span(0, b.size()));
}

// Ends a group's pristine phase without touching any store: it reads the
// (empty) log only. Loads after it take the per-replica path.
void LeavePristine(ReplicationGroup& group) {
  (void)group.ExportPartitionSessions(KeyRouter(4), 0);
}

TEST(GroupPreloadTest, ClonedReplicasEqualReplicaByReplicaLoads) {
  constexpr uint64_t kKeys = 3000;
  ReplicationGroup cloned(SmallGroupConfig());
  ReplicationGroup reference(SmallGroupConfig());
  LeavePristine(reference);
  PreloadGroup(cloned, kKeys);
  PreloadGroup(reference, kKeys);
  EXPECT_EQ(cloned.stats().load_clones, 0u);  // nothing touched it yet

  for (uint32_t r = 0; r < 3; r++) {
    SCOPED_TRACE(testing::Message() << "replica " << r);
    KvDirectServer& a = cloned.replica(r);
    KvDirectServer& b = reference.replica(r);
    EXPECT_TRUE(SameBytes(a.memory(), b.memory())) << "store arena";
    EXPECT_TRUE(SameBytes(a.allocator().daemon().stack_arena(),
                          b.allocator().daemon().stack_arena()))
        << "daemon stack arena";
    EXPECT_EQ(a.index().stats(), b.index().stats());
    EXPECT_EQ(a.index().num_kvs(), b.index().num_kvs());
    EXPECT_EQ(a.index().payload_bytes(), b.index().payload_bytes());
    EXPECT_EQ(a.allocator().sync_stats(), b.allocator().sync_stats());
    EXPECT_EQ(a.allocator().daemon().stats(), b.allocator().daemon().stats());
    EXPECT_EQ(a.allocator().daemon().bitmap().allocated_granules(),
              b.allocator().daemon().bitmap().allocated_granules());
    EXPECT_EQ(a.memory_stats(), b.memory_stats());
    EXPECT_EQ(ForEachSequence(a), ForEachSequence(b));
    EXPECT_EQ(a.metrics().PrometheusText(), b.metrics().PrometheusText());
  }
  EXPECT_EQ(cloned.stats().load_clones, 1u);
  EXPECT_EQ(reference.stats().load_clones, 0u);
  EXPECT_EQ(StoreContents(cloned, 2), PreloadContents(kKeys));
  const KeyRouter router(4);
  for (uint32_t partition = 0; partition < router.num_partitions(); partition++) {
    EXPECT_EQ(cloned.SnapshotPartitionKvs(router, partition),
              reference.SnapshotPartitionKvs(router, partition));
  }

  // Served traffic then runs the same on both: same results, same clock.
  ReplicatedClient cloned_client(cloned);
  ReplicatedClient reference_client(reference);
  for (uint64_t round = 0; round < 8; round++) {
    for (uint64_t i = 0; i < 64; i++) {
      const uint64_t id = (round * 389 + i * 47) % kKeys;
      const KvOperation op = i % 4 == 0 ? Put(id, round) : Get(id);
      cloned_client.Enqueue(op);
      reference_client.Enqueue(op);
    }
    const std::vector<KvResultMessage> a = cloned_client.Flush();
    const std::vector<KvResultMessage> b = reference_client.Flush();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
      EXPECT_EQ(a[i].code, b[i].code) << round << "/" << i;
      EXPECT_EQ(a[i].value, b[i].value) << round << "/" << i;
    }
  }
  EXPECT_EQ(cloned.simulator().Now(), reference.simulator().Now());
}

TEST(GroupPreloadTest, EverySettlePointClonesOnce) {
  constexpr uint64_t kKeys = 200;
  const KeyRouter router(4);
  struct Touch {
    const char* name;
    std::function<void(ReplicationGroup&)> touch;
    std::optional<uint64_t> erased;  // a key the touch removes
  };
  const std::vector<Touch> touches = {
      {"Tick",
       [](ReplicationGroup& g) { RunFor(g.simulator(), 2 * g.config().heartbeat_interval); },
       std::nullopt},
      {"client frame",
       [](ReplicationGroup& g) {
         ReplicatedClient client(g);
         EXPECT_TRUE(client.Get(Key(7)).ok());
       },
       std::nullopt},
      {"Execute", [](ReplicationGroup& g) { (void)g.Execute(Get(7)); }, std::nullopt},
      {"Erase", [](ReplicationGroup& g) { EXPECT_TRUE(g.Erase(Key(7)).ok()); }, 7},
      {"InstallSessionRecord",
       [](ReplicationGroup& g) { g.InstallSessionRecord(1ull << 40, 0, KvResultMessage()); },
       std::nullopt},
      {"SnapshotPartitionKvs",
       [&router](ReplicationGroup& g) { (void)g.SnapshotPartitionKvs(router, 1); },
       std::nullopt},
      {"ExportPartitionSessions",
       [&router](ReplicationGroup& g) { (void)g.ExportPartitionSessions(router, 1); },
       std::nullopt},
      {"CrashReplica", [](ReplicationGroup& g) { g.CrashReplica(2); }, std::nullopt},
      {"RestartReplica", [](ReplicationGroup& g) { g.RestartReplica(2); }, std::nullopt},
      {"replica(id)", [](ReplicationGroup& g) { (void)g.replica(1); }, std::nullopt},
  };
  for (const Touch& t : touches) {
    SCOPED_TRACE(t.name);
    ReplicationGroup group(SmallGroupConfig());
    (void)group.replica(0);  // before any Load: nothing to settle, still pristine
    PreloadGroup(group, kKeys);
    t.touch(group);
    EXPECT_EQ(group.stats().load_clones, 1u);
    StateKvs expected = PreloadContents(kKeys);
    if (t.erased.has_value()) {
      std::erase_if(expected, [&](const auto& kv) { return kv.first == Key(*t.erased); });
    }
    for (uint32_t r = 0; r < 3; r++) {
      EXPECT_EQ(StoreContents(group, r), expected) << "replica " << r;
    }
    // A second touch clones nothing; later Loads go to every live replica.
    t.touch(group);
    ASSERT_TRUE(group.Load(Key(kKeys), U64Value(1)).ok());
    EXPECT_EQ(group.stats().load_clones, 1u);
    for (uint32_t r = 0; r < 3; r++) {
      if (!group.crashed(r)) {
        EXPECT_TRUE(group.replica(r).index().Contains(Key(kKeys))) << "replica " << r;
      }
    }
  }
}

TEST(GroupPreloadTest, LoadsAfterTrafficOrACrashTakeThePerReplicaPath) {
  {
    SCOPED_TRACE("after traffic");
    ReplicationGroup group(SmallGroupConfig());
    ReplicatedClient client(group);
    ASSERT_TRUE(client.Put(Key(1), U64Value(1)).ok());
    ASSERT_TRUE(group.Load(Key(2), U64Value(2)).ok());
    RunFor(group.simulator(), kMillisecond);  // backups apply the Put
    for (uint32_t r = 0; r < 3; r++) {
      EXPECT_EQ(StoreContents(group, r).size(), 2u) << "replica " << r;
    }
    EXPECT_EQ(group.stats().load_clones, 0u);
  }
  {
    SCOPED_TRACE("crashed replica");
    ReplicationGroup group(SmallGroupConfig());
    group.CrashReplica(2);
    PreloadGroup(group, 50);
    EXPECT_EQ(StoreContents(group, 0), PreloadContents(50));
    EXPECT_EQ(StoreContents(group, 1), PreloadContents(50));
    EXPECT_TRUE(StoreContents(group, 2).empty());  // queued, not cloned
    group.RestartReplica(2);
    EXPECT_EQ(StoreContents(group, 2), PreloadContents(50));
    EXPECT_EQ(group.stats().load_clones, 0u);
  }
}

TEST(GroupPreloadTest, AWriteToAStaleReplicaFailsTheSettle) {
  ReplicationGroup group(SmallGroupConfig());
  KvDirectServer& backup = group.replica(1);  // taken before the first Load
  PreloadGroup(group, 20);
  ASSERT_TRUE(backup.Load(Key(99), U64Value(1)).ok());  // the clone would erase it
  EXPECT_DEATH((void)group.replica(2), "pristine loads");
}

TEST(GroupPreloadTest, FullGroupRefusesAtTheSameKeyAsReplicaByReplica) {
  ReplicationConfig config = SmallGroupConfig();
  config.server.kvs_memory_bytes = 1 * kMiB;
  config.server.nic_dram.capacity_bytes = 256 * kKiB;
  ReplicationGroup cloned(config);
  ReplicationGroup reference(config);
  LeavePristine(reference);
  const std::vector<uint8_t> value(52, 9);
  const auto fill = [&](ReplicationGroup& group) {
    for (uint64_t id = 0;; id++) {
      const Status status = group.Load(Key(id), value);
      if (!status.ok()) {
        return std::pair{id, status.code()};
      }
    }
  };
  const auto [cloned_at, cloned_code] = fill(cloned);
  const auto [reference_at, reference_code] = fill(reference);
  EXPECT_EQ(cloned_code, StatusCode::kOutOfMemory);
  EXPECT_EQ(cloned_code, reference_code);
  EXPECT_EQ(cloned_at, reference_at);
  EXPECT_GT(cloned_at, 1000u);
  for (uint32_t r = 0; r < 3; r++) {
    EXPECT_EQ(StoreContents(cloned, r), StoreContents(reference, r)) << "replica " << r;
  }
}

// Sharded + replicated clusters moved to the control plane in src/cluster
// (ClusterCoordinator + ClusterClient); their coverage lives in
// tests/cluster_test.cc.

}  // namespace
}  // namespace kvd
