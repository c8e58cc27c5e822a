// The transport layer in isolation and end to end: the frame codec, every
// wire decoder over truncated and forged input (one table), the replay
// cache (pinning, bounded eviction scan, in-flight drop), the FrameEndpoint
// receive half, fatal-path timeouts surfaced as kTimedOut instead of
// process aborts (a packet bouncing forever included), an op over the
// packet budget failed alone, and the disjoint per-client sequence spaces
// that keep one shared replay cache collision-free across clients.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster_client.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/net/wire_format.h"
#include "src/replica/replica_wire.h"
#include "src/replica/replicated_client.h"
#include "src/replica/replication_group.h"
#include "src/sim/simulator.h"
#include "src/transport/frame.h"
#include "src/transport/frame_endpoint.h"
#include "src/transport/replay_cache.h"
#include "src/transport/snapshot_stream.h"

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

uint64_t AsU64(const std::vector<uint8_t>& value) {
  uint64_t v = 0;
  std::memcpy(&v, value.data(), std::min<size_t>(8, value.size()));
  return v;
}

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

// --- frame codec ---

TEST(FrameTest, RoundTrip) {
  const std::vector<uint8_t> payload = Bytes({1, 2, 3, 4, 5});
  const std::vector<uint8_t> packet = FramePacket(42, payload);
  ASSERT_EQ(packet.size(), kFrameHeaderBytes + payload.size());
  Result<Frame> frame = ParseFrame(packet);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->sequence, 42u);
  EXPECT_TRUE(std::ranges::equal(frame->payload, payload));
}

TEST(FrameTest, EveryBitFlipIsDetected) {
  const std::vector<uint8_t> packet = FramePacket(7, Bytes({9, 8, 7}));
  for (size_t byte = 0; byte < packet.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      std::vector<uint8_t> mutated = packet;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(ParseFrame(mutated).ok())
          << "flip of byte " << byte << " bit " << bit << " went undetected";
    }
  }
}

// --- every decoder, one table (frame truncation included) ---

// A valid encoding of one wire layout, the decoder that reads it (true when
// it accepts), and where its length and count fields sit.
struct DecoderCase {
  std::string name;
  std::vector<uint8_t> bytes;
  std::function<bool(const std::vector<uint8_t>&)> accepts;
  // (offset, width) of each u16 length or u32 length/count field.
  std::vector<std::pair<size_t, size_t>> lengths;
  // Shortest prefix the decoder must reject; shorter than the whole
  // encoding only where an empty input is a valid empty message.
  size_t reject_from = 0;
};

KvOperation PutOp(uint64_t key, uint64_t value) {
  KvOperation op;
  op.opcode = Opcode::kPut;
  op.key = Key(key);
  op.value = U64Value(value);
  return op;
}

KvResultMessage ValueResult(uint64_t value) {
  KvResultMessage result;
  result.code = ResultCode::kOk;
  result.scalar = 3;
  result.value = U64Value(value);
  return result;
}

std::vector<DecoderCase> DecoderCases() {
  std::vector<DecoderCase> cases;
  // One PUT: u8 opcode | u8 flags | u16 key_len | u32 value_len | key | value.
  PacketBuilder builder;
  EXPECT_TRUE(builder.Add(PutOp(1, 2)));
  cases.push_back({"ops", builder.Finish(),
                   [](const auto& b) {
                     std::vector<KvOpView> ops;
                     return DecodeOps(b, ops).ok();
                   },
                   {{2, 2}, {4, 4}}, 1});
  // u8 code | u32 epoch | u32 value_len | u64 scalar | value.
  cases.push_back({"results", EncodeResults({ValueResult(5)}),
                   [](const auto& b) { return DecodeResults(b).ok(); },
                   {{5, 4}}, 1});

  // Every replica message type. The head is 13 bytes: u8 type | u64 epoch
  // | u32 sender.
  auto replica = [](const auto& b) { return DecodeReplicaMessage(b).ok(); };
  for (uint8_t t = 0; t <= kMaxReplicaMessageType; t++) {
    ReplicaMessage msg = MakeMessage(static_cast<ReplicaMessageType>(t), 4, 1);
    std::vector<std::pair<size_t, size_t>> lengths;
    if (msg.type == ReplicaMessageType::kAppend) {
      LogEntry entry;
      entry.op = PutOp(1, 2);
      entry.result = ValueResult(9);
      msg.entries.push_back(entry);
      // Window (4 x u64), then the entry count; the entry's key and value
      // lengths follow its 31 fixed bytes, its result's length the key,
      // value, code and scalar.
      const size_t entry_at = 13 + 32 + 4;
      lengths = {{45, 4}, {entry_at + 31, 2}, {entry_at + 33, 4},
                 {entry_at + 37 + 16 + 9, 4}};
    }
    if (msg.type == ReplicaMessageType::kStateChunk) {
      msg.chunk_flags = kStateChunkSessions;
      msg.kvs.emplace_back(Key(1), U64Value(2));
      SessionRecord record;
      record.result = ValueResult(7);
      msg.sessions.push_back(record);
      // u64 snapshot epoch and index | u32 chunk_seq | u8 flags, then the
      // KV count, one KV (u16 key_len | u32 value_len | 16 bytes), the
      // session count and one record (u64 | u16 | code | scalar | length).
      const size_t sessions_at = 34 + 4 + 6 + 16;
      lengths = {{34, 4}, {38, 2}, {40, 4}, {sessions_at, 4},
                 {sessions_at + 4 + 10 + 9, 4}};
    }
    cases.push_back({"replica message type " + std::to_string(t),
                     EncodeReplicaMessage(msg), replica, lengths, 0});
  }

  // Group headers with empty payloads: every byte is header.
  auto group_request = [](const auto& b) { return DecodeGroupRequestView(b).ok(); };
  GroupRequest request;
  request.required_index = 12;
  cases.push_back({"group request", EncodeGroupRequest(request), group_request, {}, 0});
  request.has_route = true;
  cases.push_back(
      {"routed group request", EncodeGroupRequest(request), group_request, {}, 0});
  auto group_response = [](const auto& b) { return DecodeGroupResponse(b).ok(); };
  GroupResponse response;
  response.flags = kGroupRedirect;
  cases.push_back(
      {"group response", EncodeGroupResponse(response), group_response, {}, 0});
  response.flags = kGroupWrongShard;
  cases.push_back({"bounce group response", EncodeGroupResponse(response),
                   group_response, {}, 0});

  cases.push_back({"frame", FramePacket(7, Bytes({1, 2, 3})),
                   [](const auto& b) { return ParseFrame(b).ok(); }, {}, 0});
  cases.push_back({"snapshot ack", SnapshotStream::FrameAck(9, 1),
                   [](const auto& b) {
                     Simulator sim;
                     SnapshotStream::Stats stats;
                     SnapshotStream stream(sim, 1e9, &stats, [](const auto&) {});
                     stream.Start({{1}, {2}});
                     stream.OnAckFrame(b);
                     return stream.acked() == 1;
                   },
                   {}, 0});
  return cases;
}

TEST(DecoderTableTest, PrefixesAndForgedLengthsAreRejected) {
  for (const DecoderCase& c : DecoderCases()) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.accepts(c.bytes));
    for (size_t len = c.reject_from; len < c.bytes.size(); len++) {
      EXPECT_FALSE(c.accepts(std::vector<uint8_t>(c.bytes.begin(), c.bytes.begin() + len)))
          << "prefix of " << len << " bytes accepted";
    }
    for (const auto& [offset, width] : c.lengths) {
      ASSERT_LE(offset + width, c.bytes.size());
      std::vector<uint8_t> forged = c.bytes;
      std::fill_n(forged.begin() + offset, width, 0xff);  // past the bytes left
      EXPECT_FALSE(c.accepts(forged)) << "length at " << offset << " forged";
    }
    // Any two or four bytes at any offset forged: an error or a decode,
    // never an abort.
    for (size_t offset = 0; offset < c.bytes.size(); offset++) {
      for (size_t width : {2, 4}) {
        std::vector<uint8_t> forged = c.bytes;
        std::fill_n(forged.begin() + offset,
                    std::min(width, forged.size() - offset), 0xff);
        (void)c.accepts(forged);
      }
    }
  }
}

TEST(DecoderTableTest, SizeConstantsMatchTheEncodings) {
  EXPECT_EQ(FramePacket(1, {}).size(), kFrameHeaderBytes);
  GroupRequest request;
  EXPECT_EQ(EncodeGroupRequest(request).size(), kGroupRequestHeaderBytes);
  request.has_route = true;
  EXPECT_EQ(EncodeGroupRequest(request).size(), kGroupRouteHeaderBytes);
  EXPECT_EQ(EncodeResults({KvResultMessage{}}).size(), kResultHeaderBytes);
  for (const uint64_t value : {0u, 8u, 300u}) {
    LogEntry entry;
    entry.op = PutOp(1, 2);
    entry.op.value.resize(value);
    entry.result = ValueResult(3);
    std::vector<uint8_t> out;
    EncodeLogEntry(out, entry);
    EXPECT_EQ(EncodedLogEntryBytes(entry), out.size());
  }
}

// --- replay cache ---

TEST(ReplayCacheTest, MissAdmitCompleteLifecycle) {
  Simulator sim;
  ReplayCache cache(sim, ReplayCache::Config{});
  EXPECT_EQ(cache.Lookup(1, nullptr), ReplayCache::Hit::kMiss);
  cache.Admit(1);
  EXPECT_EQ(cache.Lookup(1, nullptr), ReplayCache::Hit::kInFlight);
  cache.Complete(1, Bytes({0xaa, 0xbb}));
  const std::vector<uint8_t>* response = nullptr;
  EXPECT_EQ(cache.Lookup(1, &response), ReplayCache::Hit::kDone);
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(*response, Bytes({0xaa, 0xbb}));
}

TEST(ReplayCacheTest, AdjacentClientSequenceSpacesDoNotCollide) {
  // AcquireClientSequenceBase hands each client a disjoint 2^40 block
  // (client id << 40). The last sequence of client 1's block and the first
  // of client 2's are numerically adjacent; they must stay independent
  // entries through the whole lifecycle.
  Simulator sim;
  ReplayCache cache(sim, ReplayCache::Config{});
  const uint64_t top_of_client1 = (2ull << 40) - 1;  // client 1: [1<<40, 2<<40)
  const uint64_t bottom_of_client2 = 2ull << 40;     // client 2's first frame
  cache.Admit(top_of_client1);
  EXPECT_EQ(cache.Lookup(bottom_of_client2, nullptr), ReplayCache::Hit::kMiss);
  cache.Complete(top_of_client1, Bytes({1}));
  cache.Admit(bottom_of_client2);
  EXPECT_EQ(cache.Lookup(top_of_client1, nullptr), ReplayCache::Hit::kDone);
  EXPECT_EQ(cache.Lookup(bottom_of_client2, nullptr),
            ReplayCache::Hit::kInFlight);
  cache.Complete(bottom_of_client2, Bytes({2}));
  const std::vector<uint8_t>* response = nullptr;
  ASSERT_EQ(cache.Lookup(top_of_client1, &response), ReplayCache::Hit::kDone);
  EXPECT_EQ(*response, Bytes({1}));
  ASSERT_EQ(cache.Lookup(bottom_of_client2, &response),
            ReplayCache::Hit::kDone);
  EXPECT_EQ(*response, Bytes({2}));
}

TEST(ReplayCacheTest, FullWidthSequencesSurviveTheCache) {
  // High client ids push bases past bit 62 (id << 40): sequences are full
  // 64-bit values and no edge of the per-client split may truncate or alias.
  Simulator sim;
  ReplayCache cache(sim, ReplayCache::Config{});
  const std::vector<uint64_t> edges = {
      (1ull << 40) - 1,                  // below the first client base
      1ull << 40,                        // client 1's first frame
      (1ull << 63) | ((1ull << 40) - 1), // top of a block with bit 63 set
      1ull << 63,                        // base of client 1<<23
      UINT64_MAX};                       // the very last representable frame
  for (size_t i = 0; i < edges.size(); i++) {
    cache.Admit(edges[i]);
    cache.Complete(edges[i], Bytes({static_cast<uint8_t>(i)}));
  }
  for (size_t i = 0; i < edges.size(); i++) {
    const std::vector<uint8_t>* response = nullptr;
    ASSERT_EQ(cache.Lookup(edges[i], &response), ReplayCache::Hit::kDone)
        << "edge " << i;
    EXPECT_EQ(*response, Bytes({static_cast<uint8_t>(i)})) << "edge " << i;
  }
}

TEST(ReplayCacheTest, RetainTimePinsFreshCompletions) {
  Simulator sim;
  ReplayCache::Config config;
  config.entries = 1;  // eviction pressure from the second admission on
  config.retain_time = 100 * kMicrosecond;
  ReplayCache cache(sim, config);

  cache.Admit(1);
  cache.Complete(1, Bytes({1}));
  cache.Admit(2);  // over budget, but entry 1 is younger than retain_time
  EXPECT_EQ(cache.Lookup(1, nullptr), ReplayCache::Hit::kDone);
  cache.Complete(2, Bytes({2}));

  sim.RunUntil(sim.Now() + 200 * kMicrosecond);  // both completions age out
  cache.Admit(3);  // now the oldest completed entry is evictable
  EXPECT_EQ(cache.Lookup(1, nullptr), ReplayCache::Hit::kMiss);
}

TEST(ReplayCacheTest, InFlightEntriesAreNeverEvicted) {
  Simulator sim;
  ReplayCache::Config config;
  config.entries = 1;
  config.retain_time = 0;
  ReplayCache cache(sim, config);

  cache.Admit(1);  // in flight: pinned regardless of pressure or age
  for (uint64_t seq = 2; seq < 50; seq++) {
    cache.Admit(seq);
    cache.Complete(seq, Bytes({1}));
  }
  EXPECT_EQ(cache.Lookup(1, nullptr), ReplayCache::Hit::kInFlight);
}

// Regression for the eviction scan: a pinned prefix must cost O(1) per
// admission (rotating cursor), not an O(cache) rescan, and must not block
// eviction of completed entries queued behind it. The pre-refactor scan
// stopped at the first pinned entry, so a long-lived in-flight head made the
// cache grow without bound.
TEST(ReplayCacheTest, EvictionScanIsBoundedAndMakesProgress) {
  Simulator sim;
  ReplayCache::Config config;
  config.entries = 4;
  config.retain_time = 0;  // completed entries evictable immediately
  ReplayCache cache(sim, config);

  constexpr uint64_t kPins = 4;
  for (uint64_t seq = 1; seq <= kPins; seq++) {
    cache.Admit(seq);  // in flight forever: a pinned prefix at the head
  }

  constexpr uint64_t kAdmissions = 200;
  for (uint64_t i = 0; i < kAdmissions; i++) {
    const uint64_t before = cache.evict_scan_steps();
    cache.Admit(1000 + i);
    EXPECT_LE(cache.evict_scan_steps() - before, ReplayCache::kMaxEvictScanSteps);
    cache.Complete(1000 + i, Bytes({1}));
  }

  // Progress: evictable entries behind the pins were reclaimed, so the cache
  // stays near budget instead of holding all 200 completed admissions.
  EXPECT_LE(cache.size(), kPins + config.entries + ReplayCache::kMaxEvictScanSteps);
  // The pins themselves survived every scan.
  for (uint64_t seq = 1; seq <= kPins; seq++) {
    EXPECT_EQ(cache.Lookup(seq, nullptr), ReplayCache::Hit::kInFlight);
  }
}

TEST(ReplayCacheTest, DropInFlightForgetsUnansweredExecutions) {
  Simulator sim;
  ReplayCache cache(sim, ReplayCache::Config{});
  cache.Admit(1);
  cache.Admit(2);
  cache.Complete(2, Bytes({2}));
  cache.DropInFlight();
  // The unanswered execution is forgotten (a retransmission re-executes)...
  EXPECT_EQ(cache.Lookup(1, nullptr), ReplayCache::Hit::kMiss);
  // ...while the answered one still replays.
  EXPECT_EQ(cache.Lookup(2, nullptr), ReplayCache::Hit::kDone);
  cache.Admit(1);  // re-admitting the dropped sequence works
  EXPECT_EQ(cache.Lookup(1, nullptr), ReplayCache::Hit::kInFlight);
}

// --- frame endpoint ---

TEST(FrameEndpointTest, CorruptFrameIsDroppedAndCounted) {
  Simulator sim;
  FrameEndpoint endpoint(sim, ReplayCache::Config{});
  std::vector<uint8_t> packet = FramePacket(1, Bytes({1, 2, 3}));
  packet.back() ^= 0x01;
  bool responded = false;
  std::optional<Frame> frame =
      endpoint.Accept(packet, [&](std::vector<uint8_t>) { responded = true; });
  EXPECT_FALSE(frame.has_value());
  EXPECT_FALSE(responded);
  EXPECT_EQ(endpoint.stats().corrupt_frames, 1u);
}

TEST(FrameEndpointTest, RetransmissionIsAnsweredFromTheCache) {
  Simulator sim;
  FrameEndpoint endpoint(sim, ReplayCache::Config{});
  const std::vector<uint8_t> packet = FramePacket(1, Bytes({1, 2, 3}));

  std::optional<Frame> frame = endpoint.Accept(packet, [](std::vector<uint8_t>) {});
  ASSERT_TRUE(frame.has_value());
  endpoint.Admit(frame->sequence);
  const std::vector<uint8_t> framed_response =
      endpoint.Complete(frame->sequence, Bytes({0xee}), /*cache=*/true);

  std::vector<uint8_t> replayed;
  std::optional<Frame> dup = endpoint.Accept(
      packet, [&](std::vector<uint8_t> response) { replayed = std::move(response); });
  EXPECT_FALSE(dup.has_value());  // handled: answered without re-execution
  EXPECT_EQ(replayed, framed_response);
  EXPECT_EQ(endpoint.stats().replayed_responses, 1u);
}

TEST(FrameEndpointTest, InFlightDuplicateIsDropped) {
  Simulator sim;
  FrameEndpoint endpoint(sim, ReplayCache::Config{});
  const std::vector<uint8_t> packet = FramePacket(1, Bytes({1, 2, 3}));

  std::optional<Frame> frame = endpoint.Accept(packet, [](std::vector<uint8_t>) {});
  ASSERT_TRUE(frame.has_value());
  endpoint.Admit(frame->sequence);  // execution started, no response yet

  bool responded = false;
  std::optional<Frame> dup =
      endpoint.Accept(packet, [&](std::vector<uint8_t>) { responded = true; });
  EXPECT_FALSE(dup.has_value());
  EXPECT_FALSE(responded);  // neither answered nor re-executed
  EXPECT_EQ(endpoint.stats().stale_retransmits, 1u);
}

TEST(FrameEndpointTest, UncachedControlResponseIsReEvaluated) {
  Simulator sim;
  FrameEndpoint endpoint(sim, ReplayCache::Config{});
  const std::vector<uint8_t> packet = FramePacket(1, Bytes({1, 2, 3}));

  // A control response (e.g. a replica redirect) is framed but never admitted
  // or cached: its answer depends on state that may change.
  std::optional<Frame> frame = endpoint.Accept(packet, [](std::vector<uint8_t>) {});
  ASSERT_TRUE(frame.has_value());
  (void)endpoint.Complete(frame->sequence, Bytes({0xcc}), /*cache=*/false);

  std::optional<Frame> again = endpoint.Accept(packet, [](std::vector<uint8_t>) {});
  ASSERT_TRUE(again.has_value());  // re-evaluated, not replayed
  EXPECT_EQ(endpoint.stats().replayed_responses, 0u);
  EXPECT_EQ(endpoint.stats().stale_retransmits, 0u);
}

// --- snapshot stream ---

// Loopback rig: 1000-byte chunks (byte 0 = sequence) cross a 1 us wire to a
// receiver that records what it installs; acks return over the same wire.
// `drop` names the chunk transmissions (0-based, resends counted) it loses.
struct SnapshotRig {
  Simulator sim;
  SnapshotStream::Stats stats;
  SnapshotStream::Receiver receiver{&stats};
  std::vector<uint8_t> installed;
  std::set<uint64_t> drop;
  uint64_t transmissions = 0;
  bool refuse = false;
  SnapshotStream stream{
      sim, 1e9, &stats, [this](const std::vector<uint8_t>& chunk) {
        if (drop.count(transmissions++) != 0) {
          return;
        }
        sim.Schedule(kMicrosecond, [this, seq = chunk[0]] {
          const uint32_t ack = receiver.OnChunk(seq, [&] {
            if (!refuse) {
              installed.push_back(seq);
            }
            return !refuse;
          });
          sim.Schedule(kMicrosecond, [this, ack] { stream.OnAck(ack); });
        });
      }};

  void Start(uint8_t chunks) {
    std::vector<std::vector<uint8_t>> framed;
    for (uint8_t seq = 0; seq < chunks; seq++) {
      framed.emplace_back(1000, seq);
    }
    stream.Start(std::move(framed));
  }
};

TEST(SnapshotStreamTest, GoBackNResendsFromTheAckPoint) {
  SnapshotRig rig;
  rig.drop = {2};  // the first transmission of chunk 2 is lost
  rig.Start(6);
  rig.sim.RunUntilIdle();
  // Chunks past the gap arrive but are stale: the cursor waits at 2.
  EXPECT_EQ(rig.installed, (std::vector<uint8_t>{0, 1}));
  EXPECT_EQ(rig.stats.stale_chunks, 3u);
  EXPECT_EQ(rig.stream.acked(), 2u);
  // The first check sees progress since the start; the second sees none
  // and goes back to the ack point, resending chunks 2..5.
  EXPECT_FALSE(rig.stream.CheckProgress());
  EXPECT_TRUE(rig.stream.CheckProgress());
  EXPECT_EQ(rig.stats.retransmits, 4u);
  rig.sim.RunUntilIdle();
  EXPECT_EQ(rig.installed, (std::vector<uint8_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(rig.stream.done());
  EXPECT_EQ(rig.stats.chunks_sent, 10u);
  EXPECT_EQ(rig.stats.bytes_sent, 10000u);
  EXPECT_FALSE(rig.stream.CheckProgress());  // finished: nothing to resend
}

TEST(SnapshotStreamTest, RefusedInstallIsOfferedAgain) {
  SnapshotRig rig;
  rig.refuse = true;  // e.g. the target's pipeline has not drained yet
  rig.Start(2);
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(rig.installed.empty());
  EXPECT_EQ(rig.stream.acked(), 0u);
  rig.refuse = false;
  EXPECT_TRUE(rig.stream.CheckProgress());
  rig.sim.RunUntilIdle();
  EXPECT_EQ(rig.installed, (std::vector<uint8_t>{0, 1}));
  EXPECT_TRUE(rig.stream.done());
}

TEST(SnapshotStreamTest, StopSilencesPendingSlotsAndAcksAreValidated) {
  SnapshotRig rig;
  rig.Start(4);
  rig.stream.Stop();  // chunk 0 already left; its pacing slot must not send
  rig.sim.RunUntilIdle();
  EXPECT_EQ(rig.transmissions, 1u);
  EXPECT_FALSE(rig.stream.active());

  rig.Start(2);
  rig.stream.OnAck(3);  // past the end: corrupt, ignored
  EXPECT_EQ(rig.stream.acked(), 0u);
  // The framed 4-byte ack codec: little-endian cursor behind a frame header.
  std::vector<uint8_t> ack = SnapshotStream::FrameAck(9, 2);
  ASSERT_EQ(ack.size(), kFrameHeaderBytes + 4);
  EXPECT_TRUE(std::ranges::equal(ParseFrame(ack).value().payload, Bytes({2, 0, 0, 0})));
  ack.back() ^= 1;  // corrupt: dropped
  rig.stream.OnAckFrame(ack);
  EXPECT_EQ(rig.stream.acked(), 0u);
  rig.stream.OnAckFrame(FramePacket(9, Bytes({2, 0, 0})));  // wrong size
  EXPECT_EQ(rig.stream.acked(), 0u);
  rig.stream.OnAckFrame(SnapshotStream::FrameAck(10, 2));
  EXPECT_EQ(rig.stream.acked(), 2u);
  EXPECT_TRUE(rig.stream.done());
}

// --- fatal paths surface kTimedOut instead of aborting ---

TEST(TimeoutTest, ClientSurfacesTimedOutWhenEveryFrameIsDropped) {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  config.faults.at(FaultSite::kNetDropToServer) = 1.0;  // nothing gets through
  KvDirectServer server(config);
  ASSERT_TRUE(server.Load(Key(1), U64Value(7)).ok());

  Client::Options options;
  options.timeout = 10 * kMicrosecond;
  options.max_attempts = 3;
  Client client(server, options);

  client.Enqueue([] {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(1);
    return op;
  }());
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].code, ResultCode::kTimedOut);
  EXPECT_EQ(client.stats().packets_sent, 1u);
  EXPECT_EQ(client.stats().retransmits, options.max_attempts - 1);
  // The synchronous wrappers map it to StatusCode::kTimedOut.
  Result<std::vector<uint8_t>> value = client.Get(Key(1));
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kTimedOut);
}

TEST(TimeoutTest, ReplicatedClientSurfacesTimedOutWhenEveryFrameIsDropped) {
  ReplicationConfig config;
  config.num_replicas = 3;
  config.server.kvs_memory_bytes = 8 * kMiB;
  config.server.nic_dram.capacity_bytes = 1 * kMiB;
  config.faults.at(FaultSite::kNetDropToServer) = 1.0;
  ReplicationGroup group(config);

  ReplicatedClient::Options options;
  options.timeout = 10 * kMicrosecond;
  options.max_attempts = 4;
  options.attempts_per_target = 2;  // rotating targets must not defeat the cap
  ReplicatedClient client(group, options);

  KvOperation op;
  op.opcode = Opcode::kPut;
  op.key = Key(1);
  op.value = U64Value(1);
  client.Enqueue(std::move(op));
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].code, ResultCode::kTimedOut);
  // The attempt cap bounds timer-driven retransmits. A redirect bounce off a
  // rotated-to backup consumes an attempt without counting a retransmit, and
  // whether the bounce or the timer wins the race depends on the jittered
  // backoff draw — so the exact count is seed-dependent below the cap.
  EXPECT_GE(client.stats().retransmits, 1u);
  EXPECT_LE(client.stats().retransmits, options.max_attempts - 1);
}

// An op larger than the whole packet budget (a 5,000 B value at the default
// 4,096 B) fails alone with kInvalidArgument; the ops around it are sent
// and answered, in the packet it closed and the next.
void ExpectOversizeOpFailsAlone(KvEndpoint& client) {
  KvOperation big = PutOp(2, 0);
  big.value.assign(5000, 1);
  client.Enqueue(PutOp(1, 11));
  client.Enqueue(std::move(big));
  client.Enqueue(PutOp(3, 33));
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].code, ResultCode::kOk);
  EXPECT_EQ(results[1].code, ResultCode::kInvalidArgument);
  EXPECT_EQ(results[2].code, ResultCode::kOk);
  EXPECT_EQ(client.endpoint_stats().packets_sent, 1u);
  Result<std::vector<uint8_t>> value = client.Get(Key(3));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(AsU64(*value), 33u);
  EXPECT_FALSE(client.Get(Key(2)).ok());  // never written
}

TEST(OversizeOpTest, ClientFailsTheOpAndSendsTheRest) {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  KvDirectServer server(config);
  Client client(server);
  ExpectOversizeOpFailsAlone(client);
}

TEST(OversizeOpTest, ReplicatedClientFailsTheOpAndSendsTheRest) {
  ReplicationConfig config;
  config.num_replicas = 3;
  config.server.kvs_memory_bytes = 8 * kMiB;
  config.server.nic_dram.capacity_bytes = 1 * kMiB;
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  ExpectOversizeOpFailsAlone(client);
}

TEST(TimeoutTest, ClusterClientSurfacesTimedOutWhenEveryFrameIsDropped) {
  ClusterConfig config;
  config.num_groups = 2;
  config.num_partitions = 4;
  config.group.num_replicas = 3;
  config.group.server.kvs_memory_bytes = 8 * kMiB;
  config.group.server.nic_dram.capacity_bytes = 1 * kMiB;
  // Every replica's client-facing wire drops every request frame.
  config.group.server.faults.at(FaultSite::kNetDropToServer) = 1.0;
  ClusterCoordinator cluster(config);

  ClusterClient::Options options;
  options.timeout = 10 * kMicrosecond;
  options.max_attempts = 4;
  options.attempts_per_target = 2;
  ClusterClient client(cluster, options);

  // Writes and reads spread over every partition: one packet each, and
  // every one must give up with kTimedOut rather than hang the flush.
  for (uint64_t i = 0; i < 16; i++) {
    KvOperation op;
    op.opcode = i % 2 == 0 ? Opcode::kPut : Opcode::kGet;
    op.key = Key(i);
    op.value = op.opcode == Opcode::kPut ? U64Value(i) : std::vector<uint8_t>{};
    client.Enqueue(std::move(op));
  }
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), 16u);
  for (const KvResultMessage& result : results) {
    EXPECT_EQ(result.code, ResultCode::kTimedOut);
  }
  // Nothing answers, so no bounce can consume an attempt: every packet
  // spends exactly max_attempts - 1 timer-driven retransmits.
  EXPECT_EQ(client.stats().retransmits,
            client.stats().packets_sent * (options.max_attempts - 1));
  Result<std::vector<uint8_t>> value = client.Get(Key(1));
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kTimedOut);
}

// A packet that bounces forever gives up like one that times out forever:
// the key's owning group answers every attempt with kMigrating, each bounce
// re-sends before the retransmission timer fires, and the attempt cap (or
// the op's deadline) still ends the Put.
TEST(TimeoutTest, ClusterClientGivesUpOnAPacketThatBouncesForever) {
  for (const bool with_deadline : {false, true}) {
    SCOPED_TRACE(with_deadline ? "op_budget" : "max_attempts");
    ClusterConfig config;
    config.num_groups = 2;
    config.num_partitions = 4;
    config.group.num_replicas = 3;
    config.group.server.kvs_memory_bytes = 8 * kMiB;
    config.group.server.nic_dram.capacity_bytes = 1 * kMiB;
    ClusterCoordinator cluster(config);
    const ShardMap& map = cluster.shard_map();
    const uint32_t owner = map.OwnerOf(map.router().PartitionOf(Key(1)));
    cluster.group(owner).SetShardGate([&map, owner](uint64_t, uint32_t, bool) {
      ReplicationGroup::ShardGateDecision decision;
      decision.action = ReplicationGroup::ShardGateDecision::Action::kMigrating;
      decision.map_epoch = map.epoch;
      decision.owner_group = owner;
      decision.num_partitions = map.num_partitions();
      return decision;
    });

    ClusterClient::Options options;
    options.max_attempts = 4;  // 4 bounces take ~4 x migrate_backoff
    if (with_deadline) {
      options.max_attempts = 24;
      options.op_budget = 3 * options.migrate_backoff;  // shorter than the train
    }
    ClusterClient client(cluster, options);
    KvOperation put;
    put.opcode = Opcode::kPut;
    put.key = Key(1);
    put.value = U64Value(1);
    client.Enqueue(std::move(put));
    const std::vector<KvResultMessage> results = client.Flush();
    ASSERT_EQ(results.size(), 1u);
    if (with_deadline) {
      EXPECT_EQ(results[0].code, ResultCode::kDeadlineExceeded);
      EXPECT_GE(client.endpoint_stats().deadline_failures, 1u);
    } else {
      EXPECT_EQ(results[0].code, ResultCode::kTimedOut);
      EXPECT_EQ(client.stats().migrating_backoffs, options.max_attempts);
      EXPECT_EQ(client.endpoint_stats().deadline_failures, 0u);
    }
    // Every attempt was answered: bounces are not retransmits.
    EXPECT_EQ(client.endpoint_stats().retransmits, 0u);
    EXPECT_EQ(client.endpoint_stats().packets_sent, 1u);
  }
}

// --- cross-client sequence spaces over the shared replay cache ---

TEST(SequenceSpaceTest, ClientsAcquireDisjointSpaces) {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  KvDirectServer server(config);
  const uint64_t first = server.AcquireClientSequenceBase();
  const uint64_t second = server.AcquireClientSequenceBase();
  EXPECT_NE(first, second);
  EXPECT_EQ(second - first, uint64_t{1} << 40);  // 2^40 sequences per client
}

TEST(SequenceSpaceTest, TwoClientsShareOneReplayCacheWithoutCollisions) {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  KvDirectServer server(config);
  ASSERT_TRUE(server.Load(Key(1), U64Value(0)).ok());

  // Both clients start at offset 0 inside their own 2^40 space. If the spaces
  // collided, the second client's first frames would hit the first client's
  // replay entries and be answered with the wrong responses.
  Client a(server);
  Client b(server);
  for (uint64_t round = 0; round < 8; round++) {
    Result<uint64_t> from_a = a.Update(Key(1), 1);  // fetch-and-add
    ASSERT_TRUE(from_a.ok());
    EXPECT_EQ(*from_a, 2 * round);
    Result<uint64_t> from_b = b.Update(Key(1), 1);
    ASSERT_TRUE(from_b.ok());
    EXPECT_EQ(*from_b, 2 * round + 1);
  }
  // No frame was misclassified as a duplicate of the other client's traffic.
  EXPECT_EQ(server.replayed_responses(), 0u);
  EXPECT_EQ(server.stale_retransmits(), 0u);
  Result<std::vector<uint8_t>> final_value = a.Get(Key(1));
  ASSERT_TRUE(final_value.ok());
  EXPECT_EQ(AsU64(*final_value), 16u);  // every add applied exactly once
}

}  // namespace
}  // namespace kvd
