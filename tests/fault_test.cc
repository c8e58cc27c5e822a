// Fault injection, end-to-end retry/timeout, and graceful degradation.
//
// Covers the FaultInjector itself (determinism, schedules, stream
// independence), the reliable frame codec, wire-format fuzzing (malformed
// input must error, never crash), the kBusy / kOutOfMemory degradation paths,
// ECC bit-flip handling, PCIe TLP replay, and a chaos soak: YCSB-style
// mixes under simultaneous network loss/duplication/corruption, transient
// PCIe errors, and DRAM bit flips, asserting exactly-once effects, bounded
// retry amplification, and bit-identical replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "src/check/history.h"
#include "src/check/linearizability.h"
#include "src/check/session_audit.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/fault/fault_injector.h"
#include "src/net/wire_format.h"

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

ServerConfig SmallServerConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  return config;
}

// --- FaultInjector ---

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.seed = 7;
  plan.at(FaultSite::kNetDropToServer) = 0.1;
  FaultInjector a(plan);
  FaultInjector b(plan);
  uint64_t injected = 0;
  for (int i = 0; i < 10000; i++) {
    const bool da = a.ShouldInject(FaultSite::kNetDropToServer);
    const bool db = b.ShouldInject(FaultSite::kNetDropToServer);
    EXPECT_EQ(da, db);
    injected += da ? 1 : 0;
  }
  EXPECT_GT(injected, 800u);  // ~1000 expected
  EXPECT_LT(injected, 1200u);
  EXPECT_EQ(a.stats(FaultSite::kNetDropToServer).events, 10000u);
  EXPECT_EQ(a.stats(FaultSite::kNetDropToServer).injected, injected);
}

TEST(FaultInjectorTest, SitesHaveIndependentStreams) {
  FaultPlan plan;
  plan.at(FaultSite::kNetDropToServer) = 0.2;
  plan.at(FaultSite::kPcieReadCompletion) = 0.2;
  // `b` interleaves heavy traffic at another site; `a` does not. The drop
  // site's decision sequence must be unaffected.
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 2000; i++) {
    b.ShouldInject(FaultSite::kPcieReadCompletion);
    if (i % 3 == 0) {
      b.ShouldInject(FaultSite::kPcieReadCompletion);
    }
    EXPECT_EQ(a.ShouldInject(FaultSite::kNetDropToServer),
              b.ShouldInject(FaultSite::kNetDropToServer));
  }
}

TEST(FaultInjectorTest, ScheduleFiresExactlyOnNthEvent) {
  FaultPlan plan;
  plan.schedule.push_back({FaultSite::kDramCorrectableFlip, 5});
  plan.schedule.push_back({FaultSite::kDramCorrectableFlip, 7});
  FaultInjector injector(plan);
  std::vector<int> fired;
  for (int n = 1; n <= 10; n++) {
    if (injector.ShouldInject(FaultSite::kDramCorrectableFlip)) {
      fired.push_back(n);
    }
  }
  EXPECT_EQ(fired, (std::vector<int>{5, 7}));
  EXPECT_EQ(injector.total_injected(), 2u);
}

TEST(FaultInjectorTest, CorruptBytesFlipsOneToThreeBits) {
  FaultPlan plan;
  FaultInjector injector(plan);
  for (int round = 0; round < 50; round++) {
    std::vector<uint8_t> original(64, 0xa5);
    std::vector<uint8_t> corrupted = original;
    injector.CorruptBytes(corrupted, FaultSite::kNetCorruptToServer);
    int flipped = 0;
    for (size_t i = 0; i < original.size(); i++) {
      flipped += std::popcount(static_cast<unsigned>(original[i] ^ corrupted[i]));
    }
    EXPECT_GE(flipped, 1);
    EXPECT_LE(flipped, 3);
  }
}

// --- reliable frame codec ---

TEST(FrameTest, RoundTripsSequenceAndPayload) {
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 42};
  const std::vector<uint8_t> packet = FramePacket(0xdeadbeef12345678ull, payload);
  EXPECT_EQ(packet.size(), payload.size() + kFrameHeaderBytes);
  Result<Frame> frame = ParseFrame(packet);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->sequence, 0xdeadbeef12345678ull);
  EXPECT_TRUE(std::ranges::equal(frame->payload, payload));

  // Empty payload is legal (an empty response packet).
  const std::vector<uint8_t> empty_packet = FramePacket(9, {});
  Result<Frame> empty = ParseFrame(empty_packet);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->sequence, 9u);
  EXPECT_TRUE(empty->payload.empty());
}

TEST(FrameTest, EverySingleBitFlipIsDetected) {
  std::vector<uint8_t> payload(64);
  for (size_t i = 0; i < payload.size(); i++) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }
  const std::vector<uint8_t> packet = FramePacket(77, payload);
  for (size_t byte = 0; byte < packet.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      std::vector<uint8_t> flipped = packet;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(ParseFrame(flipped).ok())
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(FrameTest, TruncationIsRejected) {
  const std::vector<uint8_t> packet = FramePacket(3, std::vector<uint8_t>(40, 9));
  for (size_t len = 0; len < packet.size(); len++) {
    EXPECT_FALSE(
        ParseFrame(std::span<const uint8_t>(packet.data(), len)).ok())
        << "truncation to " << len << " bytes accepted";
  }
}

// --- wire-format negative / fuzz tests ---

TEST(WireDecodeTest, RejectsUnknownOpcodeByte) {
  PacketBuilder builder;
  KvOperation op;
  op.opcode = Opcode::kGet;
  op.key = Key(1);
  ASSERT_TRUE(builder.Add(op));
  std::vector<uint8_t> payload = builder.Finish();
  payload[0] = kMaxOpcodeByte + 1;  // first byte is the opcode
  PacketParser parser(payload);
  EXPECT_FALSE(parser.Next().ok());
}

TEST(WireDecodeTest, RejectsUnknownResultCodeByte) {
  KvResultMessage result;
  result.code = ResultCode::kOk;
  result.value = U64Value(5);
  std::vector<uint8_t> payload = EncodeResults({result});
  payload[0] = kMaxResultCodeByte + 1;  // first byte is the result code
  EXPECT_FALSE(DecodeResults(payload).ok());
}

TEST(WireDecodeTest, NamesForEveryCode) {
  EXPECT_STREQ(OpcodeName(Opcode::kGet), "GET");
  EXPECT_STREQ(OpcodeName(Opcode::kUpdateScalarVector), "UPDATE_SCALAR_VECTOR");
  EXPECT_STREQ(OpcodeName(static_cast<Opcode>(kMaxOpcodeByte + 1)),
               "UNKNOWN_OPCODE");
  EXPECT_STREQ(ResultCodeName(ResultCode::kBusy), "BUSY");
  EXPECT_STREQ(ResultCodeName(ResultCode::kOutOfMemory), "OUT_OF_MEMORY");
  // kMaxResultCodeByte + 1 is kTimedOut — named, but client-local: the wire
  // decoder still rejects the byte (RejectsUnknownResultCodeByte above).
  EXPECT_STREQ(ResultCodeName(ResultCode::kTimedOut), "TIMED_OUT");
  EXPECT_STREQ(ResultCodeName(static_cast<ResultCode>(kMaxResultCodeByte + 2)),
               "UNKNOWN_RESULT");
}

std::vector<uint8_t> BuildRequestCorpus() {
  PacketBuilder builder(4096);
  for (uint64_t i = 0; i < 20; i++) {
    KvOperation op;
    op.opcode = static_cast<Opcode>(i % (kMaxOpcodeByte + 1));
    op.key = Key(i);
    op.value = std::vector<uint8_t>(8 + (i % 3) * 8, static_cast<uint8_t>(i));
    op.param = i * 13;
    if (!builder.Add(op)) {
      break;
    }
  }
  return builder.Finish();
}

// Drains the parser; returns false iff it errored. Must never crash.
bool DrainRequests(std::vector<uint8_t> payload) {
  PacketParser parser(std::move(payload));
  while (true) {
    Result<std::optional<KvOperation>> next = parser.Next();
    if (!next.ok()) {
      return false;
    }
    if (!next->has_value()) {
      return true;
    }
  }
}

TEST(WireFuzzTest, TruncatedRequestsNeverCrash) {
  const std::vector<uint8_t> packet = BuildRequestCorpus();
  ASSERT_GT(packet.size(), 50u);
  for (size_t len = 0; len <= packet.size(); len++) {
    DrainRequests(std::vector<uint8_t>(packet.begin(), packet.begin() + len));
  }
}

TEST(WireFuzzTest, BitFlippedRequestsNeverCrash) {
  const std::vector<uint8_t> packet = BuildRequestCorpus();
  Rng rng(0xfadedface);
  for (int round = 0; round < 2000; round++) {
    std::vector<uint8_t> mutated = packet;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; f++) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    DrainRequests(std::move(mutated));
  }
}

TEST(WireFuzzTest, OversizedLengthFieldsAreRejected) {
  // GET of an 8-byte key: u8 opcode | u8 flags | u16 key_len | key bytes.
  PacketBuilder builder;
  KvOperation op;
  op.opcode = Opcode::kGet;
  op.key = Key(1);
  ASSERT_TRUE(builder.Add(op));
  std::vector<uint8_t> payload = builder.Finish();
  payload[2] = 0xff;  // key_len = 0xffff, far beyond the remaining bytes
  payload[3] = 0xff;
  EXPECT_FALSE(DrainRequests(payload));
}

TEST(WireFuzzTest, TruncatedAndFlippedResponsesNeverCrash) {
  std::vector<KvResultMessage> results;
  for (uint64_t i = 0; i < 10; i++) {
    KvResultMessage r;
    r.code = static_cast<ResultCode>(i % (kMaxResultCodeByte + 1));
    r.value = std::vector<uint8_t>(i * 5, static_cast<uint8_t>(i));
    r.scalar = i;
    results.push_back(std::move(r));
  }
  const std::vector<uint8_t> packet = EncodeResults(results);
  for (size_t len = 0; len <= packet.size(); len++) {
    (void)DecodeResults(std::vector<uint8_t>(packet.begin(), packet.begin() + len));
  }
  Rng rng(0xbeefcafe);
  for (int round = 0; round < 2000; round++) {
    std::vector<uint8_t> mutated = packet;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBelow(8));
    (void)DecodeResults(mutated);
  }
}

// --- end-to-end retry/timeout over a faulty network ---

TEST(ClientRetryTest, ScheduledDropCausesExactlyOneRetransmit) {
  ServerConfig config = SmallServerConfig();
  config.faults.schedule.push_back({FaultSite::kNetDropToServer, 1});
  KvDirectServer server(config);
  ASSERT_TRUE(server.Load(Key(1), U64Value(99)).ok());

  Client::Options options;
  options.timeout = 20 * kMicrosecond;
  Client client(server, options);
  auto value = client.Get(Key(1));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(AsU64(*value), 99u);
  EXPECT_EQ(client.stats().packets_sent, 1u);
  EXPECT_EQ(client.stats().retransmits, 1u);
  EXPECT_EQ(server.network().packets_dropped(), 1u);
}

TEST(ClientRetryTest, ReplayedResponseDropIsDeduplicated) {
  // Drop the *response*: the server executed the op, so the retransmitted
  // request must be answered from the replay cache, not re-executed.
  ServerConfig config = SmallServerConfig();
  config.faults.schedule.push_back({FaultSite::kNetDropToClient, 1});
  KvDirectServer server(config);
  ASSERT_TRUE(server.Load(Key(1), U64Value(0)).ok());

  Client::Options options;
  options.timeout = 20 * kMicrosecond;
  Client client(server, options);
  auto original = client.Update(Key(1), 5);  // fetch-and-add, not idempotent
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, 0u);
  EXPECT_EQ(client.stats().retransmits, 1u);
  EXPECT_EQ(server.replayed_responses(), 1u);
  // Exactly-once: the add applied a single time.
  auto value = client.Get(Key(1));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(AsU64(*value), 5u);
}

TEST(ClientRetryTest, ReplayCacheRetainTimeProtectsRecentCompletions) {
  // An over-budget replay cache must not evict a freshly completed entry:
  // a retransmission of a non-idempotent op may still be in flight, and
  // re-admitting its sequence would re-execute it. Only entries older than
  // replay_retain_time are eligible.
  ServerConfig config = SmallServerConfig();
  config.replay_cache_entries = 2;  // force eviction pressure immediately
  config.replay_retain_time = 200 * kMicrosecond;
  KvDirectServer server(config);
  Simulator& sim = server.simulator();
  ASSERT_TRUE(server.Load(Key(1), U64Value(0)).ok());

  const uint64_t base = server.AcquireClientSequenceBase();
  auto frame_for = [&](uint64_t seq, const KvOperation& op) {
    PacketBuilder builder;
    KVD_CHECK(builder.Add(op));
    return FramePacket(base + seq, builder.Finish());
  };
  auto deliver = [&](std::vector<uint8_t> frame) {
    std::vector<KvResultMessage> results;
    server.DeliverFrame(std::move(frame), [&](std::vector<uint8_t> response) {
      auto parsed = ParseFrame(response);
      KVD_CHECK(parsed.ok());
      auto decoded = DecodeResults(parsed.value().payload);
      KVD_CHECK(decoded.ok());
      results = decoded.value();
    });
    while (results.empty()) {
      KVD_CHECK(sim.Step());
    }
    return results;
  };

  KvOperation update;
  update.opcode = Opcode::kUpdateScalar;
  update.key = Key(1);
  update.param = 5;  // fetch-and-add: visibly wrong if executed twice
  const std::vector<uint8_t> update_frame = frame_for(1, update);

  KvOperation get;
  get.opcode = Opcode::kGet;
  get.key = Key(1);

  EXPECT_EQ(deliver(update_frame)[0].scalar, 0u);
  // Two more sequences push the 2-entry cache over budget; the update's
  // entry is the eviction candidate but is younger than the retain time.
  deliver(frame_for(2, get));
  deliver(frame_for(3, get));

  // The retransmission is answered from the cache — not re-executed.
  EXPECT_EQ(deliver(update_frame)[0].scalar, 0u);
  EXPECT_EQ(server.replayed_responses(), 1u);
  EXPECT_EQ(AsU64(deliver(frame_for(4, get))[0].value), 5u);

  // Once the retain window has passed, the same pressure does evict it, and
  // a (pathologically late) retransmission re-executes: the retain time is
  // the server's exactly-once horizon and must exceed the client's retry
  // window.
  sim.RunUntil(sim.Now() + 300 * kMicrosecond);
  deliver(frame_for(5, get));
  deliver(frame_for(6, get));
  EXPECT_EQ(deliver(update_frame)[0].scalar, 5u);  // executed again
  EXPECT_EQ(server.replayed_responses(), 1u);
}

TEST(ClientRetryTest, SurvivesLossyNetworkExactlyOnce) {
  ServerConfig config = SmallServerConfig();
  config.faults.seed = 3;
  config.faults.at(FaultSite::kNetDropToServer) = 0.05;
  config.faults.at(FaultSite::kNetDropToClient) = 0.05;
  config.faults.at(FaultSite::kNetDuplicateToServer) = 0.03;
  config.faults.at(FaultSite::kNetDuplicateToClient) = 0.03;
  config.faults.at(FaultSite::kNetCorruptToServer) = 0.03;
  config.faults.at(FaultSite::kNetCorruptToClient) = 0.03;
  KvDirectServer server(config);
  constexpr uint64_t kKeys = 16;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(server.Load(Key(k), U64Value(0)).ok());
  }

  Client::Options options;
  options.timeout = 50 * kMicrosecond;
  options.max_ops_per_packet = 4;  // many packets -> many fault opportunities
  Client client(server, options);

  constexpr uint64_t kRounds = 40;
  std::vector<uint64_t> expected(kKeys, 0);
  for (uint64_t round = 0; round < kRounds; round++) {
    for (uint64_t k = 0; k < kKeys; k++) {
      KvOperation op;
      op.opcode = Opcode::kUpdateScalar;
      op.key = Key(k);
      op.param = round + k;
      expected[k] += round + k;
      client.Enqueue(std::move(op));
    }
    auto results = client.Flush();
    for (const auto& r : results) {
      EXPECT_EQ(r.code, ResultCode::kOk);
    }
  }
  // Zero lost, zero duplicated effects despite drops/dups/corruption.
  for (uint64_t k = 0; k < kKeys; k++) {
    auto value = client.Get(Key(k));
    ASSERT_TRUE(value.ok()) << k;
    EXPECT_EQ(AsU64(*value), expected[k]) << k;
  }
  EXPECT_GT(client.stats().retransmits, 0u);
  EXPECT_GT(server.network().packets_dropped(), 0u);
  EXPECT_GT(server.network().packets_duplicated(), 0u);
  EXPECT_GT(server.network().packets_corrupted(), 0u);
  EXPECT_GT(server.corrupt_frames() + client.stats().corrupt_responses, 0u);
}

// --- graceful degradation: kBusy and kOutOfMemory ---

TEST(DegradationTest, BusyBackpressureEndToEnd) {
  ServerConfig config = SmallServerConfig();
  config.processor.ooo.max_inflight = 8;
  config.processor.admission.max_backlog = 8;
  KvDirectServer server(config);
  constexpr uint64_t kKeys = 64;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(server.Load(Key(k), U64Value(k)).ok());
  }

  Client client(server);
  constexpr uint64_t kOps = 400;  // one big flush >> station + backlog
  for (uint64_t i = 0; i < kOps; i++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(i % kKeys);
    client.Enqueue(std::move(op));
  }
  auto results = client.Flush();
  ASSERT_EQ(results.size(), kOps);
  for (uint64_t i = 0; i < kOps; i++) {
    ASSERT_EQ(results[i].code, ResultCode::kOk) << i;
    EXPECT_EQ(AsU64(results[i].value), i % kKeys) << i;
  }
  // The tiny admission queue bounced operations, the client backed off and
  // re-sent exactly those, and everything completed.
  EXPECT_GT(client.stats().busy_retries, 0u);
  EXPECT_GT(server.processor().admission_stats().busy_rejected, 0u);
  EXPECT_EQ(*server.metrics().CounterValue("kvd_proc_busy_rejected_total"),
            server.processor().admission_stats().busy_rejected);
}

TEST(DegradationTest, OutOfMemorySurfacesInBatchAndRecovers) {
  ServerConfig config = SmallServerConfig();
  config.kvs_memory_bytes = 256 * kKiB;
  KvDirectServer server(config);
  Client client(server);

  const std::vector<uint8_t> big(200, 7);
  uint64_t inserted = 0;
  bool saw_oom = false;
  while (!saw_oom) {
    for (int i = 0; i < 32; i++) {
      KvOperation op;
      op.opcode = Opcode::kPut;
      op.key = Key(inserted + static_cast<uint64_t>(i));
      op.value = big;
      client.Enqueue(std::move(op));
    }
    auto results = client.Flush();
    for (const auto& r : results) {
      if (r.code == ResultCode::kOutOfMemory) {
        saw_oom = true;
      } else {
        ASSERT_EQ(r.code, ResultCode::kOk);
        inserted++;
      }
    }
    ASSERT_LT(inserted, 100000u);
  }
  EXPECT_GT(inserted, 100u);
  // Deleting frees capacity; a retry then succeeds — clients recover.
  for (uint64_t victim = 0; victim < 8; victim++) {
    ASSERT_TRUE(client.Delete(Key(victim)).ok());
  }
  EXPECT_TRUE(client.Put(Key(1u << 20), big).ok());
}

// --- ECC and PCIe fault paths ---

TEST(EccFaultTest, CorrectableFlipsCorrectUncorrectableDemote) {
  ServerConfig config = SmallServerConfig();
  config.dispatch_policy = DispatchPolicy::kCacheAll;  // all reads via DRAM
  config.faults.at(FaultSite::kDramCorrectableFlip) = 0.05;
  config.faults.at(FaultSite::kDramUncorrectableFlip) = 0.02;
  KvDirectServer server(config);
  constexpr uint64_t kKeys = 64;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(server.Load(Key(k), U64Value(k * 3)).ok());
  }

  Client client(server);
  for (int round = 0; round < 20; round++) {
    for (uint64_t k = 0; k < kKeys; k++) {
      KvOperation op;
      op.opcode = Opcode::kGet;
      op.key = Key(k);
      client.Enqueue(std::move(op));
    }
    auto results = client.Flush();
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_EQ(results[k].code, ResultCode::kOk);
      EXPECT_EQ(AsU64(results[k].value), k * 3);  // data survives bit flips
    }
  }
  const NicDram& dram = server.nic_dram();
  EXPECT_GT(dram.ecc_correctable_injected(), 0u);
  // Every injected single-bit flip was corrected (one word each).
  EXPECT_EQ(dram.ecc_corrected_words(), dram.ecc_correctable_injected());
  // Every uncorrectable flip demoted the line to a host re-read.
  EXPECT_GT(dram.ecc_uncorrectable_injected(), 0u);
  EXPECT_EQ(server.dispatcher().stats().ecc_demotions,
            dram.ecc_uncorrectable_injected());
}

TEST(PcieFaultTest, TransientCompletionErrorsAreReplayed) {
  ServerConfig config = SmallServerConfig();
  config.dispatch_policy = DispatchPolicy::kPcieOnly;
  config.faults.at(FaultSite::kPcieReadCompletion) = 0.05;
  config.faults.at(FaultSite::kPcieWriteCompletion) = 0.05;
  KvDirectServer server(config);
  constexpr uint64_t kKeys = 64;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(server.Load(Key(k), U64Value(k)).ok());
  }
  Client client(server);
  for (int round = 0; round < 10; round++) {
    for (uint64_t k = 0; k < kKeys; k++) {
      KvOperation op;
      op.opcode = round % 2 == 0 ? Opcode::kGet : Opcode::kUpdateScalar;
      op.key = Key(k);
      op.param = 1;
      client.Enqueue(std::move(op));
    }
    for (const auto& r : client.Flush()) {
      ASSERT_EQ(r.code, ResultCode::kOk);
    }
  }
  EXPECT_GT(server.dma().read_retries() + server.dma().write_retries(), 0u);
  // All tags drained despite the replays.
  EXPECT_EQ(server.dma().tag_pool().available(), server.dma().tag_pool().capacity());
}

// --- chaos soak: every fault class at once, deterministic, exactly-once ---

struct ChaosOutcome {
  std::vector<uint64_t> final_values;
  std::string metrics_json;
  uint64_t packets_sent = 0;
  uint64_t retransmits = 0;
  // Consistency-harness verdicts over the soak's recorded history
  // (src/check): deterministic strings, compared across same-seed replays.
  std::string history_fingerprint;
  std::string check_report;
};

ChaosOutcome RunChaos(double get_ratio, uint64_t seed) {
  ServerConfig config = SmallServerConfig();
  config.faults.seed = seed;
  config.faults.at(FaultSite::kNetDropToServer) = 0.01;
  config.faults.at(FaultSite::kNetDropToClient) = 0.01;
  config.faults.at(FaultSite::kNetDuplicateToServer) = 0.005;
  config.faults.at(FaultSite::kNetDuplicateToClient) = 0.005;
  config.faults.at(FaultSite::kNetCorruptToServer) = 0.02;
  config.faults.at(FaultSite::kNetCorruptToClient) = 0.02;
  config.faults.at(FaultSite::kPcieReadCompletion) = 0.01;
  config.faults.at(FaultSite::kPcieWriteCompletion) = 0.005;
  config.faults.at(FaultSite::kDramCorrectableFlip) = 0.1;
  config.faults.at(FaultSite::kDramUncorrectableFlip) = 0.05;
  // Scripted strikes so every fault class fires at least once regardless of
  // how the Bernoulli draws land for this seed.
  config.faults.schedule.push_back({FaultSite::kNetCorruptToServer, 3});
  config.faults.schedule.push_back({FaultSite::kNetCorruptToClient, 4});
  config.faults.schedule.push_back({FaultSite::kPcieReadCompletion, 7});
  config.faults.schedule.push_back({FaultSite::kPcieWriteCompletion, 9});
  config.faults.schedule.push_back({FaultSite::kDramCorrectableFlip, 2});
  config.faults.schedule.push_back({FaultSite::kDramUncorrectableFlip, 5});
  KvDirectServer server(config);

  constexpr uint64_t kKeys = 64;
  for (uint64_t k = 0; k < kKeys; k++) {
    EXPECT_TRUE(server.Load(Key(k), U64Value(0)).ok());
  }

  Client::Options options;
  options.timeout = 100 * kMicrosecond;
  options.max_ops_per_packet = 16;
  Client client(server, options);
  // Everything the soak does goes through the recorder; the checker then
  // proves linearizability of the whole run, not just the counted totals.
  HistoryRecorder recorder;
  RecordingEndpoint endpoint(client, recorder);

  // YCSB-style mix: `get_ratio` GETs, the rest fetch-and-add updates whose
  // effects are exactly countable (A: 0.5, B: 0.95).
  Rng mix(seed ^ 0x9c5b);
  std::vector<uint64_t> expected(kKeys, 0);
  constexpr uint64_t kOps = 2000;
  constexpr uint64_t kBatch = 100;
  for (uint64_t issued = 0; issued < kOps;) {
    for (uint64_t i = 0; i < kBatch; i++, issued++) {
      const uint64_t k = mix.NextBelow(kKeys);
      KvOperation op;
      op.key = Key(k);
      if (mix.NextDouble() < get_ratio) {
        op.opcode = Opcode::kGet;
      } else {
        op.opcode = Opcode::kUpdateScalar;
        op.param = 1;
        expected[k] += 1;
      }
      endpoint.Enqueue(std::move(op));
    }
    for (const auto& r : endpoint.Flush()) {
      EXPECT_EQ(r.code, ResultCode::kOk);
    }
  }

  ChaosOutcome outcome;
  for (uint64_t k = 0; k < kKeys; k++) {
    KvOperation get;
    get.opcode = Opcode::kGet;
    get.key = Key(k);
    endpoint.Enqueue(std::move(get));
  }
  std::vector<KvResultMessage> final_reads = endpoint.Flush();
  EXPECT_EQ(final_reads.size(), kKeys);
  for (uint64_t k = 0; k < final_reads.size(); k++) {
    EXPECT_EQ(final_reads[k].code, ResultCode::kOk) << k;
    outcome.final_values.push_back(AsU64(final_reads[k].value));
    // Linearizable, exactly-once: every update applied exactly once.
    EXPECT_EQ(outcome.final_values.back(), expected[k]) << k;
  }

  // The recorded history must linearize and honor the session guarantees.
  CheckOptions check;
  for (uint64_t k = 0; k < kKeys; k++) {
    check.initial_values[Key(k)] = U64Value(0);
  }
  const CheckReport lin = CheckLinearizability(recorder.history(), check);
  EXPECT_TRUE(lin.ok()) << lin.ToString();
  const AuditReport audit = AuditSessionGuarantees(recorder.history());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  outcome.history_fingerprint = recorder.history().Fingerprint();
  outcome.check_report = lin.ToString() + audit.ToString();

  // Faults of every class actually struck.
  EXPECT_GT(server.network().packets_dropped(), 0u);
  EXPECT_GT(server.network().packets_duplicated(), 0u);
  EXPECT_GT(server.network().packets_corrupted(), 0u);
  EXPECT_GT(server.dma().read_retries() + server.dma().write_retries(), 0u);
  EXPECT_GT(server.nic_dram().ecc_correctable_injected(), 0u);
  // Every correctable flip corrected; every uncorrectable one demoted.
  EXPECT_EQ(server.nic_dram().ecc_corrected_words(),
            server.nic_dram().ecc_correctable_injected());
  EXPECT_EQ(server.dispatcher().stats().ecc_demotions,
            server.nic_dram().ecc_uncorrectable_injected());

  outcome.metrics_json = server.metrics().ToJson();
  outcome.packets_sent = client.stats().packets_sent;
  outcome.retransmits = client.stats().retransmits;
  return outcome;
}

TEST(ChaosSoakTest, YcsbAUnderSimultaneousFaults) {
  const ChaosOutcome outcome = RunChaos(0.5, 2026);
  // Bounded retry amplification: < 2x of the fault-free packet count.
  EXPECT_LT(outcome.packets_sent + outcome.retransmits,
            2 * outcome.packets_sent);
  EXPECT_GT(outcome.retransmits, 0u);
}

TEST(ChaosSoakTest, YcsbBUnderSimultaneousFaults) {
  const ChaosOutcome outcome = RunChaos(0.95, 777);
  EXPECT_LT(outcome.packets_sent + outcome.retransmits,
            2 * outcome.packets_sent);
}

TEST(ChaosSoakTest, ReplayingTheScheduleIsBitIdentical) {
  const ChaosOutcome first = RunChaos(0.5, 2026);
  const ChaosOutcome second = RunChaos(0.5, 2026);
  EXPECT_EQ(first.final_values, second.final_values);
  EXPECT_EQ(first.packets_sent, second.packets_sent);
  EXPECT_EQ(first.retransmits, second.retransmits);
  // The full metric surface — every counter, gauge, histogram — replays
  // bit-for-bit, faults included.
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  // So do the recorded history and the checker's verdict over it.
  EXPECT_EQ(first.history_fingerprint, second.history_fingerprint);
  EXPECT_EQ(first.check_report, second.check_report);
}

}  // namespace
}  // namespace kvd
