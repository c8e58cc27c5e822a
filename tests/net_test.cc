// Tests for the wire format (batching + flag-bit compression) and the
// network timing model (paper §4, Figure 15).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/units.h"
#include "src/net/kv_types.h"
#include "src/net/network_model.h"
#include "src/net/wire_format.h"
#include "src/sim/simulator.h"

namespace kvd {
namespace {

KvOperation MakeGet(std::vector<uint8_t> key) {
  KvOperation op;
  op.opcode = Opcode::kGet;
  op.key = std::move(key);
  return op;
}

KvOperation MakePut(std::vector<uint8_t> key, std::vector<uint8_t> value) {
  KvOperation op;
  op.opcode = Opcode::kPut;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

std::vector<KvOperation> RoundTrip(const std::vector<KvOperation>& ops,
                                   bool compression = true) {
  PacketBuilder builder(65536, compression);
  for (const auto& op : ops) {
    EXPECT_TRUE(builder.Add(op));
  }
  PacketParser parser(builder.Finish());
  std::vector<KvOperation> out;
  while (true) {
    auto next = parser.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) {
      break;
    }
    out.push_back(std::move(**next));
  }
  return out;
}

TEST(WireFormatTest, SingleOpRoundTrip) {
  const auto ops = RoundTrip({MakePut({1, 2, 3}, {9, 8, 7, 6})});
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].opcode, Opcode::kPut);
  EXPECT_EQ(ops[0].key, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(ops[0].value, (std::vector<uint8_t>{9, 8, 7, 6}));
}

TEST(WireFormatTest, MixedBatchRoundTrip) {
  std::vector<KvOperation> in;
  in.push_back(MakeGet({1, 1, 1}));
  in.push_back(MakePut({2, 2}, {5}));
  KvOperation update;
  update.opcode = Opcode::kUpdateScalar;
  update.key = {3, 3, 3, 3};
  update.param = 0xdeadbeef;
  update.function_id = kFnAddU64;
  update.element_width = 8;
  in.push_back(update);
  KvOperation reduce;
  reduce.opcode = Opcode::kReduce;
  reduce.key = {4};
  reduce.param = 42;
  reduce.function_id = kFnMaxU64;
  reduce.element_width = 4;
  in.push_back(reduce);

  const auto out = RoundTrip(in);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[2].param, 0xdeadbeefu);
  EXPECT_EQ(out[2].function_id, kFnAddU64);
  EXPECT_EQ(out[3].opcode, Opcode::kReduce);
  EXPECT_EQ(out[3].param, 42u);
  EXPECT_EQ(out[3].element_width, 4);
}

TEST(WireFormatTest, CompressionElidesRepeatedSizes) {
  // 100 PUTs with identical key/value sizes and identical values.
  std::vector<KvOperation> same;
  std::vector<KvOperation> varied;
  for (int i = 0; i < 100; i++) {
    same.push_back(MakePut({static_cast<uint8_t>(i), 0, 0, 0, 0, 0, 0, 0},
                           {42, 42, 42, 42, 42, 42, 42, 42}));
    varied.push_back(MakePut({static_cast<uint8_t>(i)},
                             std::vector<uint8_t>(1 + i % 7, static_cast<uint8_t>(i))));
  }
  PacketBuilder compressed(65536, true);
  PacketBuilder uncompressed(65536, false);
  for (const auto& op : same) {
    compressed.Add(op);
    uncompressed.Add(op);
  }
  // Compressed: first op full, then 2 B header + 8 B key each.
  EXPECT_LT(compressed.payload_size(), uncompressed.payload_size() * 6 / 10);
  // Round trip correctness both ways.
  const auto out = RoundTrip(same, true);
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); i++) {
    EXPECT_EQ(out[i].key, same[i].key);
    EXPECT_EQ(out[i].value, same[i].value);
  }
  const auto out_varied = RoundTrip(varied, true);
  ASSERT_EQ(out_varied.size(), 100u);
  for (size_t i = 0; i < out_varied.size(); i++) {
    EXPECT_EQ(out_varied[i].value, varied[i].value);
  }
}

TEST(WireFormatTest, BuilderRespectsPayloadBudget) {
  PacketBuilder builder(128, true);
  int added = 0;
  while (builder.Add(MakePut({1, 2, 3, 4}, std::vector<uint8_t>(30, 7)))) {
    added++;
  }
  EXPECT_GT(added, 1);
  EXPECT_LE(builder.payload_size(), 128u);
}

TEST(WireFormatTest, EncodedOperationSizeMatchesBuilder) {
  const KvOperation a = MakePut({1, 2, 3, 4}, std::vector<uint8_t>(16, 9));
  const KvOperation b = MakePut({5, 6, 7, 8}, std::vector<uint8_t>(16, 9));
  PacketBuilder builder(65536, true);
  builder.Add(a);
  const size_t after_first = builder.payload_size();
  builder.Add(b);
  const size_t delta = builder.payload_size() - after_first;
  EXPECT_EQ(delta, EncodedOperationSize(b, &a, true));
  EXPECT_EQ(after_first, EncodedOperationSize(a, nullptr, true));
}

TEST(WireFormatTest, ParserRejectsTruncatedPacket) {
  PacketBuilder builder(65536, true);
  builder.Add(MakePut({1, 2, 3}, {4, 5, 6}));
  std::vector<uint8_t> payload = builder.Finish();
  payload.resize(payload.size() - 2);  // chop the tail
  PacketParser parser(std::move(payload));
  auto r = parser.Next();
  EXPECT_FALSE(r.ok());
}

TEST(WireFormatTest, ParserRejectsBadCopyFlags) {
  // First op cannot copy sizes from a nonexistent predecessor.
  std::vector<uint8_t> payload = {static_cast<uint8_t>(Opcode::kGet),
                                  kFlagCopyKeyLen};
  PacketParser parser(std::move(payload));
  auto r = parser.Next();
  EXPECT_FALSE(r.ok());
}

TEST(WireFormatTest, ResultsRoundTrip) {
  std::vector<KvResultMessage> in(3);
  in[0].code = ResultCode::kOk;
  in[0].value = {1, 2, 3};
  in[1].code = ResultCode::kNotFound;
  in[2].code = ResultCode::kOk;
  in[2].scalar = 0x123456789abcdef0ull;
  auto decoded = DecodeResults(EncodeResults(in));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].value, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ((*decoded)[1].code, ResultCode::kNotFound);
  EXPECT_EQ((*decoded)[2].scalar, 0x123456789abcdef0ull);
  // Results encoded without an epoch (the pre-replication default) decode to
  // epoch 0 — single-server deployments round-trip unchanged.
  EXPECT_EQ((*decoded)[0].epoch, 0u);
}

TEST(WireFormatTest, ResultEpochRoundTrip) {
  std::vector<KvResultMessage> in(2);
  in[0].code = ResultCode::kOk;
  in[0].value = {7};
  in[0].epoch = 3;
  in[1].code = ResultCode::kOk;
  in[1].epoch = kMaxWireEpoch;  // the largest encodable epoch
  auto decoded = DecodeResults(EncodeResults(in));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].epoch, 3u);
  EXPECT_EQ((*decoded)[1].epoch, kMaxWireEpoch);
}

TEST(WireFormatTest, DecoderRejectsOutOfRangeEpoch) {
  std::vector<KvResultMessage> in(1);
  in[0].code = ResultCode::kOk;
  in[0].epoch = kMaxWireEpoch;
  std::vector<uint8_t> bytes = EncodeResults(in);
  // The epoch lives in bytes [1, 5) of the 17-byte result header; forge a
  // value above kMaxWireEpoch and the decoder must treat it as corruption.
  uint32_t forged = kMaxWireEpoch + 1;
  std::memcpy(bytes.data() + 1, &forged, sizeof(forged));
  EXPECT_FALSE(DecodeResults(bytes).ok());
}

TEST(NetworkModelTest, DeliveryAfterSerializationPlusLatency) {
  Simulator sim;
  NetworkModel net(sim, NetworkConfig{});
  SimTime delivered_at = 0;
  // 912 + 88 = 1000 B on the wire.
  net.SendPayloadToServer(std::vector<uint8_t>(912),
                          [&](std::vector<uint8_t>) { delivered_at = sim.Now(); });
  sim.RunUntilIdle();
  // 1000 B at 5 GB/s = 200 ns wire + 60 ns packet processing + 1 us latency.
  EXPECT_NEAR(static_cast<double>(delivered_at), 1260.0 * kNanosecond,
              1.0 * kNanosecond);
}

TEST(NetworkModelTest, DirectionsAreIndependent) {
  Simulator sim;
  NetworkModel net(sim, NetworkConfig{});
  SimTime up = 0;
  SimTime down = 0;
  net.SendPayloadToServer(std::vector<uint8_t>(912),
                          [&](std::vector<uint8_t>) { up = sim.Now(); });
  net.SendPayloadToClient(std::vector<uint8_t>(912),
                          [&](std::vector<uint8_t>) { down = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(up, down);  // no shared wire contention
}

TEST(NetworkModelTest, BackToBackPacketsQueueOnTheWire) {
  Simulator sim;
  NetworkModel net(sim, NetworkConfig{});
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 3; i++) {
    net.SendPayloadToServer(std::vector<uint8_t>(912),
                            [&](std::vector<uint8_t>) { arrivals.push_back(sim.Now()); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), 260.0 * kNanosecond,
              1.0 * kNanosecond);
  EXPECT_NEAR(static_cast<double>(arrivals[2] - arrivals[1]), 260.0 * kNanosecond,
              1.0 * kNanosecond);
}

TEST(NetworkModelTest, OversizedPayloadSegments) {
  Simulator sim;
  NetworkConfig config;
  config.max_payload_bytes = 1000;
  NetworkModel net(sim, config);
  bool done = false;
  net.SendPayloadToClient(std::vector<uint8_t>(2500),
                          [&](std::vector<uint8_t>) { done = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(net.packets_to_client(), 3u);
  EXPECT_EQ(net.bytes_to_client(), 2500u + 3 * 88);
}

TEST(NetworkModelTest, ByteAndPacketAccounting) {
  Simulator sim;
  NetworkModel net(sim, NetworkConfig{});
  net.SendPayloadToServer(std::vector<uint8_t>(100), [](std::vector<uint8_t>) {});
  net.SendPayloadToServer(std::vector<uint8_t>(200), [](std::vector<uint8_t>) {});
  sim.RunUntilIdle();
  EXPECT_EQ(net.packets_to_server(), 2u);
  EXPECT_EQ(net.bytes_to_server(), 300u + 2 * 88);
}

TEST(NetworkModelTest, PartitionIsPerDirection) {
  Simulator sim;
  NetworkModel net(sim, NetworkConfig{});
  net.SetPartitioned(/*to_server=*/true, true);
  // Asymmetric partition: requests vanish, responses still flow.
  int to_server = 0;
  int to_client = 0;
  net.SendPayloadToServer({1, 2, 3}, [&](std::vector<uint8_t>) { to_server++; });
  net.SendPayloadToClient({4, 5, 6}, [&](std::vector<uint8_t>) { to_client++; });
  sim.RunUntilIdle();
  EXPECT_EQ(to_server, 0);
  EXPECT_EQ(to_client, 1);
  EXPECT_EQ(net.partition_dropped(), 1u);
  // Healing restores delivery.
  net.SetPartitioned(/*to_server=*/true, false);
  net.SendPayloadToServer({1, 2, 3}, [&](std::vector<uint8_t>) { to_server++; });
  sim.RunUntilIdle();
  EXPECT_EQ(to_server, 1);
  EXPECT_EQ(net.partition_dropped(), 1u);
}

// A lost packet occupies the wire, but its arrival does nothing: it takes a
// reserved slot, not an event. No event runs, and RunUntilIdle still ends
// when a delivered copy would have arrived.
TEST(NetworkModelTest, LostPacketsExecuteNoEvent) {
  Simulator delivered_sim;
  NetworkModel delivered(delivered_sim, NetworkConfig{});
  delivered.SendPayloadToServer(std::vector<uint8_t>(912), [](std::vector<uint8_t>) {});
  delivered_sim.RunUntilIdle();
  ASSERT_EQ(delivered_sim.executed_events(), 1u);

  for (const bool partition : {true, false}) {
    Simulator sim;
    NetworkModel net(sim, NetworkConfig{});
    if (partition) {
      net.SetPartitioned(/*to_server=*/true, true);
    } else {
      net.SetGrayLink(/*to_server=*/true, 1.0, /*loss_probability=*/1.0);
    }
    net.SendPayloadToServer(std::vector<uint8_t>(912),
                            [](std::vector<uint8_t>) { ADD_FAILURE(); });
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.RunUntilIdle();
    EXPECT_EQ(sim.executed_events(), 0u);
    EXPECT_EQ(sim.Now(), delivered_sim.Now());
  }
}

TEST(NetworkModelTest, GrayLinkMultipliesLatency) {
  NetworkConfig config;
  Simulator healthy_sim;
  NetworkModel healthy(healthy_sim, config);
  SimTime healthy_at = 0;
  healthy.SendPayloadToServer({1}, [&](std::vector<uint8_t>) {
    healthy_at = healthy_sim.Now();
  });
  healthy_sim.RunUntilIdle();

  Simulator gray_sim;
  NetworkModel gray(gray_sim, config);
  gray.SetGrayLink(/*to_server=*/true, /*latency_multiplier=*/20.0,
                   /*loss_probability=*/0.0);
  SimTime gray_at = 0;
  gray.SendPayloadToServer({1}, [&](std::vector<uint8_t>) {
    gray_at = gray_sim.Now();
  });
  gray_sim.RunUntilIdle();
  ASSERT_GT(healthy_at, 0u);
  // The multiplier scales both occupancy and propagation, so the whole
  // delivery time stretches by exactly the configured factor.
  EXPECT_EQ(gray_at, healthy_at * 20);
}

TEST(NetworkModelTest, GrayLinkLossIsCountedAndSeeded) {
  Simulator sim;
  NetworkModel net(sim, NetworkConfig{});
  net.SetGrayLink(/*to_server=*/true, 1.0, /*loss_probability=*/1.0,
                  /*seed=*/7);
  int arrived = 0;
  for (int i = 0; i < 8; i++) {
    net.SendPayloadToServer({1}, [&](std::vector<uint8_t>) { arrived++; });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(arrived, 0);
  EXPECT_EQ(net.gray_dropped(), 8u);
  // Healing (multiplier 1, loss 0) restores delivery.
  net.SetGrayLink(/*to_server=*/true, 1.0, 0.0);
  net.SendPayloadToServer({1}, [&](std::vector<uint8_t>) { arrived++; });
  sim.RunUntilIdle();
  EXPECT_EQ(arrived, 1);
}

}  // namespace
}  // namespace kvd
