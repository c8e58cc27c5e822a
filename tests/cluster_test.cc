// Cluster control plane: routed wire formats (byte-pinned legacy encodings,
// forged/truncated rejection), KeyRouter hash-contract stability, live shard
// migration (basic, frozen-window bounces, chaos on the copy stream with
// zero lost acked writes and exactly-once application), stale-client-map
// convergence, cluster-wide tracing (one tracer for every group),
// elasticity (add/remove groups), split relabeling, and the Rebalancer
// planning policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/check/history.h"
#include "src/check/linearizability.h"
#include "src/check/session_audit.h"
#include "src/cluster/cluster_client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/rebalancer.h"
#include "src/cluster/shard_map.h"
#include "src/common/hashing.h"
#include "src/common/key_router.h"
#include "src/common/units.h"
#include "src/net/wire_format.h"
#include "src/replica/replica_wire.h"
#include "tests/support/flight_dump_parser.h"

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

KvOperation Put(uint64_t id, uint64_t v) {
  KvOperation op;
  op.opcode = Opcode::kPut;
  op.key = Key(id);
  op.value = U64Value(v);
  return op;
}

KvOperation Get(uint64_t id) {
  KvOperation op;
  op.opcode = Opcode::kGet;
  op.key = Key(id);
  return op;
}

KvOperation AddU64(uint64_t id, uint64_t delta) {
  KvOperation op;
  op.opcode = Opcode::kUpdateScalar;
  op.key = Key(id);
  op.param = delta;
  op.function_id = kFnAddU64;
  return op;
}

ClusterConfig SmallClusterConfig(uint32_t groups = 2, uint32_t partitions = 4,
                                 uint32_t replicas = 3) {
  ClusterConfig config;
  config.num_groups = groups;
  config.num_partitions = partitions;
  config.group.num_replicas = replicas;
  config.group.server.kvs_memory_bytes = 8 * kMiB;
  config.group.server.nic_dram.capacity_bytes = 1 * kMiB;
  return config;
}

// A key id whose key hashes to `partition` under `router`.
uint64_t KeyInPartition(const KeyRouter& router, uint32_t partition,
                        uint64_t start = 0) {
  for (uint64_t id = start; id < start + 100000; id++) {
    if (router.PartitionOf(Key(id)) == partition) {
      return id;
    }
  }
  ADD_FAILURE() << "no key found for partition " << partition;
  return 0;
}

// --- routed wire formats ---

TEST(ClusterWireTest, UnroutedGroupRequestBytesArePinned) {
  // The legacy (pre-cluster) encoding must stay byte-identical: 8-byte LE
  // required_index, then the ops payload verbatim.
  GroupRequest request;
  request.required_index = 0x0102030405060708ull;
  request.ops_payload = {0xaa, 0xbb, 0xcc};
  const std::vector<uint8_t> bytes = EncodeGroupRequest(request);
  const std::vector<uint8_t> expected = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
                                         0x02, 0x01, 0xaa, 0xbb, 0xcc};
  EXPECT_EQ(bytes, expected);
}

TEST(ClusterWireTest, RoutedGroupRequestRoundTrips) {
  GroupRequest request;
  request.required_index = 77;
  request.has_route = true;
  request.map_epoch = 0x1122334455ull;
  request.partition = 19;
  request.ops_payload = {1, 2, 3, 4};
  const std::vector<uint8_t> bytes = EncodeGroupRequest(request);
  auto decoded = DecodeGroupRequestView(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().required_index, 77u);
  EXPECT_TRUE(decoded.value().has_route);
  EXPECT_EQ(decoded.value().map_epoch, 0x1122334455ull);
  EXPECT_EQ(decoded.value().partition, 19u);
  EXPECT_TRUE(std::ranges::equal(decoded.value().ops_payload, request.ops_payload));

  // The route rides the top bit of required_index; an unrouted request with
  // the same watermark has no extension and decodes with has_route=false.
  GroupRequest legacy;
  legacy.required_index = 77;
  legacy.ops_payload = request.ops_payload;
  const std::vector<uint8_t> legacy_bytes = EncodeGroupRequest(legacy);
  auto plain = DecodeGroupRequestView(legacy_bytes);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().has_route);
  EXPECT_EQ(EncodeGroupRequest(legacy).size() + 12,
            EncodeGroupRequest(request).size());
}

TEST(ClusterWireTest, TruncatedRouteExtensionIsRejected) {
  GroupRequest request;
  request.has_route = true;
  request.map_epoch = 9;
  request.partition = 3;
  request.ops_payload = {};
  std::vector<uint8_t> bytes = EncodeGroupRequest(request);
  // Chop every prefix of the 12-byte route extension: all must error, never
  // crash or mis-decode.
  for (size_t keep = 8; keep < bytes.size(); keep++) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_FALSE(DecodeGroupRequestView(cut).ok()) << "kept " << keep;
  }
}

TEST(ClusterWireTest, UnroutedGroupResponseBytesArePinned) {
  GroupResponse response;
  response.flags = kGroupRedirect;
  response.epoch = 2;
  response.primary_id = 1;
  response.assigned_index = 5;
  response.results_payload = {0x99};
  const std::vector<uint8_t> bytes = EncodeGroupResponse(response);
  const std::vector<uint8_t> expected = {
      0x01,                                            // flags
      0x02, 0, 0, 0, 0, 0, 0, 0,                       // epoch
      0x01, 0, 0, 0,                                   // primary_id
      0x05, 0, 0, 0, 0, 0, 0, 0,                       // assigned_index
      0x99};                                           // results payload
  EXPECT_EQ(bytes, expected);
}

TEST(ClusterWireTest, ShardBounceResponseRoundTrips) {
  for (const uint8_t flag : {kGroupWrongShard, kGroupMigrating}) {
    GroupResponse response;
    response.flags = flag;
    response.epoch = 4;
    response.primary_id = 2;
    response.map_epoch = 31;
    response.owner_group = 5;
    response.num_partitions = 24;
    auto decoded = DecodeGroupResponse(EncodeGroupResponse(response));
    ASSERT_TRUE(decoded.ok()) << int{flag};
    EXPECT_EQ(decoded.value().flags, flag);
    EXPECT_EQ(decoded.value().map_epoch, 31u);
    EXPECT_EQ(decoded.value().owner_group, 5u);
    EXPECT_EQ(decoded.value().num_partitions, 24u);
  }
}

TEST(ClusterWireTest, ForgedResponseFlagsAreRejected) {
  GroupResponse response;
  response.epoch = 1;
  std::vector<uint8_t> bytes = EncodeGroupResponse(response);
  for (const uint8_t forged : {0x10, 0x20, 0x40, 0x80, 0xff}) {
    std::vector<uint8_t> hostile = bytes;
    hostile[0] = forged;  // flags byte
    EXPECT_FALSE(DecodeGroupResponse(hostile).ok()) << int{forged};
  }
}

TEST(ClusterWireTest, TruncatedBounceContextIsRejected) {
  GroupResponse response;
  response.flags = kGroupWrongShard;
  response.map_epoch = 7;
  response.owner_group = 1;
  response.num_partitions = 8;
  std::vector<uint8_t> bytes = EncodeGroupResponse(response);
  // The bounce context is the trailing 16 bytes; every truncation into it
  // must be rejected.
  for (size_t cut = 1; cut <= 16; cut++) {
    std::vector<uint8_t> hostile(bytes.begin(), bytes.end() - cut);
    EXPECT_FALSE(DecodeGroupResponse(hostile).ok()) << "cut " << cut;
  }
}

TEST(ClusterWireTest, ShardBounceResultCodesAreWireLegal) {
  // kWrongShard / kMigrating ride EncodeResults inside bounce responses, so
  // they must be wire-legal; kTimedOut stays client-local above the ceiling.
  for (const ResultCode code : {ResultCode::kWrongShard, ResultCode::kMigrating}) {
    std::vector<KvResultMessage> in(1);
    in[0].code = code;
    auto decoded = DecodeResults(EncodeResults(in));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value()[0].code, code);
  }
  EXPECT_STREQ(ResultCodeName(ResultCode::kWrongShard), "WRONG_SHARD");
  EXPECT_STREQ(ResultCodeName(ResultCode::kMigrating), "MIGRATING");
  EXPECT_EQ(kMaxResultCodeByte, static_cast<uint8_t>(ResultCode::kMigrating));
  EXPECT_EQ(kMaxResultCodeByte + 1, static_cast<int>(ResultCode::kTimedOut));
}

// --- KeyRouter hash contract ---

TEST(ClusterRouterTest, RoutingStability) {
  // Pinned digests: HashBytes consumes key bytes in little-endian lane order
  // with seed 0x9c1c. These values must never change — a silent change
  // re-routes every key in every deployed map.
  EXPECT_EQ(HashBytes(Key(0), 0x9c1c), 0x10de85305dce0dc2ull);
  EXPECT_EQ(HashBytes(Key(1), 0x9c1c), 0x605c16e6f2f9ed63ull);
  EXPECT_EQ(HashBytes(Key(42), 0x9c1c), 0x8c564945a47980baull);
  EXPECT_EQ(HashBytes(Key(0xdeadbeef), 0x9c1c), 0x5d52860fdea03adcull);
  const char* s = "kv-direct";
  EXPECT_EQ(HashBytes(std::span<const uint8_t>(
                          reinterpret_cast<const uint8_t*>(s), 9),
                      0x9c1c),
            0xab9617f223fb31b6ull);

  // Pinned partition choices under the default 12-partition map.
  const KeyRouter router(12);
  EXPECT_EQ(router.PartitionOf(Key(0)), 10u);
  EXPECT_EQ(router.PartitionOf(Key(1)), 7u);
  EXPECT_EQ(router.PartitionOf(Key(2)), 9u);
  EXPECT_EQ(router.PartitionOf(Key(7)), 6u);
  EXPECT_EQ(router.PartitionOf(Key(1000)), 1u);

  // The router is exactly hash % N — the documented contract.
  for (uint64_t id = 0; id < 512; id++) {
    EXPECT_EQ(router.PartitionOf(Key(id)), HashBytes(Key(id), 0x9c1c) % 12);
  }
}

TEST(ClusterRouterTest, SplitRefinementProperty) {
  // h % 2N is h % N or h % N + N: doubling the partition count splits p into
  // exactly {p, p + N}, so a doubled map is a pure relabeling.
  for (const uint32_t n : {2u, 3u, 12u, 24u}) {
    const KeyRouter coarse(n);
    const KeyRouter fine(2 * n);
    for (uint64_t id = 0; id < 512; id++) {
      const uint32_t p = coarse.PartitionOf(Key(id));
      const uint32_t q = fine.PartitionOf(Key(id));
      EXPECT_TRUE(q == p || q == p + n) << "id " << id << " n " << n;
    }
  }
}

TEST(ClusterShardMapTest, InitialAndDoubled) {
  const ShardMap map = ShardMap::Initial(6, 2);
  EXPECT_EQ(map.epoch, 1u);
  ASSERT_EQ(map.num_partitions(), 6u);
  for (uint32_t p = 0; p < 6; p++) {
    EXPECT_EQ(map.OwnerOf(p), p % 2);
  }
  const ShardMap doubled = map.Doubled();
  ASSERT_EQ(doubled.num_partitions(), 12u);
  for (uint32_t p = 0; p < 6; p++) {
    EXPECT_EQ(doubled.OwnerOf(p), map.OwnerOf(p));
    EXPECT_EQ(doubled.OwnerOf(p + 6), map.OwnerOf(p));
  }
}

// --- cluster client + coordinator ---

TEST(ClusterClientTest, ShardsAndReplicatesOnOneSimulator) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  ClusterCoordinator cluster(config);
  ClusterClient client(cluster);

  std::map<uint64_t, uint64_t> expected;
  for (uint64_t i = 0; i < 32; i++) {
    client.Enqueue(Put(i, 5000 + i));
    expected[i] = 5000 + i;
  }
  for (const KvResultMessage& r : client.Flush()) {
    EXPECT_EQ(r.code, ResultCode::kOk);
  }
  // Both groups share one clock and both committed writes.
  EXPECT_EQ(&cluster.group(0).simulator(), &cluster.group(1).simulator());
  EXPECT_GT(cluster.group(0).commit_index(), 0u);
  EXPECT_GT(cluster.group(1).commit_index(), 0u);

  for (uint64_t i = 0; i < 32; i++) {
    client.Enqueue(Get(i));
  }
  std::vector<KvResultMessage> reads = client.Flush();
  ASSERT_EQ(reads.size(), 32u);
  for (uint64_t i = 0; i < 32; i++) {
    ASSERT_EQ(reads[i].code, ResultCode::kOk) << "key " << i;
    EXPECT_EQ(AsU64(reads[i].value), expected[i]) << "key " << i;
  }

  // Routing agrees with the published map and the shared KeyRouter.
  const KeyRouter router = cluster.router();
  for (uint64_t i = 0; i < 32; i++) {
    const uint32_t p = router.PartitionOf(Key(i));
    EXPECT_EQ(cluster.shard_map().OwnerOf(p), p % 2);
  }
  // No routed request was mis-counted: per-partition loads sum to ops served.
  uint64_t total = 0;
  for (const uint64_t ops : cluster.partition_ops()) {
    total += ops;
  }
  EXPECT_EQ(total, 64u);
}

TEST(ClusterClientTest, FullFramesFitTheBatchBudget) {
  // Packing must leave room for the frame header and the 20 B routed
  // GroupRequest header. The client network's MTU equals the default batch
  // budget (4096 B), so a frame over budget would cost a second wire segment.
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  ClusterCoordinator cluster(config);
  ClusterClient client(cluster);
  const KeyRouter router = cluster.router();
  // One partition, 58 B ops after the first (8 B key, 48 B value, copied
  // lengths): an 8 B header reservation would pack 70 of them into a 4098 B
  // frame.
  uint64_t id = 0;
  for (int i = 0; i < 300; i++) {
    id = KeyInPartition(router, 0, id);
    KvOperation op;
    op.opcode = Opcode::kPut;
    op.key = Key(id++);
    op.value.assign(48, static_cast<uint8_t>(i));
    client.Enqueue(std::move(op));
  }
  for (const KvResultMessage& r : client.Flush()) {
    ASSERT_EQ(r.code, ResultCode::kOk);
  }
  ReplicationGroup& group = cluster.group(cluster.shard_map().OwnerOf(0));
  uint64_t segments = 0;
  for (uint32_t r = 0; r < group.num_replicas(); r++) {
    segments += group.client_network(r).packets_to_server();
  }
  EXPECT_GT(client.stats().packets_sent, 1u);  // full frames, not one small one
  EXPECT_EQ(segments, client.stats().packets_sent + client.stats().retransmits);
}

TEST(ClusterMigrationTest, MovesAPartitionAndFlipsTheMap) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  ClusterCoordinator cluster(config);
  const KeyRouter router = cluster.router();

  // Seed keys across every partition; remember those in the moving one.
  const uint32_t partition = 0;
  const uint32_t from = cluster.shard_map().OwnerOf(partition);
  const uint32_t to = 1 - from;
  std::map<uint64_t, uint64_t> moved;
  for (uint64_t i = 0; i < 64; i++) {
    ASSERT_TRUE(cluster.Load(Key(i), U64Value(100 + i)).ok());
    if (router.PartitionOf(Key(i)) == partition) {
      moved[i] = 100 + i;
    }
  }
  ASSERT_FALSE(moved.empty());
  const uint64_t epoch_before = cluster.map_epoch();

  ASSERT_TRUE(cluster.StartMigration(partition, to).ok());
  EXPECT_TRUE(cluster.migration_active());
  cluster.DriveMigrationToCompletion();

  EXPECT_EQ(cluster.map_epoch(), epoch_before + 1);
  EXPECT_EQ(cluster.shard_map().OwnerOf(partition), to);
  EXPECT_EQ(cluster.stats().migrations_completed, 1u);
  EXPECT_GT(cluster.stats().copy_kvs, 0u);

  // Every moved key reads back at the destination; the source dropped them.
  for (const auto& [id, value] : moved) {
    KvResultMessage r = cluster.group(to).Execute(Get(id));
    ASSERT_EQ(r.code, ResultCode::kOk) << "key " << id;
    EXPECT_EQ(AsU64(r.value), value);
  }
  EXPECT_TRUE(cluster.group(from).SnapshotPartitionKvs(router, partition).empty());

  // A client with the fresh map reads them through the normal path.
  ClusterClient client(cluster);
  for (const auto& [id, value] : moved) {
    client.Enqueue(Get(id));
  }
  std::vector<KvResultMessage> reads = client.Flush();
  size_t slot = 0;
  for (const auto& [id, value] : moved) {
    ASSERT_EQ(reads[slot].code, ResultCode::kOk) << "key " << id;
    EXPECT_EQ(AsU64(reads[slot].value), value);
    slot++;
  }
}

// A cluster preload loads each group's replica 0 and clones it at the
// group's first heartbeat; a migration's installs into the live destination
// then take the per-replica path and clone nothing.
TEST(ClusterMigrationTest, PreloadClonesOnceAndInstallsLoadEveryReplica) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  ClusterCoordinator cluster(config);
  const KeyRouter router = cluster.router();
  const uint32_t partition = 0;
  const uint32_t to = 1 - cluster.shard_map().OwnerOf(partition);
  std::vector<uint64_t> moved;
  for (uint64_t i = 0; i < 256; i++) {
    ASSERT_TRUE(cluster.Load(Key(i), U64Value(i)).ok());
    if (router.PartitionOf(Key(i)) == partition) {
      moved.push_back(i);
    }
  }
  ASSERT_FALSE(moved.empty());
  Simulator& sim = cluster.simulator();
  sim.RunUntil(sim.Now() + 2 * config.group.heartbeat_interval);
  for (uint32_t g = 0; g < 2; g++) {
    EXPECT_EQ(cluster.group(g).stats().load_clones, 1u) << "group " << g;
  }

  ASSERT_TRUE(cluster.StartMigration(partition, to).ok());
  cluster.DriveMigrationToCompletion();
  ReplicationGroup& dest = cluster.group(to);
  EXPECT_EQ(dest.stats().load_clones, 1u);
  for (uint32_t r = 0; r < dest.num_replicas(); r++) {
    for (const uint64_t id : moved) {
      EXPECT_TRUE(dest.replica(r).index().Contains(Key(id)))
          << "replica " << r << " key " << id;
    }
  }
}

TEST(ClusterMigrationTest, StaleClientConvergesWithinTwoBounces) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  ClusterCoordinator cluster(config);
  const KeyRouter router = cluster.router();
  const uint32_t partition = 0;
  const uint64_t id = KeyInPartition(router, partition);
  ASSERT_TRUE(cluster.Load(Key(id), U64Value(1)).ok());

  // The client snapshots the map at epoch N, then the partition moves.
  ClusterClient client(cluster);
  const uint64_t cached_epoch = client.cached_map().epoch;
  const uint32_t to = 1 - cluster.shard_map().OwnerOf(partition);
  ASSERT_TRUE(cluster.StartMigration(partition, to).ok());
  cluster.DriveMigrationToCompletion();
  ASSERT_EQ(client.cached_map().epoch, cached_epoch);  // still stale

  // A write under the stale map must land at the new owner in at most two
  // wrong-shard bounces (one to learn the patch, one more only if a second
  // change raced in — none here).
  client.Enqueue(AddU64(id, 5));
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].code, ResultCode::kOk);
  EXPECT_GE(client.stats().wrong_shard_bounces, 1u);
  EXPECT_LE(client.stats().wrong_shard_bounces, 2u);
  EXPECT_GT(client.cached_map().epoch, cached_epoch);
  EXPECT_EQ(client.cached_map().OwnerOf(partition), to);
  EXPECT_EQ(cluster.group(to).stats().wrong_shard_bounces, 0u);

  KvResultMessage r = cluster.group(to).Execute(Get(id));
  ASSERT_EQ(r.code, ResultCode::kOk);
  EXPECT_EQ(AsU64(r.value), 6u);
}

TEST(ClusterMigrationTest, FrozenWindowBouncesWritesAndCompletes) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  // Stretch the freeze so a client write provably lands inside it.
  config.cutover_quiesce = 2 * kMillisecond;
  ClusterCoordinator cluster(config);
  const KeyRouter router = cluster.router();
  const uint32_t partition = 0;
  const uint64_t id = KeyInPartition(router, partition);
  ASSERT_TRUE(cluster.Load(Key(id), U64Value(10)).ok());
  const uint32_t from = cluster.shard_map().OwnerOf(partition);
  const uint32_t to = 1 - from;

  ASSERT_TRUE(cluster.StartMigration(partition, to).ok());
  Simulator& sim = cluster.simulator();
  while (cluster.migration_active() && cluster.migration_phase() != 3) {
    ASSERT_TRUE(sim.Step());
  }
  ASSERT_EQ(cluster.migration_phase(), 3);

  // A write issued inside the freeze bounces kMigrating at the source, backs
  // off, and completes against the new owner after the flip.
  ClusterClient client(cluster);
  client.Enqueue(AddU64(id, 7));
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].code, ResultCode::kOk);
  EXPECT_GE(client.stats().migrating_backoffs +
                client.stats().wrong_shard_bounces,
            1u);
  EXPECT_FALSE(cluster.migration_active());
  EXPECT_GE(cluster.group(from).stats().migrating_bounces +
                client.stats().wrong_shard_bounces,
            1u);

  KvResultMessage r = cluster.group(to).Execute(Get(id));
  ASSERT_EQ(r.code, ResultCode::kOk);
  EXPECT_EQ(AsU64(r.value), 17u);
}

// --- negative paths: overload and deadlines mid-bounce-chain ---

TEST(ClusterNegativePathTest, OverloadSurfacesThroughAWrongShardBounce) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  // A tiny destination pipeline: the re-routed read burst overruns the
  // admission queue past the overload ceiling, so the tail fast-rejects.
  config.group.server.processor.ooo.max_inflight = 4;
  config.group.server.processor.admission.overload_backlog = 8;
  ClusterCoordinator cluster(config);
  const KeyRouter router = cluster.router();
  const uint32_t partition = 0;
  std::vector<uint64_t> ids;
  for (uint64_t id = 0; ids.size() < 64 && id < 100000; id++) {
    if (router.PartitionOf(Key(id)) == partition) {
      ids.push_back(id);
      ASSERT_TRUE(cluster.Load(Key(id), U64Value(id)).ok());
    }
  }
  ASSERT_EQ(ids.size(), 64u);
  const uint32_t to = 1 - cluster.shard_map().OwnerOf(partition);

  ClusterClient client(cluster);  // snapshots the pre-migration map
  ASSERT_TRUE(cluster.StartMigration(partition, to).ok());
  cluster.DriveMigrationToCompletion();

  for (const uint64_t id : ids) {
    client.Enqueue(Get(id));
  }
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), ids.size());
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  for (size_t i = 0; i < results.size(); i++) {
    ok += results[i].code == ResultCode::kOk ? 1 : 0;
    overloaded += results[i].code == ResultCode::kOverloaded ? 1 : 0;
    if (results[i].code == ResultCode::kOk) {
      EXPECT_EQ(AsU64(results[i].value), ids[i]) << "key " << ids[i];
    }
  }
  // The packet bounced kWrongShard at the old owner (nothing executed
  // there), and the patched resend overran the new owner's admission
  // ceiling: the flush surfaces a mix of kOk and definite kOverloaded
  // rejections — never a hang, never a silent drop.
  EXPECT_EQ(ok + overloaded, results.size());
  EXPECT_GT(ok, 0u);
  EXPECT_GT(overloaded, 0u);
  EXPECT_GE(client.stats().wrong_shard_bounces, 1u);
  // A wrong-shard bounce retargets reads to the next replica, so the
  // rejections may land on any member of the destination group.
  uint64_t rejected = 0;
  for (uint32_t r = 0; r < config.group.num_replicas; r++) {
    rejected +=
        cluster.group(to).replica(r).processor().admission_stats().overload_rejected;
  }
  EXPECT_EQ(rejected, overloaded);
}

TEST(ClusterNegativePathTest, DeadlineExpiresInsideTheMigrationFreeze) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  // A freeze window far longer than the op's latency budget: the write can
  // only bounce kMigrating until its deadline passes.
  config.cutover_quiesce = 20 * kMillisecond;
  ClusterCoordinator cluster(config);
  const uint32_t partition = 0;
  const uint64_t id = KeyInPartition(cluster.router(), partition);
  ASSERT_TRUE(cluster.Load(Key(id), U64Value(10)).ok());
  const uint32_t from = cluster.shard_map().OwnerOf(partition);
  const uint32_t to = 1 - from;
  ASSERT_TRUE(cluster.StartMigration(partition, to).ok());
  Simulator& sim = cluster.simulator();
  while (cluster.migration_active() && cluster.migration_phase() != 3) {
    ASSERT_TRUE(sim.Step());
  }
  ASSERT_EQ(cluster.migration_phase(), 3);

  ClusterClient client(cluster);
  KvOperation op = AddU64(id, 7);
  op.deadline = sim.Now() + kMillisecond;  // expires well inside the freeze
  client.Enqueue(op);
  std::vector<KvResultMessage> results = client.Flush();
  ASSERT_EQ(results.size(), 1u);
  // The sender abandons the frame once the deadline passes mid-bounce-chain
  // instead of hammering the frozen partition for the full freeze window.
  EXPECT_EQ(results[0].code, ResultCode::kDeadlineExceeded);
  EXPECT_GE(client.stats().migrating_backoffs, 1u);
  EXPECT_GE(client.stats().deadline_failures, 1u);

  // Every attempt bounced at the gate, so the abandoned write never
  // executed: after the flip the value is untouched.
  cluster.DriveMigrationToCompletion();
  KvResultMessage r = cluster.group(to).Execute(Get(id));
  ASSERT_EQ(r.code, ResultCode::kOk);
  EXPECT_EQ(AsU64(r.value), 10u);
}

// Chaos soak: loss, duplication, and corruption on the copy stream plus a
// gray migration link, under sustained client increments to the moving
// partition. Faults never touch the client path, so every op is acked — and
// exactly-once across the cutover demands final == base + sum(acked deltas)
// for every key: a lost chunk that stayed lost, a resurrected stale value,
// or a double-applied forward all break the equality.
std::string RunMigrationChaosSoak(uint64_t seed) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  config.migration_faults.seed = seed;
  config.migration_faults.at(FaultSite::kNetDropToServer) = 0.10;
  config.migration_faults.at(FaultSite::kNetDuplicateToServer) = 0.05;
  config.migration_faults.at(FaultSite::kNetCorruptToServer) = 0.05;
  config.migration_faults.at(FaultSite::kNetDropToClient) = 0.10;  // acks
  config.copy_chunk_kvs = 4;  // many chunks => many chances to lose one
  ClusterCoordinator cluster(config);
  cluster.migration_network().SetGrayLink(/*to_server=*/true,
                                          /*latency_multiplier=*/4.0,
                                          /*loss_probability=*/0.05, seed);
  const KeyRouter router = cluster.router();
  const uint32_t partition = 0;
  const uint32_t to = 1 - cluster.shard_map().OwnerOf(partition);

  // Base values for every key we will touch.
  std::vector<uint64_t> ids;
  for (uint64_t id = 0; ids.size() < 24 && id < 100000; id++) {
    if (router.PartitionOf(Key(id)) == partition) {
      ids.push_back(id);
      EXPECT_TRUE(cluster.Load(Key(id), U64Value(1000 + id)).ok());
    }
  }
  EXPECT_EQ(ids.size(), 24u);

  ClusterClient client(cluster);
  HistoryRecorder recorder;
  RecordingEndpoint endpoint(client, recorder);
  std::map<uint64_t, uint64_t> acked_sum;
  uint64_t next_delta = 1;
  bool started = false;
  // Rounds of increments; the migration starts after the first round and
  // runs under the sustained writes.
  for (int round = 0; round < 30; round++) {
    for (const uint64_t id : ids) {
      endpoint.Enqueue(AddU64(id, next_delta));
    }
    const uint64_t round_delta = next_delta;
    std::vector<KvResultMessage> results = endpoint.Flush();
    for (size_t i = 0; i < ids.size(); i++) {
      EXPECT_EQ(results[i].code, ResultCode::kOk)
          << "round " << round << " key " << ids[i];
      if (results[i].code == ResultCode::kOk) {
        acked_sum[ids[i]] += round_delta;
      }
    }
    next_delta++;
    if (!started) {
      EXPECT_TRUE(cluster.StartMigration(partition, to).ok());
      started = true;
    }
  }
  if (cluster.migration_active()) {
    cluster.DriveMigrationToCompletion();
  }
  EXPECT_EQ(cluster.stats().migrations_completed, 1u);
  EXPECT_EQ(cluster.shard_map().OwnerOf(partition), to);

  // The strict invariant: every acked increment applied exactly once.
  for (const uint64_t id : ids) {
    KvResultMessage r = cluster.group(to).Execute(Get(id));
    EXPECT_EQ(r.code, ResultCode::kOk) << "key " << id;
    EXPECT_EQ(AsU64(r.value), 1000 + id + acked_sum[id]) << "key " << id;
  }
  // The chaos actually bit: the copy stream needed go-back-N recovery.
  EXPECT_GT(cluster.stats().copy_stream.retransmits +
                cluster.stats().copy_stream.stale_chunks,
            0u);

  // A quiescent read round through the recorded endpoint, so the history
  // carries a definite final observation of every counter.
  for (const uint64_t id : ids) {
    endpoint.Enqueue(Get(id));
  }
  std::vector<KvResultMessage> finals = endpoint.Flush();
  for (size_t i = 0; i < ids.size(); i++) {
    EXPECT_EQ(finals[i].code, ResultCode::kOk) << "key " << ids[i];
    EXPECT_EQ(AsU64(finals[i].value), 1000 + ids[i] + acked_sum[ids[i]]);
  }

  // The recorded history must linearize, honor session guarantees, and
  // account for every acked fetch-add exactly once across the cutover.
  CheckOptions check;
  std::map<std::vector<uint8_t>, uint64_t> base;
  for (const uint64_t id : ids) {
    check.initial_values[Key(id)] = U64Value(1000 + id);
    base[Key(id)] = 1000 + id;
  }
  const CheckReport lin = CheckLinearizability(recorder.history(), check);
  EXPECT_TRUE(lin.ok()) << lin.ToString();
  const AuditReport sessions = AuditSessionGuarantees(recorder.history());
  EXPECT_TRUE(sessions.ok()) << sessions.ToString();
  const AuditReport counters =
      AuditExactlyOnceCounters(recorder.history(), base);
  EXPECT_TRUE(counters.ok()) << counters.ToString();

  return cluster.metrics().ToJson() +
         "|epoch=" + std::to_string(cluster.map_epoch()) +
         "|forwards=" + std::to_string(cluster.stats().forwards) +
         "|retx=" + std::to_string(cluster.stats().copy_stream.retransmits) +
         "|history=" + recorder.history().Fingerprint() +
         "|check=" + lin.ToString() + counters.ToString();
}

TEST(ClusterMigrationTest, ChaosSoakLosesNoAckedWriteAndIsDeterministic) {
  const std::string a = RunMigrationChaosSoak(17);
  const std::string b = RunMigrationChaosSoak(17);
  EXPECT_EQ(a, b);  // bit-identical same-seed metrics JSON
  EXPECT_NE(a.find("kvd_cluster_migrations_total"), std::string::npos);
}

TEST(ClusterMigrationTest, CutoverTriggersFlightRecorderDump) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  config.enable_request_tracing = true;
  ClusterCoordinator cluster(config);
  const uint32_t partition = 0;
  ASSERT_TRUE(
      cluster.Load(Key(KeyInPartition(cluster.router(), partition)),
                   U64Value(3)).ok());
  ASSERT_TRUE(cluster.StartMigration(partition, 1).ok());
  cluster.DriveMigrationToCompletion();

  ASSERT_EQ(cluster.flight_recorder().dumps().size(), 1u);
  const FlightRecorder::Dump& dump = cluster.flight_recorder().dumps()[0];
  EXPECT_EQ(dump.trigger, FlightTrigger::kShardCutover);
  EXPECT_NE(dump.detail.find("partition 0"), std::string::npos);
  // The dump parses and carries the migration's span tree (the copy-stream
  // wire flights at minimum).
  ParsedFlightDump parsed;
  ASSERT_TRUE(ParseFlightDump(dump.json, &parsed).ok());
  EXPECT_EQ(parsed.trigger, "shard_cutover");
  EXPECT_GT(parsed.total_spans, 0u);
  EXPECT_GT(cluster.stats().copy_stream.chunks_sent, 0u);
  // The migration's synthetic op is no client op: the breakdown stays empty.
  EXPECT_EQ(cluster.tracer().breakdown().recorded(), 0u);
}

// --- tracing ---

// Every group (an added one too) and every replica records into the
// coordinator's tracer, and the client starts its traces there, so each
// cluster op lands in the coordinator's breakdown with its stages.
TEST(ClusterTracingTest, ClientOpsAreTracedInTheCoordinatorsTracer) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  config.enable_request_tracing = true;
  ClusterCoordinator cluster(config);
  cluster.AddGroup();
  for (uint32_t g = 0; g < cluster.num_groups(); g++) {
    EXPECT_EQ(&cluster.group(g).tracer(), &cluster.tracer()) << "group " << g;
    for (uint32_t r = 0; r < cluster.group(g).num_replicas(); r++) {
      EXPECT_EQ(&cluster.group(g).replica(r).tracer(), &cluster.tracer())
          << "group " << g << " replica " << r;
    }
  }

  ClusterClient client(cluster);
  constexpr uint64_t kKeys = 32;
  for (uint64_t i = 0; i < kKeys; i++) {
    client.Enqueue(Put(i, 7000 + i));
  }
  for (const KvResultMessage& r : client.Flush()) {
    EXPECT_EQ(r.code, ResultCode::kOk);
  }
  for (uint64_t i = 0; i < kKeys; i++) {
    client.Enqueue(Get(i));
  }
  for (const KvResultMessage& r : client.Flush()) {
    EXPECT_EQ(r.code, ResultCode::kOk);
  }

  const LatencyBreakdown& breakdown = cluster.tracer().breakdown();
  EXPECT_EQ(breakdown.recorded(), 2 * kKeys);
  for (const Opcode opcode : {Opcode::kPut, Opcode::kGet}) {
    EXPECT_EQ(breakdown.EndToEnd(opcode).count(), kKeys);
    EXPECT_EQ(breakdown.Stage(opcode, TracePoint::kServerReceive).count(), kKeys);
    EXPECT_EQ(breakdown.Stage(opcode, TracePoint::kResponseSent).count(), kKeys);
  }
  EXPECT_EQ(breakdown.Stage(Opcode::kPut, TracePoint::kReplCommit).count(), kKeys);
}

// A group's failover fires the coordinator's flight recorder: the cluster
// keeps one recorder, and its dump parses.
TEST(ClusterTracingTest, GroupFailoverDumpLandsInTheClusterRecorder) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  config.enable_request_tracing = true;
  ClusterCoordinator cluster(config);
  ClusterClient client(cluster);
  for (uint64_t i = 0; i < 16; i++) {
    client.Enqueue(Put(i, i));
  }
  for (const KvResultMessage& r : client.Flush()) {
    EXPECT_EQ(r.code, ResultCode::kOk);
  }

  ReplicationGroup& group = cluster.group(1);
  group.CrashReplica(group.primary_id());
  Simulator& sim = cluster.simulator();
  sim.RunUntil(sim.Now() + 5 * kMillisecond);
  ASSERT_GE(group.stats().failovers, 1u);

  const FlightRecorder::Dump* failover = nullptr;
  for (const FlightRecorder::Dump& dump : cluster.flight_recorder().dumps()) {
    if (dump.trigger == FlightTrigger::kFailover) {
      failover = &dump;
    }
  }
  ASSERT_NE(failover, nullptr);
  ParsedFlightDump parsed;
  ASSERT_TRUE(ParseFlightDump(failover->json, &parsed).ok());
  EXPECT_EQ(parsed.trigger, "failover");
}

// --- elasticity ---

TEST(ClusterElasticityTest, AddDrainRemoveGroup) {
  ClusterConfig config = SmallClusterConfig(2, 2, 3);
  ClusterCoordinator cluster(config);
  for (uint64_t i = 0; i < 32; i++) {
    ASSERT_TRUE(cluster.Load(Key(i), U64Value(i)).ok());
  }

  // Scale out: a fresh group owns nothing until a migration moves load on.
  const uint32_t fresh = cluster.AddGroup();
  EXPECT_EQ(fresh, 2u);
  EXPECT_TRUE(cluster.group_active(fresh));
  ASSERT_TRUE(cluster.StartMigration(0, fresh).ok());
  cluster.DriveMigrationToCompletion();
  EXPECT_EQ(cluster.shard_map().OwnerOf(0), fresh);

  // Scale in: group 0 still owns partition... check, then drain and remove.
  const uint32_t victim = 0;
  std::vector<uint32_t> owned;
  for (uint32_t p = 0; p < cluster.shard_map().num_partitions(); p++) {
    if (cluster.shard_map().OwnerOf(p) == victim) {
      owned.push_back(p);
    }
  }
  if (!owned.empty()) {
    EXPECT_FALSE(cluster.RemoveGroup(victim).ok());  // refused while owning
    for (const uint32_t p : owned) {
      ASSERT_TRUE(cluster.StartMigration(p, 1).ok());
      cluster.DriveMigrationToCompletion();
    }
  }
  EXPECT_TRUE(cluster.RemoveGroup(victim).ok());
  EXPECT_FALSE(cluster.group_active(victim));
  EXPECT_FALSE(cluster.RemoveGroup(victim).ok());  // already inactive

  // Data survived the reshuffle.
  ClusterClient client(cluster);
  for (uint64_t i = 0; i < 32; i++) {
    client.Enqueue(Get(i));
  }
  std::vector<KvResultMessage> reads = client.Flush();
  for (uint64_t i = 0; i < 32; i++) {
    ASSERT_EQ(reads[i].code, ResultCode::kOk) << "key " << i;
    EXPECT_EQ(AsU64(reads[i].value), i);
  }
}

TEST(ClusterElasticityTest, SplitDoublesTheMapWithoutMovingData) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  ClusterCoordinator cluster(config);
  for (uint64_t i = 0; i < 32; i++) {
    ASSERT_TRUE(cluster.Load(Key(i), U64Value(7 * i)).ok());
  }
  const ShardMap before = cluster.shard_map();
  ASSERT_TRUE(cluster.SplitPartitions().ok());
  const ShardMap& after = cluster.shard_map();
  EXPECT_EQ(after.num_partitions(), 8u);
  EXPECT_EQ(after.epoch, before.epoch + 1);

  // Pure relabeling: every key's owner is unchanged.
  for (uint64_t i = 0; i < 256; i++) {
    const uint32_t old_owner =
        before.OwnerOf(KeyRouter(4).PartitionOf(Key(i)));
    const uint32_t new_owner =
        after.OwnerOf(KeyRouter(8).PartitionOf(Key(i)));
    EXPECT_EQ(new_owner, old_owner) << "key " << i;
  }

  // A client that cached the pre-split map still reads correctly (same
  // owners), and a fresh client sees the finer map.
  ClusterClient client(cluster);
  EXPECT_EQ(client.cached_map().num_partitions(), 8u);
  for (uint64_t i = 0; i < 32; i++) {
    client.Enqueue(Get(i));
  }
  std::vector<KvResultMessage> reads = client.Flush();
  for (uint64_t i = 0; i < 32; i++) {
    ASSERT_EQ(reads[i].code, ResultCode::kOk);
    EXPECT_EQ(AsU64(reads[i].value), 7 * i);
  }
}

// --- rebalancer planning ---

TEST(RebalancerTest, DrainsInactiveGroupsFirst) {
  ShardMap map = ShardMap::Initial(6, 3);  // owners 0,1,2,0,1,2
  std::vector<uint64_t> load = {10, 10, 10, 10, 10, 10};
  std::vector<uint8_t> active = {1, 1, 0};  // group 2 is leaving
  RebalancePlan plan = Rebalancer::Plan(map, load, active);
  // Partitions 2 and 5 (owned by the inactive group) must both move.
  std::vector<uint32_t> moved;
  for (const RebalanceMove& m : plan.moves) {
    EXPECT_NE(m.to_group, 2u);
    moved.push_back(m.partition);
  }
  std::sort(moved.begin(), moved.end());
  EXPECT_EQ(moved, (std::vector<uint32_t>{2, 5}));
}

TEST(RebalancerTest, GreedyMovesReachTheTarget) {
  // Group 0 is a 3x hotspot: it owns the two hottest partitions.
  ShardMap map = ShardMap::Initial(6, 3);
  std::vector<uint64_t> load = {900, 100, 100, 900, 100, 100};
  std::vector<uint8_t> active = {1, 1, 1};
  // imbalance before: group0=1800, mean=733 => 2.45
  RebalancePlan plan =
      Rebalancer::Plan(map, load, active, Rebalancer::Options{1.25, 8});
  EXPECT_FALSE(plan.moves.empty());
  EXPECT_LE(plan.projected_imbalance, 1.25);
  EXPECT_FALSE(plan.needs_split);
  // Execute the plan against a copy of the owners and re-check.
  std::vector<uint64_t> group_load(3, 0);
  std::vector<uint32_t> owners = map.owners;
  for (const RebalanceMove& m : plan.moves) {
    owners[m.partition] = m.to_group;
  }
  for (uint32_t p = 0; p < 6; p++) {
    group_load[owners[p]] += load[p];
  }
  const uint64_t max_load =
      *std::max_element(group_load.begin(), group_load.end());
  EXPECT_LE(static_cast<double>(max_load), 1.25 * (2200.0 / 3.0));
}

TEST(RebalancerTest, SingleHotPartitionNeedsSplit) {
  ShardMap map = ShardMap::Initial(4, 2);
  // One partition carries nearly everything: no placement fixes that.
  std::vector<uint64_t> load = {10000, 10, 10, 10};
  std::vector<uint8_t> active = {1, 1};
  RebalancePlan plan = Rebalancer::Plan(map, load, active);
  EXPECT_TRUE(plan.needs_split);
}

TEST(RebalancerTest, BalancedClusterPlansNothing) {
  ShardMap map = ShardMap::Initial(6, 3);
  std::vector<uint64_t> load = {100, 100, 100, 100, 100, 100};
  std::vector<uint8_t> active = {1, 1, 1};
  RebalancePlan plan = Rebalancer::Plan(map, load, active);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_FALSE(plan.needs_split);
  EXPECT_LE(plan.projected_imbalance, 1.25);
}

TEST(ClusterCoordinatorTest, LoadCountersFeedGroupLoads) {
  ClusterConfig config = SmallClusterConfig(2, 4, 3);
  ClusterCoordinator cluster(config);
  ClusterClient client(cluster);
  for (uint64_t i = 0; i < 40; i++) {
    client.Enqueue(Put(i, i));
  }
  for (const KvResultMessage& r : client.Flush()) {
    ASSERT_EQ(r.code, ResultCode::kOk);
  }
  const std::vector<uint64_t> loads = cluster.GroupLoads();
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0] + loads[1], 40u);
  cluster.ResetLoadCounters();
  for (const uint64_t ops : cluster.partition_ops()) {
    EXPECT_EQ(ops, 0u);
  }
}

}  // namespace
}  // namespace kvd
