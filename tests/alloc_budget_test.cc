// Heap-allocation budget of the served access path.
//
// A replaced global operator new counts every allocation in the process.
// Each test warms a KvDirectServer, pre-builds its operations, and then
// counts the allocations made while framed batches of them travel client
// Enqueue -> wire -> frame endpoint -> KV processor -> hash index -> load
// dispatcher -> DMA/PCIe/NIC-DRAM models -> retirement -> response decode.
// The per-access hops (event core, completion records, hash bucket parsing,
// the admitted-op table) allocate nothing once warm, so what remains is
// per-op data and per-packet buffers; the bounds below hold that line.
//
// The same fixture counts key hashes: a framed op is hashed once, and that
// hash serves both the bucket prefetch and the admission. Key hashes are
// counted through a cluster too (the client's one routing digest per op,
// plus one per replica that submits it) and through bench::Preload (one per
// key).
//
// The replicated cases run the same framed batches through a
// ReplicatedClient into a three-replica ReplicationGroup, where each write
// also pays the log append, the shipped append windows, the backups' applies
// and the session record.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/cluster/cluster_client.h"
#include "src/cluster/coordinator.h"
#include "src/core/kv_direct.h"
#include "src/replica/replicated_client.h"
#include "src/replica/replication_group.h"
#include "src/transport/kv_endpoint.h"

namespace {

uint64_t g_allocations = 0;
uint64_t g_key_hashes = 0;

}  // namespace

#ifdef KVD_WRAP_HASH_BYTES
// kvd::HashBytes(std::span<const uint8_t>, uint64_t), which HashKey calls:
// tests/CMakeLists.txt has the linker send calls to it here where the
// linker can.
extern "C" uint64_t __real__ZN3kvd9HashBytesESt4spanIKhLm18446744073709551615EEm(
    std::span<const uint8_t> data, uint64_t seed);
extern "C" uint64_t __wrap__ZN3kvd9HashBytesESt4spanIKhLm18446744073709551615EEm(
    std::span<const uint8_t> data, uint64_t seed) {
  g_key_hashes++;
  return __real__ZN3kvd9HashBytesESt4spanIKhLm18446744073709551615EEm(data, seed);
}
#endif

void* operator new(std::size_t size) {
  g_allocations++;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kvd {
namespace {

constexpr uint64_t kKeys = 100000;  // far more keys than the 1024 station slots
constexpr uint32_t kBatch = 250;
constexpr uint64_t kCountedOps = 10000;
// Allocations per op left on the framed path: the GET value copy, the
// client's decoded result, and the packet/response buffers amortized over a
// batch. The server decodes each op as a view of the received packet, so
// its key and value are not copied. Each op completes through its packet's
// pooled batch record, so no per-op closure allocates. With libstdc++ GETs
// measured 4.75 and PUTs 4.01 with a heap-allocated closure per op, 3.37
// and 2.61 with pooled batch records, 2.31 and 0.51 with ops that view the
// packet, and 2.28 and 0.45 once the server decodes into a reused vector;
// the bounds allow 5% above the last figures.
constexpr double kMaxAllocationsPerGet = 2.39;
constexpr double kMaxAllocationsPerPut = 0.48;

// The replicated cases store 60 B KVs (8 B keys, 52 B values) in a 16 MiB
// region per replica, as the benchmark's RF3 workload does.
constexpr uint64_t kReplicatedKeys = 20000;
constexpr size_t kReplicatedValueBytes = 52;
// A replicated GET is the framed GET plus the group request header; a PUT
// adds its log entry, session record, append-window frames and the backups'
// applies. Measured with libstdc++: GETs 4.98 per op with ordered per-key
// replica state, 4.94 with hashed state, 3.48 with pooled batch records;
// PUTs 35.28 with ordered state and three copies of each op, 27.69 with
// hashed state and one copy, 16.62 with pooled batch records, windows
// encoded straight from the log and moved into the backups' logs (16.53
// by the time the next change landed), 15.33 with the client's read
// watermarks in a flat table of key hashes (no key vector and no node per
// newly written key), and GETs 2.35 and PUTs 9.07 once the replicas'
// processors borrow ops instead of copying them (a read views its packet; a
// write is copied once, for its log entry, and the backups' applies view
// their log entries), and GETs 2.31 and PUTs 8.95 once the replicas decode
// into a reused vector. The bounds allow 5% above the last figures.
constexpr double kMaxAllocationsPerReplicatedGet = 2.43;
constexpr double kMaxAllocationsPerReplicatedPut = 9.40;

std::vector<uint8_t> KeyFor(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, sizeof(id));
  return key;
}

std::vector<uint8_t> ValueFor(uint64_t id, uint64_t version, size_t bytes = 8) {
  std::vector<uint8_t> value(bytes, static_cast<uint8_t>(version));
  const uint64_t word = id * 0x9e3779b97f4a7c15ULL + version;
  std::memcpy(value.data(), &word, sizeof(word));
  return value;
}

KvOperation MakeOp(Opcode opcode, uint64_t id, uint64_t version,
                   size_t value_bytes) {
  KvOperation op;
  op.opcode = opcode;
  op.key = KeyFor(id);
  if (opcode == Opcode::kPut) {
    op.value = ValueFor(id, version, value_bytes);
  }
  return op;
}

// Issues `ops` operations of `opcode` in framed batches over a strided walk
// of `num_keys` keys; returns the allocations made while they ran.
uint64_t RunBatches(KvEndpoint& endpoint, Opcode opcode, uint64_t& next,
                    uint64_t ops, uint64_t num_keys, size_t value_bytes) {
  uint64_t counted = 0;
  for (uint64_t issued = 0; issued < ops; issued += kBatch) {
    std::vector<KvOperation> batch;
    batch.reserve(kBatch);
    for (uint32_t i = 0; i < kBatch; i++, next++) {
      batch.push_back(MakeOp(opcode, next * 7919 % num_keys, next, value_bytes));
    }
    const uint64_t before = g_allocations;
    for (KvOperation& op : batch) {
      endpoint.Enqueue(std::move(op));
    }
    const std::vector<KvResultMessage> results = endpoint.Flush();
    counted += g_allocations - before;
    EXPECT_EQ(results.size(), kBatch);
    for (const KvResultMessage& result : results) {
      EXPECT_EQ(result.code, ResultCode::kOk);
    }
  }
  return counted;
}

// A preloaded server plus a client that has already pushed warm-up traffic
// through every layer, so pools, rings and scratch buffers are at size.
class AllocBudgetTest : public ::testing::Test {
 public:
  static ServerConfig Config() {
    ServerConfig config;
    config.kvs_memory_bytes = 16 * kMiB;
    config.nic_dram.capacity_bytes = 1 * kMiB;
    config.AutoTune(16, /*long_tail=*/false);
    return config;
  }

 protected:
  AllocBudgetTest() : server_(Config()), client_(server_) {
    for (uint64_t id = 0; id < kKeys; id++) {
      KVD_CHECK(server_.Load(KeyFor(id), ValueFor(id, 0)).ok());
    }
    uint64_t next = 0;
    for (int round = 0; round < 2; round++) {
      RunBatches(Opcode::kGet, next, 8 * kBatch);
      RunBatches(Opcode::kPut, next, 8 * kBatch);
    }
  }

  uint64_t RunBatches(Opcode opcode, uint64_t& next, uint64_t ops) {
    return kvd::RunBatches(client_, opcode, next, ops, kKeys, 8);
  }

  KvDirectServer server_;
  Client client_;
};

TEST_F(AllocBudgetTest, FramedGetsStayWithinBudget) {
  uint64_t next = 1000;
  const uint64_t allocations = RunBatches(Opcode::kGet, next, kCountedOps);
  const double per_op = static_cast<double>(allocations) / kCountedOps;
  RecordProperty("allocations_per_get", std::to_string(per_op));
  std::printf("allocations per framed GET: %.2f\n", per_op);
  EXPECT_LE(per_op, kMaxAllocationsPerGet);
}

// Each framed op's key is hashed once, for the bucket prefetch and the
// admission both.
TEST_F(AllocBudgetTest, FramedOpsHashTheirKeyOnce) {
#ifndef KVD_WRAP_HASH_BYTES
  GTEST_SKIP() << "this toolchain cannot wrap kvd::HashBytes to count calls";
#endif
  uint64_t next = 3000;
  for (const Opcode opcode : {Opcode::kGet, Opcode::kPut}) {
    const uint64_t before = g_key_hashes;
    RunBatches(opcode, next, kCountedOps);
    const double per_op = static_cast<double>(g_key_hashes - before) / kCountedOps;
    std::printf("key hashes per framed %s: %.2f\n", OpcodeName(opcode), per_op);
    EXPECT_EQ(per_op, 1.0) << OpcodeName(opcode);
  }
}

TEST_F(AllocBudgetTest, FramedPutsStayWithinBudget) {
  uint64_t next = 2000;
  const uint64_t allocations = RunBatches(Opcode::kPut, next, kCountedOps);
  const double per_op = static_cast<double>(allocations) / kCountedOps;
  RecordProperty("allocations_per_put", std::to_string(per_op));
  std::printf("allocations per framed PUT: %.2f\n", per_op);
  EXPECT_LE(per_op, kMaxAllocationsPerPut);
}

// A preloaded RF3 group plus a ReplicatedClient warmed like the
// single-server fixture: every replica's pipeline, the log and the
// replication links have carried traffic before anything is counted.
class ReplicatedAllocBudgetTest : public ::testing::Test {
 public:
  static ReplicationConfig Config() {
    ReplicationConfig config;
    config.num_replicas = 3;
    config.server.kvs_memory_bytes = 16 * kMiB;
    config.server.nic_dram.capacity_bytes = 1 * kMiB;
    config.server.AutoTune(8 + kReplicatedValueBytes, /*long_tail=*/false);
    return config;
  }

 protected:
  ReplicatedAllocBudgetTest() : group_(Config()), client_(group_) {
    for (uint64_t id = 0; id < kReplicatedKeys; id++) {
      KVD_CHECK(
          group_.Load(KeyFor(id), ValueFor(id, 0, kReplicatedValueBytes)).ok());
    }
    uint64_t next = 0;
    for (int round = 0; round < 2; round++) {
      RunBatches(Opcode::kGet, next, 8 * kBatch);
      RunBatches(Opcode::kPut, next, 8 * kBatch);
    }
  }

  uint64_t RunBatches(Opcode opcode, uint64_t& next, uint64_t ops) {
    return kvd::RunBatches(client_, opcode, next, ops, kReplicatedKeys,
                           kReplicatedValueBytes);
  }

  ReplicationGroup group_;
  ReplicatedClient client_;
};

TEST_F(ReplicatedAllocBudgetTest, FramedGetsStayWithinBudget) {
  uint64_t next = 1000;
  const uint64_t allocations = RunBatches(Opcode::kGet, next, kCountedOps);
  const double per_op = static_cast<double>(allocations) / kCountedOps;
  RecordProperty("allocations_per_replicated_get", std::to_string(per_op));
  std::printf("allocations per replicated framed GET: %.2f\n", per_op);
  EXPECT_LE(per_op, kMaxAllocationsPerReplicatedGet);
}

// Key hashes per framed op through a ClusterClient into two RF3 groups. The
// client takes one routing digest per op, for its partition and its read
// watermark both; on the server side each replica that submits the op
// hashes it once: the primary for a GET, the primary and both backups'
// applies for a PUT. The clock runs a millisecond before and after each
// count, so every committed write has reached both backups' applies.
TEST(ClusterHashCountTest, ClusterOpsHashTheirKeyOncePerReplica) {
#ifndef KVD_WRAP_HASH_BYTES
  GTEST_SKIP() << "this toolchain cannot wrap kvd::HashBytes to count calls";
#endif
  ClusterConfig config;
  config.num_groups = 2;
  config.num_partitions = 8;
  config.group = ReplicatedAllocBudgetTest::Config();
  ClusterCoordinator cluster(config);
  for (uint64_t id = 0; id < kReplicatedKeys; id++) {
    ASSERT_TRUE(cluster.Load(KeyFor(id), ValueFor(id, 0, kReplicatedValueBytes)).ok());
  }
  ClusterClient client(cluster);
  uint64_t next = 0;
  RunBatches(client, Opcode::kGet, next, 4 * kBatch, kReplicatedKeys,
             kReplicatedValueBytes);
  RunBatches(client, Opcode::kPut, next, 4 * kBatch, kReplicatedKeys,
             kReplicatedValueBytes);
  Simulator& sim = cluster.simulator();
  constexpr uint64_t kOps = 2000;
  for (const auto& [opcode, replicas] :
       {std::pair{Opcode::kGet, 1u}, std::pair{Opcode::kPut, 3u}}) {
    sim.RunUntil(sim.Now() + kMillisecond);
    const uint64_t before = g_key_hashes;
    RunBatches(client, opcode, next, kOps, kReplicatedKeys, kReplicatedValueBytes);
    sim.RunUntil(sim.Now() + kMillisecond);
    const uint64_t hashes = g_key_hashes - before;
    std::printf("key hashes per cluster %s: %.2f\n", OpcodeName(opcode),
                static_cast<double>(hashes) / kOps);
    EXPECT_EQ(hashes, kOps * (1 + replicas)) << OpcodeName(opcode);
  }
}

// bench::Preload prefetches each key's bucket with the key's hash and
// stores the key with that same hash.
TEST(PreloadHashCountTest, PreloadHashesEachKeyOnce) {
#ifndef KVD_WRAP_HASH_BYTES
  GTEST_SKIP() << "this toolchain cannot wrap kvd::HashBytes to count calls";
#endif
  KvDirectServer server(AllocBudgetTest::Config());
  WorkloadConfig workload_config;
  workload_config.num_keys = 20000;
  const YcsbWorkload workload(workload_config);
  const uint64_t before = g_key_hashes;
  ASSERT_EQ(bench::Preload(server, workload, workload_config.num_keys),
            workload_config.num_keys);
  EXPECT_EQ(g_key_hashes - before, workload_config.num_keys);
}

TEST_F(ReplicatedAllocBudgetTest, FramedPutsStayWithinBudget) {
  uint64_t next = 2000;
  const uint64_t allocations = RunBatches(Opcode::kPut, next, kCountedOps);
  const double per_op = static_cast<double>(allocations) / kCountedOps;
  RecordProperty("allocations_per_replicated_put", std::to_string(per_op));
  std::printf("allocations per replicated framed PUT: %.2f\n", per_op);
  EXPECT_LE(per_op, kMaxAllocationsPerReplicatedPut);
}

}  // namespace
}  // namespace kvd
