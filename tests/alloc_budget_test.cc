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
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/kv_direct.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

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
// Allocations per op left on the framed path: the op's key (and value) as
// the server decodes it, the GET value copy, the per-op completion closure
// and the packet/response buffers amortized over a batch. GETs measure 4.75
// and PUTs 4.01 with libstdc++.
constexpr double kMaxAllocationsPerGet = 8;
constexpr double kMaxAllocationsPerPut = 6;

std::vector<uint8_t> KeyFor(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, sizeof(id));
  return key;
}

std::vector<uint8_t> ValueFor(uint64_t id, uint64_t version) {
  std::vector<uint8_t> value(8);
  const uint64_t word = id * 0x9e3779b97f4a7c15ULL + version;
  std::memcpy(value.data(), &word, sizeof(word));
  return value;
}

KvOperation MakeOp(Opcode opcode, uint64_t id, uint64_t version) {
  KvOperation op;
  op.opcode = opcode;
  op.key = KeyFor(id);
  if (opcode == Opcode::kPut) {
    op.value = ValueFor(id, version);
  }
  return op;
}

// A preloaded server plus a client that has already pushed warm-up traffic
// through every layer, so pools, rings and scratch buffers are at size.
class AllocBudgetTest : public ::testing::Test {
 protected:
  static ServerConfig Config() {
    ServerConfig config;
    config.kvs_memory_bytes = 16 * kMiB;
    config.nic_dram.capacity_bytes = 1 * kMiB;
    config.AutoTune(16, /*long_tail=*/false);
    return config;
  }

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

  // Issues `ops` operations of `opcode` in framed batches over a strided walk
  // of the key space; returns the allocations made while they ran.
  uint64_t RunBatches(Opcode opcode, uint64_t& next, uint64_t ops) {
    uint64_t counted = 0;
    for (uint64_t issued = 0; issued < ops; issued += kBatch) {
      std::vector<KvOperation> batch;
      batch.reserve(kBatch);
      for (uint32_t i = 0; i < kBatch; i++, next++) {
        batch.push_back(MakeOp(opcode, next * 7919 % kKeys, next));
      }
      const uint64_t before = g_allocations;
      for (KvOperation& op : batch) {
        client_.Enqueue(std::move(op));
      }
      const std::vector<KvResultMessage> results = client_.Flush();
      counted += g_allocations - before;
      EXPECT_EQ(results.size(), kBatch);
      for (const KvResultMessage& result : results) {
        EXPECT_EQ(result.code, ResultCode::kOk);
      }
    }
    return counted;
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

TEST_F(AllocBudgetTest, FramedPutsStayWithinBudget) {
  uint64_t next = 2000;
  const uint64_t allocations = RunBatches(Opcode::kPut, next, kCountedOps);
  const double per_op = static_cast<double>(allocations) / kCountedOps;
  RecordProperty("allocations_per_put", std::to_string(per_op));
  std::printf("allocations per framed PUT: %.2f\n", per_op);
  EXPECT_LE(per_op, kMaxAllocationsPerPut);
}

}  // namespace
}  // namespace kvd
