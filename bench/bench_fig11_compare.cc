// Figure 11: memory accesses per KV operation — KV-Direct chaining versus
// MemC3 bucketized cuckoo and FaRM chained-associative hopscotch, for small
// (10 B) and large (252 B, the paper's "254 B" class) KVs, GET and PUT,
// across memory utilizations.
//
// Comparison setup follows §5.1.1: baseline keys are inline in the index and
// compared in parallel; values live in slab-allocated memory. Memory
// utilization = stored key+value bytes / total memory (index + heap).
//
// Paper shape: KV-Direct GETs cost ~1 access inline (~2 non-inline) and PUTs
// ~2 (~3); hopscotch GETs stay flat (single neighborhood read) but its PUTs
// blow up at high utilization; cuckoo pays up to 2 reads per GET and heavy
// displacement churn on PUT; the baselines top out near half the utilization
// KV-Direct sustains for small KVs.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>

#include "bench/hash_bench_util.h"
#include "src/baseline/cuckoo_hash_table.h"
#include "src/baseline/hopscotch_hash_table.h"
#include "src/common/table_printer.h"

namespace kvd {
namespace {

constexpr uint64_t kTotalMemory = 8 * kMiB;

struct Cost {
  double get = -1;
  double put = -1;
  double max_util = 0;
};

std::string Fmt(double v) { return v < 0 ? "n/a" : TablePrinter::Num(v, 2); }

// --- KV-Direct ---
// The paper tunes the hash index ratio per KV size and required utilization
// (Figure 10): the largest ratio that still accommodates the corpus gives the
// minimal access count. This probe walks ratios downward until one fits.
Cost MeasureKvDirect(uint32_t kv_size, double utilization) {
  const bool inline_kvs = kv_size <= kMaxInlineKvBytes;
  Cost cost;
  for (double ratio : {0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05}) {
    HashIndexConfig config;
    config.memory_size = kTotalMemory;
    config.inline_threshold_bytes = inline_kvs ? 25 : 10;
    config.hash_index_ratio = ratio;
    bench::HashRig rig(config);
    const uint64_t keys = bench::FillToUtilization(rig, kv_size, utilization);
    cost.max_util = std::max(cost.max_util, rig.index.Utilization());
    if (rig.index.Utilization() < utilization * 0.98) {
      continue;  // this ratio cannot hold the corpus; try a smaller index
    }
    const auto measured = bench::MeasureAccessCost(rig, keys, kv_size);
    cost.get = measured.get;
    cost.put = measured.put;
    return cost;
  }
  return cost;
}

// --- baselines: shared fill/measure over any table with Get/Put ---
template <typename Table>
Cost MeasureBaseline(Table& table, AccessEngine& engine, uint64_t total_memory,
                     uint32_t kv_size, double utilization) {
  const uint32_t value_size = kv_size - 8;
  uint64_t id = 0;
  uint64_t payload = 0;
  uint64_t stored = 0;
  int consecutive_failures = 0;
  Cost cost;
  // Individual inserts may fail (cuckoo path bound, hopscotch displacement);
  // real systems would resize or chain, so the fill keeps going until the
  // structure is genuinely saturated.
  while (static_cast<double>(payload) / static_cast<double>(total_memory) <
         utilization) {
    const std::vector<uint8_t> value(value_size, static_cast<uint8_t>(id));
    if (table.Put(bench::Key(id), value).ok()) {
      payload += kv_size;
      stored++;
      consecutive_failures = 0;
    } else if (++consecutive_failures > 64) {
      break;
    }
    id++;
  }
  cost.max_util = static_cast<double>(payload) / static_cast<double>(total_memory);
  if (cost.max_util < utilization * 0.98) {
    return cost;
  }
  constexpr int kSamples = 2000;
  Rng rng(7);
  std::vector<uint8_t> out;
  AccessStats before = engine.stats();
  for (int i = 0; i < kSamples; i++) {
    (void)table.Get(bench::Key(rng.NextBelow(id)), out);
  }
  cost.get = static_cast<double>((engine.stats() - before).total()) / kSamples;
  before = engine.stats();
  for (int i = 0; i < kSamples; i++) {
    const std::vector<uint8_t> value(value_size, static_cast<uint8_t>(i));
    (void)table.Put(bench::Key(rng.NextBelow(id)), value);
  }
  cost.put = static_cast<double>((engine.stats() - before).total()) / kSamples;
  return cost;
}

// Index sized so slots (at ~95% load) plus value slabs fill total memory.
uint64_t DesiredSlots(uint32_t kv_size) {
  const uint32_t slab = std::bit_ceil(std::max(8u, kv_size - 8 + 2));
  return kTotalMemory / (16 + slab);
}

uint64_t CuckooBuckets(uint32_t kv_size) {
  // Power-of-two bucket count, rounded *down* so the heap keeps some room.
  return std::bit_floor(DesiredSlots(kv_size) / 4);
}

SlabConfig BaselineSlabConfig(uint64_t index_bytes) {
  SlabConfig slab;
  slab.region_base = index_bytes;
  slab.region_size = (kTotalMemory - index_bytes) / 512 * 512;
  slab.min_slab_bytes = 8;  // small values: 8 B slabs avoid 32 B waste
  return slab;
}

Cost MeasureCuckoo(uint32_t kv_size, double utilization) {
  const uint64_t buckets = CuckooBuckets(kv_size);
  const uint64_t index_bytes = buckets * 64;
  if (index_bytes >= kTotalMemory) {
    return {};
  }
  HostMemory memory(kTotalMemory);
  AccessEngine engine(memory);
  SlabAllocator allocator(BaselineSlabConfig(index_bytes));
  CuckooConfig config;
  config.num_buckets = buckets;
  CuckooHashTable table(engine, allocator, config);
  return MeasureBaseline(table, engine, kTotalMemory, kv_size, utilization);
}

Cost MeasureHopscotch(uint32_t kv_size, double utilization) {
  const uint64_t slots = DesiredSlots(kv_size) / 4 * 4;
  const uint64_t index_bytes = slots * 16;
  if (slots == 0 || index_bytes >= kTotalMemory) {
    return {};
  }
  HostMemory memory(kTotalMemory);
  AccessEngine engine(memory);
  SlabAllocator allocator(BaselineSlabConfig(index_bytes));
  HopscotchConfig config;
  config.num_slots = slots;
  HopscotchHashTable table(engine, allocator, config);
  return MeasureBaseline(table, engine, kTotalMemory, kv_size, utilization);
}

void RunPanel(uint32_t kv_size) {
  std::printf("\n--- KV size %u B ---\n", kv_size);
  TablePrinter get_table({"utilization_%", "KV-Direct_get", "MemC3_get", "FaRM_get"});
  TablePrinter put_table({"utilization_%", "KV-Direct_put", "MemC3_put", "FaRM_put"});
  for (double util : {0.10, 0.20, 0.30, 0.40, 0.50, 0.60}) {
    const Cost kvd = MeasureKvDirect(kv_size, util);
    const Cost memc3 = MeasureCuckoo(kv_size, util);
    const Cost farm = MeasureHopscotch(kv_size, util);
    get_table.AddRow({TablePrinter::Num(util * 100, 0), Fmt(kvd.get),
                      Fmt(memc3.get), Fmt(farm.get)});
    put_table.AddRow({TablePrinter::Num(util * 100, 0), Fmt(kvd.put),
                      Fmt(memc3.put), Fmt(farm.put)});
  }
  std::printf("GET accesses per op:\n");
  get_table.Print();
  std::printf("PUT accesses per op:\n");
  put_table.Print();
}

}  // namespace
}  // namespace kvd

int main() {
  std::printf(
      "\n=== Figure 11 — memory accesses per op: KV-Direct vs MemC3 vs FaRM ===\n");
  kvd::RunPanel(13);   // small class (3 slots inline, like the paper's 10 B)
  kvd::RunPanel(252);  // the paper's "254 B" class
  std::printf(
      "\npaper: KV-Direct ~1 access/GET and ~2/PUT inline (+1 non-inline);\n"
      "hopscotch GET flat but PUT worst at high utilization; cuckoo between;\n"
      "baselines cannot reach the small-KV utilizations KV-Direct sustains\n"
      "('n/a' rows)\n");
  return 0;
}
