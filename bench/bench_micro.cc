// Wall-clock microbenchmarks of the library's hot paths (google-benchmark).
// These complement the figure benches: they measure the *implementation's*
// speed on this host, not the simulated hardware.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_key.h"
#include "src/alloc/merger.h"
#include "src/alloc/slab_allocator.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/common/zipf.h"
#include "src/hash/hash_index.h"
#include "src/mem/access_engine.h"
#include "src/mem/host_memory.h"
#include "src/net/wire_format.h"

namespace kvd {
namespace {

struct BmRig {
  HostMemory memory;
  AccessEngine engine;
  SlabAllocator allocator;
  HashIndex index;

  static SlabConfig Slab(const HashIndexConfig& config) {
    const auto regions = config.ComputeRegions();
    SlabConfig slab;
    slab.region_base = regions.heap_base;
    slab.region_size = regions.heap_size;
    return slab;
  }
  explicit BmRig(const HashIndexConfig& config)
      : memory(config.memory_size),
        engine(memory),
        allocator(Slab(config)),
        index(engine, allocator, config) {}
};

HashIndexConfig BmConfig() {
  HashIndexConfig config;
  config.memory_size = 32 * kMiB;
  config.hash_index_ratio = 0.5;
  config.inline_threshold_bytes = 16;
  return config;
}

void BM_HashIndexGetInline(benchmark::State& state) {
  BmRig rig(BmConfig());
  constexpr uint64_t kKeys = 100000;
  const std::vector<uint8_t> value(8, 7);
  for (uint64_t i = 0; i < kKeys; i++) {
    (void)rig.index.Put(bench::Key(i), value);
  }
  Rng rng(1);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.index.Get(bench::Key(rng.NextBelow(kKeys)), out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HashIndexGetInline);

void BM_HashIndexPutInline(benchmark::State& state) {
  BmRig rig(BmConfig());
  constexpr uint64_t kKeys = 100000;
  const std::vector<uint8_t> value(8, 7);
  for (uint64_t i = 0; i < kKeys; i++) {
    (void)rig.index.Put(bench::Key(i), value);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.index.Put(bench::Key(rng.NextBelow(kKeys)), value));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HashIndexPutInline);

void BM_HashIndexGetSlab(benchmark::State& state) {
  BmRig rig(BmConfig());
  constexpr uint64_t kKeys = 20000;
  const std::vector<uint8_t> value(120, 7);
  for (uint64_t i = 0; i < kKeys; i++) {
    (void)rig.index.Put(bench::Key(i), value);
  }
  Rng rng(1);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.index.Get(bench::Key(rng.NextBelow(kKeys)), out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HashIndexGetSlab);

void BM_SlabAllocateFree(benchmark::State& state) {
  SlabConfig config;
  config.region_size = 16 * kMiB;
  SlabAllocator allocator(config);
  for (auto _ : state) {
    Result<uint64_t> r = allocator.Allocate(100);
    benchmark::DoNotOptimize(r);
    allocator.Free(*r, 100);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlabAllocateFree);

void BM_PacketEncodeDecode(benchmark::State& state) {
  std::vector<KvOperation> ops;
  for (int i = 0; i < 64; i++) {
    KvOperation op;
    op.opcode = Opcode::kPut;
    op.key = bench::Key(i);
    op.value.assign(16, static_cast<uint8_t>(i));
    ops.push_back(std::move(op));
  }
  for (auto _ : state) {
    PacketBuilder builder(8192);
    for (const auto& op : ops) {
      builder.Add(op);
    }
    PacketParser parser(builder.Finish());
    while (true) {
      auto next = parser.Next();
      if (!next.ok() || !next->has_value()) {
        break;
      }
      benchmark::DoNotOptimize(*next);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PacketEncodeDecode);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(1 << 20, 0.99);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.NextScrambled(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

void BM_RadixSortMerge(benchmark::State& state) {
  Rng rng(3);
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 1 << 16; i++) {
    offsets.push_back(rng.NextBelow(1 << 22) * 32);
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  RadixSortMerger merger(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(merger.Merge(offsets, 32));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(offsets.size()));
}
BENCHMARK(BM_RadixSortMerge);

}  // namespace
}  // namespace kvd

BENCHMARK_MAIN();
