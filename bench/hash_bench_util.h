// Helpers shared by the hash-table microbenchmarks (Figures 6, 9, 10, 11):
// build an index over a counting engine, fill it with fixed-size KVs to a
// target memory utilization, and measure average DMA-equivalent accesses per
// GET and per PUT.
#ifndef BENCH_HASH_BENCH_UTIL_H_
#define BENCH_HASH_BENCH_UTIL_H_

#include <memory>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/hash/hash_index.h"
#include "src/mem/access_engine.h"
#include "src/mem/host_memory.h"

namespace kvd {
namespace bench {

struct HashRig {
  HostMemory memory;
  AccessEngine engine;
  SlabAllocator allocator;
  HashIndex index;

  static SlabConfig SlabFor(const HashIndexConfig& config) {
    const auto regions = config.ComputeRegions();
    SlabConfig slab;
    slab.region_base = regions.heap_base;
    slab.region_size = regions.heap_size;
    slab.min_slab_bytes = config.min_slab_bytes;
    slab.max_slab_bytes = config.max_slab_bytes;
    return slab;
  }

  explicit HashRig(const HashIndexConfig& config)
      : memory(config.memory_base + config.memory_size),
        engine(memory),
        allocator(SlabFor(config)),
        index(engine, allocator, config) {}
};

inline std::vector<uint8_t> BenchKey(uint64_t id) {
  std::vector<uint8_t> key(8, 0);
  std::memcpy(key.data(), &id, 8);
  return key;
}

// Inserts kv_size-byte KVs (8 B key + value) until the index reaches
// `target_utilization` or the store fills. Returns the number of KVs stored.
inline uint64_t FillToUtilization(HashRig& rig, uint32_t kv_size,
                                  double target_utilization) {
  const uint32_t value_size = kv_size > 8 ? kv_size - 8 : 1;
  uint64_t id = 0;
  while (rig.index.Utilization() < target_utilization) {
    const std::vector<uint8_t> value(value_size, static_cast<uint8_t>(id));
    if (!rig.index.Put(BenchKey(id), value).ok()) {
      break;
    }
    id++;
  }
  return id;
}

struct AccessCost {
  double get = 0;  // accesses per GET
  double put = 0;  // accesses per PUT (same-size overwrite, steady state)
};

// Measures average accesses over `samples` random present keys.
inline AccessCost MeasureAccessCost(HashRig& rig, uint64_t keys_present,
                                    uint32_t kv_size, int samples = 2000) {
  AccessCost cost;
  if (keys_present == 0) {
    return cost;
  }
  const uint32_t value_size = kv_size > 8 ? kv_size - 8 : 1;
  Rng rng(7);
  std::vector<uint8_t> out;

  AccessStats before = rig.engine.stats();
  for (int i = 0; i < samples; i++) {
    (void)rig.index.Get(BenchKey(rng.NextBelow(keys_present)), out);
  }
  cost.get = static_cast<double>((rig.engine.stats() - before).total()) / samples;

  before = rig.engine.stats();
  for (int i = 0; i < samples; i++) {
    const std::vector<uint8_t> value(value_size, static_cast<uint8_t>(i));
    (void)rig.index.Put(BenchKey(rng.NextBelow(keys_present)), value);
  }
  cost.put = static_cast<double>((rig.engine.stats() - before).total()) / samples;
  return cost;
}

}  // namespace bench
}  // namespace kvd

#endif  // BENCH_HASH_BENCH_UTIL_H_
