// Figure 6: average memory access count under varying inline thresholds
// (10 B, 15 B, 20 B, 25 B class) and memory utilizations.
//
// Workload: mixed KV sizes chosen to fill hash slots exactly (8/13/18/23 B
// key+value — each plus the 2 B inline header is a multiple of the 5 B slot,
// mirroring the paper's slot-aligned sizes), 50/50 GET / same-size PUT on
// present keys. Each threshold line is sampled at fractions of the maximum
// utilization that threshold can reach.
//
// Paper shape: access count rises with utilization (hash collisions chain);
// a higher inline threshold inlines more KVs but burns hash slots faster, so
// its curve climbs more steeply — which is why an optimal threshold exists
// for a required utilization.
#include <cstdio>

#include "bench/hash_bench_util.h"
#include "src/common/table_printer.h"

namespace kvd {
namespace {

constexpr uint64_t kMemory = 8 * kMiB;
// Slot-aligned sizes: kv + 2 B header = 10/15/20/25 B = 2..5 slots.
constexpr uint32_t kKvSizes[] = {8, 13, 18, 23};

struct Line {
  double max_utilization = 0;
  double accesses[5] = {0, 0, 0, 0, 0};  // at 30/50/70/85/95% of max
};

uint64_t FillMixed(bench::HashRig& rig, double target_utilization, Rng& rng) {
  uint64_t id = rig.index.num_kvs();
  while (rig.index.Utilization() < target_utilization) {
    const uint32_t kv = kKvSizes[id % std::size(kKvSizes)];
    const std::vector<uint8_t> value(kv - 8, static_cast<uint8_t>(id));
    if (!rig.index.Put(bench::Key(id), value).ok()) {
      break;
    }
    id++;
  }
  (void)rng;
  return id;
}

double MeasureMixedCost(bench::HashRig& rig, uint64_t keys_present) {
  constexpr int kSamples = 4000;
  std::vector<uint8_t> out;
  Rng rng(9);
  const AccessStats before = rig.engine.stats();
  for (int i = 0; i < kSamples; i++) {
    const uint64_t id = rng.NextBelow(keys_present);
    if (i % 2 == 0) {
      (void)rig.index.Get(bench::Key(id), out);
    } else {
      // Same-size overwrite: the size cycle is keyed by id, like the fill.
      const uint32_t kv = kKvSizes[id % std::size(kKvSizes)];
      const std::vector<uint8_t> value(kv - 8, static_cast<uint8_t>(i));
      (void)rig.index.Put(bench::Key(id), value);
    }
  }
  return static_cast<double>((rig.engine.stats() - before).total()) / kSamples;
}

Line MeasureThreshold(uint32_t inline_threshold) {
  // Probe the achievable ceiling first.
  Line line;
  {
    HashIndexConfig config;
    config.memory_size = kMemory;
    config.hash_index_ratio = 0.6;
    config.inline_threshold_bytes = inline_threshold;
    bench::HashRig rig(config);
    Rng rng(3);
    FillMixed(rig, 1.0, rng);
    line.max_utilization = rig.index.Utilization();
  }
  const double fractions[] = {0.30, 0.50, 0.70, 0.85, 0.95};
  for (int i = 0; i < 5; i++) {
    HashIndexConfig config;
    config.memory_size = kMemory;
    config.hash_index_ratio = 0.6;
    config.inline_threshold_bytes = inline_threshold;
    bench::HashRig rig(config);
    Rng rng(3);
    const uint64_t keys = FillMixed(rig, line.max_utilization * fractions[i], rng);
    line.accesses[i] = MeasureMixedCost(rig, keys);
  }
  return line;
}

}  // namespace
}  // namespace kvd

int main() {
  using kvd::TablePrinter;
  std::printf(
      "\n=== Figure 6 — memory accesses vs utilization for inline thresholds ===\n");
  TablePrinter table({"threshold_B", "max_util_%", "@30%max", "@50%max", "@70%max",
                      "@85%max", "@95%max"});
  for (uint32_t threshold : {10u, 15u, 20u, 25u}) {
    const kvd::Line line = kvd::MeasureThreshold(threshold);
    table.AddRow({TablePrinter::Int(threshold),
                  TablePrinter::Num(line.max_utilization * 100, 1),
                  TablePrinter::Num(line.accesses[0], 2),
                  TablePrinter::Num(line.accesses[1], 2),
                  TablePrinter::Num(line.accesses[2], 2),
                  TablePrinter::Num(line.accesses[3], 2),
                  TablePrinter::Num(line.accesses[4], 2)});
  }
  table.Print();
  std::printf(
      "paper: average accesses grow with utilization; larger thresholds grow\n"
      "more steeply but inline more of the mix (higher reachable utilization,\n"
      "fewer slab reads at low load)\n");
  return 0;
}
