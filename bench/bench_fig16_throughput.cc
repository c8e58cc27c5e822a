// Figure 16: system throughput of KV-Direct under YCSB workloads —
// uniform and long-tail (Zipf 0.99), GET ratios 100/95/50/0%, KV sizes
// 5-254 B. The server is tuned per cell as in §5.2.1 (hash index ratio,
// inline threshold, load dispatch ratio).
//
// Paper anchors: tiny inline KVs reach ~120-180 Mops; long-tail beats
// uniform (NIC DRAM cache + OoO merging of hot keys) and touches the
// 180 Mops clock bound for read-intensive mixes; 62 B+ KVs become
// network-bound; PUT-heavy mixes run at roughly half GET throughput
// (two memory accesses instead of one).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"

namespace kvd {
namespace {

// mops < 0 marks a cell whose preload did not fit (rendered "n/a").
bench::DriveResult Measure(uint32_t kv_bytes, double get_ratio, bool long_tail) {
  ServerConfig config;
  config.kvs_memory_bytes = 32 * kMiB;
  config.nic_dram.capacity_bytes = 4 * kMiB;  // 1:8, paper is 4:64 GiB = 1:16
  config.AutoTune(kv_bytes, long_tail);
  KvDirectServer server(config);

  WorkloadConfig wl;
  wl.value_bytes = kv_bytes - 8;
  wl.get_ratio = get_ratio;
  wl.distribution = long_tail ? KeyDistribution::kLongTail : KeyDistribution::kUniform;
  // Fill toward the paper's 50% memory utilization; 35% of the region is
  // reachable for every size class given our per-KV metadata (see DESIGN.md).
  const uint64_t target_keys =
      config.kvs_memory_bytes * 35 / 100 / std::max<uint32_t>(kv_bytes, 1);
  wl.num_keys = target_keys;
  YcsbWorkload workload(wl);
  const uint64_t loaded = bench::Preload(server, workload, target_keys);
  if (loaded < target_keys / 2) {
    bench::DriveResult failed;
    failed.mops = -1;
    return failed;
  }

  bench::DriveOptions options;
  options.total_ops = 60000;
  options.ops_per_packet = 40;
  // Enough packets in flight to keep the 256-entry reservation station full.
  options.pipeline_depth = 2048;
  return bench::DriveFramed(server, options, [&] { return workload.NextOp(); });
}

void Panel(bool long_tail, bench::JsonReport& report, bool golden) {
  std::printf("\n--- %s ---\n", long_tail ? "(b) long-tail (Zipf 0.99)" : "(a) uniform");
  report.BeginSeries(long_tail ? "long_tail" : "uniform");
  // Golden mode: one representative non-inline cell (60 B KV, 50% GET).
  const std::vector<uint32_t> kv_sizes =
      golden ? std::vector<uint32_t>{60u}
             : std::vector<uint32_t>{8u, 13u, 23u, 60u, 124u, 252u};
  const std::vector<double> get_ratios =
      golden ? std::vector<double>{0.5}
             : std::vector<double>{1.0, 0.95, 0.5, 0.0};
  TablePrinter table(golden
                         ? std::vector<std::string>{"kv_B", "50%GET_Mops"}
                         : std::vector<std::string>{"kv_B", "100%GET_Mops",
                                                    "95%GET_Mops", "50%GET_Mops",
                                                    "100%PUT_Mops"});
  for (uint32_t kv : kv_sizes) {
    std::vector<std::string> row = {TablePrinter::Int(kv)};
    for (double get_ratio : get_ratios) {
      const bench::DriveResult result = Measure(kv, get_ratio, long_tail);
      row.push_back(result.mops < 0 ? "n/a" : TablePrinter::Num(result.mops, 1));
      if (result.mops >= 0) {
        bench::AddDriveRow(report, {{"kv_bytes", kv}, {"get_ratio", get_ratio}},
                           result);
      }
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace
}  // namespace kvd

int main(int argc, char** argv) {
  std::printf("\n=== Figure 16 — YCSB throughput of KV-Direct ===\n");
  const bool golden = kvd::bench::GoldenArg(argc, argv);
  kvd::bench::JsonReport report("fig16_throughput");
  kvd::Panel(false, report, golden);
  if (!golden) {
    kvd::Panel(true, report, golden);
  }
  std::printf(
      "\npaper: small inline KVs up to 180 Mops (long-tail, read-heavy);\n"
      "uniform PUT-heavy mixes roughly halve throughput; >= 62 B KVs are\n"
      "bounded by the 40 GbE network\n");
  return report.WriteIfRequested(kvd::bench::JsonPathArg(argc, argv)) ? 0 : 1;
}
