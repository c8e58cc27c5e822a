// Figure 15: efficiency of network batching — throughput and latency versus
// batched KV size, with and without client-side batching.
//
// Paper anchors: batching lifts throughput up to ~4x for small KVs (the 88 B
// per-packet header dominates otherwise) while adding less than 1 µs of
// latency.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"

namespace kvd {
namespace {

struct Point {
  double mops;
  double mean_latency_us;
};

Point Measure(uint32_t kv_bytes, bool batching) {
  ServerConfig config;
  config.kvs_memory_bytes = 32 * kMiB;
  config.nic_dram.capacity_bytes = 4 * kMiB;
  config.AutoTune(kv_bytes, /*long_tail=*/false);
  KvDirectServer server(config);

  WorkloadConfig wl;
  wl.num_keys = 100000;
  wl.value_bytes = kv_bytes - 8;
  wl.get_ratio = 1.0;
  YcsbWorkload workload(wl);
  bench::Preload(server, workload, wl.num_keys);

  bench::DriveOptions options;
  options.total_ops = 30000;
  options.ops_per_packet = batching ? 40 : 1;
  options.pipeline_depth = batching ? 512 : 256;
  const bench::DriveResult result =
      bench::DriveFramed(server, options, [&] { return workload.NextOp(); });
  return {result.mops, result.latency_ns.mean() / 1000.0};
}

}  // namespace
}  // namespace kvd

int main() {
  using kvd::TablePrinter;
  std::printf("\n=== Figure 15 — network batching: throughput and latency ===\n");
  TablePrinter table({"kv_B", "batched_Mops", "unbatched_Mops", "speedup",
                      "batched_lat_us", "unbatched_lat_us"});
  for (uint32_t kv : {10u, 16u, 32u, 62u, 126u, 254u}) {
    const kvd::Point batched = kvd::Measure(kv, true);
    const kvd::Point unbatched = kvd::Measure(kv, false);
    table.AddRow({TablePrinter::Int(kv), TablePrinter::Num(batched.mops, 1),
                  TablePrinter::Num(unbatched.mops, 1),
                  TablePrinter::Num(batched.mops / unbatched.mops, 2),
                  TablePrinter::Num(batched.mean_latency_us, 2),
                  TablePrinter::Num(unbatched.mean_latency_us, 2)});
  }
  table.Print();
  std::printf(
      "paper: up to ~4x throughput from batching on small KVs; batching adds\n"
      "under 1 us of latency (batched latency here is per-packet round trip)\n");
  return 0;
}
