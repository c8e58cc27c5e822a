// Figure 17: latency of KV-Direct at peak throughput of the YCSB workload,
// with and without network batching, for GET and PUT, uniform and skewed.
//
// Paper anchors: non-batched tail latency 3-9 µs depending on KV size and
// op type; PUT above GET (extra memory access); skewed below uniform (NIC
// DRAM hits); batching adds less than 1 µs while multiplying throughput.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/obs/tracer.h"

namespace kvd {
namespace {

bench::DriveResult Measure(uint32_t kv_bytes, bool is_get, bool long_tail,
                           bool batching) {
  ServerConfig config;
  config.kvs_memory_bytes = 32 * kMiB;
  config.nic_dram.capacity_bytes = 4 * kMiB;
  config.AutoTune(kv_bytes, long_tail);
  KvDirectServer server(config);

  WorkloadConfig wl;
  wl.value_bytes = kv_bytes - 8;
  wl.get_ratio = is_get ? 1.0 : 0.0;
  wl.distribution = long_tail ? KeyDistribution::kLongTail : KeyDistribution::kUniform;
  wl.num_keys = config.kvs_memory_bytes * 35 / 100 / kv_bytes;
  YcsbWorkload workload(wl);
  bench::Preload(server, workload, wl.num_keys);

  bench::DriveOptions options;
  options.total_ops = 20000;
  options.ops_per_packet = batching ? 40 : 1;
  // Moderate pipeline: latency at sustainable load, not at saturation knee.
  options.pipeline_depth = batching ? 160 : 64;
  return bench::DriveFramed(server, options, [&] { return workload.NextOp(); });
}

void Panel(bool batching, bench::JsonReport& report) {
  std::printf("\n--- %s batching ---\n", batching ? "(a) with" : "(b) without");
  report.BeginSeries(batching ? "with_batching" : "without_batching");
  TablePrinter table({"kv_B", "GET_unif_us(p95)", "GET_skew_us(p95)",
                      "PUT_unif_us(p95)", "PUT_skew_us(p95)"});
  for (uint32_t kv : {13u, 23u, 60u, 124u, 252u}) {
    auto cell = [&](bool is_get, bool long_tail) {
      const bench::DriveResult result = Measure(kv, is_get, long_tail, batching);
      bench::AddDriveRow(report,
                         {{"kv_bytes", kv},
                          {"get_ratio", is_get ? 1.0 : 0.0},
                          {"long_tail", long_tail ? 1.0 : 0.0}},
                         result);
      return TablePrinter::Num(result.latency_ns.mean() / 1000.0, 2) + " (" +
             TablePrinter::Num(
                 static_cast<double>(result.latency_ns.Percentile(0.95)) / 1000.0,
                 1) +
             ")";
    };
    table.AddRow({TablePrinter::Int(kv), cell(true, false), cell(true, true),
                  cell(false, false), cell(false, true)});
  }
  table.Print();
}

// Where the microseconds go: a traced pass through the real framed client at
// a representative point (60 B KVs, uniform, batched). The tracer's
// stages tile the client-send -> client-receive interval by construction, so
// per opcode the average stage total must land within 1% of the measured
// end-to-end mean (each stage rounds to ns independently, which is the only
// slack).
void Breakdown(bench::JsonReport& report) {
  ServerConfig config;
  config.kvs_memory_bytes = 32 * kMiB;
  config.nic_dram.capacity_bytes = 4 * kMiB;
  config.AutoTune(60, false);
  config.enable_request_tracing = true;
  KvDirectServer server(config);

  WorkloadConfig wl;
  wl.value_bytes = 52;
  wl.get_ratio = 0.5;  // both opcodes in one run
  wl.num_keys = config.kvs_memory_bytes * 35 / 100 / 60;
  YcsbWorkload workload(wl);
  bench::Preload(server, workload, wl.num_keys);

  Client client(server);
  constexpr uint64_t kTotalOps = 8000;
  constexpr uint32_t kOpsPerFlush = 160;  // 4 packets of 40 in flight
  for (uint64_t done = 0; done < kTotalOps; done += kOpsPerFlush) {
    for (uint32_t i = 0; i < kOpsPerFlush; i++) {
      client.Enqueue(workload.NextOp());
    }
    client.Flush();
  }

  const LatencyBreakdown& breakdown = server.breakdown();
  std::printf("\n--- (c) per-stage breakdown, 60 B KVs (mean ns) ---\n%s",
              LatencyBreakdownReport::Table(breakdown).c_str());

  report.BeginSeries("breakdown");
  for (size_t op = 0; op < LatencyBreakdown::kNumOpcodes; op++) {
    const Opcode opcode = static_cast<Opcode>(op);
    const LatencyHistogram& e2e = breakdown.EndToEnd(opcode);
    if (e2e.count() == 0) {
      continue;
    }
    bench::JsonReport::Fields row;
    row.emplace_back("opcode", static_cast<double>(op));
    row.emplace_back("ops", static_cast<double>(e2e.count()));
    const double n = static_cast<double>(e2e.count());
    double stage_sum = 0;
    for (size_t point = 1; point < kNumTracePoints; point++) {
      const LatencyHistogram& stage =
          breakdown.Stage(opcode, static_cast<TracePoint>(point));
      // Per-op average contribution: absent stages count as zero, so the
      // stage fields sum to stage_sum_ns exactly.
      const double contribution =
          stage.mean() * static_cast<double>(stage.count()) / n;
      stage_sum += contribution;
      row.emplace_back(
          std::string("stage_") + StageName(static_cast<TracePoint>(point)) +
              "_ns",
          contribution);
    }
    row.emplace_back("stage_sum_ns", stage_sum);
    row.emplace_back("e2e_ns", e2e.mean());
    report.AddRow(std::move(row));
  }
}

}  // namespace
}  // namespace kvd

int main(int argc, char** argv) {
  std::printf("\n=== Figure 17 — latency under peak YCSB load ===\n");
  kvd::bench::JsonReport report("fig17_latency");
  kvd::Panel(true, report);
  kvd::Panel(false, report);
  kvd::Breakdown(report);
  std::printf(
      "\npaper: non-batched tail 3-9 us; PUT > GET; skewed < uniform;\n"
      "batching costs < 1 us extra per op\n");
  return report.WriteIfRequested(kvd::bench::JsonPathArg(argc, argv)) ? 0 : 1;
}
