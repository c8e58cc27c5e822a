// Table 2: throughput (GB/s of vector payload) of NIC-side vector update
// versus the client-side alternatives, across vector sizes.
//
//   vector update with return    — one op; the original vector rides back
//   vector update without return — one op; only an ack returns
//   one key per element          — each element is its own KV, one atomic
//                                  update per element (network-bound)
//   fetch to client              — GET the vector, update locally, PUT it
//                                  back (double transfer + no consistency)
//
// Paper shape: NIC-side updates win by an order of magnitude for large
// vectors because elements never cross the network.
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"

namespace kvd {
namespace {

constexpr uint32_t kNumVectors = 256;

ServerConfig VectorServerConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 64 * kMiB;
  config.nic_dram.capacity_bytes = 8 * kMiB;
  config.min_slab_bytes = 256;  // classes 256..8192: six, the slot-type max
  config.max_slab_bytes = 8192;
  config.hash_index_ratio = 0.05;
  return config;
}

// Closed-loop over the framed network path (16 packets of up to 16 ops and
// 8 KiB in flight) with a caller-provided operation generator; returns
// ops/second (simulated).
double DriveOps(KvDirectServer& server, uint64_t total_ops,
                const std::function<KvOperation(uint64_t)>& make_op) {
  bench::DriveOptions options;
  options.total_ops = total_ops;
  options.ops_per_packet = 16;
  options.pipeline_depth = 16 * 16;
  options.packet_payload = 8192;
  uint64_t next = 0;
  return bench::DriveFramed(server, options, [&] { return make_op(next++); }).mops * 1e6;
}

void PreloadVectors(KvDirectServer& server, uint32_t vector_bytes) {
  const std::vector<uint8_t> value(vector_bytes, 1);
  for (uint64_t v = 0; v < kNumVectors; v++) {
    KVD_CHECK(server.Load(bench::Key(v), value).ok());
  }
}

double UpdateGBps(uint32_t vector_bytes, bool with_return) {
  KvDirectServer server(VectorServerConfig());
  PreloadVectors(server, vector_bytes);
  const double ops_per_s = DriveOps(server, 4000, [&](uint64_t i) {
    KvOperation op;
    op.opcode = Opcode::kUpdateScalarVector;
    op.key = bench::Key(i % kNumVectors);
    op.param = 3;
    op.function_id = kFnAddU64;
    op.element_width = 8;
    op.return_value = with_return;
    return op;
  });
  return ops_per_s * vector_bytes / 1e9;
}

double PerElementGBps(uint32_t vector_bytes) {
  // Every element is its own 8 B KV; updating the "vector" means one atomic
  // per element. Throughput normalizes back to vector bytes.
  KvDirectServer server(VectorServerConfig());
  WorkloadConfig wl;
  wl.num_keys = 65536;
  YcsbWorkload workload(wl);
  bench::Preload(server, workload, wl.num_keys);
  const double ops_per_s = DriveOps(server, 30000, [&](uint64_t i) {
    KvOperation op;
    op.opcode = Opcode::kUpdateScalar;
    op.key = workload.KeyFor(i % wl.num_keys);
    op.param = 3;
    op.function_id = kFnAddU64;
    return op;
  });
  (void)vector_bytes;
  return ops_per_s * 8 / 1e9;  // 8 B of vector data per op
}

double FetchToClientGBps(uint32_t vector_bytes) {
  // GET the vector, update client-side, PUT it back: two full transfers per
  // update (and no server-side consistency).
  KvDirectServer server(VectorServerConfig());
  PreloadVectors(server, vector_bytes);
  const std::vector<uint8_t> new_value(vector_bytes, 2);
  const double ops_per_s = DriveOps(server, 4000, [&](uint64_t i) {
    KvOperation op;
    if (i % 2 == 0) {
      op.opcode = Opcode::kGet;
      op.key = bench::Key((i / 2) % kNumVectors);
    } else {
      op.opcode = Opcode::kPut;
      op.key = bench::Key((i / 2) % kNumVectors);
      op.value = new_value;
    }
    return op;
  });
  // Two ops (GET + PUT) complete one vector update.
  return ops_per_s / 2 * vector_bytes / 1e9;
}

}  // namespace
}  // namespace kvd

int main() {
  using kvd::TablePrinter;
  std::printf("\n=== Table 2 — vector update throughput (GB/s of vector data) ===\n");
  TablePrinter table({"vector_B", "update_with_return", "update_no_return",
                      "one_key_per_element", "fetch_to_client"});
  for (uint32_t bytes : {64u, 256u, 1024u, 4096u}) {
    table.AddRow({TablePrinter::Int(bytes),
                  TablePrinter::Num(kvd::UpdateGBps(bytes, true), 2),
                  TablePrinter::Num(kvd::UpdateGBps(bytes, false), 2),
                  TablePrinter::Num(kvd::PerElementGBps(bytes), 2),
                  TablePrinter::Num(kvd::FetchToClientGBps(bytes), 2)});
  }
  table.Print();
  std::printf(
      "paper: NIC-side vector update dominates both alternatives, and\n"
      "suppressing the returned vector roughly doubles update throughput\n");
  return 0;
}
