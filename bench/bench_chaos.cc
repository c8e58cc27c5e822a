// Chaos soak: goodput and retry amplification under injected faults.
//
// Sweeps the packet-loss rate with duplication, corruption, transient PCIe
// completion errors, and NIC DRAM bit flips enabled simultaneously, drives a
// YCSB-A-style counter workload through the reliable client, and verifies
// exactly-once semantics at every point: each fetch-and-add applied exactly
// once despite retransmissions and server-side replay.
//
// Columns: goodput (Mops of retired operations), retry amplification
// (transmitted frames / distinct frames), retransmits, server replay-cache
// hits, dropped/corrupted wire packets, ECC corrections, and uncorrectable
// demotions to host memory.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json_report.h"
#include "src/common/random.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/fault/fault_injector.h"

namespace kvd {
namespace {

using bench::AsU64;
using bench::Key;
using bench::U64Value;

struct ChaosPoint {
  double loss_percent;
  double goodput_mops;
  double amplification;  // (packets_sent + retransmits) / packets_sent
  uint64_t retransmits;
  uint64_t replayed;          // server replay-cache hits
  uint64_t dropped;           // wire packets lost
  uint64_t corrupted;         // wire packets with flipped bits
  uint64_t ecc_corrected;     // DRAM words fixed by ECC
  uint64_t ecc_demotions;     // uncorrectable lines re-read from host
  bool exactly_once;          // every update applied exactly once
};

ChaosPoint Run(double loss, uint64_t seed) {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  config.faults.seed = seed;
  config.faults.at(FaultSite::kNetDropToServer) = loss;
  config.faults.at(FaultSite::kNetDropToClient) = loss;
  config.faults.at(FaultSite::kNetDuplicateToServer) = loss / 2;
  config.faults.at(FaultSite::kNetDuplicateToClient) = loss / 2;
  config.faults.at(FaultSite::kNetCorruptToServer) = loss / 2;
  config.faults.at(FaultSite::kNetCorruptToClient) = loss / 2;
  config.faults.at(FaultSite::kPcieReadCompletion) = 0.01;
  config.faults.at(FaultSite::kPcieWriteCompletion) = 0.005;
  config.faults.at(FaultSite::kDramCorrectableFlip) = 0.05;
  config.faults.at(FaultSite::kDramUncorrectableFlip) = 0.01;
  KvDirectServer server(config);

  constexpr uint64_t kKeys = 128;
  for (uint64_t k = 0; k < kKeys; k++) {
    if (!server.Load(Key(k), U64Value(0)).ok()) {
      std::fprintf(stderr, "preload failed\n");
      return {};
    }
  }

  Client::Options options;
  options.timeout = 100 * kMicrosecond;
  options.max_ops_per_packet = 16;
  Client client(server, options);
  KvEndpoint& ep = client;  // the driver sees only the endpoint interface

  Rng mix(seed ^ 0xc4a05);
  std::vector<uint64_t> expected(kKeys, 0);
  constexpr uint64_t kOps = 20000;
  constexpr uint64_t kBatch = 200;
  const SimTime elapsed = bench::DriveBatches(ep, kOps, kBatch, [&] {
    const uint64_t k = mix.NextBelow(kKeys);
    KvOperation op;
    op.key = Key(k);
    if (mix.NextDouble() < 0.5) {
      op.opcode = Opcode::kGet;
    } else {
      op.opcode = Opcode::kUpdateScalar;
      op.param = 1;
      expected[k] += 1;
    }
    return op;
  });

  ChaosPoint point;
  point.loss_percent = loss * 100.0;
  point.goodput_mops =
      elapsed > 0 ? static_cast<double>(kOps) * 1e6 / static_cast<double>(elapsed) : 0.0;
  const KvEndpoint::Stats stats = ep.endpoint_stats();
  point.amplification =
      stats.packets_sent > 0
          ? static_cast<double>(stats.packets_sent + stats.retransmits) /
                static_cast<double>(stats.packets_sent)
          : 1.0;
  point.retransmits = stats.retransmits;
  point.replayed = server.replayed_responses();
  point.dropped = server.network().packets_dropped();
  point.corrupted = server.network().packets_corrupted();
  point.ecc_corrected = server.nic_dram().ecc_corrected_words();
  point.ecc_demotions = server.dispatcher().stats().ecc_demotions;
  point.exactly_once = true;
  for (uint64_t k = 0; k < kKeys; k++) {
    KvOperation probe;
    probe.opcode = Opcode::kGet;
    probe.key = Key(k);
    ep.Enqueue(std::move(probe));
    const std::vector<KvResultMessage> got = ep.Flush();
    if (got.size() != 1 || got[0].code != ResultCode::kOk ||
        AsU64(got[0].value) != expected[k]) {
      point.exactly_once = false;
    }
  }
  return point;
}

}  // namespace
}  // namespace kvd

int main(int argc, char** argv) {
  using kvd::TablePrinter;
  std::printf("\n=== Chaos soak — goodput and retry cost vs packet loss ===\n");
  std::printf("(duplication/corruption at loss/2 each; PCIe replay and DRAM ECC\n"
              " faults enabled at fixed rates; YCSB-A counter workload)\n\n");
  kvd::bench::JsonReport report("chaos");
  report.BeginSeries("loss_sweep");
  TablePrinter table({"loss_%", "goodput_Mops", "amplification", "retransmits",
                      "replayed", "dropped", "corrupted", "ecc_fixed",
                      "ecc_demote", "exactly_once"});
  bool all_exact = true;
  // Golden mode: the 1% loss point alone (same seed, so the row matches the
  // full sweep's 1% row byte-for-byte).
  const std::vector<double> losses =
      kvd::bench::GoldenArg(argc, argv)
          ? std::vector<double>{0.01}
          : std::vector<double>{0.0, 0.005, 0.01, 0.02, 0.05};
  for (const double loss : losses) {
    const kvd::ChaosPoint p = kvd::Run(loss, /*seed=*/2026);
    all_exact = all_exact && p.exactly_once;
    table.AddRow({TablePrinter::Num(p.loss_percent, 1),
                  TablePrinter::Num(p.goodput_mops, 2),
                  TablePrinter::Num(p.amplification, 3),
                  TablePrinter::Int(p.retransmits), TablePrinter::Int(p.replayed),
                  TablePrinter::Int(p.dropped), TablePrinter::Int(p.corrupted),
                  TablePrinter::Int(p.ecc_corrected),
                  TablePrinter::Int(p.ecc_demotions),
                  p.exactly_once ? "yes" : "NO"});
    report.AddRow({{"loss_percent", p.loss_percent},
                   {"goodput_mops", p.goodput_mops},
                   {"amplification", p.amplification},
                   {"retransmits", static_cast<double>(p.retransmits)},
                   {"replayed", static_cast<double>(p.replayed)},
                   {"dropped", static_cast<double>(p.dropped)},
                   {"corrupted", static_cast<double>(p.corrupted)},
                   {"ecc_corrected", static_cast<double>(p.ecc_corrected)},
                   {"ecc_demotions", static_cast<double>(p.ecc_demotions)},
                   {"exactly_once", p.exactly_once ? 1.0 : 0.0}});
  }
  table.Print();
  std::printf("exactly-once across the sweep: %s\n", all_exact ? "yes" : "NO");
  if (!report.WriteIfRequested(kvd::bench::JsonPathArg(argc, argv))) {
    return 1;
  }
  return all_exact ? 0 : 1;
}
