// Overload control and graceful degradation (DESIGN.md §12).
//
// Three scenarios, each with an acceptance bar the binary enforces (non-zero
// exit on violation):
//
//   1. Open-loop overload sweep: arrivals at 0.5x-3x of the server's
//      calibrated closed-loop capacity, every op carrying a 1 ms deadline,
//      with the full admission ladder enabled (kOverloaded fast-reject,
//      CoDel sojourn shedding, priority classes). Goodput — ops answered kOk
//      within their deadline — must stay at >= 80% of its peak even at 3x
//      offered load; without shedding it would collapse toward zero as every
//      admitted op inherits the standing queue's sojourn time.
//   2. Retry storm: a hard partition between one client and the server while
//      the client retransmits aggressively. The token-bucket retry budget
//      must bound amplification at <= 2x (the unbudgeted client amplifies
//      ~max_attempts x), and the client must recover cleanly once the
//      partition heals.
//   3. Gray backup: an RF-3 group with quorum 3 whose third replica's
//      inbound replication link turns gray (20x latency, 90% loss). The
//      primary must demote it out of the commit quorum within the grace
//      window, keeping p99 write latency within 2x of the healthy baseline,
//      and reinstate it after the link heals and the peer stays caught up.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json_report.h"
#include "src/common/random.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/replica/replicated_client.h"
#include "src/replica/replication_group.h"
#include "src/transport/frame.h"

namespace kvd {
namespace {

using bench::Key;
using bench::U64Value;

// --- Scenario 1: open-loop sweep across the capacity knee ---

struct SweepPoint {
  double multiplier = 0;      // offered load / calibrated capacity
  double offered_mops = 0;
  double goodput_mops = 0;    // kOk within deadline
  uint64_t good_ops = 0;
  uint64_t deadline_missed = 0;  // answered kOk but past the deadline
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;        // over good ops only
  uint64_t busy_rejected = 0;
  uint64_t overload_rejected = 0;
  uint64_t codel_shed = 0;
  uint64_t deadline_shed = 0;  // arrival + queue + retire sheds
};

ServerConfig SweepServerConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  // The degradation ladder: fast-reject ceiling + CoDel sojourn control +
  // priority classes. max_backlog stays 0 — under open-loop load a kBusy
  // bounce is just a slower reject, so the ceiling does the bounding.
  config.processor.admission.overload_backlog = 4096;
  config.processor.admission.codel_target = 100 * kMicrosecond;
  config.processor.admission.codel_interval = 100 * kMicrosecond;
  config.processor.admission.class_queues = true;
  return config;
}

// Closed-loop capacity of the sweep server (no network, deep pipeline): the
// x-axis calibration for the open-loop multipliers.
double CalibrateCapacityMops(uint64_t seed) {
  ServerConfig config = SweepServerConfig();
  KvDirectServer server(config);
  WorkloadConfig wl;
  wl.num_keys = 256;
  wl.get_ratio = 0.5;
  wl.seed = seed;
  YcsbWorkload workload(wl);
  bench::Preload(server, workload, wl.num_keys);
  bench::DriveOptions options;
  options.total_ops = 20000;
  return bench::Drive(server, workload, options).mops;
}

SweepPoint RunSweepPoint(double multiplier, double capacity_mops,
                         uint64_t seed) {
  ServerConfig config = SweepServerConfig();
  KvDirectServer server(config);
  Simulator& sim = server.simulator();

  constexpr uint64_t kKeys = 256;
  for (uint64_t k = 0; k < kKeys; k++) {
    if (!server.Load(Key(k), U64Value(k)).ok()) {
      std::fprintf(stderr, "preload failed\n");
      return {};
    }
  }

  constexpr uint64_t kOps = 24000;
  constexpr uint32_t kOpsPerFrame = 8;
  constexpr SimTime kOpBudget = 1 * kMillisecond;
  const uint64_t frames = kOps / kOpsPerFrame;
  // Open loop: frame arrivals at fixed interarrival regardless of responses.
  const double offered_mops = multiplier * capacity_mops;
  const SimTime interarrival = static_cast<SimTime>(
      static_cast<double>(kOpsPerFrame) / offered_mops * kMicrosecond);

  Rng mix(seed ^ 0x0ae10ad);
  const uint64_t seq_base = server.AcquireClientSequenceBase();
  const SimTime start = sim.Now();
  uint64_t responded = 0;
  uint64_t good = 0;
  uint64_t late_ok = 0;
  LatencyHistogram good_latency_ns;
  for (uint64_t f = 0; f < frames; f++) {
    const SimTime arrival = start + f * interarrival;
    const SimTime deadline = arrival + kOpBudget;
    PacketBuilder builder(4096);
    for (uint32_t i = 0; i < kOpsPerFrame; i++) {
      KvOperation op;
      op.key = Key(mix.NextBelow(kKeys));
      op.deadline = deadline;
      if (mix.NextDouble() < 0.5) {
        op.opcode = Opcode::kGet;
      } else {
        op.opcode = Opcode::kPut;
        op.value = U64Value(mix.Next());
      }
      builder.Add(op);
    }
    std::vector<uint8_t> framed = FramePacket(seq_base + f + 1, builder.Finish());
    sim.ScheduleAt(arrival, [&, framed = std::move(framed), arrival, deadline] {
      server.DeliverFrame(framed, [&, arrival, deadline](std::vector<uint8_t> response) {
        responded++;
        Result<Frame> frame = ParseFrame(response);
        if (!frame.ok()) {
          return;
        }
        Result<std::vector<KvResultMessage>> results =
            DecodeResults(frame.value().payload);
        if (!results.ok()) {
          return;
        }
        for (const KvResultMessage& r : results.value()) {
          if (r.code != ResultCode::kOk) {
            continue;
          }
          if (sim.Now() > deadline) {
            late_ok++;  // answered, but the client already gave up
            continue;
          }
          good++;
          good_latency_ns.Add((sim.Now() - arrival) / kNanosecond);
        }
      });
    });
  }
  while (responded < frames && sim.Step()) {
  }

  SweepPoint point;
  point.multiplier = multiplier;
  point.offered_mops = offered_mops;
  point.good_ops = good;
  point.deadline_missed = late_ok;
  const SimTime elapsed = sim.Now() - start;
  point.goodput_mops =
      elapsed > 0 ? static_cast<double>(good) * 1e6 / static_cast<double>(elapsed)
                  : 0.0;
  point.p50_ns = good_latency_ns.Percentile(0.50);
  point.p99_ns = good_latency_ns.Percentile(0.99);
  const AdmissionStats& adm = server.processor().admission_stats();
  point.busy_rejected = adm.busy_rejected;
  point.overload_rejected = adm.overload_rejected;
  point.codel_shed = adm.codel_shed;
  point.deadline_shed = adm.deadline_shed_arrival + adm.deadline_shed_queue +
                        server.processor().stats().deadline_retire_shed;
  return point;
}

// --- Scenario 2: retry storm across a partition ---

struct StormPoint {
  uint32_t retry_budget = 0;      // 0 = unbudgeted client
  uint64_t packets = 0;           // distinct frames during the partition
  uint64_t retransmits = 0;
  double amplification = 0;       // (packets + retransmits) / packets
  uint64_t budget_exhausted = 0;  // packets failed by an empty token bucket
  uint64_t recovered_ok = 0;      // ops answered kOk after the heal
};

StormPoint RunStorm(uint32_t retry_budget, uint64_t seed) {
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  KvDirectServer server(config);

  constexpr uint64_t kKeys = 64;
  for (uint64_t k = 0; k < kKeys; k++) {
    if (!server.Load(Key(k), U64Value(k)).ok()) {
      std::fprintf(stderr, "preload failed\n");
      return {};
    }
  }

  Client::Options options;
  options.max_ops_per_packet = 1;  // one frame per op: a worst-case storm
  options.timeout = 20 * kMicrosecond;
  options.max_attempts = 12;
  options.retry_budget = retry_budget;
  Client client(server, options);
  (void)seed;

  // Hard partition of the client->server direction: every request frame is
  // lost, every packet's retry timer fires to exhaustion.
  server.network().SetPartitioned(/*to_server=*/true, true);
  for (uint64_t k = 0; k < kKeys; k++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(k);
    client.Enqueue(std::move(op));
  }
  client.Flush();  // every op fails; what we meter is how loudly

  StormPoint point;
  point.retry_budget = retry_budget;
  point.packets = client.stats().packets_sent;
  point.retransmits = client.stats().retransmits;
  point.amplification =
      point.packets > 0
          ? static_cast<double>(point.packets + point.retransmits) /
                static_cast<double>(point.packets)
          : 1.0;
  point.budget_exhausted = client.stats().budget_exhausted;

  // Heal and re-issue: first transmissions are never budget-gated and
  // successes refill the bucket, so recovery must be clean.
  server.network().SetPartitioned(/*to_server=*/true, false);
  for (uint64_t k = 0; k < kKeys; k++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(k);
    client.Enqueue(std::move(op));
  }
  for (const KvResultMessage& r : client.Flush()) {
    if (r.code == ResultCode::kOk) {
      point.recovered_ok++;
    }
  }
  return point;
}

// --- Scenario 3: gray backup demotion ---

struct GrayPoint {
  uint64_t healthy_p50_ns = 0;
  uint64_t healthy_p99_ns = 0;
  uint64_t gray_p50_ns = 0;
  uint64_t gray_p99_ns = 0;
  double p99_ratio = 0;  // gray / healthy
  uint64_t demotions = 0;
  uint64_t reinstatements = 0;
  uint64_t writes_ok = 0;
};

GrayPoint RunGrayBackup(uint64_t seed) {
  ReplicationConfig config;
  config.num_replicas = 3;
  config.quorum = 3;  // full quorum: a gray peer stalls every commit
  config.server.kvs_memory_bytes = 4 * kMiB;
  config.server.nic_dram.capacity_bytes = 1 * kMiB;
  config.demote_lag_entries = 64;
  config.demote_grace = 600 * kMicrosecond;
  // The gray link drops the peer's *inbound* heartbeats, but its own election
  // messages travel over the healthy peers' inbound links — keep the failure
  // detector far out of range so the scenario measures demotion, not a
  // spurious election.
  config.failure_timeout = 50 * kMillisecond;
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  Simulator& sim = group.simulator();

  constexpr uint64_t kWritesPerPhase = 1000;
  GrayPoint point;
  Rng mix(seed ^ 0x96a7);
  uint64_t next_key = 0;
  const auto run_phase = [&](LatencyHistogram& latency) {
    for (uint64_t i = 0; i < kWritesPerPhase; i++) {
      KvOperation op;
      op.opcode = Opcode::kPut;
      op.key = Key(next_key++ % 512);
      op.value = U64Value(mix.Next());
      client.Enqueue(std::move(op));
      const SimTime before = sim.Now();
      for (const KvResultMessage& r : client.Flush()) {
        if (r.code == ResultCode::kOk) {
          point.writes_ok++;
        }
      }
      latency.Add((sim.Now() - before) / kNanosecond);
    }
  };

  LatencyHistogram healthy_ns;
  run_phase(healthy_ns);

  // Replica 2's inbound replication link turns gray: 20x propagation latency
  // and 90% loss. Appends mostly vanish, acks stall, and with quorum 3 every
  // write waits on the gray peer until the primary demotes it.
  group.replication_network(2).SetGrayLink(/*to_server=*/true,
                                           /*latency_multiplier=*/20.0,
                                           /*loss_probability=*/0.9, seed);
  LatencyHistogram gray_ns;
  run_phase(gray_ns);

  point.healthy_p50_ns = healthy_ns.Percentile(0.50);
  point.healthy_p99_ns = healthy_ns.Percentile(0.99);
  point.gray_p50_ns = gray_ns.Percentile(0.50);
  point.gray_p99_ns = gray_ns.Percentile(0.99);
  point.p99_ratio = point.healthy_p99_ns > 0
                        ? static_cast<double>(point.gray_p99_ns) /
                              static_cast<double>(point.healthy_p99_ns)
                        : 0.0;
  point.demotions = group.stats().gray_demotions;

  // Heal the link and idle the group: the peer catches up via heartbeat
  // retransmission, stays caught up through the hysteresis window, and is
  // reinstated into the commit quorum.
  group.replication_network(2).SetGrayLink(/*to_server=*/true, 1.0, 0.0);
  sim.RunUntil(sim.Now() + 10 * kMillisecond);
  point.reinstatements = group.stats().gray_reinstatements;
  return point;
}

}  // namespace
}  // namespace kvd

int main(int argc, char** argv) {
  using kvd::TablePrinter;
  const bool golden = kvd::bench::GoldenArg(argc, argv);
  kvd::bench::JsonReport report("overload");
  bool ok = true;

  // --- open-loop sweep ---
  std::printf("\n=== Overload — open-loop goodput across the capacity knee ===\n");
  std::printf("(offered load as a multiple of calibrated closed-loop capacity;\n"
              " 1 ms op deadlines; kOverloaded fast-reject + CoDel shedding;\n"
              " goodput counts kOk answers within deadline)\n\n");
  const double capacity = kvd::CalibrateCapacityMops(/*seed=*/2026);
  report.BeginSeries("overload_sweep");
  TablePrinter sweep_table({"multiplier", "offered_Mops", "goodput_Mops",
                            "good_ops", "p50_us", "p99_us", "overload_rej",
                            "codel_shed", "deadline_shed"});
  const std::vector<double> multipliers =
      golden ? std::vector<double>{1.0, 3.0}
             : std::vector<double>{0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  std::vector<kvd::SweepPoint> sweep;
  for (const double m : multipliers) {
    const kvd::SweepPoint p = kvd::RunSweepPoint(m, capacity, /*seed=*/2026);
    sweep.push_back(p);
    sweep_table.AddRow({TablePrinter::Num(p.multiplier, 1),
                        TablePrinter::Num(p.offered_mops, 2),
                        TablePrinter::Num(p.goodput_mops, 2),
                        TablePrinter::Int(p.good_ops),
                        TablePrinter::Num(static_cast<double>(p.p50_ns) / 1e3, 1),
                        TablePrinter::Num(static_cast<double>(p.p99_ns) / 1e3, 1),
                        TablePrinter::Int(p.overload_rejected),
                        TablePrinter::Int(p.codel_shed),
                        TablePrinter::Int(p.deadline_shed)});
    report.AddRow({{"multiplier", p.multiplier},
                   {"offered_mops", p.offered_mops},
                   {"goodput_mops", p.goodput_mops},
                   {"good_ops", static_cast<double>(p.good_ops)},
                   {"deadline_missed", static_cast<double>(p.deadline_missed)},
                   {"p50_ns", static_cast<double>(p.p50_ns)},
                   {"p99_ns", static_cast<double>(p.p99_ns)},
                   {"busy_rejected", static_cast<double>(p.busy_rejected)},
                   {"overload_rejected", static_cast<double>(p.overload_rejected)},
                   {"codel_shed", static_cast<double>(p.codel_shed)},
                   {"deadline_shed", static_cast<double>(p.deadline_shed)}});
  }
  sweep_table.Print();
  double peak_goodput = 0;
  for (const kvd::SweepPoint& p : sweep) {
    peak_goodput = std::max(peak_goodput, p.goodput_mops);
  }
  const kvd::SweepPoint& overloaded = sweep.back();
  const bool sweep_ok = overloaded.goodput_mops >= 0.8 * peak_goodput;
  std::printf("calibrated capacity: %.2f Mops; goodput at %.1fx: %.2f Mops "
              "(>= 80%% of %.2f peak: %s)\n",
              capacity, overloaded.multiplier, overloaded.goodput_mops,
              peak_goodput, sweep_ok ? "yes" : "NO");
  ok = ok && sweep_ok;

  // --- retry storm ---
  std::printf("\n=== Overload — retry storm across a hard partition ===\n");
  std::printf("(64 single-op frames, 20 us timeout, 12 attempts; the token\n"
              " bucket bounds retransmissions; the unbudgeted client shows\n"
              " the storm it prevents)\n\n");
  report.BeginSeries("retry_storm");
  TablePrinter storm_table({"budget", "packets", "retransmits", "amplification",
                            "budget_exhausted", "recovered_ok"});
  bool storm_ok = true;
  kvd::StormPoint budgeted;
  for (const uint32_t budget : {32u, 0u}) {
    const kvd::StormPoint p = kvd::RunStorm(budget, /*seed=*/2026);
    if (budget != 0) {
      budgeted = p;
    }
    storm_table.AddRow({TablePrinter::Int(p.retry_budget),
                        TablePrinter::Int(p.packets),
                        TablePrinter::Int(p.retransmits),
                        TablePrinter::Num(p.amplification, 3),
                        TablePrinter::Int(p.budget_exhausted),
                        TablePrinter::Int(p.recovered_ok)});
    report.AddRow({{"retry_budget", static_cast<double>(p.retry_budget)},
                   {"packets", static_cast<double>(p.packets)},
                   {"retransmits", static_cast<double>(p.retransmits)},
                   {"amplification", p.amplification},
                   {"budget_exhausted", static_cast<double>(p.budget_exhausted)},
                   {"recovered_ok", static_cast<double>(p.recovered_ok)}});
    storm_ok = storm_ok && p.recovered_ok == 64;
  }
  storm_table.Print();
  storm_ok = storm_ok && budgeted.amplification <= 2.0 &&
             budgeted.retransmits <= budgeted.retry_budget &&
             budgeted.budget_exhausted > 0;
  std::printf("budgeted amplification %.3f (<= 2.0: %s), recovery clean: %s\n",
              budgeted.amplification, budgeted.amplification <= 2.0 ? "yes" : "NO",
              storm_ok ? "yes" : "NO");
  ok = ok && storm_ok;

  // --- gray backup ---
  std::printf("\n=== Overload — gray backup demoted out of the commit quorum ===\n");
  std::printf("(RF 3, quorum 3; replica 2's inbound replication link at 20x\n"
              " latency / 90%% loss; 1000 sequential puts per phase)\n\n");
  report.BeginSeries("gray_backup");
  const kvd::GrayPoint g = kvd::RunGrayBackup(/*seed=*/2026);
  TablePrinter gray_table({"healthy_p50_us", "healthy_p99_us", "gray_p50_us",
                           "gray_p99_us", "p99_ratio", "demotions",
                           "reinstatements"});
  gray_table.AddRow(
      {TablePrinter::Num(static_cast<double>(g.healthy_p50_ns) / 1e3, 1),
       TablePrinter::Num(static_cast<double>(g.healthy_p99_ns) / 1e3, 1),
       TablePrinter::Num(static_cast<double>(g.gray_p50_ns) / 1e3, 1),
       TablePrinter::Num(static_cast<double>(g.gray_p99_ns) / 1e3, 1),
       TablePrinter::Num(g.p99_ratio, 3), TablePrinter::Int(g.demotions),
       TablePrinter::Int(g.reinstatements)});
  gray_table.Print();
  report.AddRow({{"healthy_p50_ns", static_cast<double>(g.healthy_p50_ns)},
                 {"healthy_p99_ns", static_cast<double>(g.healthy_p99_ns)},
                 {"gray_p50_ns", static_cast<double>(g.gray_p50_ns)},
                 {"gray_p99_ns", static_cast<double>(g.gray_p99_ns)},
                 {"p99_ratio", g.p99_ratio},
                 {"demotions", static_cast<double>(g.demotions)},
                 {"reinstatements", static_cast<double>(g.reinstatements)},
                 {"writes_ok", static_cast<double>(g.writes_ok)}});
  const bool gray_ok = g.p99_ratio <= 2.0 && g.demotions >= 1 &&
                       g.reinstatements >= 1 && g.writes_ok == 2000;
  std::printf("gray p99 within 2x of healthy: %s; demoted: %llu; "
              "reinstated: %llu\n",
              g.p99_ratio <= 2.0 ? "yes" : "NO",
              static_cast<unsigned long long>(g.demotions),
              static_cast<unsigned long long>(g.reinstatements));
  ok = ok && gray_ok;

  if (!report.WriteIfRequested(kvd::bench::JsonPathArg(argc, argv))) {
    return 1;
  }
  std::printf("\noverload acceptance: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
