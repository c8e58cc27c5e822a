// Replication groups: write throughput vs replication factor, read scaling
// across replicas, and failover downtime under a scripted primary crash.
//
// Series 1 sweeps the replication factor {1, 2, 3, 5} with a majority quorum
// and drives a YCSB-A-style workload (50% puts / 50% reads) through a
// ReplicatedClient: writes pay quorum replication before acknowledgment,
// reads fan out round-robin across the replicas. Columns: simulated-time
// throughput, quorum size, log entries shipped per write, and the share of
// reads answered by backups.
//
// Series 2 crashes the primary of an RF-3 group at the first heartbeat tick
// (FaultSite::kReplicaCrash, scripted ordinal) mid-workload and reports the
// measured failover downtime in simulated time, the retry amplification the
// crash cost the client, and — the acceptance bar — whether every
// acknowledged write survived onto the new primary. A lost acknowledged
// write makes the binary exit non-zero.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json_report.h"
#include "src/common/random.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/cluster/cluster_client.h"
#include "src/cluster/coordinator.h"
#include "src/replica/replicated_client.h"
#include "src/replica/replication_group.h"

namespace kvd {
namespace {

using bench::AsU64;
using bench::Key;
using bench::U64Value;

ReplicationConfig BaseConfig(uint32_t replicas) {
  ReplicationConfig config;
  config.num_replicas = replicas;
  config.server.kvs_memory_bytes = 8 * kMiB;
  config.server.nic_dram.capacity_bytes = 1 * kMiB;
  return config;
}

struct FactorPoint {
  uint32_t replicas = 0;
  uint32_t quorum = 0;
  double throughput_mops = 0;
  double entries_per_write = 0;   // shipped log entries / effective writes
  double backup_read_share = 0;   // reads answered by a non-primary replica
};

FactorPoint RunFactor(uint32_t replicas, uint64_t seed) {
  ReplicationConfig config = BaseConfig(replicas);
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  KvEndpoint& ep = client;  // the driver sees only the endpoint interface

  constexpr uint64_t kKeys = 256;
  constexpr uint64_t kOps = 8000;
  constexpr uint64_t kBatch = 64;
  Rng mix(seed);
  uint64_t writes = 0;
  uint64_t reads = 0;
  const SimTime elapsed = bench::DriveBatches(ep, kOps, kBatch, [&] {
    const uint64_t k = mix.NextBelow(kKeys);
    KvOperation op;
    op.key = Key(k);
    if (mix.NextDouble() < 0.5) {
      op.opcode = Opcode::kPut;
      op.value = U64Value(mix.Next());
      writes++;
    } else {
      op.opcode = Opcode::kGet;
      reads++;
    }
    return op;
  });

  FactorPoint point;
  point.replicas = replicas;
  point.quorum = config.EffectiveQuorum();
  point.throughput_mops =
      elapsed > 0 ? static_cast<double>(kOps) * 1e6 / static_cast<double>(elapsed)
                  : 0.0;
  point.entries_per_write =
      writes > 0 ? static_cast<double>(group.stats().entries_shipped) /
                       static_cast<double>(writes)
                 : 0.0;
  // Reads land on the primary 1/R of the time under round-robin; the rest is
  // the read-scaling surface the backups absorb.
  point.backup_read_share =
      replicas > 1 ? 1.0 - 1.0 / static_cast<double>(replicas) : 0.0;
  (void)reads;
  return point;
}

struct FailoverPoint {
  double downtime_us = 0;        // crash -> promotion, simulated time
  double amplification = 0;      // (packets + retransmits) / packets
  uint64_t epoch = 0;
  uint64_t failovers = 0;
  uint64_t acked_writes = 0;
  uint64_t lost_acked_writes = 0;
};

FailoverPoint RunFailover(uint64_t seed) {
  ReplicationConfig config = BaseConfig(3);
  config.faults.seed = seed;
  // The first kReplicaCrash consult ever is replica 0 — the initial primary —
  // at the first heartbeat tick, mid-workload.
  config.faults.schedule.push_back({FaultSite::kReplicaCrash, 1});
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  KvEndpoint& ep = client;  // the driver sees only the endpoint interface
  Simulator& sim = group.simulator();

  Rng mix(seed ^ 0xfa110f);
  std::map<uint64_t, uint64_t> acked;
  uint64_t next_key = 0;
  for (int batch = 0; batch < 20; batch++) {
    std::vector<std::pair<uint64_t, uint64_t>> writes;
    for (int i = 0; i < 16; i++) {
      const uint64_t id = next_key++;
      const uint64_t value = mix.Next();
      KvOperation op;
      op.opcode = Opcode::kPut;
      op.key = Key(id);
      op.value = U64Value(value);
      ep.Enqueue(std::move(op));
      writes.emplace_back(id, value);
    }
    std::vector<KvResultMessage> results = ep.Flush();
    for (size_t s = 0; s < results.size(); s++) {
      if (results[s].code == ResultCode::kOk) {
        acked[writes[s].first] = writes[s].second;
      }
    }
    // Advance the clock between batches so heartbeats (and the scripted
    // crash) interleave with the workload.
    sim.RunUntil(sim.Now() + 100 * kMicrosecond);
  }

  FailoverPoint point;
  point.downtime_us = static_cast<double>(group.stats().last_failover_downtime_ns) /
                      1e3;
  const KvEndpoint::Stats stats = ep.endpoint_stats();
  point.amplification =
      stats.packets_sent > 0
          ? static_cast<double>(stats.packets_sent + stats.retransmits) /
                static_cast<double>(stats.packets_sent)
          : 1.0;
  point.epoch = group.epoch();
  point.failovers = group.stats().failovers;
  point.acked_writes = acked.size();
  for (const auto& [id, value] : acked) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(id);
    KvResultMessage r = group.Execute(op);
    if (r.code != ResultCode::kOk || AsU64(r.value) != value) {
      point.lost_acked_writes++;
    }
  }
  return point;
}

// Latency attribution for a replicated workload: an RF-3 group with request
// tracing on. Relative to a single server, writes gain log_append (retire ->
// log append) and quorum_wait (append -> quorum commit) stages; the
// commit-wait histogram is the same interval as a plain replication-health
// metric, recorded with tracing off too.
void TracedBreakdown(kvd::bench::JsonReport& report) {
  ReplicationConfig config = BaseConfig(3);
  config.enable_request_tracing = true;
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  KvEndpoint& ep = client;  // the driver sees only the endpoint interface

  constexpr uint64_t kKeys = 256;
  constexpr uint64_t kOps = 4000;
  constexpr uint64_t kBatch = 64;
  Rng mix(2026);
  bench::DriveBatches(ep, kOps, kBatch, [&] {
    const uint64_t k = mix.NextBelow(kKeys);
    KvOperation op;
    op.key = Key(k);
    if (mix.NextDouble() < 0.5) {
      op.opcode = Opcode::kPut;
      op.value = U64Value(mix.Next());
    } else {
      op.opcode = Opcode::kGet;
    }
    return op;
  });

  const LatencyBreakdown& breakdown = group.breakdown();
  std::printf("\n=== Replication — per-stage latency attribution (RF 3) ===\n");
  std::printf("(mean ns per stage; log_append and quorum_wait are the\n"
              " replication-specific stages)\n\n%s",
              LatencyBreakdownReport::Table(breakdown).c_str());
  const LatencyHistogram& wait = group.commit_wait_ns();
  std::printf("commit wait (append -> quorum ack): mean %.0f ns, p99 %llu ns "
              "over %llu writes\n",
              wait.mean(), static_cast<unsigned long long>(wait.Percentile(0.99)),
              static_cast<unsigned long long>(wait.count()));

  report.BeginSeries("breakdown");
  for (size_t op = 0; op < LatencyBreakdown::kNumOpcodes; op++) {
    const Opcode opcode = static_cast<Opcode>(op);
    const LatencyHistogram& e2e = breakdown.EndToEnd(opcode);
    if (e2e.count() == 0) {
      continue;
    }
    kvd::bench::JsonReport::Fields row;
    row.emplace_back("opcode", static_cast<double>(op));
    row.emplace_back("ops", static_cast<double>(e2e.count()));
    const double n = static_cast<double>(e2e.count());
    double stage_sum = 0;
    for (size_t point = 1; point < kNumTracePoints; point++) {
      const LatencyHistogram& stage =
          breakdown.Stage(opcode, static_cast<TracePoint>(point));
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
  report.AddRow({{"commit_wait_mean_ns", wait.mean()},
                 {"commit_wait_p99_ns",
                  static_cast<double>(wait.Percentile(0.99))},
                 {"commit_wait_count", static_cast<double>(wait.count())}});
}

// Sharded cluster health: 2 groups x RF 3 on one clock under the cluster
// control plane (ClusterCoordinator + ClusterClient, src/cluster); per-group
// commit-wait and propagation-lag histograms are combined with
// LatencyHistogram::Merge, so the cluster percentiles are exactly the
// pooled-sample percentiles.
void ShardedClusterHealth(kvd::bench::JsonReport& report) {
  ClusterConfig config;
  config.num_groups = 2;
  config.num_partitions = 2;
  config.group = BaseConfig(3);
  ClusterCoordinator cluster(config);
  ClusterClient client(cluster);
  KvEndpoint& ep = client;  // the driver sees only the endpoint interface

  constexpr uint64_t kKeys = 256;
  constexpr uint64_t kOps = 2000;
  constexpr uint64_t kBatch = 64;
  Rng mix(11);
  bench::DriveBatches(ep, kOps, kBatch, [&] {
    const uint64_t k = mix.NextBelow(kKeys);
    KvOperation op;
    op.key = Key(k);
    if (mix.NextDouble() < 0.5) {
      op.opcode = Opcode::kPut;
      op.value = U64Value(mix.Next());
    } else {
      op.opcode = Opcode::kGet;
    }
    return op;
  });

  LatencyHistogram commit_wait;
  LatencyHistogram propagation;
  for (uint32_t g = 0; g < cluster.num_groups(); g++) {
    commit_wait.Merge(cluster.group(g).commit_wait_ns());
    propagation.Merge(cluster.group(g).propagation_lag_ns());
  }
  std::printf("\n=== Replication — sharded cluster health (2 groups x RF 3) ===\n");
  std::printf("(per-group histograms merged exactly across the cluster)\n\n");
  std::printf("commit wait:     mean %.0f ns, p99 %llu ns over %llu writes\n",
              commit_wait.mean(),
              static_cast<unsigned long long>(commit_wait.Percentile(0.99)),
              static_cast<unsigned long long>(commit_wait.count()));
  std::printf("propagation lag: mean %.0f ns, p99 %llu ns over %llu windows\n",
              propagation.mean(),
              static_cast<unsigned long long>(propagation.Percentile(0.99)),
              static_cast<unsigned long long>(propagation.count()));

  report.BeginSeries("sharded_cluster");
  report.AddRow(
      {{"shards", static_cast<double>(cluster.num_groups())},
       {"commit_wait_mean_ns", commit_wait.mean()},
       {"commit_wait_p99_ns",
        static_cast<double>(commit_wait.Percentile(0.99))},
       {"commit_wait_count", static_cast<double>(commit_wait.count())},
       {"propagation_lag_mean_ns", propagation.mean()},
       {"propagation_lag_p99_ns",
        static_cast<double>(propagation.Percentile(0.99))}});
}

}  // namespace
}  // namespace kvd

int main(int argc, char** argv) {
  using kvd::TablePrinter;
  kvd::bench::JsonReport report("replication");

  if (kvd::bench::GoldenArg(argc, argv)) {
    // Golden mode: the RF-3 throughput cell alone (same seed, so the row
    // matches the full sweep's RF-3 row byte-for-byte).
    report.BeginSeries("replication_factor");
    const kvd::FactorPoint p = kvd::RunFactor(3, /*seed=*/2026);
    report.AddRow({{"replicas", static_cast<double>(p.replicas)},
                   {"quorum", static_cast<double>(p.quorum)},
                   {"throughput_mops", p.throughput_mops},
                   {"entries_per_write", p.entries_per_write},
                   {"backup_read_share", p.backup_read_share}});
    return report.WriteIfRequested(kvd::bench::JsonPathArg(argc, argv)) ? 0 : 1;
  }

  std::printf("\n=== Replication — throughput vs replication factor ===\n");
  std::printf("(majority quorum, YCSB-A 50/50 put/get, reads round-robin\n"
              " across replicas, simulated time)\n\n");
  report.BeginSeries("replication_factor");
  TablePrinter factor_table({"replicas", "quorum", "throughput_Mops",
                             "entries/write", "backup_read_share"});
  for (const uint32_t replicas : {1u, 2u, 3u, 5u}) {
    const kvd::FactorPoint p = kvd::RunFactor(replicas, /*seed=*/2026);
    factor_table.AddRow({TablePrinter::Int(p.replicas), TablePrinter::Int(p.quorum),
                         TablePrinter::Num(p.throughput_mops, 3),
                         TablePrinter::Num(p.entries_per_write, 2),
                         TablePrinter::Num(p.backup_read_share, 2)});
    report.AddRow({{"replicas", static_cast<double>(p.replicas)},
                   {"quorum", static_cast<double>(p.quorum)},
                   {"throughput_mops", p.throughput_mops},
                   {"entries_per_write", p.entries_per_write},
                   {"backup_read_share", p.backup_read_share}});
  }
  factor_table.Print();

  std::printf("\n=== Replication — failover under a scripted primary crash ===\n");
  std::printf("(RF 3, primary crashes at the first heartbeat tick mid-workload;\n"
              " downtime is crash -> promotion in simulated time)\n\n");
  report.BeginSeries("failover");
  const kvd::FailoverPoint f = kvd::RunFailover(/*seed=*/7);
  TablePrinter failover_table({"downtime_us", "amplification", "epoch",
                               "failovers", "acked_writes", "lost_acked"});
  failover_table.AddRow(
      {TablePrinter::Num(f.downtime_us, 1), TablePrinter::Num(f.amplification, 3),
       TablePrinter::Int(f.epoch), TablePrinter::Int(f.failovers),
       TablePrinter::Int(f.acked_writes), TablePrinter::Int(f.lost_acked_writes)});
  report.AddRow({{"downtime_us", f.downtime_us},
                 {"amplification", f.amplification},
                 {"epoch", static_cast<double>(f.epoch)},
                 {"failovers", static_cast<double>(f.failovers)},
                 {"acked_writes", static_cast<double>(f.acked_writes)},
                 {"lost_acked_writes", static_cast<double>(f.lost_acked_writes)}});
  failover_table.Print();
  kvd::TracedBreakdown(report);
  kvd::ShardedClusterHealth(report);
  std::printf("acknowledged writes lost in failover: %llu of %llu\n",
              static_cast<unsigned long long>(f.lost_acked_writes),
              static_cast<unsigned long long>(f.acked_writes));

  if (!report.WriteIfRequested(kvd::bench::JsonPathArg(argc, argv))) {
    return 1;
  }
  return (f.lost_acked_writes == 0 && f.failovers >= 1) ? 0 : 1;
}
