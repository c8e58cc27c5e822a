// Elastic rebalancing: live shard migration under sustained load.
//
// A 4-group / 12-partition cluster (RF 3) serves a YCSB-A mix (50% update /
// 50% read) with an engineered hotspot: 80% of operations target the three
// partitions owned by group 0, making it a >=3.2x hotspot (max group load /
// mean group load). Key choice is a deterministic rotation realizing the
// 80/20 split exactly, so measured load fractions carry no sampling noise.
//
// The run has three measured phases on one simulated clock:
//
//   steady    — baseline batches; per-partition load counters accumulate and
//               feed Rebalancer::Plan.
//   migrating — the plan's moves execute one at a time via
//               ClusterCoordinator::StartMigration while the same client
//               keeps issuing batches. Copy traffic is rate-bounded in the
//               background; only the brief write-freeze at each cutover can
//               touch client latency.
//   post      — load counters reset, the same mix re-measured against the
//               rebalanced map.
//
// Updates are fetch-and-add increments, so the zero-lost-acked-writes check
// is exact: for every key, final value == preloaded base + number of acked
// increments. A lost acked write, a value resurrected from a stale copy
// chunk, or a doubly applied forward all break the equality.
//
// Acceptance bars (non-zero exit on any miss):
//   - zero lost acked writes across all migrations;
//   - migrating-phase p99 batch latency <= 2x steady p99;
//   - post-rebalance imbalance <= 1.25x from the >= 3x hotspot;
//   - the plan actually moved something.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json_report.h"
#include "src/cluster/cluster_client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/rebalancer.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"

namespace kvd {
namespace {

using bench::AsU64;
using bench::Key;
using bench::U64Value;

double Imbalance(const std::vector<uint64_t>& loads) {
  uint64_t max_load = 0;
  uint64_t total = 0;
  for (const uint64_t load : loads) {
    max_load = std::max(max_load, load);
    total += load;
  }
  if (total == 0) {
    return 0;
  }
  const double mean = static_cast<double>(total) / loads.size();
  return static_cast<double>(max_load) / mean;
}

struct RebalanceResult {
  double initial_imbalance = 0;
  double final_imbalance = 0;
  double projected_imbalance = 0;
  uint64_t moves = 0;
  double steady_p99_us = 0;
  double migrate_p99_us = 0;
  double migrate_max_us = 0;
  uint64_t lost_acked_writes = 0;
  uint64_t acked_increments = 0;
  uint64_t copy_kvs = 0;
  uint64_t forwards = 0;
  uint64_t wrong_shard_bounces = 0;
  uint64_t map_epoch = 0;
};

constexpr uint32_t kGroups = 4;
constexpr uint32_t kPartitions = 12;
constexpr uint32_t kBatchOps = 32;
constexpr SimTime kBatchGap = 150 * kMicrosecond;  // closed-loop think time
constexpr uint64_t kSteadyBatches = 50;
constexpr uint64_t kPostBatches = 50;
constexpr uint64_t kMaxBatchesPerMove = 600;
constexpr size_t kHotKeysPerPartition = 192;
constexpr size_t kColdKeysPerPartition = 24;

// Deterministic 80/20 hotspot with a 50/50 update/read mix. Op n:
//   n % 5 in {0..3}  -> a hot partition (group 0's three), rotating;
//   n % 5 == 4       -> a cold partition, rotating across the nine others;
// within each partition the key rotates through its pool, and odd ops read
// while even ops increment.
class HotspotWorkload {
 public:
  HotspotWorkload(const KeyRouter& router, std::vector<uint32_t> hot,
                  std::vector<uint32_t> cold)
      : hot_(std::move(hot)), cold_(std::move(cold)), pools_(kPartitions) {
    size_t filled = 0;
    for (uint64_t id = 0; filled < hot_.size() + cold_.size() && id < 1000000;
         id++) {
      const uint32_t p = router.PartitionOf(Key(id));
      const size_t quota = Quota(p);
      if (pools_[p].size() < quota) {
        pools_[p].push_back(id);
        if (pools_[p].size() == quota) {
          filled++;
        }
      }
    }
    KVD_CHECK(filled == hot_.size() + cold_.size());
  }

  const std::vector<uint64_t>& pool(uint32_t partition) const {
    return pools_[partition];
  }

  // Next (op, increment?) pair; `id_out` reports the key id.
  KvOperation Next(bool* is_increment, uint64_t* id_out) {
    const uint64_t n = next_++;
    uint32_t partition;
    if (n % 5 < 4) {
      partition = hot_[(n / 5) % hot_.size()];
    } else {
      partition = cold_[(n / 5) % cold_.size()];
    }
    const std::vector<uint64_t>& pool = pools_[partition];
    const uint64_t id = pool[cursor_[partition]++ % pool.size()];
    *id_out = id;
    *is_increment = (n % 2 == 0);
    KvOperation op;
    op.key = Key(id);
    if (*is_increment) {
      op.opcode = Opcode::kUpdateScalar;
      op.function_id = kFnAddU64;
      op.param = 1;
    } else {
      op.opcode = Opcode::kGet;
    }
    return op;
  }

 private:
  size_t Quota(uint32_t partition) const {
    for (const uint32_t h : hot_) {
      if (h == partition) {
        return kHotKeysPerPartition;
      }
    }
    return kColdKeysPerPartition;
  }

  std::vector<uint32_t> hot_;
  std::vector<uint32_t> cold_;
  std::vector<std::vector<uint64_t>> pools_;
  uint64_t next_ = 0;
  std::map<uint32_t, uint64_t> cursor_;
};

RebalanceResult RunRebalance() {
  ClusterConfig config;
  config.num_groups = kGroups;
  config.num_partitions = kPartitions;
  config.group.num_replicas = 3;
  config.group.server.kvs_memory_bytes = 8 * kMiB;
  config.group.server.nic_dram.capacity_bytes = 1 * kMiB;
  // Slow, visibly background copy: each hot partition takes many client
  // batches to stream, so the migrating-phase histogram is dominated by
  // batches that run concurrently with the copy, not by the cutover freeze.
  config.copy_bytes_per_sec = 1e5;
  config.copy_chunk_kvs = 32;
  // Pacing gaps between chunks exceed the default go-back-N timeout; keep the
  // retransmit clock above the pacing interval.
  config.copy_retransmit_timeout = 20 * kMillisecond;
  // The freeze window only has to outlast the source pipeline's residence
  // time, which is single-digit microseconds here; the defaults are sized for
  // chaos runs. A tight quiesce keeps the cutover unavailability window well
  // under the client's think time.
  config.migration_poll_interval = 25 * kMicrosecond;
  config.cutover_quiesce = 50 * kMicrosecond;
  ClusterCoordinator cluster(config);
  Simulator& sim = cluster.simulator();
  const KeyRouter router = cluster.router();

  // Group 0 owns partitions 0, 4, 8 under the initial round-robin map.
  std::vector<uint32_t> hot;
  std::vector<uint32_t> cold;
  for (uint32_t p = 0; p < kPartitions; p++) {
    (cluster.shard_map().OwnerOf(p) == 0 ? hot : cold).push_back(p);
  }
  HotspotWorkload workload(router, hot, cold);

  // Preload every key with a known base.
  std::map<uint64_t, uint64_t> base;
  for (uint32_t p = 0; p < kPartitions; p++) {
    for (const uint64_t id : workload.pool(p)) {
      KVD_CHECK(cluster.Load(Key(id), U64Value(1000 + id)).ok());
      base[id] = 1000 + id;
    }
  }

  ClusterClient::Options client_options;
  client_options.redirect_backoff = 10 * kMicrosecond;
  client_options.migrate_backoff = 20 * kMicrosecond;
  ClusterClient client(cluster, client_options);
  std::map<uint64_t, uint64_t> acked;  // id -> acked increments
  uint64_t acked_total = 0;

  auto run_batch = [&](LatencyHistogram* hist) {
    std::vector<std::pair<bool, uint64_t>> batch_ops;  // (increment?, id)
    for (uint32_t i = 0; i < kBatchOps; i++) {
      bool inc = false;
      uint64_t id = 0;
      client.Enqueue(workload.Next(&inc, &id));
      batch_ops.emplace_back(inc, id);
    }
    const SimTime start = sim.Now();
    const std::vector<KvResultMessage> results = client.Flush();
    hist->Add((sim.Now() - start) / kNanosecond);
    for (size_t i = 0; i < results.size(); i++) {
      if (batch_ops[i].first && results[i].code == ResultCode::kOk) {
        acked[batch_ops[i].second]++;
        acked_total++;
      }
    }
    sim.RunUntil(sim.Now() + kBatchGap);
  };

  RebalanceResult result;

  // --- steady phase ---
  cluster.ResetLoadCounters();
  LatencyHistogram steady_ns;
  for (uint64_t b = 0; b < kSteadyBatches; b++) {
    run_batch(&steady_ns);
  }
  result.initial_imbalance = Imbalance(cluster.GroupLoads());

  // --- plan and migrate under load ---
  std::vector<uint8_t> active(cluster.num_groups(), 1);
  const RebalancePlan plan =
      Rebalancer::Plan(cluster.shard_map(), cluster.partition_ops(), active);
  result.projected_imbalance = plan.projected_imbalance;
  result.moves = plan.moves.size();
  LatencyHistogram migrate_ns;
  for (const RebalanceMove& move : plan.moves) {
    KVD_CHECK(cluster.StartMigration(move.partition, move.to_group).ok());
    uint64_t batches = 0;
    while (cluster.migration_active() && batches < kMaxBatchesPerMove) {
      run_batch(&migrate_ns);
      batches++;
    }
    if (cluster.migration_active()) {
      cluster.DriveMigrationToCompletion();
    }
  }

  // --- post-rebalance phase ---
  cluster.ResetLoadCounters();
  LatencyHistogram post_ns;
  for (uint64_t b = 0; b < kPostBatches; b++) {
    run_batch(&post_ns);
  }
  result.final_imbalance = Imbalance(cluster.GroupLoads());

  // --- the exactness check: every acked increment applied exactly once ---
  for (const auto& [id, base_value] : base) {
    const uint32_t p = router.PartitionOf(Key(id));
    const uint32_t owner = cluster.shard_map().OwnerOf(p);
    KvOperation get;
    get.opcode = Opcode::kGet;
    get.key = Key(id);
    const KvResultMessage r = cluster.group(owner).Execute(get);
    const uint64_t want = base_value + acked[id];
    if (r.code != ResultCode::kOk || AsU64(r.value) != want) {
      result.lost_acked_writes++;
    }
  }

  result.acked_increments = acked_total;
  result.steady_p99_us = static_cast<double>(steady_ns.Percentile(0.99)) / 1e3;
  result.migrate_p99_us =
      static_cast<double>(migrate_ns.Percentile(0.99)) / 1e3;
  result.migrate_max_us = static_cast<double>(migrate_ns.max()) / 1e3;
  result.copy_kvs = cluster.stats().copy_kvs;
  result.forwards = cluster.stats().forwards;
  result.wrong_shard_bounces = client.stats().wrong_shard_bounces;
  result.map_epoch = cluster.map_epoch();
  return result;
}

bool BarsPass(const RebalanceResult& r) {
  return r.lost_acked_writes == 0 && r.moves >= 1 &&
         r.initial_imbalance >= 3.0 && r.final_imbalance <= 1.25 &&
         r.migrate_p99_us <= 2.0 * r.steady_p99_us;
}

void AddReportRow(kvd::bench::JsonReport& report, const RebalanceResult& r) {
  report.BeginSeries("rebalance");
  report.AddRow({{"initial_imbalance", r.initial_imbalance},
                 {"final_imbalance", r.final_imbalance},
                 {"projected_imbalance", r.projected_imbalance},
                 {"moves", static_cast<double>(r.moves)},
                 {"steady_p99_us", r.steady_p99_us},
                 {"migrate_p99_us", r.migrate_p99_us},
                 {"lost_acked_writes", static_cast<double>(r.lost_acked_writes)},
                 {"acked_increments", static_cast<double>(r.acked_increments)},
                 {"copy_kvs", static_cast<double>(r.copy_kvs)},
                 {"forwards", static_cast<double>(r.forwards)},
                 {"map_epoch", static_cast<double>(r.map_epoch)}});
}

}  // namespace
}  // namespace kvd

int main(int argc, char** argv) {
  using kvd::TablePrinter;
  kvd::bench::JsonReport report("rebalance");

  const kvd::RebalanceResult r = kvd::RunRebalance();
  AddReportRow(report, r);

  if (kvd::bench::GoldenArg(argc, argv)) {
    // Golden mode: same deterministic run, JSON only.
    if (!report.WriteIfRequested(kvd::bench::JsonPathArg(argc, argv))) {
      return 1;
    }
    return kvd::BarsPass(r) ? 0 : 1;
  }

  std::printf("\n=== Rebalance — live migration under a 3.2x hotspot ===\n");
  std::printf("(4 groups RF 3, 12 partitions, YCSB-A 50/50 increment/read,\n"
              " 80%% of ops on group 0's partitions; plan moves execute live\n"
              " under sustained load, simulated time)\n\n");
  TablePrinter table({"initial_imb", "final_imb", "projected_imb", "moves",
                      "steady_p99_us", "migrate_p99_us", "migrate_max_us"});
  table.AddRow({TablePrinter::Num(r.initial_imbalance, 3),
                TablePrinter::Num(r.final_imbalance, 3),
                TablePrinter::Num(r.projected_imbalance, 3),
                TablePrinter::Int(r.moves),
                TablePrinter::Num(r.steady_p99_us, 1),
                TablePrinter::Num(r.migrate_p99_us, 1),
                TablePrinter::Num(r.migrate_max_us, 1)});
  table.Print();
  std::printf("\nacked increments: %llu, lost acked writes: %llu\n",
              static_cast<unsigned long long>(r.acked_increments),
              static_cast<unsigned long long>(r.lost_acked_writes));
  std::printf("copy kvs: %llu, forwards: %llu, client wrong-shard bounces: "
              "%llu, map epoch: %llu\n",
              static_cast<unsigned long long>(r.copy_kvs),
              static_cast<unsigned long long>(r.forwards),
              static_cast<unsigned long long>(r.wrong_shard_bounces),
              static_cast<unsigned long long>(r.map_epoch));
  std::printf("bars: lost_acked==0 %s, moves>=1 %s, initial>=3.0 %s, "
              "final<=1.25 %s, migrate_p99<=2x steady %s\n",
              r.lost_acked_writes == 0 ? "PASS" : "FAIL",
              r.moves >= 1 ? "PASS" : "FAIL",
              r.initial_imbalance >= 3.0 ? "PASS" : "FAIL",
              r.final_imbalance <= 1.25 ? "PASS" : "FAIL",
              r.migrate_p99_us <= 2.0 * r.steady_p99_us ? "PASS" : "FAIL");

  if (!report.WriteIfRequested(kvd::bench::JsonPathArg(argc, argv))) {
    return 1;
  }
  return kvd::BarsPass(r) ? 0 : 1;
}
