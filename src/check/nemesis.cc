#include "src/check/nemesis.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <map>
#include <memory>

#include "src/cluster/cluster_client.h"
#include "src/cluster/coordinator.h"
#include "src/common/assert.h"
#include "src/common/random.h"

namespace kvd {
namespace {

std::vector<uint8_t> KeyBytes(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, 8);
  return key;
}

std::vector<uint8_t> U64Value(uint64_t v) {
  std::vector<uint8_t> value(8);
  std::memcpy(value.data(), &v, 8);
  return value;
}

// Plays one script against a live cluster: schedules every event (with its
// heal) on the shared clock, guarded so that firing against a changed
// topology — a crashed replica, an already-running migration, a split map —
// degrades to a no-op instead of a crash. The guards are what keep every
// subset of a script runnable, which shrinking depends on.
class ScriptPlayer {
 public:
  ScriptPlayer(ClusterCoordinator& cluster, const FaultScript& script)
      : cluster_(cluster), script_(script) {}

  void ScheduleAll() {
    Simulator& sim = cluster_.simulator();
    const SimTime t0 = sim.Now();
    for (const NemesisEvent& event : script_.events) {
      sim.ScheduleAt(t0 + event.at, [this, event] { Fire(event); });
    }
  }

  // The latest instant any scheduled effect is still active.
  SimTime HealDeadline(SimTime t0) const {
    SimTime deadline = t0;
    for (const NemesisEvent& event : script_.events) {
      deadline = std::max(deadline, t0 + event.at + event.duration);
    }
    return deadline;
  }

 private:
  void Fire(const NemesisEvent& event) {
    Simulator& sim = cluster_.simulator();
    const uint32_t g = event.group % cluster_.num_groups();
    ReplicationGroup& group = cluster_.group(g);
    const uint32_t r = event.replica % group.num_replicas();
    switch (event.kind) {
      case NemesisEventKind::kCrashReplica: {
        uint32_t alive = 0;
        for (uint32_t i = 0; i < group.num_replicas(); i++) {
          alive += group.crashed(i) ? 0 : 1;
        }
        if (group.crashed(r) || alive <= 1) {
          return;  // never fail-stop the last replica standing
        }
        group.CrashReplica(r);
        sim.Schedule(event.duration, [&group, r] {
          if (group.crashed(r)) {
            group.RestartReplica(r);
          }
        });
        return;
      }
      case NemesisEventKind::kPartitionReplica: {
        NetworkModel& link = group.replication_network(r);
        link.SetPartitioned(true, true);
        link.SetPartitioned(false, true);
        sim.Schedule(event.duration, [&link] {
          link.SetPartitioned(true, false);
          link.SetPartitioned(false, false);
        });
        return;
      }
      case NemesisEventKind::kGrayReplica: {
        NetworkModel& link = group.replication_network(r);
        const uint64_t seed = script_.seed ^ (event.at * 0x9e3779b9ull);
        link.SetGrayLink(true, event.multiplier, event.probability, seed);
        link.SetGrayLink(false, event.multiplier, event.probability, seed);
        sim.Schedule(event.duration, [&link] {
          link.SetGrayLink(true, 1.0, 0.0);
          link.SetGrayLink(false, 1.0, 0.0);
        });
        return;
      }
      case NemesisEventKind::kClientLossBurst: {
        FaultInjector& faults = group.faults();
        faults.SetProbability(FaultSite::kNetDropToServer, event.probability);
        faults.SetProbability(FaultSite::kNetDropToClient, event.probability);
        sim.Schedule(event.duration, [&faults] {
          faults.SetProbability(FaultSite::kNetDropToServer, 0.0);
          faults.SetProbability(FaultSite::kNetDropToClient, 0.0);
        });
        return;
      }
      case NemesisEventKind::kCopyLossBurst: {
        FaultInjector& faults = cluster_.migration_faults();
        faults.SetProbability(FaultSite::kNetDropToServer, event.probability);
        faults.SetProbability(FaultSite::kNetDropToClient, event.probability);
        sim.Schedule(event.duration, [&faults] {
          faults.SetProbability(FaultSite::kNetDropToServer, 0.0);
          faults.SetProbability(FaultSite::kNetDropToClient, 0.0);
        });
        return;
      }
      case NemesisEventKind::kStartMigration: {
        if (cluster_.migration_active()) {
          return;
        }
        const uint32_t partitions = cluster_.shard_map().num_partitions();
        const uint32_t partition = event.partition % partitions;
        const uint32_t owner = cluster_.shard_map().OwnerOf(partition);
        uint32_t to = event.to_group % cluster_.num_groups();
        if (to == owner) {
          to = (to + 1) % cluster_.num_groups();
        }
        if (to == owner || !cluster_.group_active(to)) {
          return;
        }
        (void)cluster_.StartMigration(partition, to);
        return;
      }
      case NemesisEventKind::kSplitPartitions:
        (void)cluster_.SplitPartitions();
        return;
    }
  }

  ClusterCoordinator& cluster_;
  FaultScript script_;
};

}  // namespace

std::string NemesisEvent::ToString() const {
  std::string out;
  Appendf(out, "at=%" PRIu64 "us %s", at / kMicrosecond,
          NemesisEventKindName(kind));
  switch (kind) {
    case NemesisEventKind::kCrashReplica:
    case NemesisEventKind::kPartitionReplica:
      Appendf(out, " g%u r%u for %" PRIu64 "us", group, replica,
              duration / kMicrosecond);
      break;
    case NemesisEventKind::kGrayReplica:
      Appendf(out, " g%u r%u x%.1f loss=%.2f for %" PRIu64 "us", group,
              replica, multiplier, probability, duration / kMicrosecond);
      break;
    case NemesisEventKind::kClientLossBurst:
      Appendf(out, " g%u p=%.2f for %" PRIu64 "us", group, probability,
              duration / kMicrosecond);
      break;
    case NemesisEventKind::kCopyLossBurst:
      Appendf(out, " p=%.2f for %" PRIu64 "us", probability,
              duration / kMicrosecond);
      break;
    case NemesisEventKind::kStartMigration:
      Appendf(out, " partition %u -> g%u", partition, to_group);
      break;
    case NemesisEventKind::kSplitPartitions:
      break;
  }
  return out;
}

std::string FaultScript::ToString() const {
  std::string out;
  Appendf(out, "fault script (seed %" PRIu64 ", %zu events):\n", seed,
          events.size());
  for (const NemesisEvent& event : events) {
    out += "  " + event.ToString() + "\n";
  }
  return out;
}

FaultScript GenerateFaultScript(uint64_t seed,
                                const ClusterScenarioOptions& options) {
  FaultScript script;
  script.seed = seed;
  Rng rng(seed ^ 0x6e656d65736973ull);  // decorrelated from workload streams
  const SimTime horizon = options.event_horizon;
  auto uniform_time = [&](SimTime lo, SimTime hi) {
    return lo + rng.NextBelow(hi > lo ? hi - lo : 1);
  };

  // Always one migration trigger: ownership change is the path under test.
  {
    NemesisEvent e;
    e.kind = NemesisEventKind::kStartMigration;
    e.at = uniform_time(horizon / 8, horizon / 2);
    e.partition = static_cast<uint32_t>(rng.Next());
    e.to_group = static_cast<uint32_t>(rng.Next());
    script.events.push_back(e);
  }
  const uint32_t extra =
      options.max_script_events > 4
          ? 3 + static_cast<uint32_t>(rng.NextBelow(
                    options.max_script_events - 3))
          : 3;
  for (uint32_t i = 1; i < extra; i++) {
    NemesisEvent e;
    e.at = uniform_time(50 * kMicrosecond, horizon);
    e.group = static_cast<uint32_t>(rng.Next());
    e.replica = static_cast<uint32_t>(rng.Next());
    const uint64_t pick = rng.NextBelow(100);
    if (pick < 25) {
      e.kind = NemesisEventKind::kCrashReplica;
      e.duration = uniform_time(500 * kMicrosecond, 3 * kMillisecond);
    } else if (pick < 40) {
      e.kind = NemesisEventKind::kPartitionReplica;
      e.duration = uniform_time(300 * kMicrosecond, 2 * kMillisecond);
    } else if (pick < 55) {
      e.kind = NemesisEventKind::kGrayReplica;
      e.duration = uniform_time(500 * kMicrosecond, 3 * kMillisecond);
      e.multiplier = 2.0 + static_cast<double>(rng.NextBelow(7));
      e.probability = 0.05 + 0.25 * rng.NextDouble();
    } else if (pick < 70) {
      e.kind = NemesisEventKind::kClientLossBurst;
      e.duration = uniform_time(200 * kMicrosecond, 1200 * kMicrosecond);
      e.probability = 0.3 + 0.5 * rng.NextDouble();
    } else if (pick < 80) {
      e.kind = NemesisEventKind::kCopyLossBurst;
      e.duration = uniform_time(200 * kMicrosecond, 1200 * kMicrosecond);
      e.probability = 0.3 + 0.5 * rng.NextDouble();
    } else if (pick < 90) {
      e.kind = NemesisEventKind::kStartMigration;
      e.partition = static_cast<uint32_t>(rng.Next());
      e.to_group = static_cast<uint32_t>(rng.Next());
    } else {
      e.kind = NemesisEventKind::kSplitPartitions;
    }
    script.events.push_back(e);
  }
  std::stable_sort(script.events.begin(), script.events.end(),
                   [](const NemesisEvent& a, const NemesisEvent& b) {
                     return a.at < b.at;
                   });
  return script;
}

ScenarioOutcome RunClusterScenario(const ClusterScenarioOptions& options,
                                   const FaultScript& script) {
  ClusterConfig config;
  config.num_groups = options.num_groups;
  config.num_partitions = options.num_partitions;
  config.group.num_replicas = options.num_replicas;
  config.group.server.kvs_memory_bytes = 8 * kMiB;
  config.group.server.nic_dram.capacity_bytes = 1 * kMiB;
  // A small, slowly paced copy stream keeps the copy phase open for hundreds
  // of microseconds, so workload rounds (paced across the event horizon
  // below) genuinely overlap it: forwards race chunk installs, which is the
  // window the touched-key guard exists for.
  config.copy_chunk_kvs = 2;
  config.copy_bytes_per_sec = 1e6;
  config.test_bugs.disable_migration_touched_key_guard =
      options.inject_lost_update_bug;
  ClusterCoordinator cluster(config);
  Simulator& sim = cluster.simulator();

  // Keys spread round-robin over partitions, pre-loaded as counters.
  const KeyRouter router = cluster.router();
  std::vector<std::vector<uint8_t>> keys;
  std::map<std::vector<uint8_t>, uint64_t> base;
  uint64_t next_id = 0;
  for (uint32_t j = 0; j < options.num_keys; j++) {
    const uint32_t target = j % options.num_partitions;
    while (router.PartitionOf(KeyBytes(next_id)) != target) {
      next_id++;
    }
    std::vector<uint8_t> key = KeyBytes(next_id++);
    const uint64_t value = 1000 + j;
    KVD_CHECK(cluster.Load(key, U64Value(value)).ok());
    base[key] = value;
    keys.push_back(std::move(key));
  }

  // Recording clients on the shared clock (split-phase flushes, so their
  // packets genuinely interleave).
  HistoryRecorder recorder;
  ClusterClient::Options client_options;
  client_options.timeout = 200 * kMicrosecond;
  client_options.max_attempts = 16;
  std::vector<std::unique_ptr<ClusterClient>> clients;
  std::vector<uint64_t> sessions;
  for (uint32_t c = 0; c < options.num_clients; c++) {
    clients.push_back(
        std::make_unique<ClusterClient>(cluster, client_options));
    sessions.push_back(recorder.OpenSession());
  }

  ScriptPlayer player(cluster, script);
  const SimTime t0 = sim.Now();
  player.ScheduleAll();

  // Rounds are paced across the event horizon so the workload overlaps the
  // scripted faults — a burst that finishes before the first crash or
  // migration event would exercise nothing.
  const SimTime round_gap = options.event_horizon / (options.rounds + 1);
  Rng workload(script.seed ^ 0x776f726b6c6f6164ull);
  for (uint32_t round = 0; round < options.rounds; round++) {
    if (sim.Now() < t0 + round * round_gap) {
      sim.RunUntil(t0 + round * round_gap);
    }
    std::vector<std::vector<size_t>> handles(clients.size());
    for (size_t c = 0; c < clients.size(); c++) {
      for (uint32_t i = 0; i < options.ops_per_round; i++) {
        KvOperation op;
        op.key = keys[workload.NextBelow(keys.size())];
        if (workload.NextBool(options.get_ratio)) {
          op.opcode = Opcode::kGet;
        } else {
          op.opcode = Opcode::kUpdateScalar;
          op.function_id = kFnAddU64;
          op.param = 1 + workload.NextBelow(8);
        }
        handles[c].push_back(
            recorder.RecordInvoke(sessions[c], op, sim.Now()));
        clients[c]->Enqueue(std::move(op));
      }
    }
    for (auto& client : clients) {
      client->BeginFlush();
    }
    auto all_done = [&clients] {
      for (const auto& client : clients) {
        if (!client->flush_done()) {
          return false;
        }
      }
      return true;
    };
    while (!all_done() && sim.Step()) {
    }
    for (size_t c = 0; c < clients.size(); c++) {
      std::vector<KvResultMessage> results = clients[c]->TakeResults();
      KVD_CHECK(results.size() == handles[c].size());
      for (size_t i = 0; i < results.size(); i++) {
        recorder.RecordReturn(handles[c][i], results[i], sim.Now());
      }
    }
  }

  // Let every scheduled effect land and heal, then finish any migration.
  sim.RunUntil(player.HealDeadline(t0) + 1 * kMillisecond);
  if (cluster.migration_active()) {
    cluster.DriveMigrationToCompletion();
  }

  // Quiescent final reads: every key, retried in case a straggler window is
  // still settling. All recorded — a failed attempt is just more history.
  for (int attempt = 0; attempt < 5; attempt++) {
    std::vector<size_t> handles;
    for (const auto& key : keys) {
      KvOperation op;
      op.opcode = Opcode::kGet;
      op.key = key;
      handles.push_back(recorder.RecordInvoke(sessions[0], op, sim.Now()));
      clients[0]->Enqueue(std::move(op));
    }
    std::vector<KvResultMessage> results = clients[0]->Flush();
    bool all_ok = true;
    for (size_t i = 0; i < results.size(); i++) {
      recorder.RecordReturn(handles[i], results[i], sim.Now());
      all_ok = all_ok && results[i].code == ResultCode::kOk;
    }
    if (all_ok) {
      break;
    }
  }

  ScenarioOutcome outcome;
  outcome.history = recorder.history();
  outcome.fingerprint = outcome.history.Fingerprint();
  CheckOptions check = options.check;
  for (const auto& [key, value] : base) {
    check.initial_values[key] = U64Value(value);
  }
  outcome.linearizability = CheckLinearizability(outcome.history, check);
  outcome.session_audit = AuditSessionGuarantees(outcome.history);
  outcome.exactly_once = AuditExactlyOnceCounters(outcome.history, base);
  outcome.ok = outcome.linearizability.status != CheckStatus::kViolation &&
               outcome.session_audit.ok() && outcome.exactly_once.ok();

  outcome.report = script.ToString();
  Appendf(outcome.report, "history: %zu ops, fingerprint %s\n",
          outcome.history.ops.size(), outcome.fingerprint.c_str());
  outcome.report += outcome.linearizability.ToString();
  outcome.report += outcome.session_audit.ToString();
  outcome.report += outcome.exactly_once.ToString();
  return outcome;
}

FaultScript ShrinkFaultScript(const FaultScript& script, const ScenarioFn& fn,
                              uint32_t max_runs, uint32_t* runs_used,
                              std::string* final_report) {
  FaultScript current = script;
  uint32_t runs = 0;
  bool improved = true;
  while (improved && runs < max_runs) {
    improved = false;
    for (size_t i = 0; i < current.events.size() && runs < max_runs;) {
      FaultScript candidate = current;
      candidate.events.erase(candidate.events.begin() + i);
      runs++;
      if (!fn(candidate, nullptr)) {
        current = std::move(candidate);  // still fails without the event
        improved = true;
      } else {
        i++;
      }
    }
  }
  if (final_report != nullptr) {
    runs++;
    const bool still_fails = !fn(current, final_report);
    if (!still_fails) {
      // Greedy shrinking only removes events whose absence preserves the
      // failure, so the minimal script must still fail; flag it if not.
      *final_report += "\nWARNING: shrunk script no longer fails\n";
    }
  }
  if (runs_used != nullptr) {
    *runs_used = runs;
  }
  return current;
}

NemesisResult RunSeedMatrix(const NemesisOptions& options,
                            const ScenarioFn& fn) {
  NemesisResult result;
  for (uint32_t i = 0; i < options.num_seeds; i++) {
    const uint64_t seed = options.base_seed + i;
    FaultScript script = GenerateFaultScript(seed, options.scenario);
    result.seeds_run++;
    std::string report;
    if (fn(script, &report)) {
      continue;
    }
    result.ok = false;
    result.failing_seed = seed;
    result.original_script = script;
    result.shrunk_script =
        ShrinkFaultScript(script, fn, options.max_shrink_runs,
                          &result.shrink_runs, &result.failure_report);
    return result;
  }
  return result;
}

NemesisResult RunSeedMatrix(const NemesisOptions& options) {
  const ClusterScenarioOptions scenario = options.scenario;
  return RunSeedMatrix(
      options, [&scenario](const FaultScript& script, std::string* report) {
        ScenarioOutcome outcome = RunClusterScenario(scenario, script);
        if (report != nullptr) {
          *report = outcome.report;
        }
        return outcome.ok;
      });
}

std::string NemesisResult::ToString() const {
  std::string out;
  if (ok) {
    Appendf(out, "nemesis matrix: %u seeds, no violation\n", seeds_run);
    return out;
  }
  Appendf(out,
          "nemesis matrix: violation at seed %" PRIu64 " (after %u seeds)\n",
          failing_seed, seeds_run);
  Appendf(out, "original script: %zu events; shrunk to %zu in %u runs\n",
          original_script.events.size(), shrunk_script.events.size(),
          shrink_runs);
  out += "minimal reproducer:\n";
  out += failure_report;
  return out;
}

}  // namespace kvd
