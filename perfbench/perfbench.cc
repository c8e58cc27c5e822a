// The repository benchmark: framed YCSB traffic through the production
// client path (KvEndpoint Enqueue/Flush) of one server, one RF3 replication
// group, or a 4-group x RF3 cluster. One process, one thread, one closed-loop
// client issuing 256-op batches.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--json <path>]
//
// --trace 0 measures the end-to-end metrics. It repeats set-up, warm-up and
// one fixed phase of the seeded op stream on a fresh topology until
// --seconds have passed, and reports simulated throughput and flush latency
// (identical in every repetition), host time per op (median segment over
// all repetitions), set-up time (median set-up) and peak RSS.
// --trace 1 measures the per-layer metrics. It runs the phase once untraced
// (simulated counters from the metric registries) and once with request
// tracing on, then times each layer's public functions on the workload's
// own ops (perfbench/layers.h). --seconds does not pace it.
//
// Both modes check every result against a shadow map and read every touched
// key back untimed; the process exits 1 on any failed op or mismatch.
// perfbench/README.md describes the workloads and the metrics.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/json_report.h"
#include "perfbench/layers.h"
#include "perfbench/phase.h"
#include "perfbench/topology.h"
#include "src/common/assert.h"

namespace kvd {
namespace perfbench {
namespace {

// Set-ups per measured run at least; setup_s is their median.
constexpr size_t kMinSetups = 7;
// Calibration samples averaged on each side of a set-up.
constexpr int kSetupCalibrations = 4;
// The calibration loop's ns per iteration on a quiet 4-vCPU Xeon VM: the
// host speed setup_s is scaled to.
constexpr double kReferenceCalibrationNs = 200;
// Batches kept for the per-layer probes.
constexpr size_t kSampleBatches = 64;
constexpr SimTime kDepthSampleInterval = 1 * kMicrosecond;

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  const char* json_path = nullptr;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args->spec = FindWorkload(value);
      if (args->spec == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", value);
        return false;
      }
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--json") == 0) {
      args->json_path = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag);
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag, value);
      return false;
    }
  }
  if (args->spec == nullptr) {
    std::fprintf(stderr, "--workload is required; one of:");
    for (const WorkloadSpec& spec : AllWorkloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()),
                   spec.name.data());
    }
    std::fprintf(stderr, "\n");
    return false;
  }
  return true;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// Collects metrics in print order for the table and the JSON record.
class Report {
 public:
  void Add(std::string name, double value, const char* unit,
           std::string note = "") {
    rows_.push_back({std::move(name), value, unit, std::move(note)});
  }
  void Print(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Row& row : rows_) {
      std::printf("  %-30s %16.6g %-8s %s\n", row.name.c_str(), row.value,
                  row.unit, row.note.c_str());
    }
  }
  bench::JsonReport::Fields Fields() const {
    bench::JsonReport::Fields fields;
    for (const Row& row : rows_) {
      fields.emplace_back(row.name, row.value);
    }
    return fields;
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

std::string SpreadNote(const Quartiles& q, size_t samples) {
  char note[96];
  std::snprintf(note, sizeof(note), "within-run spread %.3f over %zu", q.spread(),
                samples);
  return note;
}

// Pass/fail bookkeeping over every op the run issued.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  bool nondeterministic = false;
  std::string first_error;

  void AddPhase(const PhaseResult& phase) {
    attempted += phase.ops;
    failed += phase.failed;
    mismatches += phase.mismatches;
    Note(phase.first_error);
  }
  void AddReadBack(const ReadBack& check) {
    attempted += check.keys;
    mismatches += check.mismatches;
    Note(check.first_error);
  }
  void Note(const std::string& error) {
    if (first_error.empty()) {
      first_error = error;
    }
  }
  bool correct() const {
    return failed == 0 && mismatches == 0 && !nondeterministic;
  }
};

std::unique_ptr<Topology> BuildLoaded(const WorkloadSpec& spec,
                                      const YcsbWorkload& workload, bool traced,
                                      double* load_ns_per_key) {
  auto topology = std::make_unique<Topology>(spec, traced);
  const HostTime start = HostNow();
  const uint64_t loaded = Preload(*topology, workload);
  const HostTime end = HostNow();
  if (loaded != workload.config().num_keys) {
    std::fprintf(stderr, "preload stopped at %" PRIu64 " of %" PRIu64 " keys\n",
                 loaded, workload.config().num_keys);
    std::exit(1);
  }
  if (load_ns_per_key != nullptr) {
    *load_ns_per_key =
        static_cast<double>(end.wall_ns - start.wall_ns) / static_cast<double>(loaded);
  }
  return topology;
}

// Set-up wall seconds, raw and scaled to a host whose calibration loop
// takes kReferenceCalibrationNs per iteration (measured just before and
// after each set-up), so a slow spell on a shared host does not read as a
// slower set-up.
struct Setups {
  std::vector<double> wall_s;
  std::vector<double> scaled_s;
};

// Builds and loads an untraced topology and records its set-up time
// (teardown excluded).
std::unique_ptr<Topology> TimedSetup(const WorkloadSpec& spec,
                                     const YcsbWorkload& workload, Setups* setups) {
  const auto calibrate = [] {
    double sum = 0;
    for (int i = 0; i < kSetupCalibrations; i++) {
      sum += CalibrationNsPerIteration();
    }
    return sum / kSetupCalibrations;
  };
  const double before = calibrate();
  const HostTime start = HostNow();
  std::unique_ptr<Topology> topology =
      BuildLoaded(spec, workload, /*traced=*/false, nullptr);
  const double wall_s = static_cast<double>(HostNow().wall_ns - start.wall_ns) / 1e9;
  const double calibration = 0.5 * (before + calibrate());
  setups->wall_s.push_back(wall_s);
  setups->scaled_s.push_back(wall_s * kReferenceCalibrationNs / calibration);
  return topology;
}

// Records the event queue's depth every kDepthSampleInterval of simulated
// time, for as long as the simulator runs. Adds one event per sample.
void SampleDepth(Simulator& sim, std::shared_ptr<std::vector<uint64_t>> depths) {
  depths->push_back(sim.pending_events());
  sim.Schedule(kDepthSampleInterval,
               [&sim, depths] { SampleDepth(sim, depths); });
}

// The tail percentile a phase supports: p99 from 1000 flushes, otherwise
// the highest whole percentile with at least 10 flushes beyond it.
double TailQuantile(size_t flushes) {
  if (flushes >= 1000) {
    return 0.99;
  }
  return std::floor((1.0 - 10.0 / static_cast<double>(flushes)) * 100.0) / 100.0;
}

// Same seed, same work: every repetition must agree bit for bit.
bool SameBehaviour(const PhaseResult& a, const PhaseResult& b) {
  return a.fingerprint == b.fingerprint && a.sim_ps == b.sim_ps &&
         a.flush_ps == b.flush_ps && a.counters.events == b.counters.events;
}

// Repeats set-up, warm-up, the phase and the read-back until `seconds` have
// passed; every repetition replays the same op stream on a fresh topology.
Outcome RunMeasured(const Args& args, Report& report, PhaseResult* first) {
  const WorkloadSpec& spec = *args.spec;
  Outcome outcome;
  Setups setups;
  std::vector<double> cal_per_op;
  std::vector<double> calibration_ns;
  std::vector<double> wall_ns_per_op;
  std::vector<double> cpu_ns_per_op;
  const HostTime run_start = HostNow();
  for (int rep = 0;; rep++) {
    YcsbWorkload workload(spec.Ycsb(args.seed));
    const std::unique_ptr<Topology> topology = TimedSetup(spec, workload, &setups);
    WarmUp(*topology, spec, args.seed);
    Shadow shadow(workload);
    PhaseResult phase = RunPhase(*topology, workload, shadow, spec.phase_flushes);
    outcome.AddPhase(phase);
    outcome.AddReadBack(ReadBackTouched(*topology, workload, shadow));
    wall_ns_per_op.insert(wall_ns_per_op.end(), phase.segment_wall_ns_per_op.begin(),
                          phase.segment_wall_ns_per_op.end());
    cpu_ns_per_op.insert(cpu_ns_per_op.end(), phase.segment_cpu_ns_per_op.begin(),
                         phase.segment_cpu_ns_per_op.end());
    cal_per_op.insert(cal_per_op.end(), phase.segment_cal_per_op.begin(),
                      phase.segment_cal_per_op.end());
    calibration_ns.insert(calibration_ns.end(), phase.segment_calibration_ns.begin(),
                          phase.segment_calibration_ns.end());
    if (rep == 0) {
      *first = std::move(phase);
    } else if (!SameBehaviour(*first, phase)) {
      outcome.nondeterministic = true;
      outcome.Note("repetitions of one seed behaved differently");
    }
    if (static_cast<double>(HostNow().wall_ns - run_start.wall_ns) >= args.seconds * 1e9) {
      break;
    }
  }
  while (setups.wall_s.size() < kMinSetups) {
    const YcsbWorkload workload(spec.Ycsb(args.seed));
    TimedSetup(spec, workload, &setups);
  }

  const Quartiles cal = QuartilesOf(cal_per_op);
  const Quartiles wall = QuartilesOf(wall_ns_per_op);
  const Quartiles cpu = QuartilesOf(cpu_ns_per_op);
  const Quartiles setup = QuartilesOf(setups.scaled_s);
  const Quartiles setup_wall = QuartilesOf(setups.wall_s);
  const size_t flushes = first->flush_ps.size();
  const double tail = TailQuantile(flushes);
  char note[64];
  std::snprintf(note, sizeof(note), "p%.0f over %zu flushes", tail * 100, flushes);
  report.Add("sim_mops",
             Ratio(static_cast<double>(first->ops),
                   static_cast<double>(first->sim_ps) / kMicrosecond),
             "Mops");
  report.Add("sim_p50_us", ExactQuantile(first->flush_ps, 0.50) / kMicrosecond, "us");
  report.Add("sim_p99_us", ExactQuantile(first->flush_ps, tail) / kMicrosecond, "us",
             note);
  report.Add("host_cal_per_op", cal.median, "cal/op",
             SpreadNote(cal, cal_per_op.size()));
  report.Add("host_ns_per_op", wall.median, "ns",
             SpreadNote(wall, wall_ns_per_op.size()));
  report.Add("host_cpu_ns_per_op", cpu.median, "ns",
             SpreadNote(cpu, cpu_ns_per_op.size()));
  report.Add("host_calibration_ns", QuartilesOf(calibration_ns).median, "ns");
  report.Add("setup_s", setup.median, "s", SpreadNote(setup, setups.scaled_s.size()));
  report.Add("setup_wall_s", setup_wall.median, "s",
             SpreadNote(setup_wall, setups.wall_s.size()));
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("failed_op_ratio",
             Ratio(static_cast<double>(outcome.failed),
                   static_cast<double>(outcome.attempted)),
             "ratio");
  return outcome;
}

// One untraced pass (reference host time; simulated counters from the
// metric registries) and one traced pass over the same op stream (request
// tracing on, the benchmark's timers around the client calls), then the
// layer probes on the traced pass's store.
Outcome RunTraced(const Args& args, Report& report) {
  const WorkloadSpec& spec = *args.spec;
  Outcome outcome;

  YcsbWorkload reference_workload(spec.Ycsb(args.seed));
  std::unique_ptr<Topology> topology =
      BuildLoaded(spec, reference_workload, /*traced=*/false, nullptr);
  WarmUp(*topology, spec, args.seed);
  Shadow reference_shadow(reference_workload);
  const PhaseResult reference = RunPhase(*topology, reference_workload,
                                         reference_shadow, spec.phase_flushes);
  outcome.AddPhase(reference);
  outcome.AddReadBack(ReadBackTouched(*topology, reference_workload, reference_shadow));
  const SimCounters& c = reference.counters;
  const LatencyHistogram proc_latency = topology->ProcLatencyNs();
  const LatencyHistogram commit_wait = topology->CommitWaitNs();
  const uint64_t read_tags_peak = topology->ReadTagsPeak();
  topology.reset();

  YcsbWorkload workload(spec.Ycsb(args.seed));
  double load_ns_per_key = 0;
  topology = BuildLoaded(spec, workload, /*traced=*/true, &load_ns_per_key);
  WarmUp(*topology, spec, args.seed);
  auto depths = std::make_shared<std::vector<uint64_t>>();
  SampleDepth(topology->simulator(), depths);
  OpSample sample;
  Shadow shadow(workload);
  const PhaseResult traced = RunPhase(
      *topology, workload, shadow, spec.phase_flushes,
      [&sample](const std::vector<KvOperation>& ops,
                const std::vector<KvResultMessage>& results) {
        if (sample.batches.size() < kSampleBatches) {
          sample.batches.push_back(ops);
          sample.results.push_back(results);
        }
      });
  outcome.AddPhase(traced);
  outcome.AddReadBack(ReadBackTouched(*topology, workload, shadow));
  const uint64_t depth = static_cast<uint64_t>(ExactQuantile(*depths, 0.5));
  const LayerTimes layers = ProbeLayers(*topology, sample, depth, args.seed);

  const double ops = static_cast<double>(reference.ops);
  const Quartiles host_traced = QuartilesOf(traced.segment_wall_ns_per_op);

  report.Add("sim.events_per_op", static_cast<double>(c.events) / ops, "count/op");
  report.Add("sim.ns_per_event", layers.sim_ns_per_event, "ns");
  report.Add("sim.pending_depth", static_cast<double>(depth), "count");
  report.Add("hash.get_ns", layers.hash_get_ns, "ns");
  report.Add("hash.put_ns", layers.hash_put_ns, "ns");
  report.Add("hash.chain_follows_per_op",
             static_cast<double>(c.hash_chain_follows) / ops, "count/op");
  report.Add("hash.false_hits_per_op", static_cast<double>(c.hash_false_hits) / ops,
             "count/op");
  report.Add("core.load_ns_per_key", load_ns_per_key, "ns");
  report.Add("core.proc_latency_p50_ns",
             static_cast<double>(proc_latency.Percentile(0.50)), "ns");
  report.Add("core.proc_latency_p99_ns",
             static_cast<double>(proc_latency.Percentile(0.99)), "ns");
  report.Add("alloc.alloc_free_ns", layers.alloc_free_ns, "ns");
  report.Add("alloc.sync_dma_per_op",
             Ratio(static_cast<double>(c.slab_sync_dma),
                   static_cast<double>(c.slab_allocs + c.slab_frees)),
             "count/op");
  report.Add("net.encode_ns_per_op", layers.encode_ns_per_op, "ns");
  report.Add("net.decode_ns_per_op", layers.decode_ns_per_op, "ns");
  report.Add("net.bytes_per_op_to_server",
             static_cast<double>(c.net_bytes_to_server) / ops, "B/op");
  report.Add("net.bytes_per_op_to_client",
             static_cast<double>(c.net_bytes_to_client) / ops, "B/op");
  report.Add("transport.frame_ns_per_packet", layers.frame_ns_per_packet, "ns");
  report.Add("transport.retransmits", static_cast<double>(c.retransmits), "count");
  report.Add("transport.replayed_responses",
             static_cast<double>(c.replayed_responses), "count");
  report.Add("pcie.read_tlps_per_op", static_cast<double>(c.pcie_read_tlps) / ops,
             "count/op");
  report.Add("pcie.read_tags_peak", static_cast<double>(read_tags_peak), "count");
  report.Add("dram.hit_rate",
             Ratio(static_cast<double>(c.dram_hits),
                   static_cast<double>(c.dram_hits + c.dram_misses)),
             "ratio");
  report.Add("ooo.fast_path_share",
             Ratio(static_cast<double>(c.proc_fast_path),
                   static_cast<double>(c.proc_retired)),
             "ratio");
  report.Add("replica.entries_per_write",
             Ratio(static_cast<double>(c.entries_shipped),
                   static_cast<double>(reference.puts)),
             "count/op");
  report.Add("replica.commit_wait_p99_ns",
             static_cast<double>(commit_wait.Percentile(0.99)), "ns");
  for (size_t point = 1; point < kNumTracePoints; point++) {
    const TracePoint stage = static_cast<TracePoint>(point);
    report.Add(std::string("stage.") + StageName(stage) + "_ns",
               topology->StageNsPerOp(stage), "ns");
  }
  report.Add("cluster.wrong_shard_bounces", static_cast<double>(c.wrong_shard_bounces),
             "count");
  report.Add("cluster.map_fetches", static_cast<double>(c.map_fetches), "count");
  const double traced_ops = static_cast<double>(traced.ops);
  report.Add("workload.next_op_ns", traced.next_op_ns / traced_ops, "ns");
  report.Add("client.enqueue_ns_per_op", traced.enqueue_ns / traced_ops, "ns");
  report.Add("client.flush_ns_per_op", traced.flush_ns / traced_ops, "ns");
  report.Add("trace.host_ns_per_op", host_traced.median, "ns",
             SpreadNote(host_traced, traced.segment_wall_ns_per_op.size()));
  // Calibrated, so a change in the host's speed between the passes cancels.
  report.Add("trace.overhead",
             Ratio(QuartilesOf(traced.segment_cal_per_op).median,
                   QuartilesOf(reference.segment_cal_per_op).median),
             "ratio");
  report.Add("host.calibration_ns", QuartilesOf(traced.segment_calibration_ns).median,
             "ns");
  return outcome;
}

}  // namespace
}  // namespace perfbench
}  // namespace kvd

int main(int argc, char** argv) {
  using namespace kvd::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const std::string name(args.spec->name);
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", name.c_str(),
              args.seed, args.seconds, args.trace ? 1 : 0);

  Report report;
  Outcome outcome;
  if (args.trace) {
    outcome = RunTraced(args, report);
    report.Print("per-layer metrics (traced run)");
  } else {
    PhaseResult first;
    outcome = RunMeasured(args, report, &first);
    report.Print("end-to-end metrics");
    std::printf("\n  phase: %zu flushes, %" PRIu64 " ops, %.4f events/op\n",
                first.flush_ps.size(), first.ops,
                static_cast<double>(first.counters.events) /
                    static_cast<double>(first.ops));
    std::printf("  fingerprint: %016" PRIx64 " (final simulated clock %" PRIu64
                " ps)\n",
                first.fingerprint, first.sim_ps);
  }
  std::printf("  attempted %" PRIu64 ", failed %" PRIu64 ", mismatches %" PRIu64
              " -> %s\n",
              outcome.attempted, outcome.failed, outcome.mismatches,
              outcome.correct() ? "correct" : "INCORRECT");
  if (!outcome.correct()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 outcome.first_error.empty() ? "operations failed"
                                             : outcome.first_error.c_str());
  }

  kvd::bench::JsonReport json("perfbench");
  json.BeginSeries("outcome");
  json.AddRow({{"correct", outcome.correct() ? 1.0 : 0.0},
               {"attempted", static_cast<double>(outcome.attempted)},
               {"failed", static_cast<double>(outcome.failed + outcome.mismatches)}});
  json.BeginSeries(args.trace ? "per_layer" : "end_to_end");
  json.AddRow(report.Fields());
  if (!json.WriteIfRequested(args.json_path)) {
    return 1;
  }
  return outcome.correct() ? 0 : 1;
}
