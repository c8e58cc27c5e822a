#include "perfbench/phase.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "bench/bench_util.h"
#include "src/common/assert.h"

namespace kvd {
namespace perfbench {

HostTime HostNow() {
  timespec cpu{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
  const auto wall = std::chrono::steady_clock::now().time_since_epoch();
  return {std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count(),
          static_cast<int64_t>(cpu.tv_sec) * 1000000000 + cpu.tv_nsec};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Quartiles QuartilesOf(std::vector<double> values) {
  KVD_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 1) {
    return {values[0], values[0], values[0]};
  }
  // statistics.quantiles(method="exclusive"): m = n + 1 positions.
  double cut[3];
  for (int64_t i = 1; i <= 3; i++) {
    const int64_t m = n + 1;
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double ExactQuantile(std::vector<uint64_t> values, double q) {
  KVD_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1 - frac) +
         static_cast<double>(values[hi]) * frac;
}

void Fingerprint::AddByte(uint8_t byte) {
  hash_ ^= byte;
  hash_ *= 0x100000001b3ULL;
}

void Fingerprint::AddU64(uint64_t value) {
  for (int i = 0; i < 8; i++) {
    AddByte(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void Fingerprint::Add(const KvResultMessage& result) {
  AddByte(static_cast<uint8_t>(result.code));
  AddU64(result.value.size());
  for (uint8_t byte : result.value) {
    AddByte(byte);
  }
  AddU64(result.scalar);
}

Shadow::Shadow(const YcsbWorkload& workload)
    : value_bytes_(workload.config().value_bytes),
      expected_(workload.config().num_keys),
      touched_(workload.config().num_keys, 0) {
  for (uint64_t id = 0; id < expected_.size(); id++) {
    expected_[id] = workload.LoadOpFor(id).value.at(0);
  }
}

uint64_t Shadow::KeyId(const std::vector<uint8_t>& key) {
  uint64_t id = 0;
  std::memcpy(&id, key.data(), std::min<size_t>(sizeof(id), key.size()));
  return id;
}

bool Shadow::Matches(uint64_t id, const KvResultMessage& result) const {
  if (result.code != ResultCode::kOk || result.value.size() != value_bytes_) {
    return false;
  }
  const auto holds = [&](uint8_t byte) {
    return std::all_of(result.value.begin(), result.value.end(),
                       [byte](uint8_t b) { return b == byte; });
  };
  const auto it = ambiguous_.find(id);
  if (it == ambiguous_.end()) {
    return holds(expected_[id]);
  }
  return std::any_of(it->second.begin(), it->second.end(), holds);
}

uint64_t Shadow::ApplyBatch(const std::vector<KvOperation>& ops,
                            const std::vector<KvResultMessage>& results,
                            std::string* first_error) {
  KVD_CHECK(ops.size() == results.size());
  batch_puts_.clear();
  for (size_t i = 0; i < ops.size(); i++) {
    const uint64_t id = KeyId(ops[i].key);
    touched_[id] = 1;
    if (ops[i].opcode == Opcode::kPut) {
      std::vector<uint8_t>& acked = batch_puts_[id];
      if (results[i].code == ResultCode::kOk) {
        acked.push_back(ops[i].value.at(0));
      }
    }
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < ops.size(); i++) {
    const uint64_t id = KeyId(ops[i].key);
    if (ops[i].opcode != Opcode::kGet || results[i].code != ResultCode::kOk ||
        batch_puts_.count(id) != 0 || Matches(id, results[i])) {
      continue;
    }
    if (mismatches++ == 0 && first_error->empty()) {
      *first_error = "GET of key " + std::to_string(id) +
                     " returned a value no acknowledged write produced";
    }
  }
  for (auto& [id, acked] : batch_puts_) {
    if (acked.empty()) {
      continue;  // every PUT of the key failed; counted as failures
    }
    expected_[id] = acked.back();
    if (acked.size() == 1) {
      ambiguous_.erase(id);
    } else {
      ambiguous_[id] = std::move(acked);
    }
  }
  return mismatches;
}

uint64_t Preload(Topology& topology, const YcsbWorkload& workload) {
  const uint64_t keys = workload.config().num_keys;
  if (KvDirectServer* server = topology.standalone_server()) {
    return bench::Preload(*server, workload, keys);
  }
  for (uint64_t id = 0; id < keys; id++) {
    const KvOperation op = workload.LoadOpFor(id);
    if (!topology.Load(op.key, op.value).ok()) {
      return id;
    }
  }
  return keys;
}

void WarmUp(Topology& topology, const WorkloadSpec& spec, uint64_t seed) {
  constexpr uint64_t kWarmUpFlushes = 32;
  WorkloadConfig config = spec.Ycsb(seed ^ 0x5eed5eed5eed5eedULL);
  config.get_ratio = 1.0;
  YcsbWorkload reads(config);
  bench::DriveBatches(topology.endpoint(), kWarmUpFlushes * kBatchOps, kBatchOps,
                      [&reads] { return reads.NextOp(); });
}

namespace {

// The calibration loop: a miniature event loop built only from the
// standard library, with the simulator's instruction mix (a binary heap of
// std::function events, a small unordered_map of in-flight state, short
// vector allocations) and none of its code, so a change to the library
// never moves it.
struct CalibrationEvent {
  uint64_t when;
  std::function<void()> fn;
};
struct CalibrationLater {
  bool operator()(const CalibrationEvent& a, const CalibrationEvent& b) const {
    return a.when > b.when;
  }
};

}  // namespace

double CalibrationNsPerIteration() {
  constexpr int kIterations = 2000;
  constexpr int kDepth = 64;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t sink = 0;
  std::priority_queue<CalibrationEvent, std::vector<CalibrationEvent>,
                      CalibrationLater>
      queue;
  std::unordered_map<uint64_t, std::vector<uint8_t>> inflight;
  const int64_t start = HostNow().wall_ns;
  uint64_t now = 0;
  for (int i = 0; i < kDepth; i++) {
    queue.push({now + next() % 1000, [] {}});
  }
  for (int i = 0; i < kIterations; i++) {
    CalibrationEvent event = queue.top();
    queue.pop();
    now = event.when;
    event.fn();
    const uint64_t id = next();
    inflight.insert_or_assign(
        id & 255, std::vector<uint8_t>(16 + id % 48, static_cast<uint8_t>(id)));
    if (inflight.size() > 128) {
      inflight.erase(inflight.begin());
    }
    queue.push({now + next() % 1000, [id, &inflight, &sink] {
                  const auto it = inflight.find(id & 255);
                  sink += it != inflight.end() ? it->second.size() : 0;
                }});
  }
  const int64_t elapsed = HostNow().wall_ns - start;
  KVD_CHECK(sink > 0);
  return static_cast<double>(elapsed) / kIterations;
}

PhaseResult RunPhase(Topology& topology, YcsbWorkload& workload, Shadow& shadow,
                     uint64_t flushes, const BatchHook& on_batch) {
  constexpr int64_t kCalibrationIntervalNs = 5 * 1000 * 1000;
  KvEndpoint& ep = topology.endpoint();
  PhaseResult result;
  Fingerprint fingerprint;
  const SimCounters base = topology.Counters();
  const SimTime phase_start = ep.now();
  HostTime segment{};
  std::vector<KvOperation> ops(kBatchOps);
  std::vector<KvOperation> sent(kBatchOps);

  // Calibration samples open and close every segment and recur every
  // kCalibrationIntervalNs inside long ones, all outside the timers; a
  // segment is divided by the mean of its samples.
  std::vector<double> calibrations = {CalibrationNsPerIteration()};
  int64_t last_calibration = HostNow().wall_ns;
  for (uint64_t flush = 1; flush <= flushes; flush++) {
    const HostTime gen_start = HostNow();
    for (KvOperation& op : ops) {
      op = workload.NextOp();
    }
    sent = ops;  // kept for checking; the copies go to the endpoint

    const HostTime start = HostNow();
    const SimTime sim_start = ep.now();
    for (KvOperation& op : sent) {
      ep.Enqueue(std::move(op));
    }
    const HostTime enqueued = HostNow();
    const std::vector<KvResultMessage> results = ep.Flush();
    const HostTime end = HostNow();

    result.next_op_ns += static_cast<double>(start.wall_ns - gen_start.wall_ns);
    result.enqueue_ns += static_cast<double>(enqueued.wall_ns - start.wall_ns);
    result.flush_ns += static_cast<double>(end.wall_ns - enqueued.wall_ns);
    segment.wall_ns += end.wall_ns - start.wall_ns;
    segment.cpu_ns += end.cpu_ns - start.cpu_ns;
    if (flush % kSegmentFlushes == 0) {
      const double segment_ops = static_cast<double>(kSegmentFlushes * kBatchOps);
      result.segment_wall_ns_per_op.push_back(
          static_cast<double>(segment.wall_ns) / segment_ops);
      result.segment_cpu_ns_per_op.push_back(
          static_cast<double>(segment.cpu_ns) / segment_ops);
      const double closing = CalibrationNsPerIteration();
      calibrations.push_back(closing);
      const double calibration =
          std::accumulate(calibrations.begin(), calibrations.end(), 0.0) /
          static_cast<double>(calibrations.size());
      result.segment_calibration_ns.push_back(calibration);
      result.segment_cal_per_op.push_back(result.segment_wall_ns_per_op.back() /
                                          calibration);
      calibrations = {closing};
      last_calibration = HostNow().wall_ns;
      segment = {};
    } else if (HostNow().wall_ns - last_calibration >= kCalibrationIntervalNs) {
      calibrations.push_back(CalibrationNsPerIteration());
      last_calibration = HostNow().wall_ns;
    }

    result.flush_ps.push_back(ep.now() - sim_start);
    result.ops += ops.size();
    for (size_t i = 0; i < results.size(); i++) {
      fingerprint.Add(results[i]);
      result.failed += results[i].code != ResultCode::kOk ? 1 : 0;
      result.puts += ops[i].opcode == Opcode::kPut ? 1 : 0;
    }
    result.mismatches += shadow.ApplyBatch(ops, results, &result.first_error);
    if (on_batch) {
      on_batch(ops, results);
    }
  }
  result.sim_ps = ep.now() - phase_start;
  result.counters = topology.Counters() - base;
  fingerprint.AddU64(ep.now());
  result.fingerprint = fingerprint.value();
  return result;
}

ReadBack ReadBackTouched(Topology& topology, const YcsbWorkload& workload,
                         const Shadow& shadow) {
  ReadBack check;
  const std::vector<uint8_t>& touched = shadow.touched();
  for (uint64_t id = 0; id < touched.size(); id++) {
    if (touched[id] == 0) {
      continue;
    }
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = workload.KeyFor(id);
    check.keys++;
    if (!shadow.Matches(id, topology.Read(op)) && check.mismatches++ == 0) {
      check.first_error = "read-back of key " + std::to_string(id) +
                          " differs from its last acknowledged value";
    }
  }
  return check;
}

}  // namespace perfbench
}  // namespace kvd
