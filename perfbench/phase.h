// The benchmark's closed loop and the helpers around it: host clocks,
// quartiles, the behaviour fingerprint and the shadow map that checks every
// result.
//
// One client issues 256-op Enqueue/Flush batches; the next batch starts only
// when the previous one has fully returned. A phase is a fixed number of
// batches drawn from the seeded workload, so its simulated metrics, counters
// and fingerprint repeat bit for bit at a fixed seed, and every run times the
// same work whatever the host's speed. Host time is read around each batch
// (wall and thread CPU together) and summed into fixed segments of
// kSegmentFlushes batches, so a run reports the median segment and its
// spread.
#ifndef PERFBENCH_PHASE_H_
#define PERFBENCH_PHASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/topology.h"
#include "src/workload/ycsb.h"

namespace kvd {
namespace perfbench {

inline constexpr uint64_t kBatchOps = 256;
inline constexpr uint64_t kSegmentFlushes = 8;

// Host clocks read together: steady wall clock and this thread's CPU time.
struct HostTime {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};
HostTime HostNow();
double PeakRssMb();

// Wall ns per iteration of a fixed calibration loop that shares the
// simulator's instruction mix but none of its code. Other tenants of a
// shared host slow both alike, so host time divided by it (measured beside
// it) holds steady where raw wall time swings by tens of percent.
double CalibrationNsPerIteration();

// First quartile, median and third quartile, computed as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  // Interquartile distance as a share of the median.
  double spread() const { return median != 0 ? (q3 - q1) / median : 0; }
};
Quartiles QuartilesOf(std::vector<double> values);

// Exact quantile of raw samples, linearly interpolated between ranks.
double ExactQuantile(std::vector<uint64_t> values, double q);

// FNV-1a over every result's code and value, then the final clock.
class Fingerprint {
 public:
  void Add(const KvResultMessage& result);
  void AddU64(uint64_t value);
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint8_t byte);
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Last acknowledged value per key. YCSB values repeat one byte, so a key's
// state is one byte. Two acknowledged PUTs of one key in one batch are
// concurrent, so either may be the final value: the key then keeps both as
// candidates until a later batch writes it again.
class Shadow {
 public:
  explicit Shadow(const YcsbWorkload& workload);

  // Checks one batch's results and folds its acknowledged writes in. GETs
  // of keys the batch also writes are not checked (they race the write).
  // Returns the number of results that contradict the shadow.
  uint64_t ApplyBatch(const std::vector<KvOperation>& ops,
                      const std::vector<KvResultMessage>& results,
                      std::string* first_error);
  bool Matches(uint64_t id, const KvResultMessage& result) const;
  const std::vector<uint8_t>& touched() const { return touched_; }

 private:
  static uint64_t KeyId(const std::vector<uint8_t>& key);

  uint32_t value_bytes_;
  std::vector<uint8_t> expected_;
  std::vector<uint8_t> touched_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> ambiguous_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> batch_puts_;
};

// Called after every batch with its ops and results, outside the timers.
using BatchHook = std::function<void(const std::vector<KvOperation>&,
                                     const std::vector<KvResultMessage>&)>;

struct PhaseResult {
  uint64_t ops = 0;
  uint64_t puts = 0;
  uint64_t failed = 0;      // results other than kOk
  uint64_t mismatches = 0;  // results that contradict the shadow map
  std::string first_error;
  std::vector<double> segment_wall_ns_per_op;
  std::vector<double> segment_cpu_ns_per_op;
  // Wall ns per op over the mean calibration ns per iteration sampled at
  // both ends of the segment and inside it.
  std::vector<double> segment_cal_per_op;
  std::vector<double> segment_calibration_ns;
  // Wall time split over the whole phase (ns, totals).
  double next_op_ns = 0;
  double enqueue_ns = 0;
  double flush_ns = 0;

  // Simulated side.
  SimTime sim_ps = 0;
  std::vector<uint64_t> flush_ps;  // per-flush simulated latency
  SimCounters counters;
  uint64_t fingerprint = 0;
};

// Loads every key of the workload; returns the keys actually stored.
uint64_t Preload(Topology& topology, const YcsbWorkload& workload);
// Untimed GET-only batches over the workload's key distribution, so the NIC
// DRAM cache and the clients' state are warm before timing.
void WarmUp(Topology& topology, const WorkloadSpec& spec, uint64_t seed);
// Runs `flushes` batches and checks each one against the shadow map.
PhaseResult RunPhase(Topology& topology, YcsbWorkload& workload, Shadow& shadow,
                     uint64_t flushes, const BatchHook& on_batch = nullptr);

struct ReadBack {
  uint64_t keys = 0;
  uint64_t mismatches = 0;
  std::string first_error;
};
// Reads every touched key back through the topology's untimed Execute.
ReadBack ReadBackTouched(Topology& topology, const YcsbWorkload& workload,
                         const Shadow& shadow);

}  // namespace perfbench
}  // namespace kvd

#endif  // PERFBENCH_PHASE_H_
