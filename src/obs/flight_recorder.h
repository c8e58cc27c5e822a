// Postmortem flight recorder: a bounded ring of the most recently completed
// request traces that snapshots itself to deterministic JSON when something
// anomalous happens — a fault injection, an ECC demotion, a failover
// election, a burst of kBusy rejections, or an SLO breach.
//
// A dump captures the completed-trace ring, the still-live traces (the ops in
// flight at trigger time, span trees included), a metrics-registry snapshot,
// and the trailing window of the tracer's event ring. Everything runs on the simulated
// clock, so same-seed runs produce bit-identical dumps — they double as
// regression artifacts.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"
#include "src/sim/simulator.h"

namespace kvd {

enum class FlightTrigger : uint8_t {
  kManual = 0,
  kFaultInjected,
  kEccDemotion,
  kFailover,
  kBusyBurst,
  kSloBreach,
  kShardCutover,  // cluster shard migration flipped ownership (src/cluster)
};

inline constexpr size_t kNumFlightTriggers = 7;

constexpr const char* FlightTriggerName(FlightTrigger trigger) {
  switch (trigger) {
    case FlightTrigger::kManual:
      return "manual";
    case FlightTrigger::kFaultInjected:
      return "fault_injected";
    case FlightTrigger::kEccDemotion:
      return "ecc_demotion";
    case FlightTrigger::kFailover:
      return "failover";
    case FlightTrigger::kBusyBurst:
      return "busy_burst";
    case FlightTrigger::kSloBreach:
      return "slo_breach";
    case FlightTrigger::kShardCutover:
      return "shard_cutover";
  }
  return "unknown_trigger";
}

struct FlightRecorderConfig {
  size_t ring_capacity = 64;   // completed op traces kept
  size_t event_window = 256;   // trailing timeline events per dump
  size_t max_dumps = 8;        // hard cap on dumps per run
  // Each trigger kind fires at most once until Rearm() — a cascading failure
  // produces one dump per root cause instead of one per symptom.
  bool once_per_trigger = true;
  // Fault injections fire the recorder only when opted in: chaos runs inject
  // thousands of faults by design, and a scripted-fault experiment wants its
  // single dump to come from the *consequence* (ECC demotion, failover), not
  // from the injection itself.
  bool trigger_on_fault_injection = false;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(Simulator& sim) : sim_(sim) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Configure(const FlightRecorderConfig& config) { config_ = config; }
  const FlightRecorderConfig& config() const { return config_; }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Optional dump enrichments; both may be null. The tracer supplies the
  // live traces and the event window.
  void SetTracer(const Tracer* tracer) { tracer_ = tracer; }
  void SetMetricRegistry(const MetricRegistry* registry) { registry_ = registry; }

  // Ring feed — wire as the Tracer's on_complete callback.
  void OnTraceComplete(const OpTrace& trace);

  // Takes a dump unless suppressed (disabled, max_dumps reached, or this
  // trigger kind already fired under once_per_trigger). Returns whether a
  // dump was taken.
  bool Trigger(FlightTrigger trigger, std::string_view detail = "");

  // Clears the once-per-trigger latches (not the dumps already taken).
  void Rearm();

  struct Dump {
    FlightTrigger trigger = FlightTrigger::kManual;
    std::string detail;
    SimTime sim_time = 0;
    std::string json;
  };

  const std::vector<Dump>& dumps() const { return dumps_; }
  uint64_t triggers_seen() const { return triggers_seen_; }
  uint64_t dumps_taken() const { return dumps_taken_; }
  size_t ring_size() const { return ring_.size(); }

  // kvd_flight_triggers / kvd_flight_dumps counters.
  void RegisterMetrics(MetricRegistry& registry);

 private:
  std::string RenderDump(FlightTrigger trigger, std::string_view detail) const;

  Simulator& sim_;
  FlightRecorderConfig config_;
  bool enabled_ = false;
  const Tracer* tracer_ = nullptr;
  const MetricRegistry* registry_ = nullptr;
  std::deque<OpTrace> ring_;
  std::array<bool, kNumFlightTriggers> fired_{};
  std::vector<Dump> dumps_;
  uint64_t triggers_seen_ = 0;
  uint64_t dumps_taken_ = 0;
};

}  // namespace kvd

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
