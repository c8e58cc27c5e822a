// The tracer: one sink for every observability hook on the simulated clock.
// It serves two views of the same run, and owns what consumes them: the
// per-stage latency breakdown, the SLO monitor and the flight recorder.
//
// Per-operation traces are the layer behind the paper's Fig. 17 latency
// decomposition ("where does each microsecond of a GET/PUT go?"). A trace is
// created client-side when an operation is first sent and follows the op
// through every layer: client retransmission attempts, network flight,
// reliable-frame decode, processor admission and retirement,
// reservation-station waits, dispatcher/DMA/NIC-DRAM accesses, and — for
// replicated writes — log append, frame shipping, quorum wait, and commit.
// Two record kinds:
//
//   - checkpoints (TracePoint): one timestamp per lifecycle milestone,
//     first-write-wins. The interval between consecutive *present* checkpoints
//     is a named stage, so per-op stage durations sum exactly to the measured
//     end-to-end latency by construction.
//   - spans (TraceSpan): typed intervals for overlapping sub-work (individual
//     DMA TLPs, NIC-DRAM channel occupancy, station parking, replica frame
//     shipping, retransmission backoff).
//
// The timeline is what the hardware models and protocols did — PCIe TLPs,
// NIC-DRAM accesses, dispatcher routes, station admit/park/retire, slab pool
// syncs, network packets, replica elections and crashes, shard migrations —
// kept in one bounded ring of fixed-size records that overwrites its oldest
// events. It exports as Chrome trace-event JSON (chrome://tracing or
// https://ui.perfetto.dev, one track per category), and the flight recorder
// reads its trailing window.
//
// Ops carry a 64-bit trace handle in-memory only (never on the wire); handle
// 0 means untraced. Tracing is off by default: every hook is one predictable
// branch (on `enabled()` or on a zero handle). Everything runs on the
// simulated clock, so same-seed runs produce bit-identical traces.
#ifndef SRC_OBS_TRACER_H_
#define SRC_OBS_TRACER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/net/kv_types.h"
#include "src/obs/metric_registry.h"
#include "src/sim/simulator.h"

namespace kvd {

class JsonWriter;

// Lifecycle checkpoints in chronological (= enum) order. A given op stamps a
// subset: unreplicated ops skip the kRepl* points, reads skip them too.
enum class TracePoint : uint8_t {
  kClientSend = 0,    // first wire transmission leaves the client
  kServerReceive,     // frame decoded and admitted server-side
  kSubmit,            // handed to the KV processor
  kAdmit,             // accepted by the reservation station
  kRetire,            // execution complete, result final
  kReplAppend,        // write appended to the primary's replication log
  kReplCommit,        // quorum reached, write durable
  kResponseSent,      // response frame handed to the network
  kClientReceive,     // response decoded client-side
};

inline constexpr size_t kNumTracePoints = 9;

constexpr const char* TracePointName(TracePoint point) {
  switch (point) {
    case TracePoint::kClientSend:
      return "client_send";
    case TracePoint::kServerReceive:
      return "server_receive";
    case TracePoint::kSubmit:
      return "submit";
    case TracePoint::kAdmit:
      return "admit";
    case TracePoint::kRetire:
      return "retire";
    case TracePoint::kReplAppend:
      return "repl_append";
    case TracePoint::kReplCommit:
      return "repl_commit";
    case TracePoint::kResponseSent:
      return "response_sent";
    case TracePoint::kClientReceive:
      return "client_receive";
  }
  return "unknown_point";
}

// Name of the latency stage that *ends* at `point` (the interval since the
// previous present checkpoint). kClientSend starts the timeline and ends no
// stage.
constexpr const char* StageName(TracePoint point) {
  switch (point) {
    case TracePoint::kClientSend:
      return "origin";
    case TracePoint::kServerReceive:
      return "net_request";
    case TracePoint::kSubmit:
      return "decode";
    case TracePoint::kAdmit:
      return "queue";
    case TracePoint::kRetire:
      return "execute";
    case TracePoint::kReplAppend:
      return "log_append";
    case TracePoint::kReplCommit:
      return "quorum_wait";
    case TracePoint::kResponseSent:
      return "respond";
    case TracePoint::kClientReceive:
      return "net_response";
  }
  return "unknown_stage";
}

// Typed sub-intervals that can overlap each other and the stage boundaries.
enum class SpanKind : uint8_t {
  kNetWire = 0,     // serialization + flight on a network direction
  kStationWait,     // parked in the reservation station behind a key
  kMemAccess,       // one LoadDispatcher access (detail: route code)
  kDmaTlp,          // one PCIe TLP attempt (detail: bytes)
  kNicDramAccess,   // NIC-DRAM channel occupancy + access (detail: bytes)
  kReplShip,        // replication frame primary -> backup (detail: replica)
  kRetransmit,      // client retransmission wait (detail: attempt/cause)
  kBusyRetry,       // client backoff after a kBusy rejection
  kDeadlineWait,    // queue time an op spent waiting before a deadline shed
};

inline constexpr size_t kNumSpanKinds = 9;

constexpr const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kNetWire:
      return "net_wire";
    case SpanKind::kStationWait:
      return "station_wait";
    case SpanKind::kMemAccess:
      return "mem_access";
    case SpanKind::kDmaTlp:
      return "dma_tlp";
    case SpanKind::kNicDramAccess:
      return "nic_dram";
    case SpanKind::kReplShip:
      return "repl_ship";
    case SpanKind::kRetransmit:
      return "retransmit";
    case SpanKind::kBusyRetry:
      return "busy_retry";
    case SpanKind::kDeadlineWait:
      return "deadline_wait";
  }
  return "unknown_span";
}

// LoadDispatcher route codes carried in kMemAccess span details.
inline constexpr uint64_t kRoutePcie = 0;
inline constexpr uint64_t kRouteCacheHit = 1;
inline constexpr uint64_t kRouteCacheMiss = 2;
inline constexpr uint64_t kRouteEccDemotion = 3;

// Timeline event name of a route.
constexpr const char* RouteName(uint64_t route) {
  switch (route) {
    case kRoutePcie:
      return "pcie";
    case kRouteCacheHit:
      return "hit";
    case kRouteCacheMiss:
      return "miss";
    case kRouteEccDemotion:
      return "ecc_demote";
  }
  return "unknown_route";
}

struct TraceSpan {
  SpanKind kind = SpanKind::kNetWire;
  SimTime start = 0;
  SimTime end = 0;
  uint64_t detail = 0;
};

// Rounds picoseconds to the nearest nanosecond (histograms store ns).
constexpr uint64_t PsToNs(SimTime ps) {
  return (ps + kNanosecond / 2) / kNanosecond;
}

struct OpTrace {
  static constexpr SimTime kAbsent = ~SimTime{0};

  uint64_t id = 0;          // trace handle, minted by the tracer from 1 up
  Opcode opcode = Opcode::kGet;
  uint64_t sequence = 0;    // wire sequence of the first transmission
  uint32_t op_index = 0;    // position within that packet
  uint32_t attempts = 0;    // wire transmissions (>1 means retransmitted)
  ResultCode result = ResultCode::kOk;
  std::array<SimTime, kNumTracePoints> points;
  std::vector<TraceSpan> spans;

  OpTrace() { points.fill(kAbsent); }

  bool Has(TracePoint point) const {
    return points[static_cast<size_t>(point)] != kAbsent;
  }
  SimTime At(TracePoint point) const {
    return points[static_cast<size_t>(point)];
  }
  // Picoseconds from client send to client receive; 0 until both are stamped.
  SimTime EndToEndPs() const {
    return (Has(TracePoint::kClientSend) && Has(TracePoint::kClientReceive))
               ? At(TracePoint::kClientReceive) - At(TracePoint::kClientSend)
               : 0;
  }
};

// Serializes one trace as a JSON object (points keyed by name, spans as
// typed intervals). Deterministic: field order is fixed, absent points are
// omitted.
void AppendTraceJson(const OpTrace& trace, JsonWriter& json);

// Per-opcode, per-stage latency histograms (nanoseconds) fed by completed
// traces — the Fig-17-style "where the microsecond goes" aggregation.
class LatencyBreakdown {
 public:
  static constexpr size_t kNumOpcodes = 8;

  LatencyBreakdown() = default;
  LatencyBreakdown(const LatencyBreakdown&) = delete;
  LatencyBreakdown& operator=(const LatencyBreakdown&) = delete;

  void Record(const OpTrace& trace);
  void Reset();

  // Histogram of the stage ending at `point` for `opcode` (ns).
  const LatencyHistogram& Stage(Opcode opcode, TracePoint point) const;
  const LatencyHistogram& EndToEnd(Opcode opcode) const;
  uint64_t recorded() const { return recorded_; }

  // Registers kvd_trace_stage_ns{opcode,stage} and kvd_trace_e2e_ns{opcode}
  // histograms. `this` must outlive the registry.
  void RegisterMetrics(MetricRegistry& registry) const;

 private:
  std::array<std::array<LatencyHistogram, kNumTracePoints>, kNumOpcodes> stages_;
  std::array<LatencyHistogram, kNumOpcodes> e2e_;
  uint64_t recorded_ = 0;
};

// Renderers for the breakdown: a printable table (stages as rows, opcodes
// with data as columns, mean ns per cell) and a JSON export.
struct LatencyBreakdownReport {
  static std::string Table(const LatencyBreakdown& breakdown);
  // Appends an array value: one object per opcode with data.
  static void AppendJson(const LatencyBreakdown& breakdown, JsonWriter& json);
  // {"breakdown":[...]}
  static std::string ToJson(const LatencyBreakdown& breakdown);
};

// Service-level objective monitor: tumbling simulated-time windows of
// end-to-end latency, evaluated against configurable p50/p99 targets.
struct SloConfig {
  SimTime window = kMillisecond;  // tumbling window length (simulated)
  uint64_t p50_target_ns = 0;     // 0 disables the p50 objective
  uint64_t p99_target_ns = 0;     // 0 disables the p99 objective
};

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
  // Each trigger kind fires at most once — a cascading failure produces one
  // dump per root cause instead of one per symptom.
  bool once_per_trigger = true;
  // Fault injections fire the recorder only when opted in: chaos runs inject
  // thousands of faults by design, and a scripted-fault experiment wants its
  // single dump to come from the *consequence* (ECC demotion, failover), not
  // from the injection itself.
  bool trigger_on_fault_injection = false;
};

class Tracer;

// Postmortem flight recorder: a bounded ring of the most recently completed
// op traces that snapshots itself to deterministic JSON when something
// anomalous happens — a fault injection, an ECC demotion, a failover
// election, a burst of kBusy rejections, an SLO breach, or a shard cutover.
//
// A dump captures the completed-trace ring, the still-live traces (the ops in
// flight at trigger time, span trees included), a snapshot of the owner's
// metrics registry, and the trailing window of the tracer's event ring.
// Same-seed runs produce bit-identical dumps — they double as regression
// artifacts. The recorder belongs to a Tracer and is on while it is.
class FlightRecorder {
 public:
  // Dumps read `tracer`'s live traces and events and snapshot `registry`
  // (may be null).
  FlightRecorder(Simulator& sim, const Tracer& tracer,
                 const FlightRecorderConfig& config,
                 const MetricRegistry* registry)
      : sim_(sim), tracer_(tracer), config_(config), registry_(registry) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  const FlightRecorderConfig& config() const { return config_; }

  // Ring feed: the tracer hands over every completed trace.
  void OnTraceComplete(const OpTrace& trace);

  // Takes a dump unless suppressed (tracing off, max_dumps reached, or this
  // trigger kind already fired under once_per_trigger). Returns whether a
  // dump was taken.
  bool Trigger(FlightTrigger trigger, std::string_view detail = "");

  struct Dump {
    FlightTrigger trigger = FlightTrigger::kManual;
    std::string detail;
    SimTime sim_time = 0;
    std::string json;
  };

  const std::vector<Dump>& dumps() const { return dumps_; }

  // kvd_flight_triggers / kvd_flight_dumps counters.
  void RegisterMetrics(MetricRegistry& registry);

 private:
  std::string RenderDump(FlightTrigger trigger, std::string_view detail) const;

  Simulator& sim_;
  const Tracer& tracer_;
  FlightRecorderConfig config_;
  const MetricRegistry* registry_;
  std::deque<OpTrace> ring_;
  std::array<bool, kNumFlightTriggers> fired_{};
  std::vector<Dump> dumps_;
  uint64_t triggers_seen_ = 0;
  uint64_t dumps_taken_ = 0;
};

// Evaluates each window as the next one opens; a breach fires the flight
// recorder with a one-line description.
class SloMonitor {
 public:
  SloMonitor(Simulator& sim, const SloConfig& config, FlightRecorder& flight)
      : sim_(sim), config_(config), flight_(flight) {}
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  void Record(uint64_t e2e_ns);

  uint64_t p99_breaches() const { return p99_breaches_; }

  // kvd_slo_* counters and last-window gauges.
  void RegisterMetrics(MetricRegistry& registry);

 private:
  void RollTo(SimTime now);
  void Evaluate();

  Simulator& sim_;
  SloConfig config_;
  FlightRecorder& flight_;
  LatencyHistogram window_;
  SimTime window_start_ = 0;
  uint64_t windows_evaluated_ = 0;
  uint64_t p50_breaches_ = 0;
  uint64_t p99_breaches_ = 0;
  double last_p50_ns_ = 0;
  double last_p99_ns_ = 0;
};

// One argument of a timeline event. The key must outlive the tracer (a
// string literal): records keep the pointer, never a copy.
struct TraceArg {
  const char* key;
  uint64_t value;
};

inline constexpr size_t kMaxTraceArgs = 5;

// One timeline record. Fixed size and owning no heap memory, so recording
// never allocates; category and name must outlive the tracer (string
// literals), like TraceArg keys.
struct TraceEvent {
  SimTime start = 0;     // picoseconds of simulated time
  SimTime duration = 0;  // 'X' only
  const char* category = "";
  const char* name = "";
  char phase = 'i';      // 'X' complete (start+duration), 'i' instant
  uint8_t num_args = 0;
  std::array<TraceArg, kMaxTraceArgs> args{};
};

// Appends "args":{key:value,...} to the open JSON object when the event has
// arguments (shared by the Chrome export and flight dumps).
void AppendEventArgsJson(const TraceEvent& event, JsonWriter& json);

// The op-trace side of a timeline interval, for hooks where both views
// describe the same thing: the interval is also recorded on op `handle`
// (when nonzero) as a typed span, or as a checkpoint stamped now.
struct OpMark {
  static OpMark Span(uint64_t handle, SpanKind kind, uint64_t detail = 0) {
    return {handle, false, kind, TracePoint::kClientSend, detail};
  }
  static OpMark Point(uint64_t handle, TracePoint point) {
    return {handle, true, SpanKind::kNetWire, point, 0};
  }

  uint64_t handle = 0;
  bool is_point = false;
  SpanKind kind = SpanKind::kNetWire;
  TracePoint point = TracePoint::kClientSend;
  uint64_t detail = 0;
};

// The one observability sink of a clock. Owns the live op traces and the
// event ring, hands out handles, and feeds every completed trace to its
// breakdown, its SLO monitor and its flight recorder. Whatever runs on the
// clock — a server's components, a group's replicas, a cluster's groups —
// records into its owner's tracer and fires flight triggers through it.
class Tracer {
 public:
  using Args = std::initializer_list<TraceArg>;

  static constexpr size_t kDefaultMaxEvents = 1u << 16;
  // Packet registrations kept for LookupOp; the oldest goes first.
  static constexpr size_t kMaxPackets = 8192;

  // `enabled` turns on the op traces, the timeline and the flight recorder,
  // for the tracer's life. `registry` is the owner's (null for a standalone
  // tracer): dumps snapshot it, and an enabled tracer registers its own, the
  // breakdown's, the SLO monitor's and the recorder's metrics there, so the
  // untraced exposition is unchanged. `max_events` (at least 1) bounds the
  // event ring.
  explicit Tracer(Simulator& sim, bool enabled = false, const SloConfig& slo = {},
                  const FlightRecorderConfig& flight = {},
                  MetricRegistry* registry = nullptr,
                  size_t max_events = kDefaultMaxEvents);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  LatencyBreakdown& breakdown() { return breakdown_; }
  SloMonitor& slo_monitor() { return slo_; }
  FlightRecorder& flight_recorder() { return flight_; }

  // --- per-operation traces ---

  // Creates a live trace and stamps kClientSend now. Returns a fresh handle,
  // or 0 when tracing is disabled or the live table is full.
  uint64_t Start(Opcode opcode, uint64_t sequence, uint32_t op_index);

  // Stamps `point` at the current simulated time. First write wins, so
  // retransmissions and duplicate deliveries cannot move a checkpoint.
  void Point(uint64_t handle, TracePoint point);

  // Records a typed span [start, end] (simulated picoseconds).
  void Span(uint64_t handle, SpanKind kind, SimTime start, SimTime end,
            uint64_t detail = 0);

  // Counts one wire transmission attempt.
  void CountAttempt(uint64_t handle);

  // Stamps kClientReceive (if absent), records the result, feeds the
  // consumers, and retires the live trace.
  void Finish(uint64_t handle, ResultCode result);

  // Drops a live trace without recording (fatal client-side errors).
  void Abandon(uint64_t handle);

  // Client side: associates a wire sequence with the handles of the ops it
  // carries (in payload order). Re-registering under a new sequence is how
  // busy-retries keep their identity across re-sends. At capacity the entry
  // registered first is evicted, whichever client registered it.
  void RegisterPacket(uint64_t sequence, const std::vector<uint64_t>& handles);

  // Server side: handle of op `op_index` in the packet with `sequence`, or 0.
  // Non-consuming, so redirects and retransmissions resolve repeatedly.
  uint64_t LookupOp(uint64_t sequence, size_t op_index) const;

  const OpTrace* Live(uint64_t handle) const;
  // Live traces in ascending handle (= start) order (deterministic).
  std::vector<const OpTrace*> LiveTraces() const;

  uint64_t started() const { return started_; }
  uint64_t finished() const { return finished_; }
  // Trace records dropped at the live-table and per-op span bounds.
  uint64_t dropped() const { return dropped_; }

  // --- timeline ---

  // Point event at the current simulated time.
  void Instant(const char* category, const char* name, Args args = {});

  // Interval event [start, end] (end >= start; zero-length intervals are
  // legal and render as slivers), also recorded on `op`'s trace.
  void Complete(const char* category, const char* name, SimTime start,
                SimTime end, Args args = {}, OpMark op = {});

  // Events in the ring, oldest first: Event(0) .. Event(num_events() - 1).
  size_t num_events() const { return events_.size(); }
  const TraceEvent& Event(size_t i) const {
    return events_[(next_event_ + i) % events_.size()];
  }
  // Events overwritten because the ring was full.
  uint64_t dropped_events() const { return dropped_events_; }

  // Chrome trace-event JSON object format:
  // {"traceEvents":[...],"displayTimeUnit":"ns"}. Timestamps are emitted in
  // microseconds (the format's unit), with sub-microsecond precision kept as
  // fractions.
  std::string ToChromeTraceJson() const;

  // Writes ToChromeTraceJson() to `path`.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  // Bounds keep a runaway workload from exhausting memory; overflows count
  // as drops rather than aborting the run.
  static constexpr size_t kMaxLive = 1u << 16;
  static constexpr size_t kMaxSpansPerOp = 4096;

  void Record(char phase, const char* category, const char* name,
              SimTime start, SimTime duration, Args args);

  Simulator& sim_;
  const bool enabled_;
  uint64_t next_handle_ = 1;
  uint64_t started_ = 0;
  uint64_t finished_ = 0;
  uint64_t dropped_ = 0;
  std::map<uint64_t, OpTrace> live_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> packet_ops_;
  std::deque<uint64_t> packet_order_;  // registration order, for eviction
  FlightRecorder flight_;
  LatencyBreakdown breakdown_;
  SloMonitor slo_;

  // The ring grows to max_events_ records, then overwrites the oldest.
  size_t max_events_;
  std::vector<TraceEvent> events_;
  size_t next_event_ = 0;  // oldest record once the ring is full
  uint64_t dropped_events_ = 0;
};

}  // namespace kvd

#endif  // SRC_OBS_TRACER_H_
