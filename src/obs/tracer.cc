#include "src/obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/common/assert.h"
#include "src/obs/json_writer.h"

namespace kvd {

void AppendTraceJson(const OpTrace& trace, JsonWriter& json) {
  json.BeginObject();
  json.Field("id", trace.id);
  json.Field("opcode", std::string_view(OpcodeName(trace.opcode)));
  json.Field("sequence", trace.sequence);
  json.Field("op_index", static_cast<uint64_t>(trace.op_index));
  json.Field("attempts", static_cast<uint64_t>(trace.attempts));
  json.Field("result", std::string_view(ResultCodeName(trace.result)));
  json.Key("points").BeginObject();
  for (size_t i = 0; i < kNumTracePoints; i++) {
    if (trace.points[i] == OpTrace::kAbsent) {
      continue;
    }
    json.Field(TracePointName(static_cast<TracePoint>(i)), trace.points[i]);
  }
  json.EndObject();
  json.Key("spans").BeginArray();
  for (const TraceSpan& span : trace.spans) {
    json.BeginObject();
    json.Field("kind", std::string_view(SpanKindName(span.kind)));
    json.Field("start_ps", span.start);
    json.Field("end_ps", span.end);
    json.Field("detail", span.detail);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

// ---------------------------------------------------------------------------
// LatencyBreakdown

void LatencyBreakdown::Record(const OpTrace& trace) {
  const size_t op = static_cast<size_t>(trace.opcode);
  if (op >= kNumOpcodes) {
    return;
  }
  SimTime prev = OpTrace::kAbsent;
  for (size_t i = 0; i < kNumTracePoints; i++) {
    const SimTime at = trace.points[i];
    if (at == OpTrace::kAbsent) {
      continue;
    }
    if (prev != OpTrace::kAbsent) {
      KVD_DCHECK(at >= prev);
      stages_[op][i].Add(PsToNs(at - prev));
    }
    prev = at;
  }
  if (trace.Has(TracePoint::kClientSend) &&
      trace.Has(TracePoint::kClientReceive)) {
    e2e_[op].Add(PsToNs(trace.EndToEndPs()));
    recorded_++;
  }
}

void LatencyBreakdown::Reset() {
  for (auto& per_opcode : stages_) {
    for (LatencyHistogram& hist : per_opcode) {
      hist.Reset();
    }
  }
  for (LatencyHistogram& hist : e2e_) {
    hist.Reset();
  }
  recorded_ = 0;
}

const LatencyHistogram& LatencyBreakdown::Stage(Opcode opcode,
                                                TracePoint point) const {
  return stages_[static_cast<size_t>(opcode)][static_cast<size_t>(point)];
}

const LatencyHistogram& LatencyBreakdown::EndToEnd(Opcode opcode) const {
  return e2e_[static_cast<size_t>(opcode)];
}

void LatencyBreakdown::RegisterMetrics(MetricRegistry& registry) const {
  for (size_t op = 0; op < kNumOpcodes; op++) {
    const char* opcode = OpcodeName(static_cast<Opcode>(op));
    for (size_t point = 1; point < kNumTracePoints; point++) {
      const LatencyHistogram* hist = &stages_[op][point];
      registry.RegisterHistogram(
          "kvd_trace_stage_ns", "per-stage latency from request traces",
          {{"opcode", opcode}, {"stage", StageName(static_cast<TracePoint>(point))}},
          [hist] { return *hist; });
    }
    const LatencyHistogram* e2e = &e2e_[op];
    registry.RegisterHistogram("kvd_trace_e2e_ns",
                               "end-to-end latency from request traces",
                               {{"opcode", opcode}}, [e2e] { return *e2e; });
  }
}

// ---------------------------------------------------------------------------
// LatencyBreakdownReport

namespace {

// Opcodes that completed at least one traced op, in enum order.
std::vector<size_t> OpcodesWithData(const LatencyBreakdown& breakdown) {
  std::vector<size_t> ops;
  for (size_t op = 0; op < LatencyBreakdown::kNumOpcodes; op++) {
    if (breakdown.EndToEnd(static_cast<Opcode>(op)).count() > 0) {
      ops.push_back(op);
    }
  }
  return ops;
}

double StageSumMeanNs(const LatencyBreakdown& breakdown, size_t op) {
  double sum = 0;
  for (size_t point = 1; point < kNumTracePoints; point++) {
    sum += breakdown
               .Stage(static_cast<Opcode>(op), static_cast<TracePoint>(point))
               .mean();
  }
  return sum;
}

}  // namespace

std::string LatencyBreakdownReport::Table(const LatencyBreakdown& breakdown) {
  const std::vector<size_t> ops = OpcodesWithData(breakdown);
  if (ops.empty()) {
    return "latency breakdown: no traced operations completed\n";
  }
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%-14s", "stage");
  out += buf;
  for (const size_t op : ops) {
    std::snprintf(buf, sizeof(buf), " %14s", OpcodeName(static_cast<Opcode>(op)));
    out += buf;
  }
  out += '\n';
  for (size_t point = 1; point < kNumTracePoints; point++) {
    bool any = false;
    for (const size_t op : ops) {
      if (breakdown
              .Stage(static_cast<Opcode>(op), static_cast<TracePoint>(point))
              .count() > 0) {
        any = true;
      }
    }
    if (!any) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%-14s",
                  StageName(static_cast<TracePoint>(point)));
    out += buf;
    for (const size_t op : ops) {
      const LatencyHistogram& hist =
          breakdown.Stage(static_cast<Opcode>(op), static_cast<TracePoint>(point));
      if (hist.count() > 0) {
        std::snprintf(buf, sizeof(buf), " %14.1f", hist.mean());
      } else {
        std::snprintf(buf, sizeof(buf), " %14s", "-");
      }
      out += buf;
    }
    out += '\n';
  }
  std::snprintf(buf, sizeof(buf), "%-14s", "stage_sum_ns");
  out += buf;
  for (const size_t op : ops) {
    std::snprintf(buf, sizeof(buf), " %14.1f", StageSumMeanNs(breakdown, op));
    out += buf;
  }
  out += '\n';
  std::snprintf(buf, sizeof(buf), "%-14s", "e2e_ns");
  out += buf;
  for (const size_t op : ops) {
    std::snprintf(buf, sizeof(buf), " %14.1f",
                  breakdown.EndToEnd(static_cast<Opcode>(op)).mean());
    out += buf;
  }
  out += '\n';
  std::snprintf(buf, sizeof(buf), "%-14s", "count");
  out += buf;
  for (const size_t op : ops) {
    std::snprintf(buf, sizeof(buf), " %14llu",
                  static_cast<unsigned long long>(
                      breakdown.EndToEnd(static_cast<Opcode>(op)).count()));
    out += buf;
  }
  out += '\n';
  return out;
}

void LatencyBreakdownReport::AppendJson(const LatencyBreakdown& breakdown,
                                        JsonWriter& json) {
  json.BeginArray();
  for (const size_t op : OpcodesWithData(breakdown)) {
    const Opcode opcode = static_cast<Opcode>(op);
    const LatencyHistogram& e2e = breakdown.EndToEnd(opcode);
    json.BeginObject();
    json.Field("opcode", std::string_view(OpcodeName(opcode)));
    json.Field("count", e2e.count());
    json.Key("stages").BeginArray();
    for (size_t point = 1; point < kNumTracePoints; point++) {
      const LatencyHistogram& hist =
          breakdown.Stage(opcode, static_cast<TracePoint>(point));
      if (hist.count() == 0) {
        continue;
      }
      json.BeginObject();
      json.Field("stage",
                 std::string_view(StageName(static_cast<TracePoint>(point))));
      json.Field("count", hist.count());
      json.Field("mean_ns", hist.mean());
      json.Field("p50_ns", hist.Percentile(0.5));
      json.Field("p99_ns", hist.Percentile(0.99));
      json.EndObject();
    }
    json.EndArray();
    json.Field("stage_sum_mean_ns", StageSumMeanNs(breakdown, op));
    json.Key("e2e").BeginObject();
    json.Field("mean_ns", e2e.mean());
    json.Field("p50_ns", e2e.Percentile(0.5));
    json.Field("p99_ns", e2e.Percentile(0.99));
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
}

std::string LatencyBreakdownReport::ToJson(const LatencyBreakdown& breakdown) {
  JsonWriter json;
  json.BeginObject();
  json.Key("breakdown");
  AppendJson(breakdown, json);
  json.EndObject();
  return json.TakeString();
}

// ---------------------------------------------------------------------------
// FlightRecorder

void FlightRecorder::OnTraceComplete(const OpTrace& trace) {
  if (config_.ring_capacity == 0) {
    return;
  }
  if (ring_.size() >= config_.ring_capacity) {
    ring_.pop_front();
  }
  ring_.push_back(trace);
}

bool FlightRecorder::Trigger(FlightTrigger trigger, std::string_view detail) {
  if (!tracer_.enabled()) {
    return false;
  }
  triggers_seen_++;
  const size_t slot = static_cast<size_t>(trigger);
  if (config_.once_per_trigger && slot < fired_.size() && fired_[slot]) {
    return false;
  }
  if (dumps_.size() >= config_.max_dumps) {
    return false;
  }
  if (slot < fired_.size()) {
    fired_[slot] = true;
  }
  Dump dump;
  dump.trigger = trigger;
  dump.detail = std::string(detail);
  dump.sim_time = sim_.Now();
  dump.json = RenderDump(trigger, detail);
  dumps_.push_back(std::move(dump));
  dumps_taken_++;
  return true;
}

std::string FlightRecorder::RenderDump(FlightTrigger trigger,
                                       std::string_view detail) const {
  JsonWriter json;
  json.BeginObject();
  json.Key("flight_dump").BeginObject();
  json.Field("trigger", std::string_view(FlightTriggerName(trigger)));
  json.Field("detail", detail);
  json.Field("sim_time_ps", sim_.Now());
  json.Field("ordinal", static_cast<uint64_t>(dumps_.size()));
  json.Key("traces").BeginArray();
  for (const OpTrace& trace : ring_) {
    AppendTraceJson(trace, json);
  }
  json.EndArray();
  json.Key("live_traces").BeginArray();
  for (const OpTrace* trace : tracer_.LiveTraces()) {
    AppendTraceJson(*trace, json);
  }
  json.EndArray();
  json.Key("metrics");
  if (registry_ != nullptr) {
    json.RawValue(registry_->ToJson());
  } else {
    json.Null();
  }
  json.Key("events").BeginArray();
  const size_t count = tracer_.num_events();
  const size_t first = count > config_.event_window ? count - config_.event_window : 0;
  for (size_t i = first; i < count; i++) {
    const TraceEvent& e = tracer_.Event(i);
    json.BeginObject();
    json.Field("name", std::string_view(e.name));
    json.Field("cat", std::string_view(e.category));
    char phase[2] = {e.phase, '\0'};
    json.Field("ph", std::string_view(phase));
    json.Field("start_ps", e.start);
    if (e.phase == 'X') {
      json.Field("dur_ps", e.duration);
    }
    AppendEventArgsJson(e, json);
    json.EndObject();
  }
  json.EndArray();
  json.Key("metadata").BeginObject();
  json.Field("ring_capacity", static_cast<uint64_t>(config_.ring_capacity));
  json.Field("live_traces_at_trigger",
             static_cast<uint64_t>(tracer_.LiveTraces().size()));
  json.Field("dropped_trace_records", tracer_.dropped());
  json.Field("dropped_events", tracer_.dropped_events());
  json.EndObject();
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

void FlightRecorder::RegisterMetrics(MetricRegistry& registry) {
  registry.RegisterCounter("kvd_flight_triggers",
                           "flight-recorder trigger events observed", {},
                           &triggers_seen_);
  registry.RegisterCounter("kvd_flight_dumps", "flight-recorder dumps taken",
                           {}, &dumps_taken_);
}

// ---------------------------------------------------------------------------
// SloMonitor

void SloMonitor::Record(uint64_t e2e_ns) {
  if (config_.window > 0) {
    RollTo(sim_.Now());
  }
  window_.Add(e2e_ns);
}

void SloMonitor::RollTo(SimTime now) {
  if (now < window_start_ + config_.window) {
    return;
  }
  if (window_.count() > 0) {
    Evaluate();
    window_.Reset();
  }
  // Tumble straight to the window containing `now`; empty intermediate
  // windows are not evaluated.
  window_start_ = now - (now % config_.window);
}

void SloMonitor::Evaluate() {
  windows_evaluated_++;
  last_p50_ns_ = static_cast<double>(window_.Percentile(0.5));
  last_p99_ns_ = static_cast<double>(window_.Percentile(0.99));
  std::string breach;
  if (config_.p50_target_ns > 0 &&
      last_p50_ns_ > static_cast<double>(config_.p50_target_ns)) {
    p50_breaches_++;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p50 %.0fns > target %lluns", last_p50_ns_,
                  static_cast<unsigned long long>(config_.p50_target_ns));
    breach = buf;
  }
  if (config_.p99_target_ns > 0 &&
      last_p99_ns_ > static_cast<double>(config_.p99_target_ns)) {
    p99_breaches_++;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p99 %.0fns > target %lluns", last_p99_ns_,
                  static_cast<unsigned long long>(config_.p99_target_ns));
    if (!breach.empty()) {
      breach += "; ";
    }
    breach += buf;
  }
  if (!breach.empty()) {
    flight_.Trigger(FlightTrigger::kSloBreach, breach);
  }
}

void SloMonitor::RegisterMetrics(MetricRegistry& registry) {
  registry.RegisterCounter("kvd_slo_windows", "SLO windows evaluated", {},
                           &windows_evaluated_);
  registry.RegisterCounter("kvd_slo_p50_breaches", "windows over the p50 target",
                           {}, &p50_breaches_);
  registry.RegisterCounter("kvd_slo_p99_breaches", "windows over the p99 target",
                           {}, &p99_breaches_);
  registry.RegisterGauge("kvd_slo_last_p50_ns", "last evaluated window p50", {},
                         [this] { return last_p50_ns_; });
  registry.RegisterGauge("kvd_slo_last_p99_ns", "last evaluated window p99", {},
                         [this] { return last_p99_ns_; });
}

// ---------------------------------------------------------------------------
// Tracer: per-operation traces

Tracer::Tracer(Simulator& sim, bool enabled, const SloConfig& slo,
               const FlightRecorderConfig& flight, MetricRegistry* registry,
               size_t max_events)
    : sim_(sim),
      enabled_(enabled),
      flight_(sim, *this, flight, registry),
      slo_(sim, slo, flight_),
      max_events_(max_events) {
  KVD_CHECK(max_events >= 1);
  if (enabled && registry != nullptr) {
    registry->RegisterCounter("kvd_trace_started", "request traces started", {},
                              &started_);
    registry->RegisterCounter("kvd_trace_finished", "request traces completed",
                              {}, &finished_);
    registry->RegisterCounter("kvd_trace_dropped",
                              "trace records dropped at capacity bounds", {},
                              &dropped_);
    breakdown_.RegisterMetrics(*registry);
    slo_.RegisterMetrics(*registry);
    flight_.RegisterMetrics(*registry);
  }
}

uint64_t Tracer::Start(Opcode opcode, uint64_t sequence, uint32_t op_index) {
  if (!enabled_) {
    return 0;
  }
  if (live_.size() >= kMaxLive) {
    dropped_++;
    return 0;
  }
  // Handles come from one counter, not from the wire sequence: clients hand
  // out overlapping sequence spaces, and a handle must name exactly one op.
  const uint64_t handle = next_handle_++;
  OpTrace& trace = live_[handle];
  trace.id = handle;
  trace.opcode = opcode;
  trace.sequence = sequence;
  trace.op_index = op_index;
  trace.points[static_cast<size_t>(TracePoint::kClientSend)] = sim_.Now();
  started_++;
  return handle;
}

void Tracer::Point(uint64_t handle, TracePoint point) {
  if (handle == 0) {
    return;
  }
  auto it = live_.find(handle);
  if (it == live_.end()) {
    return;
  }
  SimTime& at = it->second.points[static_cast<size_t>(point)];
  if (at == OpTrace::kAbsent) {
    at = sim_.Now();
  }
}

void Tracer::Span(uint64_t handle, SpanKind kind, SimTime start, SimTime end,
                  uint64_t detail) {
  if (handle == 0) {
    return;
  }
  auto it = live_.find(handle);
  if (it == live_.end()) {
    return;
  }
  if (it->second.spans.size() >= kMaxSpansPerOp) {
    dropped_++;
    return;
  }
  KVD_DCHECK(end >= start);
  it->second.spans.push_back({kind, start, end, detail});
}

void Tracer::CountAttempt(uint64_t handle) {
  if (handle == 0) {
    return;
  }
  auto it = live_.find(handle);
  if (it != live_.end()) {
    it->second.attempts++;
  }
}

void Tracer::Finish(uint64_t handle, ResultCode result) {
  if (handle == 0) {
    return;
  }
  auto it = live_.find(handle);
  if (it == live_.end()) {
    return;
  }
  OpTrace& trace = it->second;
  trace.result = result;
  SimTime& received = trace.points[static_cast<size_t>(TracePoint::kClientReceive)];
  if (received == OpTrace::kAbsent) {
    received = sim_.Now();
  }
  breakdown_.Record(trace);
  slo_.Record(PsToNs(trace.EndToEndPs()));
  flight_.OnTraceComplete(trace);
  finished_++;
  live_.erase(it);
}

void Tracer::Abandon(uint64_t handle) {
  if (handle == 0) {
    return;
  }
  live_.erase(handle);
}

void Tracer::RegisterPacket(uint64_t sequence,
                            const std::vector<uint64_t>& handles) {
  if (!enabled_ ||
      std::all_of(handles.begin(), handles.end(),
                  [](uint64_t handle) { return handle == 0; })) {
    return;
  }
  auto [it, inserted] = packet_ops_.try_emplace(sequence);
  it->second = handles;
  if (!inserted) {
    return;  // re-registration keeps the entry's place in the eviction order
  }
  packet_order_.push_back(sequence);
  // Several clients share one tracer, each with its own sequence space, so
  // the smallest sequence is not the oldest entry: evict in arrival order.
  while (packet_order_.size() > kMaxPackets) {
    packet_ops_.erase(packet_order_.front());
    packet_order_.pop_front();
  }
}

uint64_t Tracer::LookupOp(uint64_t sequence, size_t op_index) const {
  auto it = packet_ops_.find(sequence);
  if (it == packet_ops_.end() || op_index >= it->second.size()) {
    return 0;
  }
  return it->second[op_index];
}

const OpTrace* Tracer::Live(uint64_t handle) const {
  auto it = live_.find(handle);
  return it == live_.end() ? nullptr : &it->second;
}

std::vector<const OpTrace*> Tracer::LiveTraces() const {
  std::vector<const OpTrace*> traces;
  traces.reserve(live_.size());
  for (const auto& [handle, trace] : live_) {
    traces.push_back(&trace);
  }
  return traces;
}

// ---------------------------------------------------------------------------
// Tracer: timeline

void AppendEventArgsJson(const TraceEvent& event, JsonWriter& json) {
  if (event.num_args == 0) {
    return;
  }
  json.Key("args").BeginObject();
  for (size_t i = 0; i < event.num_args; i++) {
    json.Field(event.args[i].key, event.args[i].value);
  }
  json.EndObject();
}

void Tracer::Record(char phase, const char* category, const char* name,
                    SimTime start, SimTime duration, Args args) {
  KVD_DCHECK(args.size() <= kMaxTraceArgs);
  TraceEvent* slot;
  if (events_.size() < max_events_) {
    slot = &events_.emplace_back();
  } else {
    slot = &events_[next_event_];
    next_event_ = (next_event_ + 1) % max_events_;
    dropped_events_++;
  }
  slot->start = start;
  slot->duration = duration;
  slot->category = category;
  slot->name = name;
  slot->phase = phase;
  slot->num_args = static_cast<uint8_t>(std::min(args.size(), kMaxTraceArgs));
  std::copy_n(args.begin(), slot->num_args, slot->args.begin());
}

void Tracer::Instant(const char* category, const char* name, Args args) {
  if (!enabled_) {
    return;
  }
  Record('i', category, name, sim_.Now(), 0, args);
}

void Tracer::Complete(const char* category, const char* name, SimTime start,
                      SimTime end, Args args, OpMark op) {
  if (!enabled_) {
    return;
  }
  KVD_DCHECK(end >= start);
  Record('X', category, name, start, end - start, args);
  if (op.is_point) {
    Point(op.handle, op.point);
  } else {
    Span(op.handle, op.kind, start, end, op.detail);
  }
}

std::string Tracer::ToChromeTraceJson() const {
  // One track (tid) per category, numbered in name order; named via
  // thread_name metadata events so Perfetto shows readable lanes.
  std::map<std::string, int> track_of;
  for (const TraceEvent& e : events_) {
    track_of.emplace(e.category, 0);
  }
  int next_track = 1;
  for (auto& [category, track] : track_of) {
    track = next_track++;
  }

  JsonWriter json;
  json.BeginObject().Key("traceEvents").BeginArray();
  for (const auto& [category, track] : track_of) {
    json.BeginObject();
    json.Field("name", std::string_view("thread_name"));
    json.Field("ph", std::string_view("M"));
    json.Field("pid", uint64_t{0});
    json.Field("tid", static_cast<uint64_t>(track));
    json.Key("args").BeginObject().Field("name", std::string_view(category));
    json.EndObject().EndObject();
  }
  constexpr double kPicosPerMicro = 1e6;
  for (size_t i = 0; i < num_events(); i++) {
    const TraceEvent& e = Event(i);
    json.BeginObject();
    json.Field("name", std::string_view(e.name));
    json.Field("cat", std::string_view(e.category));
    char phase[2] = {e.phase, '\0'};
    json.Field("ph", std::string_view(phase));
    json.Field("ts", static_cast<double>(e.start) / kPicosPerMicro);
    if (e.phase == 'X') {
      json.Field("dur", static_cast<double>(e.duration) / kPicosPerMicro);
    }
    if (e.phase == 'i') {
      json.Field("s", std::string_view("t"));  // thread-scoped instant
    }
    json.Field("pid", uint64_t{0});
    json.Field("tid", static_cast<uint64_t>(track_of.at(e.category)));
    AppendEventArgsJson(e, json);
    json.EndObject();
  }
  json.EndArray();
  json.Field("displayTimeUnit", std::string_view("ns"));
  json.Key("metadata").BeginObject();
  json.Field("dropped_events", dropped_events_);
  if (dropped_events_ > 0) {
    json.Field("warning",
               std::string_view("event ring overflowed; the oldest events "
                                "were overwritten"));
  }
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  const std::string json = ToChromeTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::Ok();
}

}  // namespace kvd
