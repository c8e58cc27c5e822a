#include "src/obs/flight_recorder.h"

#include <string>

#include "src/obs/json_writer.h"

namespace kvd {

void FlightRecorder::OnTraceComplete(const OpTrace& trace) {
  if (!enabled_ || config_.ring_capacity == 0) {
    return;
  }
  if (ring_.size() >= config_.ring_capacity) {
    ring_.pop_front();
  }
  ring_.push_back(trace);
}

bool FlightRecorder::Trigger(FlightTrigger trigger, std::string_view detail) {
  if (!enabled_) {
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

void FlightRecorder::Rearm() { fired_.fill(false); }

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
  if (tracer_ != nullptr) {
    for (const OpTrace* trace : tracer_->LiveTraces()) {
      AppendTraceJson(*trace, json);
    }
  }
  json.EndArray();
  json.Key("metrics");
  if (registry_ != nullptr) {
    json.RawValue(registry_->ToJson());
  } else {
    json.Null();
  }
  json.Key("events").BeginArray();
  if (tracer_ != nullptr) {
    const size_t count = tracer_->num_events();
    const size_t first = count > config_.event_window ? count - config_.event_window : 0;
    for (size_t i = first; i < count; i++) {
      const TraceEvent& e = tracer_->Event(i);
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
  }
  json.EndArray();
  json.Key("metadata").BeginObject();
  json.Field("ring_capacity", static_cast<uint64_t>(config_.ring_capacity));
  if (tracer_ != nullptr) {
    json.Field("live_traces_at_trigger",
               static_cast<uint64_t>(tracer_->LiveTraces().size()));
    json.Field("dropped_trace_records", tracer_->dropped());
    json.Field("dropped_events", tracer_->dropped_events());
  }
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

}  // namespace kvd
