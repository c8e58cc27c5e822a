#include "src/obs/metric_registry.h"

#include <algorithm>
#include <cstdio>

#include "src/common/assert.h"
#include "src/obs/json_writer.h"

namespace kvd {
namespace {

const char* KindName(bool counter, bool gauge) {
  return counter ? "counter" : gauge ? "gauge" : "histogram";
}

std::string FormatGauge(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); i++) {
    if (i > 0) {
      out += ',';
    }
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

void MetricRegistry::Add(Metric metric) {
  metric.rendered_labels = RenderLabels(metric.labels);
  KVD_CHECK_MSG(Find(metric.name, metric.labels) == nullptr,
                "duplicate metric registration");
  metrics_.push_back(std::move(metric));
}

void MetricRegistry::RegisterCounter(std::string name, std::string help,
                                     MetricLabels labels, CounterFn fn) {
  Metric m;
  m.name = std::move(name);
  m.help = std::move(help);
  m.labels = std::move(labels);
  m.kind = Kind::kCounter;
  m.counter = std::move(fn);
  Add(std::move(m));
}

void MetricRegistry::RegisterGauge(std::string name, std::string help,
                                   MetricLabels labels, GaugeFn fn) {
  Metric m;
  m.name = std::move(name);
  m.help = std::move(help);
  m.labels = std::move(labels);
  m.kind = Kind::kGauge;
  m.gauge = std::move(fn);
  Add(std::move(m));
}

void MetricRegistry::RegisterHistogram(std::string name, std::string help,
                                       MetricLabels labels, HistogramFn fn) {
  Metric m;
  m.name = std::move(name);
  m.help = std::move(help);
  m.labels = std::move(labels);
  m.kind = Kind::kHistogram;
  m.histogram = std::move(fn);
  Add(std::move(m));
}

const MetricRegistry::Metric* MetricRegistry::Find(
    std::string_view name, const MetricLabels& labels) const {
  for (const Metric& m : metrics_) {
    if (m.name == name && m.labels == labels) {
      return &m;
    }
  }
  return nullptr;
}

std::optional<uint64_t> MetricRegistry::CounterValue(
    std::string_view name, const MetricLabels& labels) const {
  const Metric* m = Find(name, labels);
  if (m == nullptr || m->kind != Kind::kCounter) {
    return std::nullopt;
  }
  return m->counter();
}

std::optional<double> MetricRegistry::GaugeValue(std::string_view name,
                                                 const MetricLabels& labels) const {
  const Metric* m = Find(name, labels);
  if (m == nullptr || m->kind != Kind::kGauge) {
    return std::nullopt;
  }
  return m->gauge();
}

std::optional<LatencyHistogram> MetricRegistry::HistogramValue(
    std::string_view name, const MetricLabels& labels) const {
  const Metric* m = Find(name, labels);
  if (m == nullptr || m->kind != Kind::kHistogram) {
    return std::nullopt;
  }
  return m->histogram();
}

std::vector<size_t> MetricRegistry::SortedOrder() const {
  std::vector<size_t> order(metrics_.size());
  for (size_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    if (metrics_[a].name != metrics_[b].name) {
      return metrics_[a].name < metrics_[b].name;
    }
    return metrics_[a].rendered_labels < metrics_[b].rendered_labels;
  });
  return order;
}

std::vector<std::string> MetricRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(metrics_.size());
  for (const size_t i : SortedOrder()) {
    if (names.empty() || names.back() != metrics_[i].name) {
      names.push_back(metrics_[i].name);
    }
  }
  return names;
}

std::string MetricRegistry::PrometheusText() const {
  std::string out;
  std::string last_family;
  for (const size_t i : SortedOrder()) {
    const Metric& m = metrics_[i];
    if (m.name != last_family) {
      last_family = m.name;
      out += "# HELP " + m.name + " " + m.help + "\n";
      out += "# TYPE " + m.name + " ";
      out += m.kind == Kind::kCounter   ? "counter"
             : m.kind == Kind::kGauge ? "gauge"
                                      : "summary";
      out += '\n';
    }
    switch (m.kind) {
      case Kind::kCounter: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(m.counter()));
        out += m.name + m.rendered_labels + " " + buf + "\n";
        break;
      }
      case Kind::kGauge: {
        out += m.name + m.rendered_labels + " " + FormatGauge(m.gauge()) + "\n";
        break;
      }
      case Kind::kHistogram: {
        const LatencyHistogram h = m.histogram();
        for (const double q : {0.5, 0.95, 0.99}) {
          MetricLabels with_q = m.labels;
          char qbuf[16];
          std::snprintf(qbuf, sizeof(qbuf), "%g", q);
          with_q.emplace_back("quantile", qbuf);
          char vbuf[32];
          std::snprintf(vbuf, sizeof(vbuf), "%llu",
                        static_cast<unsigned long long>(h.Percentile(q)));
          out += m.name + RenderLabels(with_q) + " " + vbuf + "\n";
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.0f",
                      h.mean() * static_cast<double>(h.count()));
        out += m.name + "_sum" + m.rendered_labels + " " + buf + "\n";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(h.count()));
        out += m.name + "_count" + m.rendered_labels + " " + buf + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricRegistry::ToJson() const {
  JsonWriter json;
  json.BeginObject().Key("metrics").BeginArray();
  for (const size_t i : SortedOrder()) {
    const Metric& m = metrics_[i];
    json.BeginObject();
    json.Field("name", m.name);
    json.Field("type", std::string_view(KindName(m.kind == Kind::kCounter,
                                                 m.kind == Kind::kGauge)));
    json.Key("labels").BeginObject();
    for (const auto& [key, value] : m.labels) {
      json.Field(key, std::string_view(value));
    }
    json.EndObject();
    switch (m.kind) {
      case Kind::kCounter:
        json.Field("value", m.counter());
        break;
      case Kind::kGauge:
        json.Field("value", m.gauge());
        break;
      case Kind::kHistogram: {
        const LatencyHistogram h = m.histogram();
        json.Field("count", h.count());
        json.Field("mean", h.mean());
        json.Field("min", h.min());
        json.Field("max", h.max());
        json.Field("p50", h.Percentile(0.5));
        json.Field("p95", h.Percentile(0.95));
        json.Field("p99", h.Percentile(0.99));
        break;
      }
    }
    json.EndObject();
  }
  json.EndArray().EndObject();
  return json.TakeString();
}

std::string MetricRegistry::PlainText() const {
  std::string out;
  for (const size_t i : SortedOrder()) {
    const Metric& m = metrics_[i];
    out += m.name + m.rendered_labels + " ";
    switch (m.kind) {
      case Kind::kCounter: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(m.counter()));
        out += buf;
        break;
      }
      case Kind::kGauge:
        out += FormatGauge(m.gauge());
        break;
      case Kind::kHistogram:
        out += m.histogram().Summary();
        break;
    }
    out += '\n';
  }
  return out;
}

}  // namespace kvd
