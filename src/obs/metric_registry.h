// Unified metrics layer (the paper's evaluation, §5, reads internal rates —
// DMA-per-op, fast-path share, dispatcher hit rate — out of every subsystem;
// a production deployment needs the same numbers continuously).
//
// Components keep their existing stats structs as the backing store and
// register *reader* callbacks here, so registration changes no behavior and
// costs nothing on the hot path. The registry renders every registered metric
// in three forms:
//   - Prometheus text exposition (counters, gauges, summaries)
//   - a JSON snapshot (machine-readable, one record per metric)
//   - sorted plain text (golden-testable)
//
// Thread-free by design: the whole system runs under one discrete-event
// simulator, so reads are always quiescent.
#ifndef SRC_OBS_METRIC_REGISTRY_H_
#define SRC_OBS_METRIC_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"

namespace kvd {

// Label set attached to a metric, e.g. {{"link", "0"}}. Order is preserved in
// exposition; equality is order-sensitive (register consistently).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class MetricRegistry {
 public:
  using CounterFn = std::function<uint64_t()>;
  using GaugeFn = std::function<double()>;
  // Returns a snapshot of the histogram (cheap: fixed-size bucket array).
  using HistogramFn = std::function<LatencyHistogram()>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Registration. Name+labels pairs must be unique (checked). The callback
  // must outlive the registry — in practice components and registry share the
  // owning KvDirectServer.
  void RegisterCounter(std::string name, std::string help, MetricLabels labels,
                       CounterFn fn);
  void RegisterGauge(std::string name, std::string help, MetricLabels labels,
                     GaugeFn fn);
  void RegisterHistogram(std::string name, std::string help, MetricLabels labels,
                         HistogramFn fn);

  // Convenience overloads reading a plain field of a live stats struct.
  void RegisterCounter(std::string name, std::string help, MetricLabels labels,
                       const uint64_t* field) {
    RegisterCounter(std::move(name), std::move(help), std::move(labels),
                    [field] { return *field; });
  }

  // Point lookups for tests and programmatic consumers.
  std::optional<uint64_t> CounterValue(std::string_view name,
                                       const MetricLabels& labels = {}) const;
  std::optional<double> GaugeValue(std::string_view name,
                                   const MetricLabels& labels = {}) const;
  std::optional<LatencyHistogram> HistogramValue(
      std::string_view name, const MetricLabels& labels = {}) const;

  size_t size() const { return metrics_.size(); }
  // Sorted, deduplicated metric names.
  std::vector<std::string> Names() const;

  // Prometheus text format, sorted by (name, labels), with # HELP / # TYPE
  // headers once per metric family. Histograms render as summaries with
  // quantile="0.5|0.95|0.99" series plus _sum and _count.
  std::string PrometheusText() const;

  // {"metrics":[{"name":...,"type":...,"labels":{...},...}]} sorted the same
  // way. Counters carry "value"; gauges "value"; histograms count/mean/min/
  // max/p50/p95/p99.
  std::string ToJson() const;

  // One sorted `name{labels} value` line per metric; histograms render their
  // one-line Summary(). Deterministic for a given system state.
  std::string PlainText() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    std::string name;
    std::string help;
    MetricLabels labels;
    std::string rendered_labels;  // cached `{k="v",...}` or empty
    Kind kind;
    CounterFn counter;
    GaugeFn gauge;
    HistogramFn histogram;
  };

  void Add(Metric metric);
  const Metric* Find(std::string_view name, const MetricLabels& labels) const;
  // Indices of metrics_ sorted by (name, rendered labels).
  std::vector<size_t> SortedOrder() const;

  std::vector<Metric> metrics_;
};

// Renders labels as `{k="v",k2="v2"}`, empty string for no labels.
std::string RenderLabels(const MetricLabels& labels);

}  // namespace kvd

#endif  // SRC_OBS_METRIC_REGISTRY_H_
