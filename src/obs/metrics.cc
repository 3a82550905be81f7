#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nw::obs {

namespace {

// JSON-safe number formatting ("%.17g" round-trips doubles but is noisy;
// metrics are reports, not archives, so ten significant digits suffice).
void PrintNum(FILE* out, double v) {
  if (std::isfinite(v)) {
    std::fprintf(out, "%.10g", v);
  } else {
    std::fputs("null", out);
  }
}

void PrintEscaped(FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (char c : s) {
    switch (c) {
      case '"': std::fputs("\\\"", out); break;
      case '\\': std::fputs("\\\\", out); break;
      case '\n': std::fputs("\\n", out); break;
      case '\t': std::fputs("\\t", out); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::fprintf(out, "\\u%04x", c);
        } else {
          std::fputc(c, out);
        }
    }
  }
  std::fputc('"', out);
}

}  // namespace

const char* MetricKindName(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry::MetricsRegistry(std::size_t num_nodes)
    : num_nodes_(std::max<std::size_t>(1, num_nodes)) {}

MetricsRegistry::MetricId MetricsRegistry::Counter(const std::string& name) {
  if (auto it = by_name_.find(name); it != by_name_.end()) {
    return metrics_[it->second].kind == MetricKind::kCounter ? it->second
                                                             : kInvalidMetric;
  }
  const MetricId id = static_cast<MetricId>(metrics_.size());
  metrics_.push_back({name, MetricKind::kCounter,
                      static_cast<std::uint32_t>(counters_.size())});
  counters_.emplace_back(num_nodes_, 0);
  by_name_[name] = id;
  return id;
}

MetricsRegistry::MetricId MetricsRegistry::Gauge(const std::string& name) {
  if (auto it = by_name_.find(name); it != by_name_.end()) {
    return metrics_[it->second].kind == MetricKind::kGauge ? it->second
                                                           : kInvalidMetric;
  }
  const MetricId id = static_cast<MetricId>(metrics_.size());
  metrics_.push_back({name, MetricKind::kGauge,
                      static_cast<std::uint32_t>(gauges_.size())});
  gauges_.emplace_back(num_nodes_, 0.0);
  by_name_[name] = id;
  return id;
}

MetricsRegistry::MetricId MetricsRegistry::Histogram(
    const std::string& name, std::vector<double> bucket_bounds) {
  if (auto it = by_name_.find(name); it != by_name_.end()) {
    return metrics_[it->second].kind == MetricKind::kHistogram ? it->second
                                                               : kInvalidMetric;
  }
  assert(std::is_sorted(bucket_bounds.begin(), bucket_bounds.end()));
  const MetricId id = static_cast<MetricId>(metrics_.size());
  metrics_.push_back({name, MetricKind::kHistogram,
                      static_cast<std::uint32_t>(histograms_.size())});
  HistogramSlots slots;
  slots.bounds = std::move(bucket_bounds);
  slots.counts.assign((slots.bounds.size() + 1) * num_nodes_, 0);
  slots.count_per_node.assign(num_nodes_, 0);
  slots.sum_per_node.assign(num_nodes_, 0.0);
  histograms_.push_back(std::move(slots));
  by_name_[name] = id;
  return id;
}

std::vector<double> MetricsRegistry::LatencyBucketsSeconds() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 60, 120, 300};
}

void MetricsRegistry::EnsureNodes(std::size_t count) {
  if (count <= num_nodes_) return;
  for (auto& v : counters_) v.resize(count, 0);
  for (auto& v : gauges_) v.resize(count, 0.0);
  for (auto& h : histograms_) {
    // Node-major bucket storage: growing appends zeroed per-node blocks.
    h.counts.resize((h.bounds.size() + 1) * count, 0);
    h.count_per_node.resize(count, 0);
    h.sum_per_node.resize(count, 0.0);
  }
  num_nodes_ = count;
}

void MetricsRegistry::Add(MetricId id, std::uint32_t node,
                          std::uint64_t delta) noexcept {
  if (id >= metrics_.size() || node >= num_nodes_) return;
  const Metric& m = metrics_[id];
  if (m.kind != MetricKind::kCounter) return;
  counters_[m.slot][node] += delta;
}

void MetricsRegistry::Set(MetricId id, std::uint32_t node,
                          double value) noexcept {
  if (id >= metrics_.size() || node >= num_nodes_) return;
  const Metric& m = metrics_[id];
  if (m.kind != MetricKind::kGauge) return;
  gauges_[m.slot][node] = value;
}

void MetricsRegistry::Observe(MetricId id, std::uint32_t node,
                              double sample) noexcept {
  if (id >= metrics_.size() || node >= num_nodes_) return;
  const Metric& m = metrics_[id];
  if (m.kind != MetricKind::kHistogram) return;
  HistogramSlots& h = histograms_[m.slot];
  // Linear scan: bucket lists are short (~16) and branch-predictable.
  std::size_t bucket = h.bounds.size();
  for (std::size_t b = 0; b < h.bounds.size(); ++b) {
    if (sample <= h.bounds[b]) {
      bucket = b;
      break;
    }
  }
  h.counts[node * (h.bounds.size() + 1) + bucket] += 1;
  h.min = std::min(h.min, sample);
  h.max = std::max(h.max, sample);
  h.count_per_node[node] += 1;
  h.sum_per_node[node] += sample;
}

std::uint64_t MetricsRegistry::CounterValue(MetricId id,
                                            std::uint32_t node) const {
  if (id >= metrics_.size() || node >= num_nodes_) return 0;
  const Metric& m = metrics_[id];
  return m.kind == MetricKind::kCounter ? counters_[m.slot][node] : 0;
}

std::uint64_t MetricsRegistry::CounterTotal(MetricId id) const {
  if (id >= metrics_.size()) return 0;
  const Metric& m = metrics_[id];
  if (m.kind != MetricKind::kCounter) return 0;
  std::uint64_t total = 0;
  for (std::uint64_t v : counters_[m.slot]) total += v;
  return total;
}

double MetricsRegistry::GaugeValue(MetricId id, std::uint32_t node) const {
  if (id >= metrics_.size() || node >= num_nodes_) return 0.0;
  const Metric& m = metrics_[id];
  return m.kind == MetricKind::kGauge ? gauges_[m.slot][node] : 0.0;
}

double MetricsRegistry::HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0 : sum / double(count);
}

double MetricsRegistry::HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * double(count) / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cum += counts[b];
    if (cum >= rank) return b < bounds.size() ? bounds[b] : max;
  }
  return max;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot snap;
  snap.num_nodes = num_nodes_;
  snap.metrics.reserve(metrics_.size());
  // by_name_ iterates sorted, which keeps the JSON output stable.
  for (const auto& [name, id] : by_name_) {
    const Metric& m = metrics_[id];
    MetricSnapshot out;
    out.name = name;
    out.kind = m.kind;
    switch (m.kind) {
      case MetricKind::kCounter:
        out.counter_per_node = counters_[m.slot];
        for (std::uint64_t v : out.counter_per_node) out.counter_total += v;
        break;
      case MetricKind::kGauge:
        out.gauge_per_node = gauges_[m.slot];
        break;
      case MetricKind::kHistogram: {
        const HistogramSlots& h = histograms_[m.slot];
        out.histogram.bounds = h.bounds;
        out.histogram.counts.assign(h.bounds.size() + 1, 0);
        for (std::size_t node = 0; node < num_nodes_; ++node) {
          for (std::size_t b = 0; b <= h.bounds.size(); ++b) {
            out.histogram.counts[b] += h.counts[node * (h.bounds.size() + 1) + b];
          }
          out.histogram.count += h.count_per_node[node];
          out.histogram.sum += h.sum_per_node[node];
        }
        if (out.histogram.count > 0) {
          out.histogram.min = h.min;
          out.histogram.max = h.max;
        }
        break;
      }
    }
    snap.metrics.push_back(std::move(out));
  }
  return snap;
}

const MetricsRegistry::MetricSnapshot* MetricsRegistry::Snapshot::Find(
    const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void MetricsRegistry::Snapshot::WriteJson(FILE* out,
                                          std::size_t max_per_node_nodes) const {
  const bool per_node = num_nodes <= max_per_node_nodes;
  std::fprintf(out, "{\n  \"nodes\": %zu,\n  \"metrics\": [", num_nodes);
  bool first = true;
  for (const auto& m : metrics) {
    std::fputs(first ? "\n    {" : ",\n    {", out);
    first = false;
    std::fputs("\"name\": ", out);
    PrintEscaped(out, m.name);
    std::fprintf(out, ", \"kind\": \"%s\"", MetricKindName(m.kind));
    switch (m.kind) {
      case MetricKind::kCounter:
        std::fprintf(out, ", \"total\": %llu",
                     static_cast<unsigned long long>(m.counter_total));
        if (per_node) {
          std::fputs(", \"per_node\": [", out);
          for (std::size_t i = 0; i < m.counter_per_node.size(); ++i) {
            std::fprintf(out, "%s%llu", i ? "," : "",
                         static_cast<unsigned long long>(m.counter_per_node[i]));
          }
          std::fputc(']', out);
        }
        break;
      case MetricKind::kGauge: {
        double lo = 0, hi = 0, sum = 0;
        for (std::size_t i = 0; i < m.gauge_per_node.size(); ++i) {
          const double v = m.gauge_per_node[i];
          if (i == 0 || v < lo) lo = v;
          if (i == 0 || v > hi) hi = v;
          sum += v;
        }
        std::fputs(", \"mean\": ", out);
        PrintNum(out, m.gauge_per_node.empty()
                          ? 0.0
                          : sum / double(m.gauge_per_node.size()));
        std::fputs(", \"min\": ", out);
        PrintNum(out, lo);
        std::fputs(", \"max\": ", out);
        PrintNum(out, hi);
        if (per_node) {
          std::fputs(", \"per_node\": [", out);
          for (std::size_t i = 0; i < m.gauge_per_node.size(); ++i) {
            if (i) std::fputc(',', out);
            PrintNum(out, m.gauge_per_node[i]);
          }
          std::fputc(']', out);
        }
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        std::fprintf(out, ", \"count\": %llu",
                     static_cast<unsigned long long>(h.count));
        std::fputs(", \"sum\": ", out);
        PrintNum(out, h.sum);
        std::fputs(", \"min\": ", out);
        PrintNum(out, h.min);
        std::fputs(", \"max\": ", out);
        PrintNum(out, h.max);
        std::fputs(", \"mean\": ", out);
        PrintNum(out, h.Mean());
        std::fputs(", \"p50\": ", out);
        PrintNum(out, h.Quantile(50));
        std::fputs(", \"p90\": ", out);
        PrintNum(out, h.Quantile(90));
        std::fputs(", \"p99\": ", out);
        PrintNum(out, h.Quantile(99));
        std::fputs(", \"buckets\": [", out);
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
          if (b) std::fputc(',', out);
          std::fputs("{\"le\": ", out);
          if (b < h.bounds.size()) {
            PrintNum(out, h.bounds[b]);
          } else {
            std::fputs("\"inf\"", out);
          }
          std::fprintf(out, ", \"count\": %llu}",
                       static_cast<unsigned long long>(h.counts[b]));
        }
        std::fputc(']', out);
        break;
      }
    }
    std::fputc('}', out);
  }
  std::fputs("\n  ]\n}\n", out);
}

void MetricsRegistry::Reset() {
  for (auto& v : counters_) std::fill(v.begin(), v.end(), 0);
  for (auto& v : gauges_) std::fill(v.begin(), v.end(), 0.0);
  for (auto& h : histograms_) {
    std::fill(h.counts.begin(), h.counts.end(), 0);
    std::fill(h.count_per_node.begin(), h.count_per_node.end(), 0);
    std::fill(h.sum_per_node.begin(), h.sum_per_node.end(), 0.0);
    h.min = std::numeric_limits<double>::infinity();
    h.max = -std::numeric_limits<double>::infinity();
  }
}

}  // namespace nw::obs
