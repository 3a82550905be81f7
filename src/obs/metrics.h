// MetricsRegistry: named counters, gauges, and fixed-bucket histograms for
// the simulated stack. Registration (by name, idempotent) happens on slow
// paths and returns a small integer MetricId; the hot-path update calls
// (Add/Set/Observe) index pre-sized per-node vectors and never allocate, so
// instrumentation stays cheap even for deployments with thousands of nodes.
//
// Metric names follow the `layer.component.metric` convention documented in
// DESIGN.md §8, e.g. "sim.network.messages_sent" or
// "newswire.subscriber.latency_s".
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace nw::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
const char* MetricKindName(MetricKind kind) noexcept;

class MetricsRegistry {
 public:
  using MetricId = std::uint32_t;
  static constexpr MetricId kInvalidMetric = 0xffffffffu;

  explicit MetricsRegistry(std::size_t num_nodes = 1);

  // ---- registration (slow path; idempotent by name) ---------------------
  // Re-registering an existing name returns the same id; a name registered
  // under a different kind returns kInvalidMetric (updates on it no-op).
  MetricId Counter(const std::string& name);
  MetricId Gauge(const std::string& name);
  // `bucket_bounds` are the inclusive upper edges of the value buckets,
  // strictly increasing; one implicit overflow bucket follows the last.
  MetricId Histogram(const std::string& name, std::vector<double> bucket_bounds);
  // Log-spaced latency edges (seconds) shared by the delivery histograms.
  static std::vector<double> LatencyBucketsSeconds();

  // Grows per-node storage; values of existing nodes are preserved.
  void EnsureNodes(std::size_t count);
  std::size_t node_count() const noexcept { return num_nodes_; }
  std::size_t metric_count() const noexcept { return metrics_.size(); }

  // ---- updates (hot path; no allocation, out-of-range is a no-op) -------
  void Add(MetricId id, std::uint32_t node, std::uint64_t delta = 1) noexcept;
  void Set(MetricId id, std::uint32_t node, double value) noexcept;
  void Observe(MetricId id, std::uint32_t node, double sample) noexcept;

  // ---- queries ----------------------------------------------------------
  std::uint64_t CounterValue(MetricId id, std::uint32_t node) const;
  std::uint64_t CounterTotal(MetricId id) const;
  double GaugeValue(MetricId id, std::uint32_t node) const;

  struct HistogramSnapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1, last = overflow
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double Mean() const;
    // Nearest-rank quantile estimated as the upper edge of the bucket that
    // holds the rank (the global max for the overflow bucket). q in [0,100].
    double Quantile(double q) const;
  };
  struct MetricSnapshot {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    // kCounter:
    std::vector<std::uint64_t> counter_per_node;
    std::uint64_t counter_total = 0;
    // kGauge:
    std::vector<double> gauge_per_node;
    // kHistogram (aggregated across nodes):
    HistogramSnapshot histogram;
  };
  struct Snapshot {
    std::size_t num_nodes = 0;
    std::vector<MetricSnapshot> metrics;  // sorted by name
    const MetricSnapshot* Find(const std::string& name) const;
    // One JSON object; per-node arrays are included only for deployments
    // of at most `max_per_node_nodes` nodes (totals are always present).
    void WriteJson(FILE* out, std::size_t max_per_node_nodes = 1024) const;
  };
  // Deep copy: later updates to the registry do not affect the snapshot.
  Snapshot Snap() const;

  // Zeroes every value; registrations and ids survive.
  void Reset();

 private:
  struct Metric {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;  // index into the kind-specific storage below
  };
  // Counts and sums are per node and folded across nodes, in node order,
  // at Snap() time; the reported sum depends on that fold order.
  struct HistogramSlots {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // node-major, (bounds+1) per node
    std::vector<std::uint64_t> count_per_node;
    std::vector<double> sum_per_node;
    double min = std::numeric_limits<double>::infinity();  // over all nodes
    double max = -std::numeric_limits<double>::infinity();
  };

  std::vector<Metric> metrics_;
  std::map<std::string, MetricId> by_name_;
  std::size_t num_nodes_;
  std::vector<std::vector<std::uint64_t>> counters_;  // [slot][node]
  std::vector<std::vector<double>> gauges_;           // [slot][node]
  std::vector<HistogramSlots> histograms_;
};

}  // namespace nw::obs
