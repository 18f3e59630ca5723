#ifndef ESR_OBS_METRIC_REGISTRY_H_
#define ESR_OBS_METRIC_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace esr::obs {

/// One metric label (key/value). Label sets are canonicalized — sorted by
/// key — when a series is created, so `{a,b}` and `{b,a}` address the same
/// series.
using Label = std::pair<std::string, std::string>;
using LabelSet = std::vector<Label>;

/// Monotonic counter instrument.
class Counter {
 public:
  void Increment(int64_t by = 1) { value_ += by; }
  int64_t value() const { return value_; }

 private:
  friend class MetricRegistry;
  int64_t value_ = 0;
};

/// Point-in-time gauge instrument; may move in either direction.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  friend class MetricRegistry;
  double value_ = 0;
};

/// Streaming quantile estimate via the P² algorithm (Jain & Chlamtac,
/// CACM 1985): five markers, O(1) memory and O(1) work per sample, no
/// stored observations. Exact for the first five samples, then the middle
/// markers track the target quantile by parabolic interpolation.
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  void Observe(double v);

  int64_t count() const { return count_; }
  double quantile() const { return q_; }
  /// Current estimate (the exact order statistic until five samples have
  /// arrived; NaN before the first sample).
  double Value() const;

 private:
  double q_;
  int64_t count_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};
  double positions_[5] = {1, 2, 3, 4, 5};
  double desired_[5] = {0, 0, 0, 0, 0};
  double rates_[5] = {0, 0, 0, 0, 0};
};

/// Fixed-boundary histogram (classic Prometheus shape: cumulative `le`
/// buckets on export, exact count and sum). Additionally keeps fixed-memory
/// P² estimators for the quantiles in kQuantiles, exported as a companion
/// `<name>_quantile` gauge family once five samples have arrived.
class Histogram {
 public:
  /// Quantiles every histogram tracks (p50/p95/p99).
  static constexpr double kQuantiles[3] = {0.5, 0.95, 0.99};

  explicit Histogram(std::vector<double> bounds);

  /// Records a sample. NaN / non-finite values are dropped (they would land
  /// in an arbitrary bucket and poison sum()) and counted in
  /// invalid_count() plus, when the histogram lives in a registry, the
  /// esr_metrics_invalid_observations_total counter.
  void Observe(double v);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Samples dropped by Observe() because the value was NaN or non-finite.
  int64_t invalid_count() const { return invalid_count_; }
  /// Ascending upper bucket boundaries (exclusive of the implicit +Inf).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1, the
  /// last entry being the +Inf overflow bucket.
  const std::vector<int64_t>& bucket_counts() const { return counts_; }
  /// P² estimate for one of kQuantiles (NaN for an untracked quantile or
  /// an empty histogram). Estimates are stream-order dependent but
  /// deterministic for a seeded run; Merge() does not combine them (P²
  /// marker states of different streams cannot be merged), so merged
  /// registries re-estimate from whatever is observed after the merge.
  double QuantileValue(double q) const;
  /// Samples the P² estimators have actually seen. Differs from count()
  /// after a Merge: merged observations fold into buckets but not into the
  /// estimators, so exposition gates the `_quantile` family on this.
  int64_t quantile_sample_count() const {
    return quantiles_.empty() ? 0 : quantiles_.front().count();
  }

 private:
  friend class MetricRegistry;
  std::vector<double> bounds_;
  std::vector<int64_t> counts_;
  std::vector<P2Quantile> quantiles_;
  int64_t count_ = 0;
  double sum_ = 0;
  int64_t invalid_count_ = 0;
  /// Registry-owned drop counter (esr_metrics_invalid_observations_total);
  /// null for standalone histograms. Instrument references stay valid for
  /// the registry's lifetime, so the raw pointer is safe.
  Counter* invalid_total_ = nullptr;
};

/// Typed, labeled metric registry — the live counterpart of the post-hoc
/// HistoryRecorder. One registry exists per ReplicatedSystem; protocol code
/// increments instruments as events happen on the simulator, so a
/// (configuration, seed) pair produces a bit-identical snapshot.
///
/// Instrument naming follows the Prometheus conventions used throughout the
/// repo's observability layer: `esr_<noun>[_total|_us]`, snake_case, with
/// low-cardinality labels only (`site`, `method`, `object_class`, `event` —
/// see DESIGN.md "Observability").
///
/// Returned instrument references stay valid for the registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& GetCounter(const std::string& name, LabelSet labels = {});
  /// Value of one counter series; 0 when the series does not exist (the
  /// lookup creates none).
  int64_t CounterValue(const std::string& name, LabelSet labels = {}) const;
  Gauge& GetGauge(const std::string& name, LabelSet labels = {});
  /// `bounds` applies on first creation of the family only (empty selects
  /// LatencyBucketsUs()); later calls reuse the existing boundaries.
  Histogram& GetHistogram(const std::string& name, LabelSet labels = {},
                          std::vector<double> bounds = {});

  /// Attaches HELP text to a family (creating it lazily is fine — the text
  /// is emitted once the family has series).
  void Describe(const std::string& name, const std::string& help);

  /// Deterministic Prometheus text exposition: families in name order,
  /// series in label order, stable number formatting.
  std::string PrometheusText() const;

  /// Folds `other` into this registry: counters and histogram buckets add,
  /// gauges take `other`'s value (last writer wins). Used by the benchmark
  /// harness to aggregate the registries of many simulated systems into one
  /// per-binary snapshot.
  void Merge(const MetricRegistry& other);

  /// Number of live series across all families.
  int64_t SeriesCount() const;

  /// Default exponential latency buckets in simulated microseconds
  /// (1us .. 1e9us, powers of 10 with 1/2/5 steps).
  static std::vector<double> LatencyBucketsUs();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Family {
    Kind kind = Kind::kCounter;
    /// False while the family only exists because of Describe(); the first
    /// Get* call fixes the instrument kind.
    bool kind_set = false;
    std::string help;
    /// Key: canonical rendered label string (`{k="v",...}` or "").
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    /// Canonical label sets per key, kept for Merge.
    std::map<std::string, LabelSet> label_sets;
  };

  Family& FamilyFor(const std::string& name, Kind kind);

  std::map<std::string, Family> families_;
};

/// The `name{event="...",<labels>}` counter family a component counts its
/// protocol events in. A series appears at its event's first increment;
/// its handle is cached, so later increments render no labels. The
/// registry must outlive the family.
class EventFamily {
 public:
  EventFamily(MetricRegistry& registry, std::string name, LabelSet labels = {});

  void Increment(std::string_view event, int64_t by = 1);

 private:
  MetricRegistry* registry_;
  std::string name_;
  LabelSet labels_;
  std::vector<std::pair<std::string, Counter*>> series_;
};

/// Renders a canonical (sorted) label set as `{k="v",...}`; empty set
/// renders as "". Values are escaped (backslash, quote, newline).
std::string RenderLabels(const LabelSet& labels);

}  // namespace esr::obs

#endif  // ESR_OBS_METRIC_REGISTRY_H_
