#ifndef ESR_COMMON_STATS_H_
#define ESR_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace esr {

/// Streaming accumulator of a scalar sample set: count, mean, min/max, and
/// (exact) percentiles. Used by the workload runner and the benchmark
/// harnesses to summarize latencies, error magnitudes, and counter values.
///
/// Keeps all samples; our experiments produce at most a few million samples
/// per series, so exact percentiles are affordable and simpler than a sketch.
/// The sample vector maintains a sorted prefix: Percentile() sorts only the
/// samples added since the last call and merges them in, so interleaved
/// Add/Percentile sequences cost O(k log k + n) per call instead of a full
/// O(n log n) re-sort.
class Summary {
 public:
  void Add(double sample);

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  double sum() const { return sum_; }
  double mean() const;
  double min() const { return samples_.empty() ? 0 : min_; }
  double max() const { return samples_.empty() ? 0 : max_; }

  /// Exact percentile by nearest-rank; p in [0, 100]. Returns 0 when empty.
  double Percentile(double p) const;

  /// "n=... mean=... p50=... p99=... max=..." one-line rendering.
  std::string ToString() const;

 private:
  mutable std::vector<double> samples_;
  /// samples_[0 .. sorted_prefix_) is sorted; the tail is insertion order.
  mutable size_t sorted_prefix_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace esr

#endif  // ESR_COMMON_STATS_H_
