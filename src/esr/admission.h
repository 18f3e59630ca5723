#ifndef ESR_ESR_ADMISSION_H_
#define ESR_ESR_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "esr/config.h"
#include "esr/query_state.h"
#include "obs/metric_registry.h"

namespace esr::core {

/// Closed-loop adaptive epsilon admission.
///
/// The paper treats epsilon as a static per-query declaration (section 3.2).
/// This controller closes the loop the ROADMAP asks for: the PR-1 metrics
/// (epsilon utilization, per-object replica divergence, MSet queue depth)
/// feed back into the epsilon granted to *newly admitted* query ETs, inside
/// the user's declared [min, max] bounds. See AdmissionConfig in config.h
/// for the policy and its knobs.
///
/// The controller is pure state + arithmetic: the facade samples the signal
/// sources on a simulated-time timer and calls Observe() with per-site
/// deltas, then consults EffectiveEpsilon() at BeginQuery. Nothing here
/// touches wall-clock time or randomness, so adaptive runs stay
/// deterministic under a fixed seed.
class AdmissionController {
 public:
  /// Sampling period (simulated time).
  static constexpr SimDuration kSampleIntervalUs = 20'000;
  /// Additive scale step per loosening decision (fast under pressure).
  static constexpr double kStepUp = 0.25;
  /// Additive scale step per tightening decision (gentle when calm).
  static constexpr double kStepDown = 0.125;
  /// Tighten only when the mean effective-epsilon utilization of queries
  /// completed since the last tick is at or below this...
  static constexpr double kLowUtilization = 0.25;
  /// ...and the site's MSet propagation backlog is at most this...
  static constexpr int64_t kCalmQueueDepth = 2;
  /// ...and the max cross-replica spread (esr_replica_divergence_max) is at
  /// most this.
  static constexpr int64_t kCalmDivergence = 4;

  /// Per-site signals for one sampling interval (deltas since the previous
  /// tick unless noted). The facade assembles these from the metric
  /// registry, the ET tracer and the live query table.
  struct Signals {
    /// Queries completed at the site with a bounded non-zero effective
    /// epsilon (the ones with a defined utilization).
    int64_t completed = 0;
    /// Sum of inconsistency/effective-epsilon over those completions
    /// (the esr_query_epsilon_utilization feed).
    double utilization_sum = 0;
    /// Queries completed at the site with a bounded non-zero effective
    /// *value* epsilon (section 5.1's value-units criterion).
    int64_t value_completed = 0;
    /// Sum of value_inconsistency/effective-value-epsilon over those
    /// completions. Feeds the value scale, which adapts independently of
    /// the count scale: a workload can saturate one budget while leaving
    /// the other idle.
    double value_utilization_sum = 0;
    /// kUnavailable read attempts at the site (COMMU/RITU/COMPE blocking).
    int64_t blocked = 0;
    /// Strict restarts at the site (ORDUP/ORDUP-TS kInconsistencyLimit).
    int64_t restarts = 0;
    /// Instantaneous MSet propagation backlog toward the site
    /// (esr_mset_queue_depth).
    int64_t queue_depth = 0;
    /// Instantaneous max cross-replica spread over all objects
    /// (esr_replica_divergence_max; system-wide, same for every site).
    int64_t max_divergence = 0;
  };

  /// What a sampling tick decided for a site.
  enum class Decision { kHold, kLoosen, kTighten };

  AdmissionController(const AdmissionConfig& config, int num_sites,
                      obs::MetricRegistry* metrics);

  /// Feeds one site's interval signals and moves its scale. Emits the
  /// decision counters/gauges. Returns the decision taken.
  Decision Observe(SiteId site, const Signals& signals);

  /// The epsilon a query declaring [min, max] is admitted with right now:
  /// min + round(scale * (max - min)), clamped into [min, max]. An
  /// unbounded max passes through unchanged (there is no finite range to
  /// interpolate), as does a degenerate range (min >= max).
  int64_t Effective(SiteId site, int64_t min_epsilon,
                    int64_t max_epsilon) const;

  /// Same interpolation for the value-units budget, driven by the value
  /// scale. Count-epsilon and value-epsilon utilizations are different
  /// signals (a few large-magnitude updates exhaust the value budget while
  /// barely touching the count budget, and vice versa), so the two scales
  /// tighten independently; the loosen path (blocked/restarted queries)
  /// moves both, because a blocked read does not say which budget starved
  /// it.
  int64_t EffectiveValue(SiteId site, int64_t min_epsilon,
                         int64_t max_epsilon) const;

  /// Current count-epsilon scale in [0, 1] for a site.
  double scale(SiteId site) const { return scale_[site]; }

  /// Current value-epsilon scale in [0, 1] for a site.
  double value_scale(SiteId site) const { return value_scale_[site]; }

  /// Total sampling ticks observed (all sites).
  int64_t ticks() const { return ticks_; }

  const AdmissionConfig& config() const { return config_; }

 private:
  /// Shared scale-move logic for one site's count or value scale.
  Decision Adjust(double& scale, bool pressured, int64_t completed,
                  double utilization_sum, bool calm);

  AdmissionConfig config_;
  std::vector<double> scale_;
  std::vector<double> value_scale_;
  int64_t ticks_ = 0;
  obs::MetricRegistry* metrics_;  // not owned; may be null in unit tests
};

}  // namespace esr::core

#endif  // ESR_ESR_ADMISSION_H_
