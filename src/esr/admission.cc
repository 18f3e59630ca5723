#include "esr/admission.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace esr::core {

namespace {

obs::LabelSet SiteLabels(SiteId site) {
  return {{"site", std::to_string(site)}};
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         int num_sites,
                                         obs::MetricRegistry* metrics)
    : config_(config),
      scale_(static_cast<size_t>(num_sites),
             std::clamp(config.initial_scale, 0.0, 1.0)),
      value_scale_(static_cast<size_t>(num_sites),
                   std::clamp(config.initial_scale, 0.0, 1.0)),
      metrics_(metrics) {
  if (metrics_ == nullptr) return;
  metrics_->Describe("esr_admission_scale",
                     "Adaptive admission scale per site: 0 admits queries at "
                     "their declared min epsilon, 1 at their declared max.");
  metrics_->Describe("esr_admission_samples_total",
                     "Admission controller sampling ticks per site.");
  metrics_->Describe(
      "esr_admission_adjustments_total",
      "Admission controller scale moves per site and direction "
      "(loosen = toward declared max, tighten = toward declared min).");
  metrics_->Describe("esr_admission_last_utilization",
                     "Mean epsilon utilization of queries completed in the "
                     "site's most recent sampling interval that had any.");
  metrics_->Describe(
      "esr_admission_value_scale",
      "Adaptive admission scale per site for the value-units epsilon "
      "budget; moves independently of esr_admission_scale.");
  metrics_->Describe(
      "esr_admission_value_adjustments_total",
      "Value-scale moves per site and direction (loosen = toward declared "
      "max, tighten = toward declared min).");
  for (SiteId s = 0; s < num_sites; ++s) {
    metrics_->GetGauge("esr_admission_scale", SiteLabels(s)).Set(scale_[s]);
    metrics_->GetGauge("esr_admission_value_scale", SiteLabels(s))
        .Set(value_scale_[s]);
  }
}

AdmissionController::Decision AdmissionController::Adjust(
    double& scale, bool pressured, int64_t completed, double utilization_sum,
    bool calm) {
  if (pressured) {
    // Queries are paying for the tight budget: give back headroom fast,
    // toward the declared max.
    if (scale < 1.0) {
      scale = std::min(1.0, scale + kStepUp);
      return Decision::kLoosen;
    }
  } else if (completed > 0) {
    const double mean_utilization =
        utilization_sum / static_cast<double>(completed);
    if (mean_utilization <= kLowUtilization && calm && scale > 0.0) {
      // Budgets are going unused while replicas are close together:
      // consistency is currently free, so tighten toward the min.
      scale = std::max(0.0, scale - kStepDown);
      return Decision::kTighten;
    }
  }
  return Decision::kHold;
}

AdmissionController::Decision AdmissionController::Observe(
    SiteId site, const Signals& signals) {
  ++ticks_;
  const bool pressured = signals.blocked > 0 || signals.restarts > 0;
  const bool calm = signals.queue_depth <= kCalmQueueDepth &&
                    signals.max_divergence <= kCalmDivergence;
  const Decision decision = Adjust(scale_[site], pressured, signals.completed,
                                   signals.utilization_sum, calm);
  const Decision value_decision =
      Adjust(value_scale_[site], pressured, signals.value_completed,
             signals.value_utilization_sum, calm);
  const double scale = scale_[site];

  if (metrics_ != nullptr) {
    const obs::LabelSet site_labels = SiteLabels(site);
    metrics_->GetCounter("esr_admission_samples_total", site_labels)
        .Increment();
    metrics_->GetGauge("esr_admission_scale", site_labels).Set(scale);
    if (signals.completed > 0) {
      metrics_
          ->GetGauge("esr_admission_last_utilization", site_labels)
          .Set(signals.utilization_sum / static_cast<double>(signals.completed));
    }
    metrics_->GetGauge("esr_admission_value_scale", site_labels)
        .Set(value_scale_[site]);
    if (decision != Decision::kHold) {
      metrics_
          ->GetCounter(
              "esr_admission_adjustments_total",
              {{"site", std::to_string(site)},
               {"direction",
                decision == Decision::kLoosen ? "loosen" : "tighten"}})
          .Increment();
    }
    if (value_decision != Decision::kHold) {
      metrics_
          ->GetCounter(
              "esr_admission_value_adjustments_total",
              {{"site", std::to_string(site)},
               {"direction",
                value_decision == Decision::kLoosen ? "loosen" : "tighten"}})
          .Increment();
    }
  }
  return decision;
}

namespace {

int64_t Interpolate(double scale, int64_t min_epsilon, int64_t max_epsilon) {
  if (max_epsilon == kUnboundedEpsilon) return max_epsilon;
  if (min_epsilon >= max_epsilon) return max_epsilon;
  const int64_t span = max_epsilon - min_epsilon;
  const int64_t effective =
      min_epsilon +
      static_cast<int64_t>(std::llround(scale * static_cast<double>(span)));
  return std::clamp(effective, min_epsilon, max_epsilon);
}

}  // namespace

int64_t AdmissionController::Effective(SiteId site, int64_t min_epsilon,
                                       int64_t max_epsilon) const {
  return Interpolate(scale_[site], min_epsilon, max_epsilon);
}

int64_t AdmissionController::EffectiveValue(SiteId site, int64_t min_epsilon,
                                            int64_t max_epsilon) const {
  return Interpolate(value_scale_[site], min_epsilon, max_epsilon);
}

}  // namespace esr::core
