#include "obs/metric_registry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace esr::obs {

namespace {

/// Deterministic, trim-trailing-zeros rendering: integers print without a
/// decimal point, everything else with up to 10 significant digits.
std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string EscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// HELP text escaping per the Prometheus text format: backslash and
/// newline only (quotes stay literal in HELP lines).
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

LabelSet Canonicalize(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Inserts extra labels (already canonical) plus one appended label, used
/// for histogram `le` rendering.
std::string RenderLabelsWith(const LabelSet& labels, const Label& extra) {
  LabelSet all = labels;
  all.push_back(extra);
  return RenderLabels(Canonicalize(std::move(all)));
}

}  // namespace

std::string RenderLabels(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

P2Quantile::P2Quantile(double q) : q_(q) {
  desired_[0] = 1;
  desired_[1] = 1 + 2 * q;
  desired_[2] = 1 + 4 * q;
  desired_[3] = 3 + 2 * q;
  desired_[4] = 5;
  rates_[0] = 0;
  rates_[1] = q / 2;
  rates_[2] = q;
  rates_[3] = (1 + q) / 2;
  rates_[4] = 1;
}

void P2Quantile::Observe(double v) {
  if (count_ < 5) {
    heights_[count_++] = v;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }
  // Cell containing v; the extremes absorb out-of-range samples.
  int k;
  if (v < heights_[0]) {
    heights_[0] = v;
    k = 0;
  } else if (v >= heights_[4]) {
    heights_[4] = v;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && v >= heights_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1;
  for (int i = 0; i < 5; ++i) desired_[i] += rates_[i];
  ++count_;
  // Nudge the three middle markers toward their desired positions:
  // piecewise-parabolic (P²) height prediction, falling back to linear
  // interpolation when the parabola would cross a neighbour.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    if ((d >= 1 && positions_[i + 1] - positions_[i] > 1) ||
        (d <= -1 && positions_[i - 1] - positions_[i] < -1)) {
      const double sign = d >= 0 ? 1 : -1;
      const double np = positions_[i + 1] - positions_[i];
      const double nm = positions_[i - 1] - positions_[i];
      const double parabolic =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((positions_[i] - positions_[i - 1] + sign) *
                   (heights_[i + 1] - heights_[i]) / np +
               (positions_[i + 1] - positions_[i] - sign) *
                   (heights_[i] - heights_[i - 1]) / (-nm));
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else {
        const int j = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::Value() const {
  if (count_ <= 0) return std::nan("");
  if (count_ >= 5) return heights_[2];
  // Exact order statistic over the partial (unsorted until 5) prefix of at
  // most four samples: an insertion sort.
  double sorted[4];
  for (int64_t i = 0; i < count_; ++i) {
    int64_t j = i;
    for (; j > 0 && sorted[j - 1] > heights_[i]; --j) sorted[j] = sorted[j - 1];
    sorted[j] = heights_[i];
  }
  int64_t idx = static_cast<int64_t>(
      std::ceil(q_ * static_cast<double>(count_))) - 1;
  idx = std::max<int64_t>(0, std::min<int64_t>(idx, count_ - 1));
  return sorted[idx];
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
  quantiles_.reserve(std::size(kQuantiles));
  for (double q : kQuantiles) quantiles_.emplace_back(q);
}

double Histogram::QuantileValue(double q) const {
  for (const P2Quantile& estimator : quantiles_) {
    if (estimator.quantile() == q) return estimator.Value();
  }
  return std::nan("");
}

void Histogram::Observe(double v) {
  if (!std::isfinite(v)) {
    // A NaN comparison makes lower_bound land in an arbitrary bucket, and
    // NaN/Inf poison sum_ for every later export. Drop the sample; the
    // registry surfaces the drop as esr_metrics_invalid_observations_total.
    ++invalid_count_;
    if (invalid_total_ != nullptr) invalid_total_->Increment();
    return;
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  for (P2Quantile& estimator : quantiles_) estimator.Observe(v);
}

std::vector<double> MetricRegistry::LatencyBucketsUs() {
  std::vector<double> bounds;
  for (double decade = 1; decade <= 1e8; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2);
    bounds.push_back(decade * 5);
  }
  bounds.push_back(1e9);
  return bounds;
}

MetricRegistry::Family& MetricRegistry::FamilyFor(const std::string& name,
                                                  Kind kind) {
  Family& family = families_[name];
  if (!family.kind_set) {
    // The family may pre-exist from Describe(), which doesn't know the
    // instrument kind; the first Get* call decides it.
    family.kind = kind;
    family.kind_set = true;
  } else {
    assert(family.kind == kind &&
           "metric family re-registered with a different instrument kind");
  }
  return family;
}

Counter& MetricRegistry::GetCounter(const std::string& name, LabelSet labels) {
  Family& family = FamilyFor(name, Kind::kCounter);
  LabelSet canonical = Canonicalize(std::move(labels));
  const std::string key = RenderLabels(canonical);
  auto [it, inserted] = family.counters.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Counter>();
    family.label_sets.emplace(key, std::move(canonical));
  }
  return *it->second;
}

int64_t MetricRegistry::CounterValue(const std::string& name,
                                     LabelSet labels) const {
  auto family = families_.find(name);
  if (family == families_.end()) return 0;
  auto it = family->second.counters.find(
      RenderLabels(Canonicalize(std::move(labels))));
  return it == family->second.counters.end() ? 0 : it->second->value();
}

Gauge& MetricRegistry::GetGauge(const std::string& name, LabelSet labels) {
  Family& family = FamilyFor(name, Kind::kGauge);
  LabelSet canonical = Canonicalize(std::move(labels));
  const std::string key = RenderLabels(canonical);
  auto [it, inserted] = family.gauges.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Gauge>();
    family.label_sets.emplace(key, std::move(canonical));
  }
  return *it->second;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name,
                                        LabelSet labels,
                                        std::vector<double> bounds) {
  Family& family = FamilyFor(name, Kind::kHistogram);
  LabelSet canonical = Canonicalize(std::move(labels));
  const std::string key = RenderLabels(canonical);
  auto [it, inserted] = family.histograms.try_emplace(key);
  if (inserted) {
    if (bounds.empty()) {
      // Reuse the family's existing boundaries so every series in a family
      // shares buckets (a Prometheus requirement for aggregation).
      if (!family.histograms.empty()) {
        for (const auto& [_, h] : family.histograms) {
          if (h != nullptr) {
            bounds = h->bounds();
            break;
          }
        }
      }
      if (bounds.empty()) bounds = LatencyBucketsUs();
    }
    it->second = std::make_unique<Histogram>(std::move(bounds));
    family.label_sets.emplace(key, std::move(canonical));
    // Surface dropped (NaN / non-finite) samples. Created eagerly with the
    // first histogram so the series exports 0 before the first drop.
    Describe("esr_metrics_invalid_observations_total",
             "Histogram samples dropped because the observed value was NaN "
             "or non-finite");
    it->second->invalid_total_ = &GetCounter(
        "esr_metrics_invalid_observations_total");
  }
  return *it->second;
}

void MetricRegistry::Describe(const std::string& name,
                              const std::string& help) {
  families_[name].help = help;
}

EventFamily::EventFamily(MetricRegistry& registry, std::string name,
                         LabelSet labels)
    : registry_(&registry),
      name_(std::move(name)),
      labels_(std::move(labels)) {}

void EventFamily::Increment(std::string_view event, int64_t by) {
  for (auto& [name, counter] : series_) {
    if (name == event) {
      counter->Increment(by);
      return;
    }
  }
  LabelSet labels = labels_;
  labels.emplace_back("event", std::string(event));
  Counter& counter = registry_->GetCounter(name_, std::move(labels));
  series_.emplace_back(std::string(event), &counter);
  counter.Increment(by);
}

int64_t MetricRegistry::SeriesCount() const {
  int64_t n = 0;
  for (const auto& [_, family] : families_) {
    n += static_cast<int64_t>(family.counters.size() + family.gauges.size() +
                              family.histograms.size());
  }
  return n;
}

std::string MetricRegistry::PrometheusText() const {
  std::ostringstream os;
  for (const auto& [name, family] : families_) {
    if (family.counters.empty() && family.gauges.empty() &&
        family.histograms.empty()) {
      continue;  // Describe()d but never populated.
    }
    if (!family.help.empty()) {
      os << "# HELP " << name << " " << EscapeHelp(family.help) << "\n";
    }
    switch (family.kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        for (const auto& [key, counter] : family.counters) {
          os << name << key << " " << counter->value() << "\n";
        }
        break;
      case Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        for (const auto& [key, gauge] : family.gauges) {
          os << name << key << " " << FormatNumber(gauge->value()) << "\n";
        }
        break;
      case Kind::kHistogram:
        os << "# TYPE " << name << " histogram\n";
        for (const auto& [key, histogram] : family.histograms) {
          const LabelSet& labels = family.label_sets.at(key);
          int64_t cumulative = 0;
          for (size_t b = 0; b < histogram->bounds().size(); ++b) {
            cumulative += histogram->bucket_counts()[b];
            os << name << "_bucket"
               << RenderLabelsWith(
                      labels, {"le", FormatNumber(histogram->bounds()[b])})
               << " " << cumulative << "\n";
          }
          os << name << "_bucket" << RenderLabelsWith(labels, {"le", "+Inf"})
             << " " << histogram->count() << "\n";
          os << name << "_sum" << key << " " << FormatNumber(histogram->sum())
             << "\n";
          os << name << "_count" << key << " " << histogram->count() << "\n";
        }
        // Companion gauge family with the streaming P² estimates. Emitted
        // once a series has the five samples the estimator needs; its own
        // TYPE line because `<name>_quantile` is a distinct family in the
        // text format (the suffix is not part of the histogram grammar).
        {
          bool any_estimates = false;
          for (const auto& [key, histogram] : family.histograms) {
            if (histogram->quantile_sample_count() >= 5) {
              any_estimates = true;
              break;
            }
          }
          if (any_estimates) {
            os << "# TYPE " << name << "_quantile gauge\n";
            for (const auto& [key, histogram] : family.histograms) {
              if (histogram->quantile_sample_count() < 5) continue;
              const LabelSet& labels = family.label_sets.at(key);
              for (double q : Histogram::kQuantiles) {
                os << name << "_quantile"
                   << RenderLabelsWith(labels, {"quantile", FormatNumber(q)})
                   << " " << FormatNumber(histogram->QuantileValue(q))
                   << "\n";
              }
            }
          }
        }
        break;
    }
  }
  return os.str();
}

void MetricRegistry::Merge(const MetricRegistry& other) {
  for (const auto& [name, family] : other.families_) {
    if (!family.help.empty()) Describe(name, family.help);
    for (const auto& [key, counter] : family.counters) {
      GetCounter(name, family.label_sets.at(key)).Increment(counter->value());
    }
    for (const auto& [key, gauge] : family.gauges) {
      GetGauge(name, family.label_sets.at(key)).Set(gauge->value());
    }
    for (const auto& [key, histogram] : family.histograms) {
      Histogram& mine = GetHistogram(name, family.label_sets.at(key),
                                     histogram->bounds());
      if (mine.bounds() == histogram->bounds()) {
        for (size_t b = 0; b < histogram->bucket_counts().size(); ++b) {
          mine.counts_[b] += histogram->bucket_counts()[b];
        }
        mine.count_ += histogram->count();
        mine.sum_ += histogram->sum();
      } else {
        // Boundary mismatch: fold whole buckets at a representative value —
        // the bucket's own upper bound for finite buckets, and for the +Inf
        // overflow bucket the residual mean (total sum minus the finite
        // buckets' upper-bound mass), clamped to at least the largest finite
        // bound so overflow mass never migrates back into the finite range.
        // Counts are accumulated per bucket (O(buckets), not O(samples)),
        // and count/sum transfer exactly; only bucket shape is approximated.
        const std::vector<double>& src_bounds = histogram->bounds();
        const std::vector<int64_t>& src_counts = histogram->bucket_counts();
        double bounded_mass = 0;
        for (size_t b = 0; b < src_bounds.size(); ++b) {
          bounded_mass += static_cast<double>(src_counts[b]) * src_bounds[b];
        }
        for (size_t b = 0; b < src_counts.size(); ++b) {
          const int64_t n = src_counts[b];
          if (n == 0) continue;
          double rep;
          if (b < src_bounds.size()) {
            rep = src_bounds[b];
          } else {
            rep = (histogram->sum() - bounded_mass) / static_cast<double>(n);
            if (!src_bounds.empty()) rep = std::max(rep, src_bounds.back());
            if (!std::isfinite(rep)) {
              rep = src_bounds.empty() ? 0 : src_bounds.back();
            }
          }
          const auto it =
              std::lower_bound(mine.bounds_.begin(), mine.bounds_.end(), rep);
          mine.counts_[static_cast<size_t>(it - mine.bounds_.begin())] += n;
        }
        mine.count_ += histogram->count();
        mine.sum_ += histogram->sum();
      }
      mine.invalid_count_ += histogram->invalid_count();
    }
  }
}

}  // namespace esr::obs
