#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace esr {

void Summary::Add(double sample) {
  if (samples_.empty()) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  samples_.push_back(sample);
  sum_ += sample;
}

double Summary::mean() const {
  if (samples_.empty()) return 0;
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::Percentile(double p) const {
  if (samples_.empty()) return 0;
  if (sorted_prefix_ < samples_.size()) {
    const auto mid = samples_.begin() + static_cast<ptrdiff_t>(sorted_prefix_);
    std::sort(mid, samples_.end());
    std::inplace_merge(samples_.begin(), mid, samples_.end());
    sorted_prefix_ = samples_.size();
  }
  p = std::clamp(p, 0.0, 100.0);
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

std::string Summary::ToString() const {
  std::ostringstream os;
  os << "n=" << count() << " mean=" << mean() << " p50=" << Percentile(50)
     << " p99=" << Percentile(99) << " max=" << max();
  return os.str();
}

}  // namespace esr
