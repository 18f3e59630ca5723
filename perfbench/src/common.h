// Small helpers shared by the cluster benchmark: a process-wide monotonic
// clock, sample summaries, and the fatal-exit path every hard deadline uses.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds on one clock shared by every thread of the run
/// (the sites' TimerWheels each count from their own epoch, so spans are
/// stamped with this instead).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// CPU time consumed so far by the calling thread, or by the whole
/// process. Unlike wall time, neither counts time the host's hypervisor
/// ran something else on our virtual CPUs (steal).
inline double ThreadCpuS() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

inline double ProcessCpuS() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// Ends the run without a result line: the message goes to stderr, the
/// work directory is left in place for inspection, and no destructor runs
/// (a missed deadline means some thread may still hold cluster state).
[[noreturn]] inline void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: FATAL: %s\n", what.c_str());
  std::fflush(stderr);
  std::fflush(stdout);
  std::_Exit(3);
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; NaN if empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// p50 / p99 of one sample, with its size (every percentile is reported
/// with the count it rests on).
struct Dist {
  double p50 = 0;
  double p99 = 0;
  int64_t n = 0;
};

inline Dist Summarize(const std::vector<double>& v) {
  Dist d;
  d.n = static_cast<int64_t>(v.size());
  if (v.empty()) return d;
  d.p50 = Quantile(v, 0.5);
  d.p99 = Quantile(v, 0.99);
  return d;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
