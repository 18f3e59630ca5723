#ifndef ESR_ANALYSIS_CRITICAL_PATH_H_
#define ESR_ANALYSIS_CRITICAL_PATH_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/et_tracer.h"

namespace esr::analysis {

/// Protocol message types the analyzer needs to tell apart inside the
/// generic kQueue hops. Defaults match the esr::core constants (mset.h);
/// callers in the core layer pass them explicitly so the analysis library
/// never includes core headers.
struct ProtocolTypes {
  int32_t mset = 100;
  int32_t apply_ack = 101;
  int32_t stable = 102;
};

/// One named interval of an ET's waterfall. Segments telescope: each
/// begins where the previous ended, so within a window they sum exactly
/// to the window's length (a milestone that never happened contributes a
/// zero-length segment and its time is absorbed by the next one).
struct Segment {
  std::string name;
  SimTime begin = -1;
  SimTime end = -1;
  int64_t Duration() const { return end >= begin ? end - begin : 0; }
};

/// Per-ET critical-path waterfall: the causal chain submit → sequencer →
/// commit → (transit to the critical replica) → apply → ack → stable,
/// where the *critical replica* is the one whose apply-ack reached the
/// origin last — the chain that gated stability.
///
/// The lifecycle timestamps mirror obs::EtTracer's phases (the hop tracer
/// records them from the same simulator events), so post-commit segments
/// sum exactly to the EtTracer's commit→stable lag.
struct Waterfall {
  EtId et = kInvalidEtId;
  SiteId origin = kInvalidSiteId;
  std::string object_class;
  bool aborted = false;
  /// The replica whose ack arrived last (kInvalidSiteId when no remote
  /// chain was traced — e.g. a single-site run).
  SiteId critical_site = kInvalidSiteId;
  SimTime submit_time = -1;
  SimTime commit_time = -1;
  SimTime stable_time = -1;
  /// submit_wait, sequencer_rtt, commit_wait (pre-commit), then
  /// origin_queue_wait, network_transit, remote_queue_wait, order_wait,
  /// ack_transit, stability_fan_in (post-commit), in time order.
  std::vector<Segment> segments;
  int64_t CommitToStableUs() const {
    return (stable_time >= 0 && commit_time >= 0 && stable_time > commit_time)
               ? stable_time - commit_time
               : 0;
  }
};

/// Canonical segment order used by Waterfall::segments and the report.
const std::vector<std::string>& SegmentNames();

Waterfall BuildWaterfall(const obs::EtTrace& trace,
                         const ProtocolTypes& types = {});

/// Aggregate critical-path report over every completed trace: which
/// segment dominates the submit→stable window, overall and per object
/// class, plus exact commit→stable lag percentiles.
struct CriticalPathReport {
  std::string method;
  int64_t traced_ets = 0;
  int64_t aborted_ets = 0;
  struct SegmentAgg {
    std::string name;
    int64_t total_us = 0;
    int64_t max_us = 0;
    /// ETs for which this was the single largest segment.
    int64_t dominant_in = 0;
  };
  std::vector<SegmentAgg> segments;  ///< In SegmentNames() order.
  std::string dominant_segment;      ///< Largest total_us overall.
  struct ClassAgg {
    std::string object_class;
    int64_t ets = 0;
    std::string dominant_segment;
  };
  std::vector<ClassAgg> by_class;  ///< Sorted by class name.
  /// Exact commit→stable lag percentiles over the completed traces.
  int64_t lag_p50_us = 0;
  int64_t lag_p95_us = 0;
  int64_t lag_p99_us = 0;
};

CriticalPathReport BuildReport(const std::deque<obs::EtTrace>& traces,
                               std::string method,
                               const ProtocolTypes& types = {});

/// JSON array of the most recent `max_ets` waterfalls (newest last), each
/// with its segments and raw hops — the GET /traces payload.
std::string WaterfallsJson(const std::deque<obs::EtTrace>& traces,
                           int64_t max_ets, const ProtocolTypes& types = {});

/// One waterfall JSON object per line (every completed trace, oldest
/// first), followed by one {"kind":"report",...} line.
std::string WaterfallsJsonl(const std::deque<obs::EtTrace>& traces,
                            const std::string& method,
                            const ProtocolTypes& types = {});

Status WriteWaterfallsJsonl(const std::deque<obs::EtTrace>& traces,
                            const std::string& method, const std::string& path,
                            const ProtocolTypes& types = {});

/// Human-readable aggregate table (fixed-width columns, one segment per
/// row, dominant segment and lag percentiles at the bottom).
std::string RenderReportTable(const CriticalPathReport& report);

}  // namespace esr::analysis

#endif  // ESR_ANALYSIS_CRITICAL_PATH_H_
