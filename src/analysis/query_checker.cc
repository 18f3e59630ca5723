#include "analysis/query_checker.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "store/mv_store.h"

namespace esr::analysis {

namespace {

/// Per-object timeline over the serial replay: the value after each prefix,
/// compressed to change points. `changes[i] = {k, v}` means the object holds
/// v from prefix k (inclusive) until the next change point.
struct Timeline {
  std::vector<std::pair<int64_t, Value>> changes;  // starts with {0, initial}

  /// All maximal prefix ranges [lo, hi] (hi inclusive; hi == horizon for the
  /// final segment) where the object's value equals `v`.
  std::vector<std::pair<int64_t, int64_t>> MatchingRanges(
      const Value& v, int64_t horizon) const {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (size_t i = 0; i < changes.size(); ++i) {
      if (changes[i].second == v) {
        const int64_t lo = changes[i].first;
        const int64_t hi =
            i + 1 < changes.size() ? changes[i + 1].first - 1 : horizon;
        out.emplace_back(lo, hi);
      }
    }
    return out;
  }
};

std::vector<std::pair<int64_t, int64_t>> IntersectRanges(
    const std::vector<std::pair<int64_t, int64_t>>& a,
    const std::vector<std::pair<int64_t, int64_t>>& b) {
  std::vector<std::pair<int64_t, int64_t>> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t lo = std::max(a[i].first, b[j].first);
    const int64_t hi = std::min(a[i].second, b[j].second);
    if (lo <= hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

/// Builds per-object timelines by replaying the committed updates in
/// serial order.
std::unordered_map<ObjectId, Timeline> BuildTimelines(
    const HistoryRecorder& history, const std::vector<EtId>& serial_order) {
  std::unordered_map<ObjectId, Timeline> timelines;
  // Replay through a real store so timestamped writes obey the Thomas
  // write rule, exactly as replicas applied them.
  store::MvStore state;
  int64_t k = 0;
  for (EtId et : serial_order) {
    const UpdateRecord* u = history.FindUpdate(et);
    ++k;
    if (u == nullptr || u->aborted) continue;
    for (const store::Operation& op : u->ops) {
      if (!op.IsUpdate()) continue;
      const Value before = state.Read(op.object);
      if (state.Apply(op).ok()) {
        const Value after = state.Read(op.object);
        if (!(after == before)) {
          Timeline& t = timelines[op.object];
          if (t.changes.empty()) t.changes.emplace_back(0, Value());
          t.changes.emplace_back(k, after);
        }
      }
    }
  }
  return timelines;
}

bool PrefixConsistentImpl(
    const HistoryRecorder& history,
    const std::unordered_map<ObjectId, Timeline>& timelines, int64_t horizon,
    EtId query) {
  std::vector<std::pair<int64_t, int64_t>> candidates{{0, horizon}};
  for (const ReadRecord& r : history.reads()) {
    if (r.query != query) continue;
    auto it = timelines.find(r.object);
    std::vector<std::pair<int64_t, int64_t>> matches;
    if (it == timelines.end()) {
      if (r.value == Value()) matches.emplace_back(0, horizon);
    } else {
      matches = it->second.MatchingRanges(r.value, horizon);
    }
    candidates = IntersectRanges(candidates, matches);
    if (candidates.empty()) return false;
  }
  return true;
}

}  // namespace

std::unordered_map<ObjectId, Value> ComputeSerialState(
    const HistoryRecorder& history, const std::vector<EtId>& serial_order,
    int64_t prefix) {
  store::MvStore state;
  int64_t k = 0;
  for (EtId et : serial_order) {
    if (prefix >= 0 && k >= prefix) break;
    ++k;
    const UpdateRecord* u = history.FindUpdate(et);
    if (u == nullptr || u->aborted) continue;
    for (const store::Operation& op : u->ops) {
      if (op.IsUpdate()) (void)state.Apply(op);
    }
  }
  std::unordered_map<ObjectId, Value> out;
  for (ObjectId id : state.ObjectIds()) out.emplace(id, state.Read(id));
  return out;
}

bool PrefixConsistent(const HistoryRecorder& history,
                      const std::vector<EtId>& serial_order, EtId query) {
  const auto timelines = BuildTimelines(history, serial_order);
  return PrefixConsistentImpl(history, timelines,
                              static_cast<int64_t>(serial_order.size()),
                              query);
}

std::vector<QueryErrorReport> AnalyzeQueries(
    const HistoryRecorder& history, const std::vector<EtId>& serial_order) {
  std::vector<QueryErrorReport> reports;
  const auto final_state = ComputeSerialState(history, serial_order);
  const auto timelines = BuildTimelines(history, serial_order);
  const int64_t horizon = static_cast<int64_t>(serial_order.size());

  // Group reads per query.
  std::unordered_map<EtId, std::vector<const ReadRecord*>> reads_by_query;
  for (const ReadRecord& r : history.reads()) {
    reads_by_query[r.query].push_back(&r);
  }

  // Per site: apply sequence (already ordered by apply index).
  for (const QueryRecord& q : history.queries()) {
    if (!q.completed) continue;
    QueryErrorReport report;
    report.query = q.query;
    report.epsilon = q.epsilon;
    report.charged = q.final_inconsistency;
    report.prefix_consistent =
        PrefixConsistentImpl(history, timelines, horizon, q.query);

    auto rit = reads_by_query.find(q.query);
    if (rit != reads_by_query.end()) {
      // Drift: conflicting updates applied at the site that served each
      // read, between the query's first read at that site and the read
      // itself, restricted to the object the read touched. Reads are
      // grouped by serving site (not the query's origin) because under
      // partial replication forwarded reads execute at owner sites whose
      // apply sequences are independent of — and differently numbered
      // from — the origin's. Unsharded runs have every read at q.site, so
      // the grouping degenerates to the old single-window accounting.
      std::unordered_map<SiteId, int64_t> first_index_by_site;
      for (const ReadRecord* r : rit->second) {
        auto [fit, inserted] =
            first_index_by_site.try_emplace(r->site, r->site_apply_index);
        if (!inserted) fit->second = std::min(fit->second, r->site_apply_index);
      }
      for (const ReadRecord* r : rit->second) {
        const std::vector<ApplyRecord>& applies =
            history.site_applies(r->site);
        const int64_t first_index = first_index_by_site[r->site];
        const int64_t last = std::min(
            r->site_apply_index, static_cast<int64_t>(applies.size()));
        for (int64_t idx = first_index + 1; idx <= last; ++idx) {
          const UpdateRecord* u =
              history.FindUpdate(applies[static_cast<size_t>(idx - 1)].et);
          if (u == nullptr) continue;
          for (const store::Operation& op : u->ops) {
            if (op.IsUpdate() && op.object == r->object) {
              ++report.observed_conflicts;
              break;
            }
          }
        }
        // Value distance vs converged state (integers only).
        auto fit = final_state.find(r->object);
        const Value& final_v =
            fit == final_state.end() ? Value() : fit->second;
        if (r->value.is_int() && final_v.is_int()) {
          report.max_value_error_vs_final =
              std::max(report.max_value_error_vs_final,
                       std::fabs(static_cast<double>(r->value.AsInt() -
                                                     final_v.AsInt())));
        }
      }
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace esr::analysis
