#ifndef ESR_ANALYSIS_TRACE_EXPORT_H_
#define ESR_ANALYSIS_TRACE_EXPORT_H_

#include <string>

#include "analysis/history.h"
#include "common/status.h"

namespace esr::analysis {

/// Renders the recorded history as JSON Lines, one event per line, for
/// offline analysis/plotting. Event kinds:
///
///   {"kind":"update","et":...,"origin":...,"commit_time":...,
///    "order":...,"ts":"c.s","aborted":...,"ops":["increment(obj=0, 5)"]}
///   {"kind":"apply","et":...,"site":...,"time":...,"index":...}
///   {"kind":"read","query":...,"site":...,"object":...,"value":"...",
///    "time":...,"inc":...,"pin":...}
///   {"kind":"query","query":...,"site":...,"epsilon":...,
///    "inconsistency":...,"completed":...}
///
/// Events are grouped by kind (updates, then applies per site, then reads,
/// then queries); each group is internally in recording order.
std::string ExportHistoryJsonl(const HistoryRecorder& history, int num_sites);

/// Writes ExportHistoryJsonl's output to `path`.
Status WriteHistoryJsonl(const HistoryRecorder& history, int num_sites,
                         const std::string& path);

}  // namespace esr::analysis

#endif  // ESR_ANALYSIS_TRACE_EXPORT_H_
