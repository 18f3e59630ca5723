#ifndef ESR_ESR_QUERY_STATE_H_
#define ESR_ESR_QUERY_STATE_H_

#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"

namespace esr::core {

/// Epsilon value meaning "no divergence limit".
inline constexpr int64_t kUnboundedEpsilon =
    std::numeric_limits<int64_t>::max();

/// User-declared admission bounds for one query ET. The admission
/// controller picks the *effective* epsilon inside [min, max]; with the
/// controller disabled the query runs at the declared max.
struct QueryBounds {
  int64_t min_epsilon = 0;
  int64_t max_epsilon = kUnboundedEpsilon;
  int64_t min_value_epsilon = 0;
  int64_t max_value_epsilon = kUnboundedEpsilon;
};

/// Mutable state of an in-progress query ET.
///
/// The *inconsistency counter* is the paper's central bounding device: each
/// read that overlaps concurrent update activity increments it, and the
/// replica control method guarantees `inconsistency <= epsilon` for every
/// completed query. epsilon == 0 demands one-copy-serializable results;
/// kUnboundedEpsilon lets the query run with no coordination at all.
struct QueryState {
  EtId id = kInvalidEtId;
  SiteId site = kInvalidSiteId;
  /// *Effective* divergence limit the query runs under. With adaptive
  /// admission this is what the controller granted inside
  /// [declared min, declared_epsilon]; otherwise it equals the declared
  /// bound. All method-side enforcement reads this field.
  int64_t epsilon = kUnboundedEpsilon;
  /// Divergence limit the user declared (the max the query tolerates).
  /// `epsilon <= declared_epsilon` always, so the paper's per-query bound
  /// holds a fortiori against the declared value.
  int64_t declared_epsilon = kUnboundedEpsilon;
  /// Inconsistency accumulated so far (never exceeds epsilon).
  int64_t inconsistency = 0;

  /// Optional *value-units* divergence limit (paper section 5.1's "data
  /// value" spatial criterion): the summed magnitude of in-progress
  /// changes the query may have missed. Enforced by the counter-based
  /// methods (COMMU, RITU-SV).
  int64_t value_epsilon = kUnboundedEpsilon;
  /// Value-units divergence limit the user declared.
  int64_t declared_value_epsilon = kUnboundedEpsilon;
  /// Value-units inconsistency accumulated (never exceeds value_epsilon).
  int64_t value_inconsistency = 0;

  /// True once the query's serialization point has been pinned (first read).
  bool pinned = false;
  /// ORDUP: the site's apply index (MSets applied there) at the query's
  /// pin (valid when `pinned`).
  SequenceNumber order_pin = 0;
  /// ORDUP: true once the query has paused the site's applier to run "in
  /// the global order".
  bool holds_pause = false;

  /// RITU multi-version: the VTNC snapshot pinned at first read.
  std::optional<LamportTimestamp> vtnc_pin;

  /// Number of reads performed.
  int64_t reads = 0;
  /// Number of read attempts rejected with kUnavailable (blocked/retried).
  int64_t blocked_attempts = 0;
  /// Number of times the query was restarted after hitting its epsilon with
  /// no way to proceed (ORDUP strict restart).
  int64_t restarts = 0;
  /// True after a restart: the method runs the query on its strict (zero
  /// further inconsistency) path from the first read on.
  bool strict = false;

  /// Objects this query has read (COMPE uses it to find queries conflicting
  /// with a compensation).
  std::unordered_set<ObjectId> read_objects;
  /// COMPE: number of compensations that landed on objects this query had
  /// already read (always covered by the up-front potential charge).
  int64_t compensation_hits = 0;

  /// Per-object charge marks. Semantics are method-specific: ORDUP and
  /// ORDUP-TS store the site's apply index at the last charged read (see
  /// ApplyLedger); counter-based methods (COMMU / RITU-single / COMPE)
  /// store the cumulative lock-counter arrival mark. Either way the
  /// invariant is the same — a query is charged at most once per
  /// overlapping update ET.
  std::unordered_map<ObjectId, int64_t> charged_marks;
  /// Cumulative-weight marks for the value-units accounting.
  std::unordered_map<ObjectId, int64_t> charged_weight_marks;

  /// Resets per-attempt state for a strict restart (identity and the site
  /// stay; accounting starts over).
  ///
  /// Precondition: any method-side resources the attempt held — in
  /// particular an ORDUP/ORDUP-TS applier pause — have been released via
  /// ReplicaControlMethod::OnQueryRestart(). This function deliberately
  /// does NOT touch `holds_pause`: clearing the flag here without resuming
  /// the applier would leak the pause and freeze the site's
  /// hold-back forever. If the precondition is violated the flag
  /// stays true, the pin path skips re-acquiring, and OnQueryEnd still
  /// releases the pause exactly once.
  void ResetForRestart() {
    inconsistency = 0;
    value_inconsistency = 0;
    pinned = false;
    order_pin = 0;
    vtnc_pin.reset();
    charged_marks.clear();
    charged_weight_marks.clear();
    read_objects.clear();
    compensation_hits = 0;
    ++restarts;
    strict = true;
  }
};

}  // namespace esr::core

#endif  // ESR_ESR_QUERY_STATE_H_
