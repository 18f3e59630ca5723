#ifndef ESR_ESR_RITU_H_
#define ESR_ESR_RITU_H_

#include <vector>

#include "esr/commu.h"
#include "esr/replica_control.h"

namespace esr::core {

/// Read-independent timestamped updates (RITU, paper section 3.3).
///
/// *Admission*: every operation must be a timestamped blind write — no R/W
/// dependencies, so updates commute with reads and (via timestamp
/// resolution) with each other.
///
/// *MSet delivery/processing*: fully asynchronous, any order. In
/// **multi-version** mode each update appends an immutable version; in
/// **single-version** mode it overwrites under the Thomas write rule ("an
/// RITU update trying to overwrite a newer version is ignored").
///
/// *Divergence bounding* (multi-version): the Modular Synchronization
/// Method's VTNC. A query pins the VTNC at its first read; reads of
/// versions at-or-below the pin are one-copy serializable (the pinned
/// snapshot can never change), and each read of a newer version costs one
/// inconsistency unit. At its epsilon the query falls back to snapshot
/// reads — so RITU queries never block and never restart. epsilon = 0
/// yields strictly serializable (if stale) queries.
///
/// *Divergence bounding* (single-version): "there is no divergence since by
/// definition all the reads request the latest version. RITU reduces to
/// COMMU" — inherited lock-counter accounting.
class RituMethod : public CommuMethod {
 public:
  RituMethod(const MethodContext& ctx, bool multiversion);

  Status AdmitUpdate(const std::vector<store::Operation>& ops) override;
  void SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                    CommitFn done) override;
  Result<Value> TryQueryRead(QueryState& query, ObjectId object) override;

  /// This site's current VTNC (multi-version mode).
  LamportTimestamp Vtnc() const;

  bool multiversion() const { return multiversion_; }

  void OnReplayReflected(const Mset& mset) override;

 private:
  /// Applies a RITU MSet by the mode's rule and runs the shared
  /// ack/stability/lock-counter protocol.
  void ProcessMset(const Mset& mset) override;

  bool multiversion_;
};

}  // namespace esr::core

#endif  // ESR_ESR_RITU_H_
