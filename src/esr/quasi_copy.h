#ifndef ESR_ESR_QUASI_COPY_H_
#define ESR_ESR_QUASI_COPY_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "esr/replica_control.h"

namespace esr::core {

/// Messages owned by the quasi-copies baseline (range 105-109).
inline constexpr msg::MessageType kQuasiForward = 105;   // origin -> primary
inline constexpr msg::MessageType kQuasiForwardAck = 106;  // primary -> origin

/// Quasi-copies (paper section 5.2): the read-only-redundancy baseline.
///
/// "Quasi-copies offers a theoretical foundation for increased read-only
/// availability, but require that all updates be 1SR. As a result, the
/// primary copy is always consistent ... Inconsistency is only introduced
/// because quasi-copies may lag the primary copy."
///
/// Mechanics here: every update ET is forwarded to the primary site
/// (kQuasiPrimary) and applied there serially (trivially 1SR — one site,
/// one sequence). Cached copies at the other sites are refreshed by the
/// primary according to a
/// *closeness condition*: after `quasi_version_lag` updates to an object
/// (version condition) and/or periodically (delay condition). Refreshes are
/// timestamped overwrites, so late refreshes never regress a cache.
///
/// Contrast with ESR replica control, measured in bench_quasi_copies:
/// updates pay a synchronous primary round trip and die with the primary
/// (single point of failure / partition), queries have *no per-query
/// inconsistency control* — staleness is whatever the refresh policy left
/// behind — while COMMU commits locally and lets each query choose its own
/// epsilon.
/// The site holding the authoritative copies.
inline constexpr SiteId kQuasiPrimary = 0;

class QuasiCopyMethod : public ReplicaControlMethod {
 public:
  explicit QuasiCopyMethod(const MethodContext& ctx);

  void SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                    CommitFn done) override;
  Result<Value> TryQueryRead(QueryState& query, ObjectId object) override;

  /// Flushes every dirty object to the caches (primary only; no-op
  /// elsewhere). Invoked by the delay-condition refresh timer and at
  /// quiescence.
  void FlushDirty();

  /// Objects currently lagging at the caches (primary's view).
  int64_t DirtyCount() const { return static_cast<int64_t>(dirty_.size()); }

  void OnQuiesceFlush() override { FlushDirty(); }

  /// The "delay condition": the facade ticks this every
  /// quasi_refresh_interval_us on a dedicated timer (historically it rode
  /// the heartbeat schedule, so refresh silently ran at heartbeat cadence —
  /// or never, with heartbeats off).
  void OnRefreshTimer() override { FlushDirty(); }

 protected:
  /// Applies a cache refresh from the primary.
  void ProcessMset(const Mset& mset) override;

 private:
  struct Forwarded {
    EtId et;
    SiteId origin;
    std::vector<store::Operation> ops;
  };
  struct ForwardAck {
    EtId et;
    bool ok;
  };

  bool IsPrimary() const { return ctx_.site == kQuasiPrimary; }
  void ApplyAtPrimary(EtId et, SiteId origin,
                      const std::vector<store::Operation>& ops);
  void RefreshObject(ObjectId object);

  /// Origin side: commit callbacks awaiting the primary's ack.
  std::unordered_map<EtId, CommitFn> pending_;
  /// Primary side: per-object update count since the last refresh.
  std::unordered_map<ObjectId, int64_t> lag_;
  std::unordered_set<ObjectId> dirty_;
  int64_t refresh_seq_ = 0;
};

}  // namespace esr::core

#endif  // ESR_ESR_QUASI_COPY_H_
