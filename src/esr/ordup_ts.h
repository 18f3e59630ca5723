#ifndef ESR_ESR_ORDUP_TS_H_
#define ESR_ESR_ORDUP_TS_H_

#include <map>

#include "esr/apply_ledger.h"
#include "esr/replica_control.h"

namespace esr::core {

/// Decentralized ORDUP: ordered updates by Lamport timestamp (paper
/// section 3.1: "sometimes true distributed control is desired. In those
/// cases we may use a Lamport-style global timestamp to mark the ordering.
/// In that case the MSets should somehow be delivered in order").
///
/// *Ordering*: the global total order is the (counter, site) Lamport
/// order. Each site holds arriving MSets in a timestamp-sorted buffer and
/// releases a prefix once it is *closed*: an MSet at timestamp T may run
/// when every other updater origin's clock watermark has passed T (FIFO
/// stable queues + monotonic origin clocks guarantee no unknown MSet at or
/// below the watermark floor can still appear). Heartbeats keep the floor
/// moving when origins go quiet — the price of decentralization is release
/// latency, not a commit round trip.
///
/// *Commit*: fully local (no order server), so unlike centralized ORDUP
/// this variant's updates are asynchronous end to end; the ordering cost
/// moves from the origin's commit path to every site's release path. The
/// ablation bench (bench_ordup_ordering_ablation) quantifies that trade.
///
/// *Divergence bounding*: centralized ORDUP's ApplyLedger, with the
/// site's release index as the order: a query pins the release watermark
/// at first read and is charged per conflicting released update past its
/// pin; strict (restarted or epsilon-exhausted-at-start) queries pause the
/// release at their pin and read a true prefix of the timestamp order.
class OrdupTsMethod : public ReplicaControlMethod {
 public:
  explicit OrdupTsMethod(const MethodContext& ctx);

  void SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                    CommitFn done) override;
  Result<Value> TryQueryRead(QueryState& query, ObjectId object) override;
  void OnQueryEnd(QueryState& query) override;
  void OnQueryRestart(QueryState& query) override;

  /// Number of MSets applied at this site (the release watermark).
  int64_t ReleaseIndex() const { return ledger_.applied(); }
  /// MSets currently held back waiting for the watermark floor.
  int64_t HeldCount() const { return static_cast<int64_t>(holdback_.size()); }

  void SnapshotDurable(recovery::CheckpointData& out) const override;
  void RestoreDurable(const recovery::CheckpointData& in) override;

 protected:
  /// Holds the MSet back by timestamp and raises its origin's watermark.
  void ProcessMset(const Mset& mset) override;
  void OnWatermarkAdvance() override { TryRelease(); }

 private:
  void TryRelease();

  /// Arrived-but-unreleased MSets, sorted by timestamp (the total order).
  std::map<LamportTimestamp, Mset> holdback_;
  /// Release index (count of released MSets, restored from checkpoints),
  /// write index, charges and the strict release pause.
  ApplyLedger ledger_;
};

}  // namespace esr::core

#endif  // ESR_ESR_ORDUP_TS_H_
