#ifndef ESR_ESR_ORDUP_H_
#define ESR_ESR_ORDUP_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "esr/apply_ledger.h"
#include "esr/replica_control.h"
#include "msg/total_order_buffer.h"

namespace esr::core {

/// Ordered updates (ORDUP, paper section 3.1), fully or partially
/// replicated.
///
/// *Ordering*: the origin obtains a position from each order service its
/// update touches before it commits. Fully replicated, that is the one
/// global order server (`kGlobalOrder`). Under partial replication every
/// placement shard has its own server: a single-shard update takes one
/// position from its shard's server (one round trip, never coordinating
/// with non-owner sites); an update spanning shards acquires one position
/// per touched shard in ascending shard order through the sequencer's
/// cross-shard protocol. Every touched shard's server grants a position and
/// holds a per-shard lock until the origin has collected all of them, then
/// the origin releases every lock. Two cross-shard updates sharing two or
/// more shards are serialized by their lowest common shard while both hold
/// it, so their relative positions agree on every shard they share — the
/// per-shard total orders compose into one serializable order. Ascending
/// acquisition makes the locking deadlock-free.
///
/// *MSet delivery*: the MSet carries its positions (`global_order`, or the
/// `shard_positions` vector) and is delivered to every site, or to the
/// owner sites of its shards only. A site runs one hold-back stream per
/// order service it follows ("each site simply waits for the next MSet in
/// the execution sequence to show up") and applies an MSet when it is at
/// the head of EVERY followed stream the MSet names (a barrier across the
/// site's streams); it then advances all of them at once. Only operations
/// on locally-owned objects are applied. Since every site applies each
/// stream's total order, update ETs are SR.
///
/// *Divergence bounding* (ApplyLedger): a query pins the site's apply
/// index (one tick per applied update MSet) at its first read. Each read is
/// charged one inconsistency unit per conflicting update ET applied past
/// the pin. When the budget would be exceeded the query can no longer read
/// consistently at its pin — the facade restarts it in *strict* mode, where
/// the query pauses the site's streams at its (fresh) pin and reads at an
/// exact point of the site's apply order, accumulating zero inconsistency.
/// epsilon = 0 queries run strict from the start and are one-copy
/// serializable. Reads of non-owned objects are forwarded by the facade to
/// an owner.
///
/// *Sequenced queries* (config.ordup_sequenced_queries, full replication
/// only): a query takes its own position in the global order. Other sites
/// skip it at once; the query's site holds the gap until the query ends,
/// so every read happens exactly at the query's serial position.
class OrdupMethod : public ReplicaControlMethod {
 public:
  explicit OrdupMethod(const MethodContext& ctx);

  void SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                    CommitFn done) override;
  Result<Value> TryQueryRead(QueryState& query, ObjectId object) override;
  void OnQueryBegin(QueryState& query) override;
  void OnQueryEnd(QueryState& query) override;
  void OnQueryRestart(QueryState& query) override;

  void SnapshotDurable(recovery::CheckpointData& out) const override;
  void RestoreDurable(const recovery::CheckpointData& in) override;
  void OnReplayReflected(const Mset& mset) override;
  void ReleaseOrphanPosition(ShardId service, SequenceNumber seq) override;
  SequenceNumber MaxOrderSeen(ShardId service) const override;

 protected:
  /// Holds the MSet in every followed stream it names (OfferMset).
  void ProcessMset(const Mset& mset) override;

 private:
  /// (order service, position) pairs, ascending by service.
  using Positions = std::vector<std::pair<ShardId, SequenceNumber>>;

  /// An MSet held back in the streams, with the positions it names.
  struct Held {
    Mset mset;
    Positions positions;
  };

  /// One hold-back stream per followed order service, releasing positions
  /// in order. An MSet naming several followed services is held by each.
  using Stream = msg::TotalOrderBuffer<std::shared_ptr<const Held>>;

  /// In-flight cross-shard position acquisition (ascending shard order).
  struct CrossCommit {
    EtId et = kInvalidEtId;
    LamportTimestamp ts;
    std::vector<store::Operation> ops;
    CommitFn done;
    std::vector<ShardId> shards;
    size_t next_shard = 0;
    Positions positions;
    std::vector<std::pair<ShardId, int64_t>> tokens;
  };

  /// The MSet's positions: its shard positions, or its one global one.
  static Positions PositionsOf(const Mset& mset);
  /// This site's client of order service `service`.
  msg::SequencerClient* Client(ShardId service) const;
  /// A no-op MSet that fills `seq` on order service `service`.
  Mset Noop(ShardId service, SequenceNumber seq) const;
  /// Propagates a no-op filling `seq` on `service` to the other sites.
  void ReleasePositionRemotely(ShardId service, SequenceNumber seq);

  void AcquireNextShard(std::shared_ptr<CrossCommit> state);
  void FinishCommit(EtId et, LamportTimestamp ts,
                    std::vector<store::Operation> ops, Positions positions,
                    CommitFn done);
  /// Inserts the MSet into every followed stream it names, then drains.
  void OfferMset(const Mset& mset);
  /// True when the MSet is at the head of all followed streams it names.
  bool AtBarrier(const Held& held) const;
  void Drain();
  /// Pops the MSet off every followed stream it names and applies it.
  void ApplyNow(std::shared_ptr<const Held> held);
  Result<Value> TrySequencedRead(QueryState& query, ObjectId object);

  /// Followed order service id -> hold-back stream, ascending
  /// (deterministic drain).
  std::map<ShardId, Stream> streams_;
  /// Apply index (+1 per update MSet applied here, any stream), write
  /// index, charges and the strict pause. The checkpoint carries the apply
  /// index, so a read's site_apply_index survives an amnesia restart.
  ApplyLedger ledger_;
  /// Sequenced queries: assigned global positions, by query ET.
  std::unordered_map<EtId, SequenceNumber> query_positions_;
  /// Queries that ended before their sequence response arrived.
  std::unordered_set<EtId> ended_before_position_;
};

}  // namespace esr::core

#endif  // ESR_ESR_ORDUP_H_
