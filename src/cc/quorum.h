#ifndef ESR_CC_QUORUM_H_
#define ESR_CC_QUORUM_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "msg/mailbox.h"
#include "sim/simulator.h"
#include "store/operation.h"

namespace esr::cc {

/// Message types used by the quorum engine (range 30-39).
inline constexpr msg::MessageType kQvReadReq = 30;
inline constexpr msg::MessageType kQvReadResp = 31;
inline constexpr msg::MessageType kQvWriteReq = 32;
inline constexpr msg::MessageType kQvWriteAck = 33;

/// Configuration of a weighted-voting replica set (Gifford 1979); the
/// paper's canonical synchronous coherency-control method (section 2.4).
/// With unit weights, r + w > n guarantees read/write intersection.
struct QuorumConfig {
  int read_quorum = 0;   // 0 -> majority
  int write_quorum = 0;  // 0 -> majority
  /// Retry interval for unanswered requests (crashed/partitioned sites).
  SimDuration retry_interval_us = 20'000;
};

/// Weighted-voting (quorum consensus) replication engine; one per site.
///
/// Every object carries a version number at each replica; reads collect a
/// read quorum and return the highest-versioned value; updates perform a
/// quorum read-modify-write. Requests are retried raw (not via stable
/// queues) because a quorum operation only needs *some* r (or w) live
/// replicas — which is exactly the availability trade this baseline
/// exhibits: a minority partition blocks entirely, a majority partition
/// keeps going, and latency always includes the round trips.
///
/// Scope note: this engine models weighted voting's availability and
/// latency behaviour for the benchmarks. Full 1SR for multi-object
/// transactions would additionally run 2PL/2PC across the quorum (Gifford's
/// original design); concurrent single-object RMWs here serialize through
/// version arbitration (highest version wins), which suffices for the
/// partition-availability and latency experiments E1/E4.
class QuorumEngine {
 public:
  using ReadCallback = std::function<void(Result<Value>)>;
  using CommitCallback = std::function<void(Status)>;

  QuorumEngine(sim::Simulator* simulator, msg::Mailbox* mailbox,
               int num_sites, QuorumConfig config);

  /// Reads `object` from a read quorum; yields the freshest value.
  void ReadQuorum(ObjectId object, ReadCallback done);

  /// Applies `ops` (all must be updates) via quorum read-modify-write of
  /// each touched object. `done` fires when every object reached its write
  /// quorum.
  void UpdateQuorum(std::vector<store::Operation> ops, CommitCallback done);

  /// Local replica accessors (for convergence inspection in tests).
  Value LocalValue(ObjectId object) const;
  int64_t LocalVersion(ObjectId object) const;

  /// Cancels all in-flight operations with kUnavailable (used by benches to
  /// stop cleanly at the end of a measurement window).
  void CancelPending();

 private:
  struct Versioned {
    Value value;
    int64_t version = 0;
  };
  using VersionedReadCallback = std::function<void(Value, int64_t version)>;
  struct PendingRead {
    ObjectId object;
    std::unordered_map<SiteId, Versioned> responses;
    VersionedReadCallback done;
    sim::EventId retry_event = 0;
  };
  struct PendingWrite {
    ObjectId object;
    Value value;
    int64_t version;
    std::unordered_set<SiteId> acks;
    std::function<void()> done;
    sim::EventId retry_event = 0;
  };

  void ReadQuorumVersioned(ObjectId object, VersionedReadCallback done);
  void OnReadReq(SiteId source, const std::any& body);
  void OnReadResp(SiteId source, const std::any& body);
  void OnWriteReq(SiteId source, const std::any& body);
  void OnWriteAck(SiteId source, const std::any& body);
  void BroadcastRead(int64_t req);
  void BroadcastWrite(int64_t req);
  void StartWrite(ObjectId object, Value value, int64_t version,
                  std::function<void()> done);

  sim::Simulator* simulator_;
  msg::Mailbox* mailbox_;
  int num_sites_;
  int read_quorum_;
  int write_quorum_;
  QuorumConfig config_;
  int64_t next_req_ = 1;
  std::unordered_map<ObjectId, Versioned> replica_;
  std::unordered_map<int64_t, PendingRead> pending_reads_;
  std::unordered_map<int64_t, PendingWrite> pending_writes_;
  obs::EventFamily events_{mailbox_->network()->metrics(),
                           "esr_sync_events_total",
                           {{"site", std::to_string(mailbox_->self())}}};
};

}  // namespace esr::cc

#endif  // ESR_CC_QUORUM_H_
