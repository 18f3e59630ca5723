#ifndef ESR_CC_TWO_PHASE_COMMIT_H_
#define ESR_CC_TWO_PHASE_COMMIT_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "cc/lock_manager.h"
#include "msg/mailbox.h"
#include "msg/stable_queue.h"
#include "store/mv_store.h"
#include "store/operation.h"

namespace esr::cc {

/// Message types used by the 2PC engine (range 20-29).
inline constexpr msg::MessageType kTpcPrepare = 20;
inline constexpr msg::MessageType kTpcVote = 21;
inline constexpr msg::MessageType kTpcDecide = 22;
inline constexpr msg::MessageType kTpcAck = 23;

/// Synchronous coherency-control baseline: read-one/write-all replication
/// with two-phase commit ("a coherency control method is synchronous because
/// a distributed transaction requires a commit agreement protocol to
/// synchronize the transaction outcome ... a big handicap when network links
/// have very low bandwidth or moderately high latency", paper section 2.4).
///
/// One TwoPhaseCommitEngine runs at every site; each can coordinate
/// transactions originated there and participates in everyone else's.
/// Participants acquire strict exclusive locks on the write set at prepare
/// time and hold them through the decision — which is precisely what makes
/// local queries block behind in-doubt transactions, the behaviour the
/// async-vs-sync benchmark (E1) quantifies.
///
/// All 2PC traffic travels over stable queues, the coordinator's messages
/// to itself included, so lost messages delay but never wedge the protocol; a network partition stalls every in-flight
/// transaction that spans it until the partition heals (1SR is preserved,
/// availability is not — Davidson et al.'s "pessimistic" regime).
class TwoPhaseCommitEngine {
 public:
  using CommitCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Result<Value>)>;

  TwoPhaseCommitEngine(msg::Mailbox* mailbox, msg::StableQueueManager* queues,
                       store::MvStore* store, int num_sites);

  /// Coordinates a write-all transaction applying `ops` at every site.
  /// `done` fires after every participant acknowledged the decision.
  void ExecuteUpdate(std::vector<store::Operation> ops, CommitCallback done);

  /// 1SR local read: takes a strict shared lock (waits behind prepared
  /// writers), reads the local replica, releases.
  void ExecuteRead(ObjectId object, ReadCallback done);

  /// Site-crash hook: clears volatile lock state. In-doubt participants
  /// re-acquire locks when the (stable-queue-retried) PREPARE re-arrives.
  void OnCrash();

 private:
  struct Coordination {
    std::vector<store::Operation> ops;
    int yes_votes = 0;
    int no_votes = 0;
    int acks = 0;
    bool decided = false;
    bool committed = false;
    CommitCallback done;
  };

  void OnPrepare(SiteId coordinator, const std::any& body);
  void OnVote(SiteId participant, const std::any& body);
  void OnDecide(SiteId coordinator, const std::any& body);
  void OnAck(SiteId participant, const std::any& body);
  void Decide(int64_t txn, Coordination& c);

  msg::Mailbox* mailbox_;
  msg::StableQueueManager* queues_;
  store::MvStore* store_;
  /// Wait-die: participant lock waits span coordinators on different
  /// sites, where local cycle detection cannot see distributed deadlocks.
  LockManager locks_{CompatibilityTable::kStrict2PL, WaitPolicy::kWaitDie};
  int num_sites_;
  int64_t next_txn_seq_ = 0;
  int64_t next_read_seq_ = 0;
  std::unordered_map<int64_t, Coordination> coordinating_;
  /// Participant side: ops buffered between prepare and decision.
  std::unordered_map<int64_t, std::vector<store::Operation>> prepared_;
  /// Participant side: decided transactions (tombstones guarding against a
  /// PREPARE that arrives after its DECIDE — possible when the coordinator
  /// decides while its broadcast is still in flight).
  std::unordered_set<int64_t> decided_txns_;
  obs::EventFamily events_{mailbox_->network()->metrics(),
                           "esr_sync_events_total",
                           {{"site", std::to_string(mailbox_->self())}}};
};

}  // namespace esr::cc

#endif  // ESR_CC_TWO_PHASE_COMMIT_H_
