#include "cc/two_phase_commit.h"

#include <cassert>
#include <utility>

namespace esr::cc {

namespace {

struct PrepareMsg {
  int64_t txn;
  std::vector<store::Operation> ops;
};
struct VoteMsg {
  int64_t txn;
  bool yes;
};
struct DecideMsg {
  int64_t txn;
  bool commit;
};
struct AckMsg {
  int64_t txn;
};

/// Globally unique transaction ids: site in the high bits.
int64_t MakeTxnId(SiteId site, int64_t seq) {
  return static_cast<int64_t>(site) * 1'000'000'000LL + seq;
}

}  // namespace

TwoPhaseCommitEngine::TwoPhaseCommitEngine(msg::Mailbox* mailbox,
                                           msg::StableQueueManager* queues,
                                           store::MvStore* store,
                                           int num_sites)
    : mailbox_(mailbox),
      queues_(queues),
      store_(store),
      num_sites_(num_sites) {
  assert(mailbox != nullptr && queues != nullptr && store != nullptr);
  mailbox_->RegisterHandler(kTpcPrepare,
                            [this](SiteId src, const std::any& body) {
                              OnPrepare(src, body);
                            });
  mailbox_->RegisterHandler(
      kTpcVote,
      [this](SiteId src, const std::any& body) { OnVote(src, body); });
  mailbox_->RegisterHandler(kTpcDecide,
                            [this](SiteId src, const std::any& body) {
                              OnDecide(src, body);
                            });
  mailbox_->RegisterHandler(
      kTpcAck,
      [this](SiteId src, const std::any& body) { OnAck(src, body); });
}

void TwoPhaseCommitEngine::ExecuteUpdate(std::vector<store::Operation> ops,
                                         CommitCallback done) {
  const int64_t txn = MakeTxnId(mailbox_->self(), ++next_txn_seq_);
  Coordination& c = coordinating_[txn];
  c.ops = ops;
  c.done = std::move(done);
  events_.Increment("tpc.begin");
  for (SiteId s = 0; s < num_sites_; ++s) {
    queues_->Send(s, msg::Envelope{kTpcPrepare, PrepareMsg{txn, ops}});
  }
}

void TwoPhaseCommitEngine::OnPrepare(SiteId coordinator,
                                     const std::any& body) {
  const auto* prep = std::any_cast<PrepareMsg>(&body);
  assert(prep != nullptr);
  const int64_t txn = prep->txn;
  // Tombstone check: the decision can outrun the prepare (the coordinator
  // may decide while its prepare broadcast is still in flight elsewhere).
  // Preparing a decided transaction would acquire locks no decision will
  // ever release.
  if (decided_txns_.count(txn)) {
    events_.Increment("tpc.prepare_after_decide");
    return;
  }
  prepared_[txn] = prep->ops;

  // Acquire strict exclusive locks on the write set, one by one; vote yes
  // once all are held. Uses a shared progress record because grants may
  // arrive asynchronously from later ReleaseAll calls.
  auto objects = std::make_shared<std::vector<ObjectId>>();
  for (const store::Operation& op : prep->ops) {
    if (op.IsUpdate()) objects->push_back(op.object);
  }
  auto index = std::make_shared<size_t>(0);
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, txn, coordinator, objects, index,
           weak = std::weak_ptr<std::function<void()>>(step)]() {
    // Alive for the duration of this call via the invoking copy; re-shared
    // into the grant callback so the chain owns itself without a cycle.
    auto self = weak.lock();
    // The transaction may have been decided (aborted) while we waited.
    if (!prepared_.count(txn)) return;
    while (*index < objects->size()) {
      const ObjectId object = (*objects)[*index];
      Status s = locks_.Acquire(txn, object, LockMode::kExclusiveStrict,
                                store::OpKind::kWrite, [self]() { (*self)(); });
      if (s.ok()) {
        ++*index;
        continue;
      }
      if (s.IsUnavailable()) {
        ++*index;  // resume with the next object when the grant fires
        events_.Increment("tpc.lock_wait");
        return;
      }
      // Deadlock victim: vote no.
      events_.Increment("tpc.deadlock_abort");
      locks_.ReleaseAll(txn);
      prepared_.erase(txn);
      queues_->Send(coordinator, msg::Envelope{kTpcVote, VoteMsg{txn, false}});
      return;
    }
    queues_->Send(coordinator, msg::Envelope{kTpcVote, VoteMsg{txn, true}});
  };
  (*step)();
}

void TwoPhaseCommitEngine::OnVote(SiteId /*participant*/,
                                  const std::any& body) {
  const auto* vote = std::any_cast<VoteMsg>(&body);
  assert(vote != nullptr);
  auto it = coordinating_.find(vote->txn);
  if (it == coordinating_.end()) return;
  Coordination& c = it->second;
  if (c.decided) return;
  if (vote->yes) {
    ++c.yes_votes;
  } else {
    ++c.no_votes;
  }
  if (c.yes_votes == num_sites_ || c.no_votes > 0) Decide(vote->txn, c);
}

void TwoPhaseCommitEngine::Decide(int64_t txn, Coordination& c) {
  c.decided = true;
  c.committed = c.no_votes == 0;
  events_.Increment(c.committed ? "tpc.commit" : "tpc.abort");
  for (SiteId s = 0; s < num_sites_; ++s) {
    queues_->Send(s, msg::Envelope{kTpcDecide, DecideMsg{txn, c.committed}});
  }
}

void TwoPhaseCommitEngine::OnDecide(SiteId coordinator, const std::any& body) {
  const auto* decide = std::any_cast<DecideMsg>(&body);
  assert(decide != nullptr);
  decided_txns_.insert(decide->txn);
  auto it = prepared_.find(decide->txn);
  if (it != prepared_.end()) {
    if (decide->commit) {
      Status s = store_->ApplyAll(it->second);
      assert(s.ok());
      (void)s;
    }
    locks_.ReleaseAll(decide->txn);
    prepared_.erase(it);
  }
  // A participant that voted no already dropped its prepared state but must
  // still acknowledge so the coordinator can complete.
  queues_->Send(coordinator, msg::Envelope{kTpcAck, AckMsg{decide->txn}});
}

void TwoPhaseCommitEngine::OnAck(SiteId /*participant*/,
                                 const std::any& body) {
  const auto* ack = std::any_cast<AckMsg>(&body);
  assert(ack != nullptr);
  auto it = coordinating_.find(ack->txn);
  if (it == coordinating_.end()) return;
  Coordination& c = it->second;
  if (++c.acks < num_sites_) return;
  CommitCallback done = std::move(c.done);
  const bool committed = c.committed;
  coordinating_.erase(it);
  if (done) {
    done(committed ? Status::Ok()
                   : Status::Aborted("2PC transaction aborted"));
  }
}

void TwoPhaseCommitEngine::ExecuteRead(ObjectId object, ReadCallback done) {
  // Reads get their own id space (negative) so they never collide with
  // update transactions in the lock table.
  const int64_t read_txn = -MakeTxnId(mailbox_->self(), ++next_read_seq_);
  auto finish = std::make_shared<ReadCallback>(std::move(done));
  auto do_read = [this, read_txn, object, finish]() {
    Value v = store_->Read(object);
    locks_.ReleaseAll(read_txn);
    (*finish)(Result<Value>(std::move(v)));
  };
  Status s = locks_.Acquire(read_txn, object, LockMode::kSharedStrict,
                            store::OpKind::kRead, do_read);
  if (s.ok()) {
    do_read();
  } else if (s.IsAborted()) {
    (*finish)(Result<Value>(s));
  } else {
    events_.Increment("tpc.read_wait");
    // Queued: do_read fires on grant.
  }
}

void TwoPhaseCommitEngine::OnCrash() {
  // Volatile lock state is lost. Prepared-transaction ops live in
  // prepared_, which models stable prepare records; their locks are
  // conservatively re-acquired on the retried PREPARE delivery. For this
  // simulation we simply clear participant state; the stable-queue
  // retransmission of PREPARE rebuilds it.
  locks_ = LockManager(CompatibilityTable::kStrict2PL, WaitPolicy::kWaitDie);
  prepared_.clear();
}

}  // namespace esr::cc
