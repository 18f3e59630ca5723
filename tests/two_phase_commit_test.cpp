#include "cc/two_phase_commit.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "msg/stable_queue.h"
#include "sim/simulator.h"

namespace esr::cc {
namespace {

class TwoPhaseCommitTest : public ::testing::Test {
 protected:
  void Build(int num_sites, sim::NetworkConfig net_config = {}) {
    num_sites_ = num_sites;
    net_ = std::make_unique<sim::Network>(&sim_, num_sites, net_config, 5,
                                          metrics_);
    for (SiteId s = 0; s < num_sites; ++s) {
      mailboxes_.push_back(std::make_unique<msg::Mailbox>(net_.get(), s));
      queues_.push_back(std::make_unique<msg::StableQueueManager>(
          &sim_, mailboxes_.back().get()));
      stores_.push_back(std::make_unique<store::MvStore>());
      engines_.push_back(std::make_unique<TwoPhaseCommitEngine>(
          mailboxes_.back().get(), queues_.back().get(), stores_.back().get(),
          num_sites));
    }
  }

  int64_t Events(SiteId site, const std::string& event) const {
    return metrics_.CounterValue(
        "esr_sync_events_total",
        {{"event", event}, {"site", std::to_string(site)}});
  }

  int num_sites_ = 0;
  sim::Simulator sim_;
  obs::MetricRegistry metrics_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<msg::Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<msg::StableQueueManager>> queues_;
  std::vector<std::unique_ptr<store::MvStore>> stores_;
  std::vector<std::unique_ptr<TwoPhaseCommitEngine>> engines_;
};

TEST_F(TwoPhaseCommitTest, CommitAppliesAtEverySite) {
  Build(3);
  Status result = Status::Internal("never called");
  engines_[0]->ExecuteUpdate({store::Operation::Increment(0, 7)},
                             [&](Status s) { result = s; });
  sim_.Run();
  EXPECT_TRUE(result.ok());
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(stores_[s]->Read(0).AsInt(), 7) << "site " << s;
  }
}

TEST_F(TwoPhaseCommitTest, SequentialUpdatesAllApply) {
  Build(3);
  int committed = 0;
  std::function<void(int)> submit = [&](int remaining) {
    if (remaining == 0) return;
    engines_[remaining % 3]->ExecuteUpdate(
        {store::Operation::Increment(0, 1)}, [&, remaining](Status s) {
          if (s.ok()) ++committed;
          submit(remaining - 1);
        });
  };
  submit(10);
  sim_.Run();
  EXPECT_EQ(committed, 10);
  for (SiteId s = 0; s < 3; ++s) EXPECT_EQ(stores_[s]->Read(0).AsInt(), 10);
}

TEST_F(TwoPhaseCommitTest, ConcurrentConflictingUpdatesSerialize) {
  Build(3);
  int committed = 0, aborted = 0;
  for (int i = 0; i < 8; ++i) {
    engines_[i % 3]->ExecuteUpdate(
        {store::Operation::Increment(0, 1),
         store::Operation::Increment(1, 1)},
        [&](Status s) { s.ok() ? ++committed : ++aborted; });
  }
  sim_.Run();
  // All sites agree, and the final value equals the number of commits.
  const int64_t v0 = stores_[0]->Read(0).AsInt();
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(stores_[s]->Read(0).AsInt(), v0);
    EXPECT_EQ(stores_[s]->Read(1).AsInt(), v0);
  }
  EXPECT_EQ(v0, committed);
  EXPECT_EQ(committed + aborted, 8);
  EXPECT_GT(committed, 0);
}

TEST_F(TwoPhaseCommitTest, OpposingLockOrdersResolvedByDeadlockDetection) {
  Build(2);
  int done = 0;
  // Two transactions writing {0,1} in opposite op order from different
  // coordinators.
  engines_[0]->ExecuteUpdate({store::Operation::Increment(0, 1),
                              store::Operation::Increment(1, 1)},
                             [&](Status) { ++done; });
  engines_[1]->ExecuteUpdate({store::Operation::Increment(1, 1),
                              store::Operation::Increment(0, 1)},
                             [&](Status) { ++done; });
  sim_.Run();
  EXPECT_EQ(done, 2) << "no transaction may hang forever";
  EXPECT_EQ(stores_[0]->StateDigest(), stores_[1]->StateDigest());
}

TEST_F(TwoPhaseCommitTest, ReadBlocksBehindPreparedWriter) {
  // Slow the network so the prepare window is observable.
  sim::NetworkConfig net;
  net.base_latency_us = 10'000;
  net.jitter_us = 0;
  Build(3, net);
  Status commit_status = Status::Internal("pending");
  engines_[0]->ExecuteUpdate({store::Operation::Increment(0, 5)},
                             [&](Status s) { commit_status = s; });
  // Give the prepare time to land at site 1 but not the decision.
  sim_.RunUntil(12'000);
  bool read_done = false;
  int64_t read_value = -1;
  engines_[1]->ExecuteRead(0, [&](Result<Value> v) {
    read_done = true;
    ASSERT_TRUE(v.ok());
    read_value = v->AsInt();
  });
  EXPECT_FALSE(read_done) << "read must wait behind the prepared X lock";
  sim_.Run();
  EXPECT_TRUE(read_done);
  EXPECT_EQ(read_value, 5) << "read admitted only after commit applied";
}

TEST_F(TwoPhaseCommitTest, ReadWithoutContentionIsImmediate) {
  Build(2);
  bool done = false;
  engines_[0]->ExecuteRead(7, [&](Result<Value> v) {
    done = true;
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(**&v, Value());
  });
  EXPECT_TRUE(done);
}

TEST_F(TwoPhaseCommitTest, PartitionStallsCommitUntilHeal) {
  Build(3);
  net_->SetPartition({{0, 1}, {2}});
  Status result = Status::Internal("pending");
  bool finished = false;
  engines_[0]->ExecuteUpdate({store::Operation::Increment(0, 1)},
                             [&](Status s) {
                               finished = true;
                               result = s;
                             });
  sim_.RunUntil(500'000);
  EXPECT_FALSE(finished) << "write-all cannot finish across a partition";
  net_->HealPartition();
  sim_.Run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(stores_[2]->Read(0).AsInt(), 1);
}

TEST_F(TwoPhaseCommitTest, PrepareAfterDecideIsTombstoned) {
  // A coordinator whose local prepare dies synchronously decides abort
  // while its PREPAREs are still in flight; the late PREPARE must not
  // resurrect the transaction and strand its locks.
  Build(2);
  // txn A (engine 0) takes the lock at site 0 first.
  Status a_status = Status::Internal("pending");
  engines_[0]->ExecuteUpdate({store::Operation::Increment(0, 1)},
                             [&](Status s) { a_status = s; });
  // txn B from engine 0 too: its self-prepare dies against A's lock
  // (wait-die, B younger), deciding abort before B's PREPARE lands at
  // site 1.
  Status b_status = Status::Internal("pending");
  engines_[0]->ExecuteUpdate({store::Operation::Increment(0, 1)},
                             [&](Status s) { b_status = s; });
  sim_.Run();
  EXPECT_TRUE(a_status.ok());
  EXPECT_TRUE(b_status.IsAborted());
  EXPECT_GE(Events(1, "tpc.prepare_after_decide") +
                Events(0, "tpc.prepare_after_decide"),
            0);
  // The critical post-condition: no stranded locks — a fresh transaction
  // sails through.
  Status c_status = Status::Internal("pending");
  engines_[1]->ExecuteUpdate({store::Operation::Increment(0, 1)},
                             [&](Status s) { c_status = s; });
  sim_.Run();
  EXPECT_TRUE(c_status.ok());
  EXPECT_EQ(stores_[0]->Read(0).AsInt(), 2);
  EXPECT_EQ(stores_[1]->Read(0).AsInt(), 2);
}

TEST_F(TwoPhaseCommitTest, LossyNetworkStillCommits) {
  sim::NetworkConfig net;
  net.loss_probability = 0.3;
  Build(3, net);
  // Sequential (non-conflicting in time) updates: loss must only delay,
  // never abort, thanks to stable-queue retransmission.
  int committed = 0;
  std::function<void(int)> next = [&](int remaining) {
    if (remaining == 0) return;
    engines_[0]->ExecuteUpdate({store::Operation::Increment(2, 1)},
                               [&, remaining](Status s) {
                                 if (s.ok()) ++committed;
                                 next(remaining - 1);
                               });
  };
  next(5);
  sim_.Run();
  EXPECT_EQ(committed, 5);
  for (SiteId s = 0; s < 3; ++s) EXPECT_EQ(stores_[s]->Read(2).AsInt(), 5);
}

}  // namespace
}  // namespace esr::cc
