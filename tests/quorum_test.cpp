#include "cc/quorum.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace esr::cc {
namespace {

class QuorumTest : public ::testing::Test {
 protected:
  void Build(int num_sites, QuorumConfig config = {},
             sim::NetworkConfig net_config = {}) {
    net_ = std::make_unique<sim::Network>(&sim_, num_sites, net_config, 5,
                                          metrics_);
    for (SiteId s = 0; s < num_sites; ++s) {
      mailboxes_.push_back(std::make_unique<msg::Mailbox>(net_.get(), s));
      engines_.push_back(std::make_unique<QuorumEngine>(
          &sim_, mailboxes_.back().get(), num_sites, config));
    }
  }

  sim::Simulator sim_;
  obs::MetricRegistry metrics_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<msg::Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<QuorumEngine>> engines_;
};

TEST_F(QuorumTest, UpdateThenReadSeesValue) {
  Build(3);
  Status update = Status::Internal("pending");
  engines_[0]->UpdateQuorum({store::Operation::Increment(0, 9)},
                            [&](Status s) { update = s; });
  sim_.Run();
  ASSERT_TRUE(update.ok());
  int64_t got = -1;
  engines_[2]->ReadQuorum(0, [&](Result<Value> v) {
    ASSERT_TRUE(v.ok());
    got = v->AsInt();
  });
  sim_.Run();
  EXPECT_EQ(got, 9);
}

TEST_F(QuorumTest, ReadIntersectsWriteQuorum) {
  Build(5);
  Status update = Status::Internal("pending");
  engines_[0]->UpdateQuorum(
      {store::Operation::Write(0, Value(int64_t{42}))},
      [&](Status s) { update = s; });
  sim_.Run();
  ASSERT_TRUE(update.ok());
  // Even a reader whose local replica is stale must see 42 via the quorum.
  for (SiteId s = 0; s < 5; ++s) {
    int64_t got = -1;
    engines_[s]->ReadQuorum(0, [&](Result<Value> v) { got = v->AsInt(); });
    sim_.Run();
    EXPECT_EQ(got, 42) << "reader " << s;
  }
}

TEST_F(QuorumTest, SequentialUpdatesAccumulate) {
  Build(3);
  int done = 0;
  std::function<void(int)> next = [&](int remaining) {
    if (remaining == 0) return;
    engines_[remaining % 3]->UpdateQuorum(
        {store::Operation::Increment(1, 1)}, [&, remaining](Status s) {
          ASSERT_TRUE(s.ok());
          ++done;
          next(remaining - 1);
        });
  };
  next(6);
  sim_.Run();
  EXPECT_EQ(done, 6);
  int64_t got = -1;
  engines_[0]->ReadQuorum(1, [&](Result<Value> v) { got = v->AsInt(); });
  sim_.Run();
  EXPECT_EQ(got, 6);
}

TEST_F(QuorumTest, MinorityPartitionBlocksOperations) {
  Build(5);
  net_->SetPartition({{0}, {1, 2, 3, 4}});
  bool read_done = false;
  engines_[0]->ReadQuorum(0, [&](Result<Value>) { read_done = true; });
  sim_.RunUntil(1'000'000);
  EXPECT_FALSE(read_done) << "one site cannot form a majority read quorum";
  net_->HealPartition();
  sim_.Run();
  EXPECT_TRUE(read_done);
}

TEST_F(QuorumTest, MajorityPartitionKeepsWorking) {
  Build(5);
  net_->SetPartition({{0, 1, 2}, {3, 4}});
  bool done = false;
  engines_[1]->UpdateQuorum({store::Operation::Increment(0, 1)},
                            [&](Status s) {
                              done = true;
                              EXPECT_TRUE(s.ok());
                            });
  sim_.RunUntil(1'000'000);
  EXPECT_TRUE(done) << "a 3-of-5 majority commits during the partition";
}

TEST_F(QuorumTest, CrashedReplicaToleratedWithinQuorum) {
  Build(3);
  net_->SetSiteDown(2);
  bool done = false;
  engines_[0]->UpdateQuorum({store::Operation::Increment(0, 4)},
                            [&](Status s) {
                              done = true;
                              EXPECT_TRUE(s.ok());
                            });
  sim_.RunUntil(500'000);
  EXPECT_TRUE(done);
  EXPECT_EQ(engines_[2]->LocalVersion(0), 0) << "down replica missed it";
  int64_t got = -1;
  engines_[1]->ReadQuorum(0, [&](Result<Value> v) { got = v->AsInt(); });
  sim_.RunUntil(1'000'000);
  EXPECT_EQ(got, 4);
}

TEST_F(QuorumTest, CustomQuorumSizesHonored) {
  QuorumConfig config;
  config.read_quorum = 1;
  config.write_quorum = 3;  // r + w = 4 > 3
  Build(3, config);
  Status update = Status::Internal("pending");
  engines_[0]->UpdateQuorum({store::Operation::Increment(0, 2)},
                            [&](Status s) { update = s; });
  sim_.Run();
  ASSERT_TRUE(update.ok());
  // With w = n, every replica has the write; r = 1 read is safe and local.
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(engines_[s]->LocalValue(0).AsInt(), 2);
  }
}

TEST_F(QuorumTest, LossyNetworkRetriesUntilQuorum) {
  sim::NetworkConfig net;
  net.loss_probability = 0.4;
  Build(3, QuorumConfig{}, net);
  bool done = false;
  engines_[0]->UpdateQuorum({store::Operation::Increment(0, 1)},
                            [&](Status s) {
                              done = true;
                              EXPECT_TRUE(s.ok());
                            });
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(QuorumTest, CancelPendingStopsRetries) {
  Build(3);
  net_->SetPartition({{0}, {1, 2}});
  engines_[0]->ReadQuorum(0, [](Result<Value>) { FAIL() << "cancelled"; });
  sim_.RunUntil(100'000);
  engines_[0]->CancelPending();
  sim_.Run();  // must terminate: no retry timers left
  SUCCEED();
}

}  // namespace
}  // namespace esr::cc
