#include "msg/stable_queue.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.h"

namespace esr::msg {
namespace {

class StableQueueTest : public ::testing::Test {
 protected:
  void Build(sim::NetworkConfig net_config) {
    net_ = std::make_unique<sim::Network>(&sim_, 3, net_config, /*seed=*/5,
                                          metrics_);
    for (SiteId s = 0; s < 3; ++s) {
      mailboxes_.push_back(std::make_unique<Mailbox>(net_.get(), s));
      queues_.push_back(std::make_unique<StableQueueManager>(
          &sim_, mailboxes_.back().get()));
      SiteId site = s;
      queues_.back()->SetDeliverHandler(
          [this, site](SiteId src, const std::any& payload) {
            delivered_[site].emplace_back(src,
                                          std::any_cast<int>(payload));
          });
    }
  }

  int64_t Events(SiteId site, const std::string& event) const {
    return metrics_.CounterValue(
        "esr_transport_events_total",
        {{"event", event}, {"site", std::to_string(site)}});
  }

  sim::Simulator sim_;
  obs::MetricRegistry metrics_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<StableQueueManager>> queues_;
  std::vector<std::pair<SiteId, int>> delivered_[3];
};

TEST_F(StableQueueTest, DeliversExactlyOnceOnCleanNetwork) {
  Build(sim::NetworkConfig{});
  for (int i = 0; i < 5; ++i) queues_[0]->Send(1, i);
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(delivered_[1][i].second, i);
  EXPECT_EQ(queues_[0]->UnackedCount(), 0);
}

TEST_F(StableQueueTest, SurvivesHeavyLoss) {
  sim::NetworkConfig net;
  net.loss_probability = 0.5;
  Build(net);
  for (int i = 0; i < 20; ++i) queues_[0]->Send(1, i);
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 20u);
  // FIFO preserved despite loss and retransmission.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(delivered_[1][i].second, i);
  EXPECT_GT(Events(0, "queue.retransmit"), 0);
  EXPECT_EQ(queues_[0]->UnackedCount(), 0);
}

TEST_F(StableQueueTest, FifoHoldsBackGaps) {
  sim::NetworkConfig net;
  net.jitter_us = 5'000;  // heavy reordering
  Build(net);
  for (int i = 0; i < 30; ++i) queues_[0]->Send(1, i);
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(delivered_[1][i].second, i);
}

TEST_F(StableQueueTest, ReceiverCrashDelaysButDeliversAfterRestart) {
  Build(sim::NetworkConfig{});
  net_->SetSiteDown(1);
  queues_[0]->Send(1, 7);
  sim_.RunUntil(100'000);
  EXPECT_TRUE(delivered_[1].empty());
  EXPECT_GT(queues_[0]->UnackedCount(), 0);
  net_->SetSiteUp(1);
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 1u);
  EXPECT_EQ(delivered_[1][0].second, 7);
}

TEST_F(StableQueueTest, PartitionHealsAndDeliveryResumes) {
  Build(sim::NetworkConfig{});
  net_->SetPartition({{0}, {1, 2}});
  queues_[0]->Send(2, 99);
  sim_.RunUntil(200'000);
  EXPECT_TRUE(delivered_[2].empty());
  net_->HealPartition();
  sim_.Run();
  ASSERT_EQ(delivered_[2].size(), 1u);
}

TEST_F(StableQueueTest, BroadcastReachesAllOthers) {
  Build(sim::NetworkConfig{});
  queues_[1]->Broadcast(5);
  sim_.Run();
  EXPECT_EQ(delivered_[0].size(), 1u);
  EXPECT_EQ(delivered_[2].size(), 1u);
  EXPECT_TRUE(delivered_[1].empty());
}

TEST_F(StableQueueTest, DuplicateDataIsAckedButNotRedelivered) {
  // Loss of acks forces retransmission; the receiver must dedup.
  sim::NetworkConfig net;
  net.loss_probability = 0.3;
  Build(net);
  for (int i = 0; i < 10; ++i) queues_[0]->Send(1, i);
  sim_.Run();
  EXPECT_EQ(delivered_[1].size(), 10u);
}

TEST_F(StableQueueTest, EnvelopePayloadsRouteThroughMailbox) {
  Build(sim::NetworkConfig{});
  // Fresh manager without a custom deliver handler uses the default
  // mailbox dispatch.
  int got = 0;
  mailboxes_[2]->RegisterHandler(
      200, [&](SiteId, const std::any& body) { got = std::any_cast<int>(body); });
  StableQueueManager fresh(&sim_, mailboxes_[2].get());
  // Reuse site 0's queue to send an Envelope payload to site 2. Site 2's
  // *fresh* manager replaced the kQueueData handler, so it receives it.
  queues_[0]->Send(2, Envelope{200, 123});
  sim_.Run();
  EXPECT_EQ(got, 123);
}

}  // namespace
}  // namespace esr::msg
