#include "msg/persistent_pipe.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace esr::msg {
namespace {

class PersistentPipeTest : public ::testing::Test {
 protected:
  void Build(sim::NetworkConfig net_config,
             PersistentPipeConfig pipe_config = {}) {
    net_ = std::make_unique<sim::Network>(&sim_, 3, net_config, /*seed=*/5,
                                          metrics_);
    for (SiteId s = 0; s < 3; ++s) {
      mailboxes_.push_back(std::make_unique<Mailbox>(net_.get(), s));
      pipes_.push_back(std::make_unique<PersistentPipeManager>(
          &sim_, mailboxes_.back().get(), pipe_config));
      SiteId site = s;
      pipes_.back()->SetDeliverHandler(
          [this, site](SiteId src, const std::any& payload) {
            delivered_[site].emplace_back(src, std::any_cast<int>(payload));
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
  std::vector<std::unique_ptr<PersistentPipeManager>> pipes_;
  std::vector<std::pair<SiteId, int>> delivered_[3];
};

TEST_F(PersistentPipeTest, DeliversInOrderOnCleanNetwork) {
  Build(sim::NetworkConfig{});
  for (int i = 0; i < 20; ++i) pipes_[0]->Send(1, i);
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(delivered_[1][i].second, i);
  EXPECT_EQ(pipes_[0]->UnackedCount(), 0);
}

TEST_F(PersistentPipeTest, WindowLimitsInFlightSegments) {
  PersistentPipeConfig config;
  config.window = 2;
  sim::NetworkConfig net;
  net.base_latency_us = 10'000;
  net.jitter_us = 0;
  Build(net, config);
  for (int i = 0; i < 6; ++i) pipes_[0]->Send(1, i);
  // Before any ack returns, only the window can be in flight.
  sim_.RunUntil(11'000);
  EXPECT_EQ(delivered_[1].size(), 2u) << "window of 2 delivered first";
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(delivered_[1][i].second, i);
}

TEST_F(PersistentPipeTest, SurvivesHeavyLossViaGoBackN) {
  sim::NetworkConfig net;
  net.loss_probability = 0.4;
  Build(net);
  for (int i = 0; i < 50; ++i) pipes_[0]->Send(1, i);
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(delivered_[1][i].second, i);
  EXPECT_GT(Events(0, "pipe.retransmit"), 0);
  EXPECT_EQ(pipes_[0]->UnackedCount(), 0);
}

TEST_F(PersistentPipeTest, ReorderedSegmentsBufferedAndDeliveredInOrder) {
  sim::NetworkConfig net;
  net.jitter_us = 8'000;  // heavy reordering
  Build(net);
  for (int i = 0; i < 30; ++i) pipes_[0]->Send(1, i);
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(delivered_[1][i].second, i);
  EXPECT_GT(Events(1, "pipe.buffered_out_of_order"), 0)
      << "jitter-level reordering absorbed by the receiver buffer";
}

TEST_F(PersistentPipeTest, ReceiverCrashDelaysDelivery) {
  Build(sim::NetworkConfig{});
  net_->SetSiteDown(1);
  pipes_[0]->Send(1, 7);
  sim_.RunUntil(200'000);
  EXPECT_TRUE(delivered_[1].empty());
  EXPECT_EQ(pipes_[0]->UnackedCount(), 1);
  net_->SetSiteUp(1);
  sim_.Run();
  ASSERT_EQ(delivered_[1].size(), 1u);
  EXPECT_EQ(pipes_[0]->UnackedCount(), 0);
}

TEST_F(PersistentPipeTest, PartitionHealsAndPipeResumes) {
  Build(sim::NetworkConfig{});
  net_->SetPartition({{0}, {1, 2}});
  for (int i = 0; i < 5; ++i) pipes_[0]->Send(2, i);
  sim_.RunUntil(300'000);
  EXPECT_TRUE(delivered_[2].empty());
  net_->HealPartition();
  sim_.Run();
  ASSERT_EQ(delivered_[2].size(), 5u);
}

TEST_F(PersistentPipeTest, BroadcastReachesAllOthers) {
  Build(sim::NetworkConfig{});
  pipes_[1]->Broadcast(9);
  sim_.Run();
  EXPECT_EQ(delivered_[0].size(), 1u);
  EXPECT_EQ(delivered_[2].size(), 1u);
  EXPECT_TRUE(delivered_[1].empty());
}

TEST_F(PersistentPipeTest, IndependentPipesPerDestination) {
  sim::NetworkConfig net;
  net.base_latency_us = 1'000;
  Build(net);
  // Slow link to site 1 must not stall the pipe to site 2.
  net_->SetLinkLatency(0, 1, 500'000);
  pipes_[0]->Send(1, 100);
  pipes_[0]->Send(2, 200);
  sim_.RunUntil(50'000);
  EXPECT_TRUE(delivered_[1].empty());
  ASSERT_EQ(delivered_[2].size(), 1u);
  sim_.Run();
  EXPECT_EQ(delivered_[1].size(), 1u);
}

TEST_F(PersistentPipeTest, EnvelopePayloadsRouteThroughMailboxByDefault) {
  Build(sim::NetworkConfig{});
  int got = 0;
  mailboxes_[2]->RegisterHandler(
      300, [&](SiteId, const std::any& body) { got = std::any_cast<int>(body); });
  // A fresh manager without a custom handler dispatches envelopes.
  PersistentPipeManager fresh(&sim_, mailboxes_[2].get(),
                              PersistentPipeConfig{});
  pipes_[0]->Send(2, Envelope{300, 77});
  sim_.Run();
  EXPECT_EQ(got, 77);
}

}  // namespace
}  // namespace esr::msg
