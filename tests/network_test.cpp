#include "sim/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace esr::sim {
namespace {

struct Received {
  SiteId from;
  std::string payload;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&sim_, 4, NetworkConfig{}, /*seed=*/1, metrics_) {
    for (SiteId s = 0; s < 4; ++s) {
      network_.RegisterReceiver(s, [this, s](SiteId from,
                                             const std::any& payload) {
        inbox_[s].push_back(
            Received{from, std::any_cast<std::string>(payload)});
      });
    }
  }

  int64_t Events(const std::string& event) const {
    return metrics_.CounterValue("esr_network_events_total",
                                 {{"event", event}});
  }

  Simulator sim_;
  obs::MetricRegistry metrics_;
  Network network_;
  std::vector<Received> inbox_[4];
};

TEST_F(NetworkTest, DeliversWithLatency) {
  network_.Send(0, 1, std::string("hello"));
  EXPECT_TRUE(inbox_[1].empty());
  sim_.Run();
  ASSERT_EQ(inbox_[1].size(), 1u);
  EXPECT_EQ(inbox_[1][0].from, 0);
  EXPECT_EQ(inbox_[1][0].payload, "hello");
  EXPECT_GE(sim_.Now(), NetworkConfig{}.base_latency_us);
}

TEST_F(NetworkTest, SelfSendWorks) {
  network_.Send(2, 2, std::string("loop"));
  sim_.Run();
  ASSERT_EQ(inbox_[2].size(), 1u);
}

TEST_F(NetworkTest, LoopbackIsZeroDelayAndLossless) {
  NetworkConfig config;
  config.base_latency_us = 5'000;
  config.loss_probability = 1.0;
  Network lossy(&sim_, 2, config, 1, metrics_);
  std::vector<SimTime> arrivals;
  lossy.RegisterReceiver(
      1, [&](SiteId, const std::any&) { arrivals.push_back(sim_.Now()); });
  sim_.RunUntil(700);
  lossy.Send(1, 1, std::string("self"));
  lossy.Send(0, 1, std::string("peer"));
  // Delivered in a later event, never inside Send().
  EXPECT_TRUE(arrivals.empty());
  sim_.Run();
  EXPECT_EQ(arrivals, std::vector<SimTime>{700});
  EXPECT_EQ(Events("net.dropped_loss"), 1);
}

TEST_F(NetworkTest, LoopbackDrawsNoRandomNumber) {
  // The same peer traffic lands at the same instants whether or not
  // self-sends are interleaved with it.
  auto peer_arrivals = [this](bool with_loopback) {
    NetworkConfig config;
    config.jitter_us = 5'000;
    config.loss_probability = 0.3;
    Network net(&sim_, 2, config, /*seed=*/9, metrics_);
    std::vector<SimTime> arrivals;
    net.RegisterReceiver(1, [&](SiteId from, const std::any&) {
      if (from == 0) arrivals.push_back(sim_.Now());
    });
    const SimTime start = sim_.Now();
    for (int i = 0; i < 20; ++i) {
      if (with_loopback) net.Send(1, 1, std::string("self"));
      net.Send(0, 1, std::string("peer"));
    }
    sim_.Run();
    for (SimTime& t : arrivals) t -= start;
    return arrivals;
  };
  const std::vector<SimTime> plain = peer_arrivals(false);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(peer_arrivals(true), plain);
}

TEST_F(NetworkTest, LossDropsMessages) {
  NetworkConfig config;
  config.loss_probability = 1.0;
  Network lossy(&sim_, 2, config, 1, metrics_);
  bool got = false;
  lossy.RegisterReceiver(1,
                         [&](SiteId, const std::any&) { got = true; });
  lossy.Send(0, 1, std::string("x"));
  sim_.Run();
  EXPECT_FALSE(got);
  EXPECT_EQ(Events("net.dropped_loss"), 1);
}

TEST_F(NetworkTest, PartitionBlocksCrossGroupTraffic) {
  network_.SetPartition({{0, 1}, {2, 3}});
  network_.Send(0, 2, std::string("cross"));
  network_.Send(0, 1, std::string("within"));
  sim_.Run();
  EXPECT_TRUE(inbox_[2].empty());
  ASSERT_EQ(inbox_[1].size(), 1u);
  EXPECT_TRUE(network_.Partitioned(0, 3));
  EXPECT_FALSE(network_.Partitioned(0, 1));
}

TEST_F(NetworkTest, HealPartitionRestoresTraffic) {
  network_.SetPartition({{0}, {1, 2, 3}});
  network_.HealPartition();
  network_.Send(0, 3, std::string("after"));
  sim_.Run();
  EXPECT_EQ(inbox_[3].size(), 1u);
}

TEST_F(NetworkTest, UnlistedSitesFormImplicitGroup) {
  network_.SetPartition({{0, 1}});
  EXPECT_TRUE(network_.Partitioned(0, 2));
  EXPECT_FALSE(network_.Partitioned(2, 3));
}

TEST_F(NetworkTest, PartitionFormedInFlightDropsAtDelivery) {
  network_.Send(0, 1, std::string("inflight"));
  // Partition forms before the message lands.
  sim_.Schedule(1, [&]() { network_.SetPartition({{0}, {1, 2, 3}}); });
  sim_.Run();
  EXPECT_TRUE(inbox_[1].empty());
}

TEST_F(NetworkTest, DownReceiverLosesMessage) {
  network_.SetSiteDown(1);
  network_.Send(0, 1, std::string("gone"));
  sim_.Run();
  EXPECT_TRUE(inbox_[1].empty());
}

TEST_F(NetworkTest, DownSenderCannotSend) {
  network_.SetSiteDown(0);
  network_.Send(0, 1, std::string("gone"));
  sim_.Run();
  EXPECT_TRUE(inbox_[1].empty());
  EXPECT_EQ(Events("net.dropped_sender_down"), 1);
}

TEST_F(NetworkTest, CrashWhileInFlightDropsAtDelivery) {
  network_.Send(0, 1, std::string("inflight"));
  sim_.Schedule(1, [&]() { network_.SetSiteDown(1); });
  sim_.Run();
  EXPECT_TRUE(inbox_[1].empty());
  EXPECT_EQ(Events("net.dropped_receiver_down"), 1);
}

TEST_F(NetworkTest, SiteUpRestoresDelivery) {
  network_.SetSiteDown(1);
  network_.SetSiteUp(1);
  network_.Send(0, 1, std::string("back"));
  sim_.Run();
  EXPECT_EQ(inbox_[1].size(), 1u);
}

TEST_F(NetworkTest, PerLinkLatencyOverride) {
  NetworkConfig config;
  config.base_latency_us = 100;
  config.jitter_us = 0;
  Network net(&sim_, 2, config, 1, metrics_);
  SimTime delivered_at = -1;
  net.RegisterReceiver(
      1, [&](SiteId, const std::any&) { delivered_at = sim_.Now(); });
  net.SetLinkLatency(0, 1, 5000);
  net.Send(0, 1, std::string("slow"));
  sim_.Run();
  EXPECT_EQ(delivered_at, 5000);
}

TEST_F(NetworkTest, BandwidthAddsTransmitDelay) {
  NetworkConfig config;
  config.base_latency_us = 0;
  config.jitter_us = 0;
  config.bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s
  Network net(&sim_, 2, config, 1, metrics_);
  SimTime delivered_at = -1;
  net.RegisterReceiver(
      1, [&](SiteId, const std::any&) { delivered_at = sim_.Now(); });
  net.Send(0, 1, std::string("x"), /*size_bytes=*/1'000'000);
  sim_.Run();
  EXPECT_EQ(delivered_at, 1'000'000);  // one second
}

TEST_F(NetworkTest, JitterReordersMessages) {
  NetworkConfig config;
  config.base_latency_us = 100;
  config.jitter_us = 1000;
  Network net(&sim_, 2, config, /*seed=*/3, metrics_);
  std::vector<int> order;
  net.RegisterReceiver(1, [&](SiteId, const std::any& p) {
    order.push_back(std::any_cast<int>(p));
  });
  for (int i = 0; i < 32; ++i) net.Send(0, 1, i);
  sim_.Run();
  ASSERT_EQ(order.size(), 32u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "with 1ms jitter some pair should reorder";
}

}  // namespace
}  // namespace esr::sim
