#include "msg/sequencer.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "msg/mailbox_sequencer_port.h"
#include "msg/stable_queue.h"
#include "obs/metric_registry.h"
#include "sim/simulator.h"

namespace esr::msg {
namespace {

class SequencerTest : public ::testing::Test {
 protected:
  void Build(sim::NetworkConfig net_config, int num_sites = 3) {
    net_ = std::make_unique<sim::Network>(&sim_, num_sites, net_config, 5,
                                          metrics_);
    for (SiteId s = 0; s < num_sites; ++s) {
      mailboxes_.push_back(std::make_unique<Mailbox>(net_.get(), s));
      queues_.push_back(std::make_unique<StableQueueManager>(
          &sim_, mailboxes_.back().get()));
      ports_.push_back(std::make_unique<MailboxSequencerPort>(
          mailboxes_.back().get(), queues_.back().get()));
    }
    server_ = std::make_unique<SequencerServer>(ports_[0].get(), &sim_);
    ports_[0]->AttachServer(server_.get());
    for (SiteId s = 0; s < num_sites; ++s) {
      clients_.push_back(std::make_unique<SequencerClient>(
          ports_[s].get(), &sim_, /*home=*/0));
      ports_[s]->AttachClient(clients_.back().get());
    }
  }

  sim::Simulator sim_;
  obs::MetricRegistry metrics_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<StableQueueManager>> queues_;
  std::vector<std::unique_ptr<MailboxSequencerPort>> ports_;
  std::unique_ptr<SequencerServer> server_;
  std::vector<std::unique_ptr<SequencerClient>> clients_;
};

TEST_F(SequencerTest, IssuesConsecutiveNumbers) {
  Build(sim::NetworkConfig{});
  std::vector<SequenceNumber> got;
  for (int i = 0; i < 5; ++i) {
    clients_[1]->Request([&](SequenceNumber n) { got.push_back(n); });
  }
  sim_.Run();
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i], i + 1);
  EXPECT_EQ(server_->LastIssued(), 5);
}

TEST_F(SequencerTest, NumbersAreGloballyUnique) {
  Build(sim::NetworkConfig{});
  std::multiset<SequenceNumber> got;
  for (SiteId s = 0; s < 3; ++s) {
    for (int i = 0; i < 10; ++i) {
      clients_[s]->Request([&](SequenceNumber n) { got.insert(n); });
    }
  }
  sim_.Run();
  ASSERT_EQ(got.size(), 30u);
  std::set<SequenceNumber> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), 30u);
  EXPECT_EQ(*unique.begin(), 1);
  EXPECT_EQ(*unique.rbegin(), 30);
}

TEST_F(SequencerTest, SelfHostedClientIsGrantedOverLoopback) {
  Build(sim::NetworkConfig{});
  SequenceNumber got = 0;
  clients_[0]->Request([&](SequenceNumber n) { got = n; });
  sim_.Run();
  EXPECT_EQ(got, 1);
}

TEST_F(SequencerTest, SelfHostedGrantCallbackMayRequestAgain) {
  // The co-located server's grant is a zero-delay loopback: it arrives in a
  // later event at the same instant, and its callback requests again there.
  Build(sim::NetworkConfig{});
  std::vector<SequenceNumber> got;
  std::vector<SimTime> got_at;
  std::function<void(SequenceNumber)> next = [&](SequenceNumber n) {
    got.push_back(n);
    got_at.push_back(sim_.Now());
    if (got.size() < 3) clients_[0]->Request(next);
  };
  sim_.RunUntil(500);
  clients_[0]->Request(next);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(clients_[0]->PendingCount(), 1);
  sim_.Run();
  EXPECT_EQ(got, (std::vector<SequenceNumber>{1, 2, 3}));
  EXPECT_EQ(got_at, (std::vector<SimTime>{500, 500, 500}));
  EXPECT_EQ(clients_[0]->PendingCount(), 0);
}

TEST_F(SequencerTest, SelfRequestAcrossFailStopIsGrantedOnceAfterRestart) {
  // The home site's request to its own server is queued, and the site
  // fail-stops before the loopback is delivered. Its stable queue carries
  // the request across the crash as it would carry one to a peer.
  Build(sim::NetworkConfig{});
  std::vector<SequenceNumber> got;
  std::vector<SimTime> got_at;
  clients_[0]->Request([&](SequenceNumber n) {
    got.push_back(n);
    got_at.push_back(sim_.Now());
  });
  net_->SetSiteDown(0);
  sim_.RunUntil(50'000);
  EXPECT_TRUE(got.empty());
  net_->SetSiteUp(0);
  sim_.Run();
  EXPECT_EQ(got, std::vector<SequenceNumber>{1});
  ASSERT_EQ(got_at.size(), 1u);
  EXPECT_GT(got_at[0], 50'000);
  EXPECT_EQ(server_->LastIssued(), 1);
}

/// Forwards to a site's MailboxSequencerPort and records the id and target
/// of every cross request the client sends.
class CrossRecordingPort final : public SequencerPort {
 public:
  explicit CrossRecordingPort(SequencerPort* inner) : inner_(inner) {}

  SiteId self() const override { return inner_->self(); }
  void SendRequest(SiteId to, const SeqBatchRequest& r) override {
    inner_->SendRequest(to, r);
  }
  void SendProbeAnswer(SiteId to, const SeqProbeResponse& a) override {
    inner_->SendProbeAnswer(to, a);
  }
  void SendGrant(SiteId to, const SeqBatchGrant& g,
                 const TraceContext& trace) override {
    inner_->SendGrant(to, g, trace);
  }
  void SendProbe(SiteId to, const SeqProbeRequest& p) override {
    inner_->SendProbe(to, p);
  }
  void AnnounceEpoch(const SeqEpochAnnounce& announce) override {
    inner_->AnnounceEpoch(announce);
  }
  void SendCrossRequest(SiteId to, const SeqCrossRequest& r) override {
    cross_sends.emplace_back(r.request_id, to);
    inner_->SendCrossRequest(to, r);
  }
  void SendCrossRelease(SiteId to, const SeqCrossRelease& r) override {
    inner_->SendCrossRelease(to, r);
  }

  /// (request id, destination site), in send order.
  std::vector<std::pair<int64_t, SiteId>> cross_sends;

 private:
  SequencerPort* inner_;
};

TEST_F(SequencerTest, TakeoverAtOwnSiteResendsEachCrossRequestOnce) {
  // Three cross requests from site 1 are in flight to home 0 when a
  // standby at site 1 takes over. The epoch announce re-sends them to the
  // local server, which grants the first; that grant's callback requests
  // again. Each id goes once to each home.
  Build(sim::NetworkConfig{});
  net_->SetSiteDown(0);
  CrossRecordingPort port(ports_[1].get());
  SequencerClient client(&port, &sim_, /*home=*/0);
  ports_[1]->AttachClient(&client);
  std::vector<SequenceNumber> granted;
  for (int i = 0; i < 3; ++i) {
    client.RequestCross([&](SequenceNumber position, int64_t) {
      granted.push_back(position);
      if (granted.size() == 1) {
        client.RequestCross([](SequenceNumber, int64_t) {});
      }
    });
  }

  auto standby = std::make_unique<SequencerServer>(
      ports_[1].get(), &sim_, /*start_sealed=*/true);
  ports_[1]->AttachServer(standby.get());
  standby->BeginTakeover(/*durable_floor=*/1, /*peers=*/{});
  // The announce reaches the local client in a later event.
  EXPECT_EQ(client.home(), 0);
  net_->SetSiteUp(0);  // let the queued requests and announce drain
  sim_.Run();
  EXPECT_EQ(client.home(), 1);
  // The first grant holds the cross-lock; nothing releases it.
  EXPECT_EQ(granted.size(), 1u);
  // Ids 1-3 went to the old home, then once each to the new one; id 4,
  // asked for by the first grant's callback, was sent once, by itself.
  const std::vector<std::pair<int64_t, SiteId>> expected = {
      {1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}, {3, 1}, {4, 1}};
  EXPECT_EQ(port.cross_sends, expected);
  EXPECT_EQ(client.PendingCount(), 3);
}

TEST_F(SequencerTest, SurvivesMessageLoss) {
  sim::NetworkConfig net;
  net.loss_probability = 0.4;
  Build(net);
  int responses = 0;
  for (int i = 0; i < 20; ++i) {
    clients_[2]->Request([&](SequenceNumber) { ++responses; });
  }
  sim_.Run();
  EXPECT_EQ(responses, 20);
}

TEST_F(SequencerTest, RequestsDeferredWhileSequencerDown) {
  Build(sim::NetworkConfig{});
  net_->SetSiteDown(0);
  SequenceNumber got = 0;
  clients_[1]->Request([&](SequenceNumber n) { got = n; });
  sim_.RunUntil(100'000);
  EXPECT_EQ(got, 0);
  net_->SetSiteUp(0);
  sim_.Run();
  EXPECT_EQ(got, 1);
}

TEST_F(SequencerTest, MalformedInputIsDropped) {
  // Inputs arrive from the network: a count out of range, a position or
  // epoch the server would overflow advancing, or a grant that does not
  // match its request leaves server and client as they were.
  Build(sim::NetworkConfig{});
  constexpr SequenceNumber kMax = std::numeric_limits<SequenceNumber>::max();
  for (int32_t count : {0, kMaxSeqBatchCount + 1}) {
    server_->OnRequest(1, SeqBatchRequest{100, count, 1, {}});
  }
  EXPECT_EQ(server_->LastIssued(), 0);

  SequenceNumber got = 0;
  clients_[1]->Request([&](SequenceNumber n) { got = n; });  // request id 1
  clients_[1]->OnGrant(0, SeqBatchGrant{1, kMax, 1, 1});
  clients_[1]->OnGrant(0, SeqBatchGrant{1, 7, 2, 1});  // asked for one
  clients_[1]->OnEpochAnnounce(0, SeqEpochAnnounce{2, 0, 0});
  EXPECT_EQ(got, 0);
  EXPECT_EQ(clients_[1]->PendingCount(), 1);
  EXPECT_EQ(clients_[1]->MaxGrantSeen(), 0);
  EXPECT_EQ(clients_[1]->epoch(), 1);
  sim_.Run();
  EXPECT_EQ(got, 1);

  auto standby = std::make_unique<SequencerServer>(
      ports_[2].get(), &sim_, /*start_sealed=*/true);
  ports_[2]->AttachServer(standby.get());
  standby->BeginTakeover(/*durable_floor=*/1, /*peers=*/{1});
  standby->OnProbeAnswer(1, SeqProbeResponse{1, 1, kMax, 1});
  standby->OnProbeAnswer(1, SeqProbeResponse{1, 1, 3, kMax});
  EXPECT_TRUE(standby->recovering());
  standby->OnProbeAnswer(1, SeqProbeResponse{1, 1, 3, 1});
  EXPECT_FALSE(standby->recovering());
  EXPECT_EQ(standby->NextToGrant(), 4);
  sim_.Run();
}

// --- Group sequencing ------------------------------------------------------

TEST_F(SequencerTest, BatchMaxCoalescesRequestsIntoOneWireBatch) {
  Build(sim::NetworkConfig{});
  obs::MetricRegistry metrics;
  server_->set_metrics(&metrics);
  clients_[1]->set_batching(/*batch_max=*/4, /*linger_us=*/1'000);
  std::vector<SequenceNumber> got;
  for (int i = 0; i < 4; ++i) {
    clients_[1]->Request([&](SequenceNumber n) { got.push_back(n); });
  }
  sim_.Run();
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], i + 1);
  // Four requests, one wire batch.
  EXPECT_EQ(metrics.GetCounter("esr_seq_batches_total").value(), 1);
  EXPECT_EQ(metrics.GetCounter("esr_seq_grants_total").value(), 4);
}

TEST_F(SequencerTest, LingerFlushesPartialBatch) {
  Build(sim::NetworkConfig{});
  obs::MetricRegistry metrics;
  server_->set_metrics(&metrics);
  clients_[1]->set_batching(/*batch_max=*/8, /*linger_us=*/500);
  std::vector<SequenceNumber> got;
  for (int i = 0; i < 3; ++i) {
    clients_[1]->Request([&](SequenceNumber n) { got.push_back(n); });
  }
  // Below batch_max: nothing may be sent before the linger expires.
  sim_.RunUntil(400);
  EXPECT_TRUE(got.empty());
  sim_.Run();
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[i], i + 1);
  EXPECT_EQ(metrics.GetCounter("esr_seq_batches_total").value(), 1);
}

// --- Seal–failover–unseal --------------------------------------------------

TEST_F(SequencerTest, TakeoverRecoversHighWatermarkFromPeers) {
  Build(sim::NetworkConfig{});
  std::vector<SequenceNumber> got;
  for (int i = 0; i < 4; ++i) {
    clients_[1]->Request([&](SequenceNumber n) { got.push_back(n); });
  }
  sim_.Run();
  ASSERT_EQ(got.size(), 4u);

  // Home dies; a standby at site 2 takes over, probing the surviving peer.
  net_->SetSiteDown(0);
  auto standby = std::make_unique<SequencerServer>(
      ports_[2].get(), &sim_, /*start_sealed=*/true);
  ports_[2]->AttachServer(standby.get());
  standby->BeginTakeover(/*durable_floor=*/1, /*peers=*/{1});
  sim_.RunUntil(200'000);
  EXPECT_FALSE(standby->sealed());
  EXPECT_EQ(standby->epoch(), 2);
  // Client 1 saw grants up to 4, so the new epoch must resume at 5.
  EXPECT_EQ(standby->NextToGrant(), 5);
  EXPECT_EQ(clients_[1]->home(), 2);
  EXPECT_EQ(clients_[1]->epoch(), 2);

  clients_[1]->Request([&](SequenceNumber n) { got.push_back(n); });
  sim_.RunUntil(400'000);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got.back(), 5);

  net_->SetSiteUp(0);  // let the queued announce drain so Run() terminates
  sim_.Run();
  std::set<SequenceNumber> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST_F(SequencerTest, TakeoverWithoutPeersUsesDurableFloor) {
  Build(sim::NetworkConfig{});
  auto standby = std::make_unique<SequencerServer>(
      ports_[2].get(), &sim_, /*start_sealed=*/true);
  ports_[2]->AttachServer(standby.get());
  standby->BeginTakeover(/*durable_floor=*/6, /*peers=*/{});
  // No peers: the handover completes synchronously from the durable floor.
  EXPECT_FALSE(standby->sealed());
  EXPECT_EQ(standby->NextToGrant(), 6);
  EXPECT_EQ(standby->epoch(), 2);
  sim_.Run();  // drain the epoch announce broadcast
}

TEST_F(SequencerTest, StaleEpochGrantsAreDiscardedAndHolesReleased) {
  Build(sim::NetworkConfig{});
  obs::MetricRegistry metrics;
  clients_[1]->set_metrics(&metrics);
  std::vector<SequenceNumber> orphans;
  clients_[1]->set_orphan_handler(
      [&](SequenceNumber n) { orphans.push_back(n); });
  std::vector<SequenceNumber> got;
  // The request leaves toward home 0 (epoch 1) ...
  clients_[1]->Request([&](SequenceNumber n) { got.push_back(n); });
  // ... then a failover moves the client to epoch 2 / home 2 before the
  // epoch-1 grant can arrive. The client re-sends to the new home.
  auto successor = std::make_unique<SequencerServer>(
      ports_[2].get(), &sim_, /*start_sealed=*/false, /*epoch=*/2,
      /*first=*/101);
  ports_[2]->AttachServer(successor.get());
  mailboxes_[1]->Dispatch(
      2, Envelope{kSeqEpochAnnounce, SeqEpochAnnounce{2, 2, 101}, {}});
  sim_.Run();
  // Exactly one grant fired — from the successor — and the superseded
  // epoch-1 grant was not double-delivered. Its position 1 lies below the
  // new epoch's floor (101), i.e. the takeover never re-granted it: it is
  // a hole in the total order and must be released as an orphan no-op.
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 101);
  EXPECT_EQ(metrics.GetCounter("esr_seq_stale_grants_total").value(), 1);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0], 1);
  EXPECT_EQ(clients_[1]->MaxGrantSeen(), 101);
}

// --- Amnesia / orphaned grants ---------------------------------------------

TEST_F(SequencerTest, AbandonedBatchReleasesEveryPositionAsOrphan) {
  Build(sim::NetworkConfig{});
  clients_[1]->set_batching(/*batch_max=*/3, /*linger_us=*/0);
  std::vector<SequenceNumber> orphans;
  clients_[1]->set_orphan_handler(
      [&](SequenceNumber n) { orphans.push_back(n); });
  int callbacks = 0;
  for (int i = 0; i < 3; ++i) {
    clients_[1]->Request([&](SequenceNumber) { ++callbacks; });
  }
  // The batch is in flight; the requester dies with amnesia.
  clients_[1]->AbandonPending();
  EXPECT_EQ(clients_[1]->AbandonedCount(), 1);
  EXPECT_EQ(clients_[1]->PendingCount(), 0);
  sim_.Run();
  // The grant still arrives (stable queues) and every position of the
  // block is released as an orphan; no dead callback runs.
  EXPECT_EQ(callbacks, 0);
  ASSERT_EQ(orphans.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(orphans[i], i + 1);
  EXPECT_EQ(clients_[1]->AbandonedCount(), 0);
  EXPECT_EQ(clients_[1]->MaxGrantSeen(), 3);
}

TEST_F(SequencerTest, AbandonedIdsDroppedOnEpochChange) {
  Build(sim::NetworkConfig{});
  obs::MetricRegistry metrics;
  clients_[1]->set_metrics(&metrics);
  int orphan_calls = 0;
  clients_[1]->set_orphan_handler([&](SequenceNumber) { ++orphan_calls; });
  clients_[1]->Request([](SequenceNumber) {});
  clients_[1]->AbandonPending();
  EXPECT_EQ(clients_[1]->AbandonedCount(), 1);
  // An epoch change means the old epoch's grant (if ever issued) will be
  // discarded as stale — the abandoned bookkeeping must not grow forever.
  mailboxes_[1]->Dispatch(
      2, Envelope{kSeqEpochAnnounce, SeqEpochAnnounce{2, 2, 1}, {}});
  EXPECT_EQ(clients_[1]->AbandonedCount(), 0);
  EXPECT_EQ(metrics.GetCounter("esr_seq_abandoned_dropped_total").value(), 1);
  sim_.Run();
  // The epoch-1 grant arrives, is stale, and must not leak an orphan call.
  EXPECT_EQ(orphan_calls, 0);
}

}  // namespace
}  // namespace esr::msg
