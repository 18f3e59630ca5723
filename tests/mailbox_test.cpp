#include "msg/mailbox.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace esr::msg {
namespace {

TEST(MailboxTest, RoutesByMessageType) {
  sim::Simulator sim;
  obs::MetricRegistry metrics;
  sim::Network net(&sim, 2, sim::NetworkConfig{}, 1, metrics);
  Mailbox a(&net, 0), b(&net, 1);
  int got_one = 0, got_two = 0;
  b.RegisterHandler(50, [&](SiteId, const std::any&) { ++got_one; });
  b.RegisterHandler(51, [&](SiteId, const std::any&) { ++got_two; });
  a.Send(1, Envelope{50, {}});
  a.Send(1, Envelope{51, {}});
  a.Send(1, Envelope{51, {}});
  sim.Run();
  EXPECT_EQ(got_one, 1);
  EXPECT_EQ(got_two, 2);
}

TEST(MailboxTest, HandlerSeesSourceAndBody) {
  sim::Simulator sim;
  obs::MetricRegistry metrics;
  sim::Network net(&sim, 3, sim::NetworkConfig{}, 1, metrics);
  Mailbox a(&net, 0), b(&net, 1), c(&net, 2);
  SiteId from = -1;
  int body = 0;
  c.RegisterHandler(60, [&](SiteId source, const std::any& payload) {
    from = source;
    body = std::any_cast<int>(payload);
  });
  b.Send(2, Envelope{60, 42});
  sim.Run();
  EXPECT_EQ(from, 1);
  EXPECT_EQ(body, 42);
}

TEST(MailboxTest, UnhandledTypesAreCountedNotFatal) {
  sim::Simulator sim;
  obs::MetricRegistry metrics;
  sim::Network net(&sim, 2, sim::NetworkConfig{}, 1, metrics);
  Mailbox a(&net, 0), b(&net, 1);
  a.Send(1, Envelope{999, {}});
  sim.Run();
  EXPECT_EQ(metrics.CounterValue("esr_network_events_total",
                                 {{"event", "mailbox.unhandled"}}),
            1);
}

TEST(MailboxTest, ReplacingHandlerTakesEffect) {
  sim::Simulator sim;
  obs::MetricRegistry metrics;
  sim::Network net(&sim, 2, sim::NetworkConfig{}, 1, metrics);
  Mailbox a(&net, 0), b(&net, 1);
  int first = 0, second = 0;
  b.RegisterHandler(70, [&](SiteId, const std::any&) { ++first; });
  b.RegisterHandler(70, [&](SiteId, const std::any&) { ++second; });
  a.Send(1, Envelope{70, {}});
  sim.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(MailboxTest, LocalDispatchBypassesNetwork) {
  sim::Simulator sim;
  obs::MetricRegistry metrics;
  sim::Network net(&sim, 1, sim::NetworkConfig{}, 1, metrics);
  Mailbox a(&net, 0);
  bool got = false;
  a.RegisterHandler(80, [&](SiteId src, const std::any&) {
    got = true;
    EXPECT_EQ(src, 0);
  });
  a.Dispatch(0, Envelope{80, {}});
  EXPECT_TRUE(got);  // synchronous, no simulator events needed
  EXPECT_TRUE(sim.Quiescent());
}

}  // namespace
}  // namespace esr::msg
