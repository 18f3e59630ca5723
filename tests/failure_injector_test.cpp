#include "sim/failure_injector.h"

#include <gtest/gtest.h>

namespace esr::sim {
namespace {

TEST(FailureInjectorTest, CrashAndRestartToggleSite) {
  Simulator sim;
  obs::MetricRegistry metrics;
  Network net(&sim, 3, NetworkConfig{}, 1, metrics);
  FailureInjector inject(&sim, &net, 2);
  int crashes = 0, restarts = 0;
  inject.on_crash = [&](SiteId, bool) { ++crashes; };
  inject.on_restart = [&](SiteId, bool) { ++restarts; };

  inject.ScheduleCrash(CrashSpec{/*site=*/1, /*crash_at=*/100,
                                 /*restart_at=*/200});
  sim.RunUntil(150);
  EXPECT_FALSE(net.SiteUp(1));
  EXPECT_EQ(crashes, 1);
  sim.Run();
  EXPECT_TRUE(net.SiteUp(1));
  EXPECT_EQ(restarts, 1);
}

TEST(FailureInjectorTest, PermanentCrashNeverRestarts) {
  Simulator sim;
  obs::MetricRegistry metrics;
  Network net(&sim, 2, NetworkConfig{}, 1, metrics);
  FailureInjector inject(&sim, &net, 2);
  inject.ScheduleCrash(CrashSpec{0, 50, kSimTimeMax});
  sim.Run();
  EXPECT_FALSE(net.SiteUp(0));
}

TEST(FailureInjectorTest, PartitionScheduleAppliesAndHeals) {
  Simulator sim;
  obs::MetricRegistry metrics;
  Network net(&sim, 4, NetworkConfig{}, 1, metrics);
  FailureInjector inject(&sim, &net, 2);
  inject.SchedulePartition(PartitionSpec{{{0, 1}, {2, 3}}, 100, 300});
  sim.RunUntil(200);
  EXPECT_TRUE(net.Partitioned(0, 2));
  sim.Run();
  EXPECT_FALSE(net.Partitioned(0, 2));
}

TEST(FailureInjectorTest, RandomCrashesRespectHorizon) {
  Simulator sim;
  obs::MetricRegistry metrics;
  Network net(&sim, 3, NetworkConfig{}, 1, metrics);
  FailureInjector inject(&sim, &net, 7);
  int crashes = 0;
  inject.on_crash = [&](SiteId, bool) { ++crashes; };
  inject.ScheduleRandomCrashes(/*crashes_per_second_per_site=*/50.0,
                               /*downtime_us=*/1'000,
                               /*horizon=*/1'000'000);
  sim.Run();
  EXPECT_GT(crashes, 0);
  // Every restart happened and all sites are back up at the end.
  for (SiteId s = 0; s < 3; ++s) EXPECT_TRUE(net.SiteUp(s));
}

TEST(FailureInjectorTest, OverlappingCrashWindowsKeepSiteDownUntilLast) {
  // Random crash schedules can overlap a scripted window. The site must
  // stay down until the *last* covering window ends, fire the crash/restart
  // hooks exactly once, and OR the amnesia flag across the windows.
  Simulator sim;
  obs::MetricRegistry metrics;
  Network net(&sim, 2, NetworkConfig{}, 1, metrics);
  FailureInjector inject(&sim, &net, 2);
  int crashes = 0, restarts = 0;
  bool restart_amnesia = false;
  inject.on_crash = [&](SiteId, bool) { ++crashes; };
  inject.on_restart = [&](SiteId, bool amnesia) {
    ++restarts;
    restart_amnesia = amnesia;
  };
  inject.ScheduleCrash(CrashSpec{/*site=*/0, /*crash_at=*/100,
                                 /*restart_at=*/300});
  inject.ScheduleCrash(CrashSpec{/*site=*/0, /*crash_at=*/200,
                                 /*restart_at=*/500, /*amnesia=*/true});
  sim.RunUntil(250);
  EXPECT_FALSE(net.SiteUp(0));
  EXPECT_EQ(inject.DownDepth(0), 2);
  sim.RunUntil(400);  // first window's restart fired; second still covers it
  EXPECT_FALSE(net.SiteUp(0));
  EXPECT_EQ(inject.DownDepth(0), 1);
  EXPECT_EQ(restarts, 0);
  sim.Run();
  EXPECT_TRUE(net.SiteUp(0));
  EXPECT_EQ(inject.DownDepth(0), 0);
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(restarts, 1);
  EXPECT_TRUE(restart_amnesia);  // OR'd from the second window
}

TEST(FailureInjectorTest, RestartInsidePartitionWindowKeepsLinksCut) {
  // A random crash landing inside an active partition window must not
  // resurrect cross-partition links when the site restarts.
  Simulator sim;
  obs::MetricRegistry metrics;
  Network net(&sim, 4, NetworkConfig{}, 1, metrics);
  FailureInjector inject(&sim, &net, 2);
  inject.SchedulePartition(PartitionSpec{{{0, 1}, {2, 3}}, 100, 1'000});
  inject.ScheduleCrash(CrashSpec{/*site=*/2, /*crash_at=*/200,
                                 /*restart_at=*/400});
  sim.RunUntil(500);
  EXPECT_TRUE(net.SiteUp(2));           // the site itself is back...
  EXPECT_TRUE(net.Partitioned(0, 2));   // ...but the partition still holds
  EXPECT_FALSE(net.Partitioned(2, 3));  // same-group link unaffected
  sim.Run();
  EXPECT_FALSE(net.Partitioned(0, 2));  // heals on schedule, not on restart
}

TEST(FailureInjectorTest, ZeroRateSchedulesNothing) {
  Simulator sim;
  obs::MetricRegistry metrics;
  Network net(&sim, 2, NetworkConfig{}, 1, metrics);
  FailureInjector inject(&sim, &net, 7);
  inject.ScheduleRandomCrashes(0.0, 1000, 1'000'000);
  EXPECT_TRUE(sim.Quiescent());
}

}  // namespace
}  // namespace esr::sim
