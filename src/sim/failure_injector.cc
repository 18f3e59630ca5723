#include "sim/failure_injector.h"

#include <cassert>

namespace esr::sim {

FailureInjector::FailureInjector(Simulator* simulator, Network* network,
                                 uint64_t seed)
    : simulator_(simulator), network_(network), rng_(seed) {
  assert(simulator != nullptr && network != nullptr);
}

void FailureInjector::CrashNow(SiteId site, bool amnesia) {
  auto& window = down_[site];
  window.second = window.second || amnesia;
  if (window.first++ > 0) return;  // already down: deepen the window only
  network_->SetSiteDown(site);
  events_.Increment("failure.crash");
  if (on_crash) on_crash(site, window.second);
}

void FailureInjector::RestartNow(SiteId site) {
  auto it = down_.find(site);
  assert(it != down_.end() && it->second.first > 0);
  if (--it->second.first > 0) return;  // another crash window still covers it
  const bool amnesia = it->second.second;
  down_.erase(it);
  // SetSiteUp revives only the endpoint; partition membership is separate
  // Network state, so restarting inside a partition window must not (and
  // does not) resurrect any cross-partition link.
  network_->SetSiteUp(site);
  events_.Increment("failure.restart");
  if (on_restart) on_restart(site, amnesia);
}

int FailureInjector::DownDepth(SiteId site) const {
  auto it = down_.find(site);
  return it == down_.end() ? 0 : it->second.first;
}

void FailureInjector::ScheduleCrash(const CrashSpec& spec) {
  simulator_->ScheduleAt(spec.crash_at,
                         [this, site = spec.site, amnesia = spec.amnesia]() {
                           CrashNow(site, amnesia);
                         });
  if (spec.restart_at != kSimTimeMax) {
    assert(spec.restart_at > spec.crash_at);
    simulator_->ScheduleAt(spec.restart_at,
                           [this, site = spec.site]() { RestartNow(site); });
  }
}

void FailureInjector::SchedulePartition(const PartitionSpec& spec) {
  simulator_->ScheduleAt(spec.start_at, [this, groups = spec.groups]() {
    network_->SetPartition(groups);
    events_.Increment("failure.partition");
  });
  if (spec.heal_at != kSimTimeMax) {
    assert(spec.heal_at > spec.start_at);
    simulator_->ScheduleAt(spec.heal_at, [this]() {
      network_->HealPartition();
      events_.Increment("failure.heal");
    });
  }
}

void FailureInjector::ScheduleRandomCrashes(double crashes_per_second_per_site,
                                            SimDuration downtime_us,
                                            SimTime horizon, bool amnesia) {
  if (crashes_per_second_per_site <= 0) return;
  const double mean_gap_us = 1e6 / crashes_per_second_per_site;
  for (SiteId site = 0; site < network_->num_sites(); ++site) {
    SimTime t = 0;
    while (true) {
      t += static_cast<SimTime>(rng_.Exponential(mean_gap_us));
      if (t >= horizon) break;
      ScheduleCrash(CrashSpec{site, t, t + downtime_us, amnesia});
      t += downtime_us;
    }
  }
}

}  // namespace esr::sim
