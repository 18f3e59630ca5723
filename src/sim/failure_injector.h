#ifndef ESR_SIM_FAILURE_INJECTOR_H_
#define ESR_SIM_FAILURE_INJECTOR_H_

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace esr::sim {

/// Declarative failure schedule entries.
struct CrashSpec {
  SiteId site = 0;
  SimTime crash_at = 0;
  /// Restart time; kSimTimeMax means the site never restarts.
  SimTime restart_at = kSimTimeMax;
  /// Amnesia crash: the site loses ALL volatile state and must rebuild it
  /// through the recovery subsystem (checkpoint + WAL replay + catch-up).
  /// Plain crashes model the classic fail-stop pause, where volatile state
  /// is frozen but intact across the outage.
  bool amnesia = false;
};

struct PartitionSpec {
  std::vector<std::vector<SiteId>> groups;
  SimTime start_at = 0;
  /// Heal time; kSimTimeMax means the partition never heals.
  SimTime heal_at = kSimTimeMax;
};

/// Drives site-crash and network-partition events against a Network on a
/// fixed schedule or from random rates. The embedder supplies optional
/// callbacks so higher layers can clear volatile state on crash (lock tables,
/// in-memory buffers) while stable state (object store, stable queues)
/// survives — matching the paper's recoverable-site assumption.
class FailureInjector {
 public:
  FailureInjector(Simulator* simulator, Network* network, uint64_t seed);

  /// Called when a site goes down / comes back up (after the network state
  /// flips). Overlapping crash windows are depth-counted: the hooks fire
  /// only on the actual down/up edges, and the restart hook's `amnesia`
  /// flag is the OR over every window that covered the outage. Restarting
  /// inside a partition window touches only the site's endpoint state —
  /// partition membership in the Network is untouched.
  std::function<void(SiteId, bool amnesia)> on_crash;
  std::function<void(SiteId, bool amnesia)> on_restart;

  /// Installs a crash/restart pair on the simulator.
  void ScheduleCrash(const CrashSpec& spec);

  /// Installs a partition/heal pair on the simulator.
  void SchedulePartition(const PartitionSpec& spec);

  /// Random crash injection: each site independently crashes with rate
  /// crashes-per-second (exponential inter-arrival), staying down for
  /// `downtime_us`, over the window [0, horizon].
  void ScheduleRandomCrashes(double crashes_per_second_per_site,
                             SimDuration downtime_us, SimTime horizon,
                             bool amnesia = false);

  /// Number of crash windows currently covering `site` (0 = up).
  int DownDepth(SiteId site) const;

 private:
  void CrashNow(SiteId site, bool amnesia);
  void RestartNow(SiteId site);

  Simulator* simulator_;
  Network* network_;
  /// crash/restart/partition/heal, in the network's event family.
  obs::EventFamily events_{network_->metrics(), "esr_network_events_total"};
  Rng rng_;
  /// Per down site: {active crash-window depth, OR of amnesia flags}.
  std::unordered_map<SiteId, std::pair<int, bool>> down_;
};

}  // namespace esr::sim

#endif  // ESR_SIM_FAILURE_INJECTOR_H_
