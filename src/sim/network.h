#ifndef ESR_SIM_NETWORK_H_
#define ESR_SIM_NETWORK_H_

#include <any>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "common/types.h"
#include "obs/metric_registry.h"
#include "sim/simulator.h"

namespace esr::sim {

/// Static link/network configuration.
struct NetworkConfig {
  /// One-way latency applied to every message (microseconds).
  SimDuration base_latency_us = 1'000;
  /// Uniform jitter added on top of base latency: U[0, jitter_us].
  SimDuration jitter_us = 200;
  /// Probability that a given message is silently dropped. Dropped messages
  /// are recovered by the stable-queue retry protocol, never by the network.
  double loss_probability = 0.0;
  /// Bytes/second modeled for transmission delay; 0 disables the size term.
  int64_t bandwidth_bytes_per_sec = 0;
};

/// Simulated message network between sites.
///
/// The network provides *unreliable, unordered* datagram delivery: messages
/// may be lost (loss_probability, partitions, crashed receivers) and may be
/// reordered (jitter). Reliable in-order delivery is built above this by
/// msg::StableQueue, mirroring the paper's assumption that "stable queues
/// persistently retry message delivery until successful" while the
/// underlying network stays weak.
///
/// A site's message to itself takes the same path as any other, as a
/// zero-delay hop that is never lost: it arrives in a later event at the
/// send instant, never inside Send(). Only a down sender or receiver drops
/// it, so the stable queues' retry carries it across a crash as it carries
/// a message to a peer. No component needs a self path of its own.
class Network {
 public:
  /// Handler invoked at the receiving site when a message arrives. The
  /// payload is a std::any supplied by the sender (by value; treat as
  /// immutable).
  using Receiver = std::function<void(SiteId source, const std::any& payload)>;

  /// Observer invoked at successful delivery of a datagram that carries a
  /// valid TraceContext: (trace, source, destination, send time, delivery
  /// time). Installed once by the facade when hop tracing is on; the sim
  /// layer stays observability-free.
  using HopObserver = std::function<void(const TraceContext& trace,
                                         SiteId source, SiteId destination,
                                         SimTime sent_at, SimTime now)>;

  /// Counts its events in `metrics` as `esr_network_events_total{event}`;
  /// every layer built on this network counts its events there too.
  Network(Simulator* simulator, int num_sites, NetworkConfig config,
          uint64_t seed, obs::MetricRegistry& metrics);

  int num_sites() const { return num_sites_; }
  Simulator* simulator() const { return simulator_; }

  /// Registers the receive handler for `site` (replacing any previous one).
  void RegisterReceiver(SiteId site, Receiver receiver);

  /// Sends `payload` from `source` to `destination`. Delivery is scheduled
  /// on the simulator unless the message is lost, a partition separates the
  /// sites, or either endpoint is down at send/delivery time. A loopback
  /// (`source == destination`) is scheduled with zero delay and no loss.
  /// `size_bytes` feeds the bandwidth term of the latency model. `trace`
  /// (optional, POD) attributes the datagram to an ET for hop tracing.
  void Send(SiteId source, SiteId destination, std::any payload,
            int64_t size_bytes = 128, TraceContext trace = {});

  /// Installs (or clears) the hop-tracing delivery observer.
  void SetHopObserver(HopObserver observer) {
    hop_observer_ = std::move(observer);
  }

  /// --- Topology and failure state -----------------------------------------

  /// Overrides latency for the directed link source->destination.
  void SetLinkLatency(SiteId source, SiteId destination,
                      SimDuration latency_us);

  /// Partitions the network into groups; messages cross groups only after
  /// HealPartition(). Sites absent from every group form an implicit final
  /// group. Takes effect for messages sent after the call.
  void SetPartition(const std::vector<std::vector<SiteId>>& groups);

  /// Removes any partition.
  void HealPartition();

  /// True when a partition currently separates a and b.
  bool Partitioned(SiteId a, SiteId b) const;

  /// Marks a site down: it neither sends nor receives. Messages already in
  /// flight toward it are dropped at delivery time.
  void SetSiteDown(SiteId site);
  void SetSiteUp(SiteId site);
  bool SiteUp(SiteId site) const { return site_up_[site]; }

  obs::MetricRegistry& metrics() const { return *metrics_; }

  /// Datagrams scheduled for delivery but not yet delivered or dropped.
  int64_t InFlightCount() const { return in_flight_; }

 private:
  SimDuration SampleLatency(SiteId source, SiteId destination,
                            int64_t size_bytes);

  Simulator* simulator_;
  int num_sites_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<Receiver> receivers_;
  std::vector<bool> site_up_;
  /// partition_group_[s] == -1 when unpartitioned.
  std::vector<int> partition_group_;
  bool partitioned_ = false;
  std::unordered_map<int64_t, SimDuration> link_latency_;  // key src*N+dst
  obs::MetricRegistry* metrics_;
  obs::EventFamily events_{*metrics_, "esr_network_events_total"};
  int64_t in_flight_ = 0;
  HopObserver hop_observer_;
};

}  // namespace esr::sim

#endif  // ESR_SIM_NETWORK_H_
