#include "sim/network.h"

#include <cassert>
#include <utility>

namespace esr::sim {

Network::Network(Simulator* simulator, int num_sites, NetworkConfig config,
                 uint64_t seed, obs::MetricRegistry& metrics)
    : simulator_(simulator),
      num_sites_(num_sites),
      config_(config),
      rng_(seed),
      receivers_(num_sites),
      site_up_(num_sites, true),
      partition_group_(num_sites, -1),
      metrics_(&metrics) {
  assert(simulator != nullptr);
  assert(num_sites > 0);
}

void Network::RegisterReceiver(SiteId site, Receiver receiver) {
  assert(site >= 0 && site < num_sites_);
  receivers_[site] = std::move(receiver);
}

SimDuration Network::SampleLatency(SiteId source, SiteId destination,
                                   int64_t size_bytes) {
  SimDuration base = config_.base_latency_us;
  if (auto it = link_latency_.find(static_cast<int64_t>(source) * num_sites_ +
                                   destination);
      it != link_latency_.end()) {
    base = it->second;
  }
  SimDuration jitter =
      config_.jitter_us > 0 ? rng_.Uniform(0, config_.jitter_us) : 0;
  SimDuration transmit = 0;
  if (config_.bandwidth_bytes_per_sec > 0) {
    transmit = size_bytes * 1'000'000 / config_.bandwidth_bytes_per_sec;
  }
  return base + jitter + transmit;
}

void Network::Send(SiteId source, SiteId destination, std::any payload,
                   int64_t size_bytes, TraceContext trace) {
  assert(source >= 0 && source < num_sites_);
  assert(destination >= 0 && destination < num_sites_);
  events_.Increment("net.sent");
  if (!site_up_[source]) {
    events_.Increment("net.dropped_sender_down");
    return;
  }
  // A loopback draws nothing from rng_, so the loss and jitter draws of
  // messages between sites do not depend on how many self-sends ran.
  const bool loopback = source == destination;
  if (Partitioned(source, destination)) {
    events_.Increment("net.dropped_partition");
    return;
  }
  if (!loopback && config_.loss_probability > 0 &&
      rng_.Bernoulli(config_.loss_probability)) {
    events_.Increment("net.dropped_loss");
    return;
  }
  const SimDuration latency =
      loopback ? 0 : SampleLatency(source, destination, size_bytes);
  const SimTime sent_at = simulator_->Now();
  ++in_flight_;
  simulator_->Schedule(
      latency, [this, source, destination, sent_at, trace,
                payload = std::move(payload)]() {
        // Re-check receiver liveness and partition at delivery time: a site
        // that crashed, or a partition that formed, while the message was in
        // flight loses the message.
        --in_flight_;
        if (!site_up_[destination]) {
          events_.Increment("net.dropped_receiver_down");
          return;
        }
        if (Partitioned(source, destination)) {
          events_.Increment("net.dropped_partition");
          return;
        }
        events_.Increment("net.delivered");
        if (hop_observer_ && trace.valid()) {
          hop_observer_(trace, source, destination, sent_at,
                        simulator_->Now());
        }
        if (receivers_[destination]) receivers_[destination](source, payload);
      });
}

void Network::SetLinkLatency(SiteId source, SiteId destination,
                             SimDuration latency_us) {
  link_latency_[static_cast<int64_t>(source) * num_sites_ + destination] =
      latency_us;
}

void Network::SetPartition(const std::vector<std::vector<SiteId>>& groups) {
  partitioned_ = true;
  std::fill(partition_group_.begin(), partition_group_.end(), -1);
  int g = 0;
  for (const auto& group : groups) {
    for (SiteId s : group) {
      assert(s >= 0 && s < num_sites_);
      partition_group_[s] = g;
    }
    ++g;
  }
  // Unassigned sites form one implicit final group.
  for (auto& pg : partition_group_) {
    if (pg == -1) pg = g;
  }
}

void Network::HealPartition() {
  partitioned_ = false;
  std::fill(partition_group_.begin(), partition_group_.end(), -1);
}

bool Network::Partitioned(SiteId a, SiteId b) const {
  if (!partitioned_) return false;
  return partition_group_[a] != partition_group_[b];
}

void Network::SetSiteDown(SiteId site) {
  assert(site >= 0 && site < num_sites_);
  site_up_[site] = false;
}

void Network::SetSiteUp(SiteId site) {
  assert(site >= 0 && site < num_sites_);
  site_up_[site] = true;
}

}  // namespace esr::sim
