#ifndef ESR_RUNTIME_SIM_BINDING_H_
#define ESR_RUNTIME_SIM_BINDING_H_

#include <any>

#include "runtime/interfaces.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace esr::runtime {

/// Sim binding of Transport: typed runtime::Message datagrams over the
/// simulated network. The simulated network is *unreliable and unordered*
/// (loss, jitter reordering, partitions) — strictly weaker than the TCP
/// binding's per-connection FIFO — so protocol code that converges under
/// this binding converges a fortiori under the real one. A message to its
/// own site is a zero-delay, lossless network hop, delivered in a later
/// event as TcpTransport posts its loopback to the strand. Everything runs
/// on the simulator thread; the transport contract's "on the owner's
/// strand" degenerates to "in simulator events", preserving determinism.
class SimTransport : public Transport {
 public:
  SimTransport(sim::Network* network, SiteId self)
      : network_(network), self_(self) {}

  SiteId self() const override { return self_; }
  void SetHandler(Handler handler) override { handler_ = std::move(handler); }

  void Send(SiteId to, Message msg) override;

  /// Installs this transport as `self`'s network receiver.
  void Start() override;

  /// After Stop(), inbound datagrams (even ones already in flight) are
  /// dropped at this endpoint, matching the real binding's "no delivery
  /// after Stop" guarantee.
  void Stop() override { stopped_ = true; }

 private:
  sim::Network* network_;
  SiteId self_;
  Handler handler_;
  bool stopped_ = false;
};

/// Sim binding of Executor: posting to the strand is scheduling a
/// zero-delay simulator event, which preserves FIFO order among equal
/// timestamps — the simulator's existing tiebreak rule IS strand order.
class SimExecutor : public Executor {
 public:
  explicit SimExecutor(sim::Simulator* simulator) : simulator_(simulator) {}

  void Post(std::function<void()> fn) override {
    simulator_->Schedule(0, std::move(fn));
  }

 private:
  sim::Simulator* simulator_;
};

}  // namespace esr::runtime

#endif  // ESR_RUNTIME_SIM_BINDING_H_
