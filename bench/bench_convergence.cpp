// Experiment E3: replica convergence (paper section 2.2: "under ESR all
// replicas converge to the same 1SR value when the update MSets queued at
// individual sites are processed, and the system reaches a quiescent
// state").
//
// For each method and network condition: commit a burst of updates, then
// measure the time from the last local commit until every replica's state
// digest is identical; verify the converged state equals the serial
// oracle obtained from the conflict-graph witness order.

#include <cstdio>

#include "analysis/query_checker.h"
#include "analysis/sr_checker.h"
#include "bench_util.h"
#include "common/rng.h"
#include "esr/replicated_system.h"

namespace esr {
namespace {

using bench::Banner;
using bench::Fmt;
using bench::Table;
using core::Method;
using core::ReplicatedSystem;
using core::SystemConfig;
using store::Operation;

struct Outcome {
  double convergence_ms = -1;  // -1: did not converge (bug!)
  bool oracle_match = false;
  int64_t retransmits = 0;
};

Outcome RunBurst(Method method, double loss, SimDuration jitter_us,
                 uint64_t seed) {
  SystemConfig config;
  config.method = method;
  config.num_sites = 5;
  config.seed = seed;
  config.network.loss_probability = loss;
  config.network.jitter_us = jitter_us;
  config.network.base_latency_us = 5'000;
  ReplicatedSystem system(config);

  Rng rng(seed);
  std::vector<EtId> tentative;
  const bool ritu =
      method == Method::kRituMulti || method == Method::kRituSingle;
  const bool compe =
      method == Method::kCompe || method == Method::kCompeOrdered;
  SimTime last_commit = 0;
  int submitted = 0;
  for (int i = 0; i < 60; ++i) {
    const SiteId origin = static_cast<SiteId>(rng.Uniform(0, 4));
    const ObjectId object = rng.Uniform(0, 9);
    std::vector<Operation> ops;
    if (ritu) {
      ops.push_back(Operation::TimestampedWrite(
          object, Value(rng.Uniform(0, 1'000)), kZeroTimestamp));
    } else {
      ops.push_back(Operation::Increment(object, rng.Uniform(1, 5)));
    }
    auto r = system.SubmitUpdate(
        origin, std::move(ops),
        [&](Status s) {
          if (s.ok()) last_commit = system.simulator().Now();
        });
    if (r.ok()) {
      ++submitted;
      if (compe) tentative.push_back(*r);
    }
    system.RunFor(rng.Uniform(0, 2'000));
  }
  for (size_t i = 0; i < tentative.size(); ++i) {
    (void)system.Decide(tentative[i], i % 4 != 0);
  }

  // Sample convergence while draining.
  Outcome out;
  SimTime converged_at = -1;
  for (int step = 0; step < 40'000; ++step) {
    if (system.simulator().Quiescent()) break;
    system.RunFor(1'000);
    if (converged_at < 0 && system.Converged() &&
        system.simulator().Now() >= last_commit) {
      converged_at = system.simulator().Now();
      break;
    }
  }
  system.RunUntilQuiescent();
  if (converged_at < 0 && system.Converged()) {
    converged_at = system.simulator().Now();
  }
  if (converged_at >= 0) {
    out.convergence_ms = (converged_at - last_commit) / 1000.0;
  }
  auto sr = analysis::CheckUpdateSerializability(system.history(), 5);
  if (sr.serializable) {
    auto oracle =
        analysis::ComputeSerialState(system.history(), sr.serial_order);
    out.oracle_match = true;
    for (const auto& [object, value] : oracle) {
      for (SiteId s = 0; s < 5; ++s) {
        if (!(system.SiteValue(s, object) == value)) out.oracle_match = false;
      }
    }
  }
  for (SiteId s = 0; s < 5; ++s) {
    out.retransmits +=
        bench::TransportEventCount(system, s, "queue.retransmit");
  }
  bench::CollectMetrics(system);
  return out;
}

}  // namespace
}  // namespace esr

int main() {
  using namespace esr;
  using namespace esr::bench;

  Banner("E3: time to convergence after an update burst (5 sites, 5 ms links)");
  Table table({"method", "loss", "jitter (ms)", "convergence after last commit (ms)",
               "state == serial oracle", "queue retransmits"});
  struct NetCase {
    double loss;
    SimDuration jitter_us;
  };
  const NetCase nets[] = {{0.0, 500}, {0.1, 2'000}, {0.3, 5'000}};
  const core::Method methods[] = {
      core::Method::kOrdup,      core::Method::kCommu,
      core::Method::kRituMulti,  core::Method::kRituSingle,
      core::Method::kCompe,      core::Method::kCompeOrdered};
  uint64_t seed = 300;
  for (const NetCase& net : nets) {
    for (core::Method method : methods) {
      auto out = RunBurst(method, net.loss, net.jitter_us, ++seed);
      table.AddRow({std::string(core::MethodToString(method)),
                    Fmt(net.loss, 2), Fmt(net.jitter_us / 1000.0, 1),
                    out.convergence_ms < 0 ? "NEVER"
                                           : Fmt(out.convergence_ms, 1),
                    out.oracle_match ? "yes" : "NO",
                    std::to_string(out.retransmits)});
    }
  }
  table.Print();
  esr::bench::WriteMetricsSnapshot("bench_convergence");
  std::printf(
      "\nExpected shape: every cell converges (no NEVER) and matches the\n"
      "serial oracle (the ESR guarantee); convergence time grows with loss\n"
      "(stable-queue retransmission delay), and ordered methods (ORDUP,\n"
      "COMPE-ORD) take somewhat longer under heavy reordering because the\n"
      "hold-back buffer waits for gaps.\n");
  return 0;
}
