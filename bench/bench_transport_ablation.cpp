// Ablation A4: the two reliable messaging substrates the paper cites —
// stable queues (per-message acks, selective retransmission) vs persistent
// pipes (sliding window, cumulative acks, go-back-N) — under the same
// COMMU workload, sweeping message loss. Reported: end-to-end convergence
// time after an update burst, retransmission volume, and workload
// throughput. The protocols above are identical; only the substrate
// changes.

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "esr/replicated_system.h"
#include "workload/workload.h"

namespace esr {
namespace {

using bench::Banner;
using bench::Fmt;
using bench::Table;
using core::Method;
using core::ReplicatedSystem;
using core::SystemConfig;
using core::Transport;
using store::Operation;

struct Outcome {
  double convergence_ms = -1;
  int64_t retransmits = 0;
  double updates_per_sec = 0;
};

Outcome Run(Transport transport, double loss, uint64_t seed) {
  SystemConfig config;
  config.method = Method::kCommu;
  config.transport = transport;
  config.num_sites = 4;
  config.seed = seed;
  config.network.loss_probability = loss;
  config.network.jitter_us = 1'000;
  config.network.base_latency_us = 5'000;
  config.record_history = false;
  ReplicatedSystem system(config);

  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_objects = 16;
  spec.update_fraction = 0.6;
  spec.clients_per_site = 2;
  spec.think_time_us = 4'000;
  spec.duration_us = 800'000;
  spec.drain_us = 0;
  workload::WorkloadRunner runner(&system, spec);
  auto result = runner.Run();

  const SimTime burst_end = system.simulator().Now();
  Outcome out;
  for (int step = 0; step < 40'000; ++step) {
    if (system.Converged()) {
      out.convergence_ms = (system.simulator().Now() - burst_end) / 1000.0;
      break;
    }
    system.RunFor(1'000);
  }
  system.RunUntilQuiescent();
  if (out.convergence_ms < 0 && system.Converged()) {
    out.convergence_ms = (system.simulator().Now() - burst_end) / 1000.0;
  }
  for (SiteId s = 0; s < 4; ++s) {
    out.retransmits +=
        bench::TransportEventCount(system, s, "queue.retransmit") +
        bench::TransportEventCount(system, s, "pipe.retransmit");
  }
  out.updates_per_sec = result.UpdatesPerSec();
  bench::CollectMetrics(system);
  return out;
}

}  // namespace
}  // namespace esr

int main() {
  using namespace esr;
  using namespace esr::bench;

  Banner(
      "A4: stable queues vs persistent pipes under loss (COMMU, 4 sites, "
      "5 ms links)");
  Table table({"loss", "transport", "updates/s",
               "drain time after burst (ms)", "retransmitted segments"});
  uint64_t seed = 1500;
  for (double loss : {0.0, 0.1, 0.3, 0.5}) {
    for (core::Transport transport :
         {core::Transport::kStableQueue, core::Transport::kPersistentPipe}) {
      auto out = Run(transport, loss, ++seed);
      table.AddRow({Fmt(loss, 2),
                    std::string(core::TransportToString(transport)),
                    Fmt(out.updates_per_sec),
                    out.convergence_ms < 0 ? "NEVER" : Fmt(out.convergence_ms, 1),
                    std::to_string(out.retransmits)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: both substrates deliver everything at every loss\n"
      "rate (no NEVER — the paper's reliability assumption holds either\n"
      "way) and sustain the same workload throughput (commits are local).\n"
      "The difference is recovery tail latency: the pipes' cumulative acks\n"
      "cannot name exactly what is missing, so each loss costs a window\n"
      "rewind and the post-burst drain grows with loss much faster than\n"
      "the stable queues' selective retransmission. Jitter also induces\n"
      "spurious fast retransmits (cumulative-ack ambiguity), visible as a\n"
      "higher retransmit floor even at zero loss.\n");
  WriteMetricsSnapshot("bench_transport_ablation");
  return 0;
}
