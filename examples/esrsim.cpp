// Command-line simulation driver: run any replica control method against a
// parameterized workload and print the measured results plus the
// correctness verdicts. Handy for quick what-if exploration without
// writing code:
//
//   ./build/examples/esrsim --method=commu --sites=5 --latency-ms=50
//       --epsilon=2 --update-fraction=0.4 --duration-ms=2000 --seed=7
//
// Flags (all optional):
//   --method=ordup|ordup-ts|commu|ritu|ritu-sv|compe|compe-ord|2pc|quorum|quasi
//   --sites=N            --latency-ms=L       --jitter-ms=J
//   --loss=P             --epsilon=E|inf      --value-epsilon=V|inf
//   --update-fraction=F  --objects=N          --zipf=T
//   --clients=N          --duration-ms=D      --seed=S
//   --verify             (run the SR/ESR checkers; needs history; exit 1
//                        unless the run converges, its update subhistory
//                        is serializable and no query exceeds epsilon)
//
// Durability / recovery (asynchronous methods only):
//   --checkpoint-ms=C    enable WAL + periodic fuzzy checkpoints every C ms
//   --recovery-dir=PATH  file-backed stable storage (site_<N>.wal/.ckpt
//                        under PATH, emptied when the run starts; implies
//                        --checkpoint-ms=50 unless set)
//   --amnesia-crash=SITE:CRASH_MS:RESTART_MS
//                        amnesia-crash SITE (loses all volatile state) and
//                        recover it via checkpoint + WAL replay + catch-up
//
// Live metrics scrape endpoint:
//   --serve-metrics-port=N  serve GET /metrics and /healthz on
//                           127.0.0.1:N (0 = OS-assigned port, printed)
//   --metrics-publish-ms=M  snapshot-publish cadence in simulated ms
//                           (default 100)
//   --run-forever           keep issuing workload windows (one
//                           --duration-ms window plus drain per iteration,
//                           wall-clock paced) until SIGINT/SIGTERM, so a
//                           Prometheus can scrape the live session
//
// Sequencer (ordered methods: ordup, compe-ord):
//   --sequencer-standby=S   standby sequencer at site S; seal–failover–
//                           unseal takeover when the home site crashes
//   --seq-batch-max=N       coalesce up to N concurrent order requests per
//                           site into one wire batch (default 1: off)
//   --seq-batch-linger-us=L flush a partial batch L simulated us after its
//                           first request (default 0: immediately)
//
// Partial replication (ORDUP only):
//   --shards=K              split the object universe into K shards; each
//                           site stores and orders only the shards it owns
//   --replication-factor=R  owners per shard (default 2, clamped to --sites)
//   --single-shard-fraction=F
//                           fraction of update ETs confined to one shard
//                           (cross-shard ETs pay the multi-sequencer commit
//                           rule; default 0: objects picked independently)
//
// Concurrent store (all methods):
//   --store-partitions=N    hash partitions of each site's store (rounded
//                           to a power of two; default 1 — digests are
//                           partition-count-invariant)
//   --version-gc            RITU-MV: prune version chains below each site's
//                           VTNC (clamped to the oldest active query pin)
//                           on every stability advance
//
// Causal tracing / critical path:
//   --trace-ets=N        record hop-level traces for the most recent N
//                        update ETs; prints the critical-path report at
//                        exit and serves GET /traces when the metrics
//                        endpoint is on
//   --trace-out=FILE     write per-ET waterfalls + the aggregate report as
//                        JSONL to FILE (implies --trace-ets=512)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "obs/http_exporter.h"

#include "analysis/critical_path.h"
#include "analysis/query_checker.h"
#include "analysis/sr_checker.h"
#include "esr/replicated_system.h"
#include "workload/workload.h"

namespace {

using esr::core::Method;

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int64_t ParseEpsilon(const std::string& s) {
  if (s == "inf") return esr::core::kUnboundedEpsilon;
  return std::stoll(s);
}

bool ParseMethod(const std::string& s, Method* method) {
  if (s == "ordup") *method = Method::kOrdup;
  else if (s == "ordup-ts") *method = Method::kOrdupTs;
  else if (s == "commu") *method = Method::kCommu;
  else if (s == "ritu") *method = Method::kRituMulti;
  else if (s == "ritu-sv") *method = Method::kRituSingle;
  else if (s == "compe") *method = Method::kCompe;
  else if (s == "compe-ord") *method = Method::kCompeOrdered;
  else if (s == "2pc") *method = Method::kSync2pc;
  else if (s == "quorum") *method = Method::kSyncQuorum;
  else if (s == "quasi") *method = Method::kQuasiCopy;
  else return false;
  return true;
}

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*sig*/) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  esr::core::SystemConfig config;
  config.method = Method::kCommu;
  config.num_sites = 3;
  esr::workload::WorkloadSpec spec;
  spec.duration_us = 1'000'000;
  bool verify = false;
  bool run_forever = false;
  std::string trace_out;
  esr::SiteId crash_site = esr::kInvalidSiteId;
  esr::SimTime crash_at_us = 0;
  esr::SimTime restart_at_us = 0;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "method", &value)) {
      if (!ParseMethod(value, &config.method)) {
        std::fprintf(stderr, "unknown method '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "sites", &value)) {
      config.num_sites = std::stoi(value);
    } else if (ParseFlag(argv[i], "latency-ms", &value)) {
      config.network.base_latency_us = std::stoll(value) * 1000;
    } else if (ParseFlag(argv[i], "jitter-ms", &value)) {
      config.network.jitter_us = std::stoll(value) * 1000;
    } else if (ParseFlag(argv[i], "loss", &value)) {
      config.network.loss_probability = std::stod(value);
    } else if (ParseFlag(argv[i], "epsilon", &value)) {
      spec.query_epsilon = ParseEpsilon(value);
    } else if (ParseFlag(argv[i], "update-fraction", &value)) {
      spec.update_fraction = std::stod(value);
    } else if (ParseFlag(argv[i], "objects", &value)) {
      spec.num_objects = std::stoll(value);
    } else if (ParseFlag(argv[i], "zipf", &value)) {
      spec.zipf_theta = std::stod(value);
    } else if (ParseFlag(argv[i], "clients", &value)) {
      spec.clients_per_site = std::stoi(value);
    } else if (ParseFlag(argv[i], "duration-ms", &value)) {
      spec.duration_us = std::stoll(value) * 1000;
    } else if (ParseFlag(argv[i], "seed", &value)) {
      config.seed = std::stoull(value);
      spec.seed = config.seed;
    } else if (ParseFlag(argv[i], "checkpoint-ms", &value)) {
      config.recovery.enabled = true;
      config.recovery.checkpoint_interval_us = std::stoll(value) * 1000;
    } else if (ParseFlag(argv[i], "recovery-dir", &value)) {
      if (!config.recovery.enabled) {
        config.recovery.enabled = true;
        config.recovery.checkpoint_interval_us = 50'000;
      }
      config.recovery.backend = esr::recovery::StorageBackendKind::kFile;
      config.recovery.dir = value;
    } else if (ParseFlag(argv[i], "amnesia-crash", &value)) {
      const size_t c1 = value.find(':');
      const size_t c2 = c1 == std::string::npos ? c1 : value.find(':', c1 + 1);
      if (c2 == std::string::npos) {
        std::fprintf(stderr,
                     "--amnesia-crash wants SITE:CRASH_MS:RESTART_MS\n");
        return 2;
      }
      crash_site = std::stoi(value.substr(0, c1));
      crash_at_us = std::stoll(value.substr(c1 + 1, c2 - c1 - 1)) * 1000;
      restart_at_us = std::stoll(value.substr(c2 + 1)) * 1000;
    } else if (ParseFlag(argv[i], "shards", &value)) {
      config.shard.num_shards = std::stoi(value);
    } else if (ParseFlag(argv[i], "replication-factor", &value)) {
      config.shard.replication_factor = std::stoi(value);
    } else if (ParseFlag(argv[i], "single-shard-fraction", &value)) {
      spec.single_shard_fraction = std::stod(value);
    } else if (ParseFlag(argv[i], "sequencer-standby", &value)) {
      config.sequencer_standby = std::stoi(value);
    } else if (ParseFlag(argv[i], "seq-batch-max", &value)) {
      config.seq_batch_max = std::stoi(value);
    } else if (ParseFlag(argv[i], "seq-batch-linger-us", &value)) {
      config.seq_batch_linger_us = std::stoll(value);
    } else if (ParseFlag(argv[i], "trace-ets", &value)) {
      config.record_hops = true;
      config.trace_max_ets = std::stoll(value);
    } else if (ParseFlag(argv[i], "trace-out", &value)) {
      trace_out = value;
      config.record_hops = true;
    } else if (ParseFlag(argv[i], "store-partitions", &value)) {
      config.store_partitions = std::stoi(value);
    } else if (std::strcmp(argv[i], "--version-gc") == 0) {
      config.version_gc = true;
    } else if (ParseFlag(argv[i], "serve-metrics-port", &value)) {
      config.metrics_port = std::stoi(value);
    } else if (ParseFlag(argv[i], "metrics-publish-ms", &value)) {
      config.metrics_publish_interval_us = std::stoll(value) * 1000;
    } else if (std::strcmp(argv[i], "--run-forever") == 0) {
      run_forever = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("see the comment at the top of examples/esrsim.cpp\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (config.method == Method::kRituMulti ||
      config.method == Method::kRituSingle) {
    spec.update_kind =
        esr::workload::WorkloadSpec::UpdateKind::kTimestampedWrite;
  }
  if (config.method == Method::kCompe ||
      config.method == Method::kCompeOrdered) {
    spec.compe_abort_probability = 0.1;
  }
  if (run_forever) {
    if (verify) {
      std::fprintf(stderr,
                   "--run-forever ignores --verify (history would grow "
                   "without bound)\n");
      verify = false;
    }
    // An endless session records no history. Memory still grows by one
    // entry per ET: each site's stability tracker never drops the ids of
    // stable ETs.
  }
  config.record_history = verify;
  if (config.recovery.enabled &&
      (config.method == Method::kSync2pc ||
       config.method == Method::kSyncQuorum ||
       config.method == Method::kQuasiCopy)) {
    std::fprintf(stderr,
                 "recovery flags need an asynchronous ESR method\n");
    return 2;
  }
  if (config.sequencer_standby != esr::kInvalidSiteId &&
      (config.sequencer_standby < 0 ||
       config.sequencer_standby >= config.num_sites)) {
    std::fprintf(stderr,
                 "--sequencer-standby must name a site below --sites\n");
    return 2;
  }
  if (config.shard.num_shards > 1 && config.method != Method::kOrdup) {
    std::fprintf(stderr,
                 "partial replication (--shards > 1) requires "
                 "--method=ordup\n");
    return 2;
  }
  if (crash_site != esr::kInvalidSiteId && !config.recovery.enabled) {
    config.recovery.enabled = true;
    config.recovery.checkpoint_interval_us = 50'000;
  }

  esr::core::ReplicatedSystem system(config);
  if (crash_site != esr::kInvalidSiteId) {
    system.failures().ScheduleCrash(esr::sim::CrashSpec{
        crash_site, crash_at_us, restart_at_us, /*amnesia=*/true});
  }
  esr::workload::WorkloadRunner runner(&system, spec);
  std::printf("method=%s sites=%d latency=%lldus loss=%.2f epsilon=%s "
              "update_fraction=%.2f seed=%llu\n",
              std::string(esr::core::MethodToString(config.method)).c_str(),
              config.num_sites,
              static_cast<long long>(config.network.base_latency_us),
              config.network.loss_probability,
              spec.query_epsilon == esr::core::kUnboundedEpsilon
                  ? "inf"
                  : std::to_string(spec.query_epsilon).c_str(),
              spec.update_fraction,
              static_cast<unsigned long long>(config.seed));
  if (config.shard.num_shards > 1) {
    std::printf("partial replication: shards=%d replication_factor=%d "
                "single_shard_fraction=%.2f\n",
                config.shard.num_shards, config.shard.replication_factor,
                spec.single_shard_fraction);
  }
  if (system.metrics_exporter() != nullptr) {
    std::printf("metrics: http://127.0.0.1:%d/metrics (snapshot published "
                "every %lld simulated ms)\n",
                system.metrics_exporter()->port(),
                static_cast<long long>(config.metrics_publish_interval_us /
                                       1000));
    if (config.record_hops) {
      std::printf("traces: http://127.0.0.1:%d/traces (last %lld ET "
                  "waterfalls)\n",
                  system.metrics_exporter()->port(),
                  static_cast<long long>(config.trace_max_ets));
    }
    std::fflush(stdout);
  }

  auto emit_traces = [&]() {
    const esr::obs::EtTracer& tracer = system.tracer();
    if (!tracer.hops_enabled()) return;
    esr::analysis::ProtocolTypes types;
    types.mset = esr::core::kMsetMsg;
    types.apply_ack = esr::core::kApplyAckMsg;
    types.stable = esr::core::kStableMsg;
    const std::string method_name(
        esr::core::MethodToString(config.method));
    std::printf("\n%s", esr::analysis::RenderReportTable(
                            esr::analysis::BuildReport(
                                tracer.completed(), method_name, types))
                            .c_str());
    if (!trace_out.empty()) {
      const esr::Status written = esr::analysis::WriteWaterfallsJsonl(
          tracer.completed(), method_name, trace_out, types);
      if (written.ok()) {
        std::printf("wrote %zu waterfalls to %s\n", tracer.completed().size(),
                    trace_out.c_str());
      } else {
        std::fprintf(stderr, "trace export failed: %s\n",
                     written.ToString().c_str());
      }
    }
  };

  if (run_forever) {
    // Long-running scrapeable session: one issue window + drain of
    // simulated time per iteration, wall-clock paced so the session is
    // watchable (and doesn't pin a core). SIGINT/SIGTERM ends it cleanly.
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    unsigned long long iterations = 0;
    long long updates = 0, queries = 0;
    while (!g_stop.load()) {
      auto window = runner.Run();
      updates += window.updates_committed;
      queries += window.queries_completed;
      ++iterations;
      if (iterations % 10 == 1) {
        std::printf("[sim t=%.1fs] iter=%llu updates=%lld queries=%lld "
                    "scrapes=%lld\n",
                    static_cast<double>(system.simulator().Now()) / 1e6,
                    iterations, updates, queries,
                    static_cast<long long>(
                        system.metrics_exporter() != nullptr
                            ? system.metrics_exporter()->scrapes_total()
                            : 0));
        std::fflush(stdout);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    system.RunUntilQuiescent();
    emit_traces();
    // Publish the drained final snapshot and stop the exporter thread
    // BEFORE the system destructs: a scraper attached at SIGTERM time
    // otherwise races member teardown and can see a torn endpoint.
    system.ShutdownMetricsEndpoint();
    std::printf("\nstopped after %llu iterations: updates=%lld queries=%lld "
                "converged=%s\n",
                iterations, updates, queries,
                system.Converged() ? "yes" : "no");
    return 0;
  }

  auto result = runner.Run();
  system.RunUntilQuiescent();
  std::printf("\n%s\n", result.ToString().c_str());
  std::printf("converged: %s\n", system.Converged() ? "yes" : "no");
  emit_traces();

  if (crash_site != esr::kInvalidSiteId &&
      system.recovery_manager() != nullptr) {
    const auto& report = system.recovery_manager()->last_report(crash_site);
    std::printf(
        "recovery of site %d: checkpoint=%s, replayed %lld WAL records "
        "(%lld MSets, %lld already reflected), %lld MSets via catch-up, "
        "lag %.1f ms\n",
        crash_site, report.had_checkpoint ? "yes" : "no",
        static_cast<long long>(report.replayed_records),
        static_cast<long long>(report.replayed_msets),
        static_cast<long long>(report.skipped_reflected),
        static_cast<long long>(report.catchup_msets),
        report.catchup_done_at >= 0
            ? static_cast<double>(report.catchup_done_at -
                                  report.restarted_at) /
                  1'000.0
            : -1.0);
  }

  // The --verify verdict: convergence, a serializable update subhistory
  // and no epsilon violation. Queries that are not 1SR-consistent are
  // ESR's point and do not fail it.
  bool verdict_ok = system.Converged();
  if (verify) {
    auto sr = esr::analysis::CheckUpdateSerializability(system.history(),
                                                        config.num_sites);
    verdict_ok = verdict_ok && sr.serializable;
    std::printf("update subhistory serializable: %s\n",
                sr.serializable ? "yes" : sr.violation.c_str());
    if (sr.serializable) {
      auto reports =
          esr::analysis::AnalyzeQueries(system.history(), sr.serial_order);
      int64_t violations = 0, sr_queries = 0;
      for (const auto& r : reports) {
        if (r.epsilon != esr::core::kUnboundedEpsilon &&
            r.charged > r.epsilon) {
          ++violations;
        }
        if (r.prefix_consistent) ++sr_queries;
      }
      std::printf("queries analyzed: %zu; epsilon violations: %lld; "
                  "1SR-consistent: %lld\n",
                  reports.size(), static_cast<long long>(violations),
                  static_cast<long long>(sr_queries));
      verdict_ok = verdict_ok && violations == 0;
    }
  }
  return verify && !verdict_ok ? 1 : 0;
}
