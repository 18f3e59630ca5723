// esrd — one ORDUP site as a real daemon.
//
// Runs the same OrdupNode protocol core the simulator tests exercise, but
// bound to the real runtime: TcpTransport over POSIX sockets, TimerWheel
// for timers, and a ThreadPool strand serializing all protocol state. A
// cluster is N esrd processes with identical --peers tables:
//
//   esrd --site=0 --peers=127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102
//        --workload-rate=200 --serve-metrics-port=9100 --data-dir=/tmp/s0
//   esrd --site=1 --peers=...   (and --site=2)
//
// Each process applies every site's updates in one global total order; on
// SIGTERM (or --duration-s expiry) it stops submitting, drains until every
// locally-originated ET is globally stable (applied by every site), lingers
// so peers can drain and learn each other's final watermarks, flushes the
// WAL, and writes a JSON status line (--status-file). Its `digest` field is
// equal across a converged cluster, and `stable` (stable total-order
// positions, no-op hole fills included) equals `applied_watermark` once
// stability has reached the site; `history_msets` (applied MSets held
// above the stable watermark) is then 0.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_exporter.h"
#include "obs/metric_registry.h"
#include "recovery/recovery_config.h"
#include "recovery/storage.h"
#include "recovery/wal.h"
#include "runtime/ordup_node.h"
#include "runtime/tcp_transport.h"
#include "runtime/thread_pool.h"
#include "runtime/timer_wheel.h"
#include "store/operation.h"

namespace {

using esr::runtime::OrdupNode;
using esr::runtime::OrdupNodeConfig;
using esr::runtime::Strand;
using esr::runtime::TcpTransport;
using esr::runtime::TcpTransportConfig;
using esr::runtime::ThreadPool;
using esr::runtime::TimerWheel;

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*sig*/) { g_stop.store(true); }

/// Runs `fn` on the strand and blocks the calling (main) thread until it
/// finished — the daemon's only cross-thread handshake besides atomics.
void OnStrand(Strand* strand, std::function<void()> fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  strand->Post([&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

double QuantileOr(const esr::obs::Histogram& h, double q, double fallback) {
  double v = h.QuantileValue(q);
  return v == v ? v : fallback;  // NaN check without <cmath>
}

}  // namespace

int main(int argc, char** argv) {
  esr::SiteId site = -1;
  std::vector<std::string> peers;
  esr::SiteId sequencer_site = 0;
  std::string data_dir;
  int metrics_port = -1;  // -1 = no exporter
  int64_t metrics_publish_ms = 500;
  double workload_rate = 0;  // updates/sec submitted by this site
  int64_t workload_objects = 8;
  double duration_s = 0;  // 0 = until SIGTERM/SIGINT
  int64_t retry_ms = 50;
  int64_t linger_ms = 750;
  int threads = 2;
  int store_partitions = 8;
  std::string status_file;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "site", &value)) {
      site = std::stoi(value);
    } else if (ParseFlag(argv[i], "peers", &value)) {
      peers = SplitCsv(value);
    } else if (ParseFlag(argv[i], "sequencer-site", &value)) {
      sequencer_site = std::stoi(value);
    } else if (ParseFlag(argv[i], "data-dir", &value)) {
      data_dir = value;
    } else if (ParseFlag(argv[i], "serve-metrics-port", &value)) {
      metrics_port = std::stoi(value);
    } else if (ParseFlag(argv[i], "metrics-publish-ms", &value)) {
      metrics_publish_ms = std::stoll(value);
    } else if (ParseFlag(argv[i], "workload-rate", &value)) {
      workload_rate = std::stod(value);
    } else if (ParseFlag(argv[i], "workload-objects", &value)) {
      workload_objects = std::stoll(value);
    } else if (ParseFlag(argv[i], "duration-s", &value)) {
      duration_s = std::stod(value);
    } else if (ParseFlag(argv[i], "retry-ms", &value)) {
      retry_ms = std::stoll(value);
    } else if (ParseFlag(argv[i], "linger-ms", &value)) {
      linger_ms = std::stoll(value);
    } else if (ParseFlag(argv[i], "threads", &value)) {
      threads = std::stoi(value);
    } else if (ParseFlag(argv[i], "store-partitions", &value)) {
      store_partitions = std::stoi(value);
    } else if (ParseFlag(argv[i], "status-file", &value)) {
      status_file = value;
    } else {
      std::fprintf(stderr,
                   "usage: esrd --site=N --peers=host:port,... "
                   "[--sequencer-site=N] [--data-dir=DIR] "
                   "[--serve-metrics-port=P] [--metrics-publish-ms=MS] "
                   "[--workload-rate=R] [--workload-objects=N] "
                   "[--duration-s=S] [--retry-ms=MS] [--threads=N] "
                   "[--store-partitions=N] [--status-file=PATH]\n");
      return 2;
    }
  }
  if (site < 0 || peers.empty() ||
      site >= static_cast<esr::SiteId>(peers.size())) {
    std::fprintf(stderr, "esrd: --site must index into --peers\n");
    return 2;
  }
  const int num_sites = static_cast<int>(peers.size());
  if (sequencer_site < 0 || sequencer_site >= num_sites) {
    std::fprintf(stderr, "esrd: --sequencer-site out of range\n");
    return 2;
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);  // peer disconnects surface as write errors
#endif

  esr::obs::MetricRegistry metrics;

  ThreadPool pool(threads);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  TimerWheel wheel(strand.get());
  wheel.Start();

  TcpTransportConfig tcfg;
  tcfg.self = site;
  tcfg.peers = peers;
  TcpTransport transport(tcfg, strand.get());
  transport.Start();
  if (!transport.ok()) {
    std::fprintf(stderr, "esrd: failed to listen on %s\n",
                 peers[site].c_str());
    return 1;
  }

  std::unique_ptr<esr::recovery::FileStorage> storage;
  std::unique_ptr<esr::recovery::Wal> wal;
  if (!data_dir.empty()) {
    esr::recovery::RecoveryConfig rcfg;
    rcfg.enabled = true;
    rcfg.backend = esr::recovery::StorageBackendKind::kFile;
    rcfg.dir = data_dir;
    storage = std::make_unique<esr::recovery::FileStorage>(data_dir);
    wal = std::make_unique<esr::recovery::Wal>(&wheel, storage.get(), site,
                                               rcfg, &metrics);
  }

  OrdupNodeConfig ncfg;
  ncfg.self = site;
  ncfg.num_sites = num_sites;
  ncfg.sequencer_site = sequencer_site;
  ncfg.retry_interval_us = retry_ms * 1'000;
  ncfg.gap_timeout_us = 2 * retry_ms * 1'000;
  // Boot wall-clock µs: strictly above any previous life's incarnation plus
  // its submit count, which is what id uniqueness across restarts needs.
  ncfg.incarnation = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  ncfg.store_partitions = store_partitions;
  OrdupNode node(ncfg, &transport, &wheel, wal.get(), &metrics);
  OnStrand(strand.get(), [&] { node.Start(); });

  // Metrics endpoint: snapshots rendered on the strand, served elsewhere.
  auto channel = std::make_shared<esr::obs::MetricsSnapshotChannel>();
  std::unique_ptr<esr::obs::HttpExporter> exporter;
  std::atomic<bool> publishing{false};
  std::function<void()> publish_tick;
  if (metrics_port >= 0) {
    esr::obs::HttpExporterConfig ecfg;
    ecfg.port = metrics_port;
    exporter = std::make_unique<esr::obs::HttpExporter>(channel, ecfg);
    esr::Status status = exporter->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "esrd: metrics exporter: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("esrd site %d: metrics on http://127.0.0.1:%d/metrics\n",
                site, exporter->port());
    publishing.store(true);
    publish_tick = [&] {
      if (!publishing.load()) return;
      channel->Publish(metrics.PrometheusText(), wheel.Now());
      wheel.Schedule(metrics_publish_ms * 1'000, publish_tick);
    };
    OnStrand(strand.get(), [&] { publish_tick(); });
  }

  // Workload: a self-rescheduling timer submitting deterministic increments
  // round-robin over --workload-objects counters. Deterministic operands
  // make "all sites applied everything" visible as digest equality.
  std::atomic<bool> submitting{workload_rate > 0};
  std::function<void()> workload_tick;
  int64_t next_object = 0;
  if (workload_rate > 0) {
    const int64_t interval_us =
        std::max<int64_t>(1, static_cast<int64_t>(1e6 / workload_rate));
    workload_tick = [&] {
      if (!submitting.load()) return;
      esr::ObjectId object = 1 + (next_object++ % workload_objects);
      node.SubmitUpdate({esr::store::Operation::Increment(object, 1)});
      wheel.Schedule(interval_us, workload_tick);
    };
    OnStrand(strand.get(), [&] { workload_tick(); });
  }

  std::printf("esrd site %d up: %d sites, sequencer %d, port %d%s\n", site,
              num_sites, sequencer_site, transport.port(),
              wal ? ", wal on" : "");
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    if (duration_s > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= duration_s) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Drain: stop submitting, then wait (bounded) for every local ET to be
  // globally stable and the order prefix to be gap-free on this site.
  submitting.store(false);
  bool drained = false;
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < drain_deadline) {
    bool idle = false;
    OnStrand(strand.get(), [&] { idle = node.Idle(); });
    if (idle) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!drained) {
    OnStrand(strand.get(), [&] {
      std::fprintf(stderr, "esrd site %d: drain timeout: %s\n", site,
                   node.DebugStuck().c_str());
    });
  }
  // Idle means *our* ETs are stable. A slower peer may still need our apply
  // acks for its own, and every site learns the others' final watermarks
  // from the retry loop within one retry interval. Keep serving briefly so
  // the whole cluster can drain and reach stability, not just this site.
  if (drained && linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }

  struct Final {
    uint64_t digest = 0;
    int64_t watermark = 0;
    int64_t applied = 0;
    int64_t submitted = 0;
    int64_t stable = 0;
    int64_t epoch = 0;
    int64_t history_msets = 0;
    int64_t snapshots_installed = 0;
    double stable_p50 = 0, stable_p95 = 0, stable_p99 = 0;
    double commit_p50 = 0;
  } fin;
  OnStrand(strand.get(), [&] {
    if (wal) wal->Flush();
    node.Stop();
    fin.digest = node.store().StateDigest();
    fin.watermark = node.applied_watermark();
    fin.applied = node.applied_count();
    fin.submitted = node.submitted_count();
    fin.stable = node.stable_count();
    fin.epoch = node.sequencer_epoch();
    fin.history_msets = node.history_msets();
    fin.snapshots_installed =
        metrics.GetCounter("esr_runtime_snapshots_installed_total").value();
    const auto& stable_h =
        metrics.GetHistogram("esr_runtime_commit_to_stable_us");
    fin.stable_p50 = QuantileOr(stable_h, 0.5, 0);
    fin.stable_p95 = QuantileOr(stable_h, 0.95, 0);
    fin.stable_p99 = QuantileOr(stable_h, 0.99, 0);
    fin.commit_p50 = QuantileOr(
        metrics.GetHistogram("esr_runtime_submit_to_commit_us"), 0.5, 0);
    // Final snapshot so the last scrape sees the drained counters.
    if (publishing.load()) {
      publishing.store(false);
      channel->Publish(metrics.PrometheusText(), wheel.Now());
    }
  });

  wheel.Stop();
  transport.Stop();
  pool.Shutdown();
  if (exporter) exporter->Stop();

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"site\":%d,\"drained\":%s,\"digest\":\"%016llx\","
      "\"applied_watermark\":%lld,\"applied\":%lld,\"submitted\":%lld,"
      "\"stable\":%lld,\"sequencer_epoch\":%lld,\"history_msets\":%lld,"
      "\"snapshots_installed\":%lld,\"wall_s\":%.3f,"
      "\"submitted_per_sec\":%.1f,"
      "\"commit_to_stable_p50_us\":%.0f,\"commit_to_stable_p95_us\":%.0f,"
      "\"commit_to_stable_p99_us\":%.0f,\"submit_to_commit_p50_us\":%.0f,"
      "\"dropped_sends\":%lld}\n",
      site, drained ? "true" : "false",
      static_cast<unsigned long long>(fin.digest),
      static_cast<long long>(fin.watermark),
      static_cast<long long>(fin.applied),
      static_cast<long long>(fin.submitted),
      static_cast<long long>(fin.stable),
      static_cast<long long>(fin.epoch),
      static_cast<long long>(fin.history_msets),
      static_cast<long long>(fin.snapshots_installed), wall_s,
      wall_s > 0 ? fin.submitted / wall_s : 0, fin.stable_p50, fin.stable_p95,
      fin.stable_p99, fin.commit_p50,
      static_cast<long long>(transport.dropped_sends()));
  std::fputs(json, stdout);
  if (!status_file.empty()) {
    if (FILE* f = std::fopen(status_file.c_str(), "w")) {
      std::fputs(json, f);
      std::fclose(f);
    }
  }
  return drained ? 0 : 3;
}
