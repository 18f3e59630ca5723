// A three-site ORDUP cluster inside one process, wired the way
// examples/esrd.cpp wires one site: TcpTransport on loopback, TimerWheel,
// a ThreadPool strand, optional Wal over FileStorage, and OrdupNode with
// esrd's defaults (retry 50 ms, gap timeout 100 ms, 8 store partitions,
// group commit 8 records / 5 ms, sequencer at site 0). The three strands
// share one pool.
#ifndef PERFBENCH_CLUSTER_H_
#define PERFBENCH_CLUSTER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/metric_registry.h"
#include "recovery/storage.h"
#include "recovery/wal.h"
#include "runtime/ordup_node.h"
#include "runtime/tcp_transport.h"
#include "runtime/thread_pool.h"
#include "runtime/timer_wheel.h"
#include "tracer.h"

namespace perfbench {

/// Worker threads of each cluster's pool: one per strand, leaving one CPU
/// for the transports, timers and load generator.
int PoolThreads();

struct ClusterOptions {
  bool wal = false;
  /// Parent of the per-site WAL directories (used only with `wal`).
  std::string wal_dir;
  /// Non-null: every seam the nodes use is wrapped in a timing decorator.
  Tracer* tracer = nullptr;
};

struct RecoveryTimes {
  double total_s = 0;    // stop -> restarted site matches the cluster
  double replay_s = 0;   // WAL open + node Start (which replays the WAL)
  double catchup_s = 0;  // Start returned -> watermark and digest match
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Builds and starts every site, connects the mesh, and returns once the
  /// sequencer's start-up probe is done and one update from each site is
  /// stable. Each probe update increments `probe_object` once.
  void Start(esr::ObjectId probe_object);

  esr::runtime::OrdupNode& node(int site) { return *sites_[site].node; }
  /// Where the load generator posts work for `site` (the timed wrapper if
  /// traced).
  esr::runtime::Executor* executor(int site);

  /// Runs `fn` on the site's strand and waits for it (hard deadline).
  void RunOn(int site, std::function<void()> fn);

  int64_t DroppedSends() const;
  /// Waits (bounded) until every site is idle with one applied watermark;
  /// false on timeout.
  bool WaitQuiescent(double timeout_s);
  /// Digest of every site; true when all equal (digest of site 0 returned).
  bool DigestsMatch(uint64_t* digest);

  /// Stops a drained site and restarts it on the same port with a fresh
  /// incarnation (over its WAL when there is one) until its applied
  /// watermark and digest match site 0's.
  RecoveryTimes RestartSite(int site);

  /// Stops nodes, timers and transports and joins the pool. Idempotent.
  void Shutdown();

 private:
  struct Site {
    std::unique_ptr<esr::runtime::Strand> strand;
    std::unique_ptr<TimedExecutor> timed_exec;
    esr::obs::MetricRegistry metrics;
    std::unique_ptr<esr::runtime::TimerWheel> wheel;
    std::unique_ptr<TimedClock> timed_clock;
    std::unique_ptr<esr::runtime::TcpTransport> transport;
    std::unique_ptr<TimedTransport> timed_transport;
    std::unique_ptr<esr::recovery::FileStorage> storage;
    std::unique_ptr<TimedStorage> timed_storage;
    std::unique_ptr<esr::recovery::Wal> wal;
    std::unique_ptr<esr::runtime::OrdupNode> node;
    int port = 0;
  };

  /// Timer wheel, transport (bound to `port`, 0 = ephemeral), WAL and
  /// node for one site; the transport is started, the node is not.
  void BuildSite(int site, int port);
  void StopSite(int site);
  bool Quiescent();

  ClusterOptions options_;
  std::unique_ptr<esr::runtime::ThreadPool> pool_;
  std::array<Site, kSites> sites_;
  bool shut_down_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLUSTER_H_
