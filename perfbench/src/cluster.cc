#include "cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "common.h"
#include "recovery/recovery_config.h"
#include "store/operation.h"

namespace perfbench {

namespace {

using esr::runtime::OrdupNode;
using esr::runtime::OrdupNodeConfig;

/// esrd's --retry-ms default; esrd derives the gap timeout as twice it.
constexpr int64_t kRetryMs = 50;
constexpr int kStorePartitions = 8;
/// Bound on any single wait for a strand task or a cluster state.
constexpr double kStrandDeadlineS = 20;

std::string Loopback(int port) { return "127.0.0.1:" + std::to_string(port); }

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int PoolThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw - 1, 1, kSites);
}

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  pool_ = std::make_unique<esr::runtime::ThreadPool>(PoolThreads());
  for (int s = 0; s < kSites; ++s) {
    Site& site = sites_[s];
    site.strand = pool_->MakeStrand();
    if (options_.tracer != nullptr) {
      site.timed_exec = std::make_unique<TimedExecutor>(site.strand.get(), s,
                                                        options_.tracer);
    }
  }
}

Cluster::~Cluster() { Shutdown(); }

esr::runtime::Executor* Cluster::executor(int site) {
  Site& s = sites_[site];
  if (s.timed_exec) return s.timed_exec.get();
  return s.strand.get();
}

void Cluster::RunOn(int site, std::function<void()> fn) {
  struct Done {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto done = std::make_shared<Done>();
  sites_[site].strand->Post([done, fn = std::move(fn)] {
    fn();
    std::lock_guard<std::mutex> lock(done->mu);
    done->done = true;
    done->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(done->mu);
  if (!done->cv.wait_for(lock,
                         std::chrono::duration<double>(kStrandDeadlineS),
                         [&] { return done->done; })) {
    Fatal("strand of site " + std::to_string(site) + " did not run a task in " +
          std::to_string(kStrandDeadlineS) + " s");
  }
}

void Cluster::BuildSite(int s, int port) {
  Site& site = sites_[s];
  esr::runtime::Executor* exec = executor(s);
  site.wheel = std::make_unique<esr::runtime::TimerWheel>(exec);
  site.wheel->Start();
  esr::runtime::Clock* clock = site.wheel.get();
  if (options_.tracer != nullptr) {
    site.timed_clock =
        std::make_unique<TimedClock>(site.wheel.get(), options_.tracer);
    clock = site.timed_clock.get();
  }

  esr::runtime::TcpTransportConfig tcfg;
  tcfg.self = s;
  for (int p = 0; p < kSites; ++p) {
    tcfg.peers.push_back(Loopback(p == s ? port : sites_[p].port));
  }
  site.transport = std::make_unique<esr::runtime::TcpTransport>(tcfg, exec);
  site.transport->Start();
  if (!site.transport->ok()) {
    Fatal("site " + std::to_string(s) + " failed to listen on port " +
          std::to_string(port));
  }
  site.port = site.transport->port();
  esr::runtime::Transport* transport = site.transport.get();
  if (options_.tracer != nullptr) {
    site.timed_transport = std::make_unique<TimedTransport>(
        site.transport.get(), options_.tracer);
    transport = site.timed_transport.get();
  }

  if (options_.wal) {
    esr::recovery::RecoveryConfig rcfg;
    rcfg.enabled = true;
    rcfg.backend = esr::recovery::StorageBackendKind::kFile;
    rcfg.dir = options_.wal_dir + "/site" + std::to_string(s);
    site.storage = std::make_unique<esr::recovery::FileStorage>(rcfg.dir);
    esr::recovery::StorageBackend* storage = site.storage.get();
    if (options_.tracer != nullptr) {
      site.timed_storage =
          std::make_unique<TimedStorage>(site.storage.get(), options_.tracer);
      storage = site.timed_storage.get();
    }
    site.wal = std::make_unique<esr::recovery::Wal>(clock, storage, s, rcfg,
                                                    &site.metrics);
  }

  OrdupNodeConfig ncfg;
  ncfg.self = s;
  ncfg.num_sites = kSites;
  ncfg.sequencer_site = 0;
  ncfg.retry_interval_us = kRetryMs * 1'000;
  ncfg.gap_timeout_us = 2 * kRetryMs * 1'000;
  ncfg.incarnation = WallMicros();
  ncfg.store_partitions = kStorePartitions;
  site.node = std::make_unique<OrdupNode>(ncfg, transport, clock,
                                          site.wal.get(), &site.metrics);
}

void Cluster::Start(esr::ObjectId probe_object) {
  for (int s = 0; s < kSites; ++s) BuildSite(s, 0);
  for (int s = 0; s < kSites; ++s) {
    for (int p = 0; p < kSites; ++p) {
      if (p == s) continue;
      sites_[s].transport->SetPeerAddress(p, Loopback(sites_[p].port));
    }
  }
  // Followers first, so the sequencer's start-up probe is answered at once.
  for (int s = kSites - 1; s >= 0; --s) {
    RunOn(s, [this, s] { sites_[s].node->Start(); });
  }
  auto stable = std::make_shared<std::atomic<int>>(0);
  for (int s = 0; s < kSites; ++s) {
    RunOn(s, [this, s, probe_object, stable] {
      sites_[s].node->SubmitUpdate(
          {esr::store::Operation::Increment(probe_object, 1)},
          [stable] { stable->fetch_add(1, std::memory_order_release); });
    });
  }
  const int64_t deadline = NowNs() + static_cast<int64_t>(30e9);
  while (stable->load(std::memory_order_acquire) < kSites) {
    if (NowNs() > deadline) Fatal("cluster start-up probe never became stable");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

int64_t Cluster::DroppedSends() const {
  int64_t n = 0;
  for (const Site& site : sites_) {
    if (site.transport) n += site.transport->dropped_sends();
  }
  return n;
}

bool Cluster::Quiescent() {
  bool idle = true;
  std::array<esr::SequenceNumber, kSites> wm{};
  for (int s = 0; s < kSites; ++s) {
    RunOn(s, [&, s] {
      idle = idle && sites_[s].node->Idle();
      wm[s] = sites_[s].node->applied_watermark();
    });
  }
  return idle && wm[0] == wm[1] && wm[1] == wm[2];
}

bool Cluster::WaitQuiescent(double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (!Quiescent()) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

bool Cluster::DigestsMatch(uint64_t* digest) {
  std::array<uint64_t, kSites> d{};
  for (int s = 0; s < kSites; ++s) d[s] = sites_[s].node->store().StateDigest();
  if (digest != nullptr) *digest = d[0];
  return d[0] == d[1] && d[1] == d[2];
}

void Cluster::StopSite(int s) {
  Site& site = sites_[s];
  if (!site.node) return;
  RunOn(s, [&site] {
    if (site.wal) site.wal->Flush();
    site.node->Stop();
  });
  site.wheel->Stop();
  site.transport->Stop();
  // Timer callbacks and deliveries posted before the stops drain here; the
  // stopped node and transport turn them into no-ops.
  RunOn(s, [] {});
}

RecoveryTimes Cluster::RestartSite(int s) {
  Site& site = sites_[s];
  const esr::SequenceNumber target = sites_[0].node->applied_watermark();
  const uint64_t target_digest = sites_[0].node->store().StateDigest();
  const int port = site.port;
  RecoveryTimes t;
  const int64_t t0 = NowNs();
  StopSite(s);
  site.node.reset();
  site.wal.reset();
  site.timed_storage.reset();
  site.storage.reset();
  site.timed_transport.reset();
  site.transport.reset();
  site.timed_clock.reset();
  site.wheel.reset();

  const int64_t t1 = NowNs();
  BuildSite(s, port);
  RunOn(s, [&site] { site.node->Start(); });
  const int64_t t2 = NowNs();
  t.replay_s = static_cast<double>(t2 - t1) * 1e-9;

  const int64_t deadline = t2 + static_cast<int64_t>(60e9);
  for (;;) {
    esr::SequenceNumber wm = 0;
    RunOn(s, [&] { wm = site.node->applied_watermark(); });
    if (wm == target && site.node->store().StateDigest() == target_digest) {
      break;
    }
    if (NowNs() > deadline) {
      Fatal("restarted site " + std::to_string(s) + " stuck at watermark " +
            std::to_string(wm) + " of " + std::to_string(target));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int64_t t3 = NowNs();
  t.catchup_s = static_cast<double>(t3 - t2) * 1e-9;
  t.total_s = static_cast<double>(t3 - t0) * 1e-9;
  return t;
}

void Cluster::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (int s = 0; s < kSites; ++s) StopSite(s);
  pool_->Shutdown();
  for (Site& site : sites_) {
    site.node.reset();
    site.wal.reset();
    site.transport.reset();
    site.wheel.reset();
    site.strand.reset();
  }
}

}  // namespace perfbench
