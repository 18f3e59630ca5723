#include "esr/replicated_system.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include <cstdio>

#include "analysis/critical_path.h"
#include "msg/mailbox_sequencer_port.h"
#include "msg/sequencer.h"
#include "obs/http_exporter.h"

namespace esr::core {

struct ReplicatedSystem::SiteRuntime {
  SiteRuntime(SiteId s, store::MvStoreOptions store_options)
      : id(s), clock(s), store(store_options) {}

  SiteId id;
  msg::LamportClock clock;
  std::unique_ptr<msg::Mailbox> mailbox;
  std::unique_ptr<msg::StableQueueManager> queues;
  /// Indexed like order_services_, and empty for the sync baselines. Every
  /// site holds every service's port (its mailbox binding, which outlives
  /// the server and client it routes to) and client; it holds service i's
  /// server only while it is that service's home or standby.
  std::vector<std::unique_ptr<msg::MailboxSequencerPort>> seq_ports;
  std::vector<std::unique_ptr<msg::SequencerServer>> seq_servers;
  std::vector<std::unique_ptr<msg::SequencerClient>> seq_clients;
  std::unique_ptr<StabilityTracker> stability;
  store::MvStore store;
  store::MsetLog mset_log;
  std::unique_ptr<ReplicaControlMethod> method;
  std::unique_ptr<cc::TwoPhaseCommitEngine> tpc;
  std::unique_ptr<cc::QuorumEngine> quorum;
};

namespace {

/// Read() polls a blocked read this often (simulated time).
constexpr SimDuration kReadRetryIntervalUs = 1'000;

/// The method's highest observed position on order service `service`; 0
/// while the site has no method instance.
SequenceNumber MethodOrderSeen(const ReplicaControlMethod* method,
                               ShardId service) {
  return method == nullptr ? 0 : method->MaxOrderSeen(service);
}

}  // namespace

ReplicatedSystem::ReplicatedSystem(const SystemConfig& config)
    : config_(config), tracer_(&metrics_, config.num_sites) {
  assert(config_.num_sites > 0);
  metrics_.Describe("esr_info", "Static run configuration (always 1)");
  metrics_.Describe("esr_events_total", "Facade and method protocol events");
  metrics_.Describe("esr_network_events_total",
                    "Network, mailbox and failure-injector events");
  metrics_.Describe("esr_transport_events_total",
                    "Stable-queue events, by site");
  metrics_.Describe("esr_sync_events_total",
                    "2PC or quorum engine events, by site");
  metrics_
      .GetGauge("esr_info",
                {{"method", std::string(MethodToString(config_.method))},
                 {"sites", std::to_string(config_.num_sites)}})
      .Set(1);
  network_ = std::make_unique<sim::Network>(&simulator_, config_.num_sites,
                                            config_.network, config_.seed,
                                            metrics_);
  failures_ = std::make_unique<sim::FailureInjector>(
      &simulator_, network_.get(), config_.seed ^ 0x9e3779b97f4a7c15ULL);

  if (config_.record_hops) {
    tracer_.EnableHops(config_.trace_max_ets);
    // The network reports every successful delivery whose wire envelope
    // carries a valid trace — the per-hop "arrive" milestone (raw datagram
    // at the destination, before any transport hold-back).
    network_->SetHopObserver([this](const TraceContext& trace, SiteId source,
                                    SiteId destination, SimTime /*sent_at*/,
                                    SimTime now) {
      tracer_.NetArrive(trace, source, destination, now);
    });
  }

  if (config_.recovery.enabled && !IsSyncMethod()) {
    // Sequenced ORDUP queries take order positions that are released as
    // local-only no-ops at remote sites and never WAL-logged, so the total
    // order could not be reconstructed after an amnesia crash. The
    // quasi-copies baseline predates the durability hooks entirely.
    assert(!config_.ordup_sequenced_queries);
    assert(config_.method != Method::kQuasiCopy);
    recovery_ = std::make_unique<recovery::RecoveryManager>(
        &simulator_, &metrics_, config_.recovery, config_.num_sites);
  }

  if (config_.shard.num_shards > 1) {
    // Partial replication is implemented for ORDUP only (the total-order
    // method whose sequencer the per-shard ordering generalizes), and
    // sequenced ORDUP queries take *global* order positions that have no
    // meaning under per-shard ordering.
    assert(config_.method == Method::kOrdup);
    assert(!config_.ordup_sequenced_queries);
    placement_ = std::make_unique<shard::PlacementMap>(config_.shard,
                                                       config_.num_sites);
    metrics_
        .GetGauge("esr_info",
                  {{"shards", std::to_string(placement_->num_shards())},
                   {"replication_factor",
                    std::to_string(placement_->replication_factor())}})
        .Set(1);
  }

  sites_.reserve(config_.num_sites);
  store::MvStoreOptions store_options;
  store_options.partitions = config_.store_partitions;
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    sites_.push_back(std::make_unique<SiteRuntime>(s, store_options));
  }
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    SiteRuntime& site = *sites_[s];
    site.mailbox = std::make_unique<msg::Mailbox>(network_.get(), s);
    site.queues = std::make_unique<msg::StableQueueManager>(
        &simulator_, site.mailbox.get());
    if (config_.record_hops) site.queues->set_tracer(&tracer_);
    site.stability =
        std::make_unique<StabilityTracker>(s, config_.num_sites);
    InstallVersionGc(s);
  }
  // Order services: the global server at config_.sequencer_site, then (with
  // partial replication) one server per shard at the shard's first owner
  // with the second owner (RF >= 2) as standby. Servers must exist before
  // any client request can be handled; their handlers live on the hosting
  // sites' mailboxes. A home grants from epoch 1; a standby starts sealed
  // and only grants after a takeover.
  if (!IsSyncMethod()) {
    SiteId standby = config_.sequencer_standby;
    if (standby == config_.sequencer_site) standby = kInvalidSiteId;
    assert(standby == kInvalidSiteId ||
           (standby >= 0 && standby < config_.num_sites));
    order_services_.push_back(
        OrderService{kGlobalOrder, 0, config_.sequencer_site, standby});
    const ShardId num_shards =
        placement_ != nullptr ? placement_->num_shards() : 0;
    for (ShardId k = 0; k < num_shards; ++k) {
      const std::vector<SiteId>& owners = placement_->Owners(k);
      order_services_.push_back(OrderService{
          k, msg::kShardSeqTypeBase + k * msg::kShardSeqTypeStride,
          owners.front(), owners.size() >= 2 ? owners[1] : kInvalidSiteId});
    }
    for (auto& site : sites_) {
      for (const OrderService& service : order_services_) {
        site->seq_ports.push_back(std::make_unique<msg::MailboxSequencerPort>(
            site->mailbox.get(), site->queues.get(), service.type_offset));
      }
      site->seq_servers.resize(order_services_.size());
    }
    for (size_t i = 0; i < order_services_.size(); ++i) {
      const OrderService& service = order_services_[i];
      for (SiteId host : {service.home, service.standby}) {
        if (host == kInvalidSiteId) continue;
        SiteRuntime& site = *sites_[host];
        site.seq_servers[i] = std::make_unique<msg::SequencerServer>(
            site.seq_ports[i].get(), &simulator_,
            /*start_sealed=*/host != service.home);
        site.seq_ports[i]->AttachServer(site.seq_servers[i].get());
      }
    }
    metrics_.Describe("esr_seq_grants_total",
                      "Global order positions granted by the sequencer");
    metrics_.Describe("esr_seq_batches_total",
                      "Batched grant responses sent by the sequencer");
    metrics_.Describe("esr_seq_batch_size",
                      "Order positions granted per batch request");
    metrics_.Describe("esr_seq_epoch", "Current sequencer grant epoch");
    metrics_.Describe("esr_seq_rtt_us",
                      "Order request round-trip time (request to grant)");
    metrics_.Describe("esr_seq_sealed_drops_total",
                      "Order requests dropped by a sealed or wrong-epoch "
                      "server");
    metrics_.Describe("esr_seq_stale_grants_total",
                      "Grants from superseded epochs discarded by clients");
    metrics_.Describe("esr_seq_abandoned_dropped_total",
                      "Abandoned request ids dropped on epoch change");
    metrics_.Describe("esr_seq_failovers_total",
                      "Completed sequencer seal-failover-unseal handovers");
  }
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    SiteRuntime& site = *sites_[s];
    if (IsSyncMethod()) {
      if (config_.method == Method::kSync2pc) {
        site.tpc = std::make_unique<cc::TwoPhaseCommitEngine>(
            site.mailbox.get(), site.queues.get(), &site.store,
            config_.num_sites);
      } else {
        site.quorum = std::make_unique<cc::QuorumEngine>(
            &simulator_, site.mailbox.get(), config_.num_sites,
            cc::QuorumConfig{});
      }
      continue;
    }
    for (size_t i = 0; i < order_services_.size(); ++i) {
      const OrderService& service = order_services_[i];
      const ShardId shard = service.shard;
      auto client = std::make_unique<msg::SequencerClient>(
          site.seq_ports[i].get(), &simulator_, service.home);
      site.seq_ports[i]->AttachClient(client.get());
      client->set_batching(config_.seq_batch_max, config_.seq_batch_linger_us);
      client->set_metrics(&metrics_);
      client->set_metric_shard(shard);
      client->set_high_watermark_provider([this, s, shard]() {
        return MethodOrderSeen(sites_[s]->method.get(), shard);
      });
      client->set_orphan_handler([this, s, shard](SequenceNumber seq) {
        ReplicaControlMethod* method = sites_[s]->method.get();
        if (method != nullptr) method->ReleaseOrphanPosition(shard, seq);
      });
      if (config_.record_hops) client->set_tracer(&tracer_);
      site.seq_clients.push_back(std::move(client));
    }
    if (placement_ != nullptr) BindQueryForwarding(s);
    site.method = MakeMethod(MakeContext(s));
    if (recovery_ != nullptr) BindRecoverySite(s);
  }
  // Server knobs install after methods exist: the local high-watermark
  // reader dereferences the hosting site's method at probe time.
  for (size_t i = 0; i < order_services_.size(); ++i) {
    for (SiteId host : {order_services_[i].home, order_services_[i].standby}) {
      if (host != kInvalidSiteId) ConfigureSeqServer(host, i);
    }
  }

  // Crash hooks. Fail-stop (the default): volatile state freezes, except
  // 2PC's lock table, which a real site would lose.
  // Amnesia (recovery enabled): the site loses *all* volatile state and
  // comes back through checkpoint + WAL replay + catch-up.
  failures_->on_crash = [this](SiteId s, bool amnesia) {
    // Whatever the crash kind, `s` stops responding: any recovering site
    // waiting on its catch-up response must stop counting it.
    if (recovery_ != nullptr) recovery_->OnPeerDown(s);
    // Losing an order service's home arms its standby takeover (any crash
    // kind — either way the order service stops answering).
    for (size_t i = 0; i < order_services_.size(); ++i) {
      const OrderService& service = order_services_[i];
      if (s == service.home && service.standby != kInvalidSiteId &&
          service.standby != s) {
        ScheduleSequencerFailover(i, s);
      }
    }
    if (amnesia && recovery_ != nullptr) {
      AmnesiaCrash(s);
      return;
    }
    if (sites_[s]->tpc) sites_[s]->tpc->OnCrash();
  };
  failures_->on_restart = [this](SiteId s, bool amnesia) {
    if (amnesia && recovery_ != nullptr) {
      AmnesiaRestart(s);
      return;
    }
    // A deposed primary returning fail-stop still holds its frozen grant
    // cursor in the sealed-forever old epoch; sealing makes that explicit
    // (retransmitted requests from the stable queues are dropped, not
    // granted at stale positions).
    for (size_t i = 0; i < sites_[s]->seq_servers.size(); ++i) {
      if (sites_[s]->seq_servers[i] != nullptr &&
          s != order_services_[i].home) {
        sites_[s]->seq_servers[i]->Seal();
      }
    }
  };

  if (config_.admission.enabled && !IsSyncMethod()) {
    admission_ = std::make_unique<AdmissionController>(
        config_.admission, config_.num_sites, &metrics_);
    admission_totals_.resize(config_.num_sites);
    admission_prev_.resize(config_.num_sites);
  }

  if (config_.metrics_port >= 0) {
    metrics_channel_ = std::make_shared<obs::MetricsSnapshotChannel>();
    obs::HttpExporterConfig exporter_config;
    exporter_config.port = config_.metrics_port;
    metrics_exporter_ = std::make_unique<obs::HttpExporter>(
        metrics_channel_, exporter_config);
    const Status started = metrics_exporter_->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "esr: metrics exporter disabled: %s\n",
                   started.ToString().c_str());
      metrics_exporter_.reset();
    }
    // First snapshot immediately: /metrics is never empty, even before the
    // simulator takes its first step.
    PublishMetricsSnapshot();
  }

  // The periodic timers, in the order their first events are scheduled.
  auto every = [this](SimDuration interval, std::function<void()> run) {
    periodic_.push_back({interval, interval, std::move(run)});
  };
  if (config_.heartbeat_interval_us > 0 && !IsSyncMethod()) {
    const SimDuration interval = config_.heartbeat_interval_us;
    for (SiteId s = 0; s < config_.num_sites; ++s) {
      // Stagger the first beats so sites don't synchronize.
      periodic_.push_back({interval * (s + 1) / config_.num_sites, interval,
                           [this, s] { sites_[s]->method->SendHeartbeat(); }});
    }
  }
  if (config_.quasi_refresh_interval_us > 0 && !IsSyncMethod()) {
    // The quasi-copy delay condition has its own timer: its cadence does
    // not depend on the heartbeats.
    every(config_.quasi_refresh_interval_us, [this] {
      for (auto& site : sites_) site->method->OnRefreshTimer();
    });
  }
  if (admission_ != nullptr) {
    every(AdmissionController::kSampleIntervalUs,
          [this] { SampleAdmissionSignals(); });
  }
  if (recovery_ != nullptr && config_.recovery.checkpoint_interval_us > 0) {
    every(config_.recovery.checkpoint_interval_us, [this] {
      for (SiteId s = 0; s < config_.num_sites; ++s) {
        // A down site cannot run its checkpointer.
        if (network_->SiteUp(s)) recovery_->TakeCheckpoint(s);
      }
    });
  }
  if (metrics_channel_ != nullptr && config_.metrics_publish_interval_us > 0) {
    publish_task_ = periodic_.size();
    every(config_.metrics_publish_interval_us,
          [this] { PublishMetricsSnapshot(); });
  }
  for (size_t i = 0; i < periodic_.size(); ++i) StartPeriodic(i);
}

ReplicatedSystem::~ReplicatedSystem() = default;

MethodContext ReplicatedSystem::MakeContext(SiteId s) {
  SiteRuntime& site = *sites_[s];
  MethodContext ctx;
  ctx.site = s;
  ctx.num_sites = config_.num_sites;
  ctx.simulator = &simulator_;
  ctx.mailbox = site.mailbox.get();
  ctx.queues = site.queues.get();
  ctx.clock = &site.clock;
  ctx.placement = placement_.get();
  if (!site.seq_clients.empty()) ctx.sequencer = site.seq_clients[0].get();
  for (size_t i = 1; i < site.seq_clients.size(); ++i) {
    ctx.shard_sequencers.push_back(site.seq_clients[i].get());
  }
  ctx.stability = site.stability.get();
  ctx.store = &site.store;
  ctx.mset_log = &site.mset_log;
  ctx.registry = &registry_;
  ctx.history = &history_;
  ctx.metrics = &metrics_;
  ctx.tracer = &tracer_;
  ctx.config = &config_;
  ctx.recovery = recovery_ != nullptr ? recovery_->site(s) : nullptr;
  ctx.for_each_active_query =
      [this, s](const std::function<void(QueryState&)>& fn) {
        for (auto& [_, q] : active_queries_) {
          if (q.site == s) fn(q);
        }
      };
  return ctx;
}

void ReplicatedSystem::InstallVersionGc(SiteId s) {
  if (!config_.version_gc || config_.method != Method::kRituMulti) return;
  // Stability-driven version GC: every VTNC advance prunes this site's
  // chains below the new watermark. The hook fires only on consistent
  // tracker state (see StabilityTracker::on_vtnc_advance), and the
  // watermark is clamped to the oldest live pinned query so its
  // ReadAtOrBefore(pin) reads stay servable (DESIGN.md §15).
  sites_[s]->stability->on_vtnc_advance = [this, s](LamportTimestamp vtnc) {
    SiteRuntime& site = *sites_[s];
    LamportTimestamp floor = vtnc;
    for (const auto& [_, q] : active_queries_) {
      if (q.site == s && q.vtnc_pin.has_value()) {
        floor = std::min(floor, *q.vtnc_pin);
      }
    }
    const int64_t pruned = site.store.GcBelow(floor);
    if (pruned > 0) events_.Increment("esr.versions_gc_pruned", pruned);
  };
}

void ReplicatedSystem::BindRecoverySite(SiteId s) {
  // The bindings capture [this, s] and dereference the *current* site
  // objects at call time, so one BindSite at construction covers every
  // later method/stability instance an amnesia restart creates.
  recovery::SiteBindings b;
  b.snapshot = [this, s](recovery::CheckpointData& out) {
    SiteRuntime& site = *sites_[s];
    // Durable sequencer floor: a checkpoint at an active order server
    // records next-to-grant + epoch, so an amnesia restart re-seeds at
    // least here instead of from the peer probe alone, which would grant
    // twice the positions no peer has seen yet.
    for (size_t i = 0; i < site.seq_servers.size(); ++i) {
      const msg::SequencerServer* server = site.seq_servers[i].get();
      if (s != order_services_[i].home || server == nullptr ||
          server->sealed()) {
        continue;
      }
      out.seq_floors.emplace_back(order_services_[i].shard,
                                  server->NextToGrant(), server->epoch());
    }
    out.clock_counter = site.clock.Now().counter;
    out.store_entries = site.store.SnapshotEntries();
    out.versions = site.store.SnapshotVersions();
    out.version_gc_floor = site.store.gc_floor();
    out.mset_log = site.mset_log.Snapshot();
    site.method->SnapshotDurable(out);
    out.stability = site.stability->ExportSnapshot();
  };
  b.restore = [this, s](const recovery::CheckpointData& data) {
    SiteRuntime& site = *sites_[s];
    // Staged for AmnesiaRestart (which runs RecoverSite -> this binding
    // synchronously): the re-seed floor of a restarted order server.
    for (const auto& [service, next, epoch] : data.seq_floors) {
      const size_t i = static_cast<size_t>(service - kGlobalOrder);
      if (service < kGlobalOrder || i >= order_services_.size()) continue;
      order_services_[i].restored_floor = next;
      order_services_[i].restored_epoch = epoch;
    }
    for (const auto& [object, value, ts] : data.store_entries) {
      site.store.RestoreEntry(object, value, ts);
    }
    for (const auto& [object, ts, value] : data.versions) {
      site.store.AppendVersion(object, ts, value);
    }
    // Re-seed the GC floor so the recovering site knows how far it had
    // pruned. WAL replay may transiently resurrect pruned versions (the
    // MSets re-apply); the next VTNC advance re-prunes them below the
    // floor, so the store never answers reads it couldn't before the
    // crash.
    site.store.SetGcFloor(data.version_gc_floor);
    // The MSet log must be back before RestoreDurable: COMPE rebuilds its
    // tentative lock counters by scanning it.
    for (const store::MsetLog::RecordSnapshot& rec : data.mset_log) {
      site.mset_log.RestoreRecord(rec);
    }
    if (data.clock_counter > 0) {
      site.clock.Observe(LamportTimestamp{data.clock_counter, s});
    }
    site.stability->RestoreSnapshot(data.stability);
    site.method->RestoreDurable(data);
  };
  b.deliver = [this, s](const Mset& mset) {
    sites_[s]->method->DeliverMset(mset);
  };
  b.replay_reflected = [this, s](const Mset& mset) {
    sites_[s]->method->OnReplayReflected(mset);
  };
  b.decide = [this, s](EtId et, bool commit) {
    sites_[s]->method->ReplayDecision(et, commit);
  };
  b.ack = [this, s](EtId et, SiteId replica) {
    // Route through the normal ack path: duplicate-tolerant, and it
    // re-broadcasts the stability notice when the replayed ack was the one
    // the crash swallowed.
    sites_[s]->method->OnApplyAckMsg(replica,
                                     std::any(ApplyAck{et, replica}));
  };
  b.stable = [this, s](EtId et, const LamportTimestamp& ts) {
    sites_[s]->method->OnStableMsg(ts.site,
                                   std::any(StableNotice{et, ts}));
  };
  b.is_stable = [this, s](EtId et) {
    return sites_[s]->stability->IsStable(et);
  };
  b.unstable = [this, s]() {
    return sites_[s]->stability->ExportSnapshot().outstanding;
  };
  b.shard_watermarks = [this, s]() {
    // The post-replay stream cursors (owned shards) / infinity markers
    // (non-owned) — what a catch-up request reports so peers serve exactly
    // the sharded MSets past them.
    recovery::CheckpointData durable;
    sites_[s]->method->SnapshotDurable(durable);
    return durable.cut.shard_watermarks;
  };
  recovery_->BindSite(s, std::move(b));

  SiteRuntime& site = *sites_[s];
  site.mailbox->RegisterHandler(
      recovery::kCatchupRequestMsg,
      [this, s](SiteId /*source*/, const std::any& body) {
        const auto* req = std::any_cast<recovery::CatchupRequest>(&body);
        assert(req != nullptr);
        recovery::CatchupResponse resp =
            recovery_->BuildCatchupResponse(s, *req);
        const int64_t size_bytes =
            64 + 96 * static_cast<int64_t>(resp.msets.size());
        sites_[s]->queues->Send(
            req->from,
            msg::Envelope{recovery::kCatchupResponseMsg, std::move(resp)},
            size_bytes);
      });
  site.mailbox->RegisterHandler(
      recovery::kCatchupResponseMsg,
      [this, s](SiteId /*source*/, const std::any& body) {
        const auto* resp = std::any_cast<recovery::CatchupResponse>(&body);
        assert(resp != nullptr);
        tracer_.CatchupEnd(resp->exchange, s, resp->from, simulator_.Now());
        recovery_->ApplyCatchupResponse(s, *resp);
      });
}

void ReplicatedSystem::AmnesiaCrash(SiteId s) {
  // The unflushed WAL tail dies with the site.
  recovery_->OnCrash(s);
  // Pending sequencer callbacks capture protocol state that just died;
  // their granted positions will be released as no-ops on arrival.
  for (auto& client : sites_[s]->seq_clients) client->AbandonPending();
  // Query ETs running at the site die with it. A dead origin can never
  // send QueryFinish, so any owner-side shadow state its forwarded reads
  // created (strict applier pauses in particular) is released directly —
  // the facade-level equivalent of an owner's lease on the origin expiring.
  for (auto it = active_queries_.begin(); it != active_queries_.end();) {
    if (it->second.site == s) {
      events_.Increment("esr.queries_lost_in_crash");
      ReleaseQueryShadows(it->first);
      it = active_queries_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_remote_reads_.begin();
       it != pending_remote_reads_.end();) {
    // The read callback captures state of the dead site; the eventual
    // response (if any) finds no pending entry and is dropped.
    if (it->second.origin == s) {
      it = pending_remote_reads_.erase(it);
    } else {
      ++it;
    }
  }
  // Shadows hosted AT the crashed owner died with its method instance
  // (their applier pauses included) — drop them without calling into the
  // doomed method. A later forwarded read rebuilds a fresh shadow.
  for (auto it = shadow_queries_.begin(); it != shadow_queries_.end();) {
    if (it->first.first == s) {
      it = shadow_queries_.erase(it);
    } else {
      ++it;
    }
  }
  // The method instance itself is torn down at restart (simulator events
  // in flight may still reference it); while the site is down the network
  // delivers nothing to it.
}

void ReplicatedSystem::AmnesiaRestart(SiteId s) {
  SiteRuntime& site = *sites_[s];
  // All volatile state is gone: fresh stores, logs, clock, stability
  // tracker, and a fresh method instance (its mailbox registrations
  // replace the dead one's). Transport queues and the sequencer *client*
  // survive — they model stable storage: requests already handed to the
  // queues outlive the crash, and the client's abandoned-id set is the
  // bookkeeping that routes their eventual grants to the orphan release.
  site.method.reset();
  site.store.Clear();  // MvStore is not assignable (per-partition locks)
  site.mset_log = store::MsetLog();
  site.clock = msg::LamportClock(s);
  site.stability = std::make_unique<StabilityTracker>(s, config_.num_sites);
  InstallVersionGc(s);
  site.method = MakeMethod(MakeContext(s));
  // Checkpoint load + WAL replay, then anti-entropy catch-up for whatever
  // the WAL never saw (the dropped unflushed tail, and anything delivered
  // while the site was down). Only currently-up peers count as expected
  // responders — a down (possibly never-restarting) peer would park
  // foreground deliveries forever. The request still goes to every peer:
  // the reliable queues hold it, and a late response applies idempotently.
  for (OrderService& service : order_services_) {
    service.restored_floor = 0;
    service.restored_epoch = 0;
  }
  recovery_->RecoverSite(s);
  recovery::CatchupRequest request = recovery_->BuildCatchupRequest(s);
  const std::vector<SiteId> up_peers = UpPeers(s);
  // Partial replication: catch-up runs against the co-owners (the only
  // peers whose shard streams overlap this site's) plus the owner sites of
  // any un-stable ET this site originated on shards it does not own — the
  // only peers able to answer ack/stability questions about those ETs.
  // Unsharded: every peer, as before.
  std::vector<SiteId> catchup_targets;
  if (placement_ != nullptr) {
    catchup_targets = placement_->CoOwners(s);
    for (SiteId d : site.stability->OutgoingTargets()) {
      catchup_targets.push_back(d);
    }
    std::sort(catchup_targets.begin(), catchup_targets.end());
    catchup_targets.erase(
        std::unique(catchup_targets.begin(), catchup_targets.end()),
        catchup_targets.end());
    catchup_targets.erase(
        std::remove(catchup_targets.begin(), catchup_targets.end(), s),
        catchup_targets.end());
  } else {
    for (SiteId d = 0; d < config_.num_sites; ++d) {
      if (d != s) catchup_targets.push_back(d);
    }
  }
  std::vector<SiteId> expected_responders;
  for (SiteId d : catchup_targets) {
    if (network_->SiteUp(d)) expected_responders.push_back(d);
  }
  recovery_->BeginCatchup(s, expected_responders);
  // A hosted order server is volatile too: its grant cursor died with the
  // site. Never resume it where it stood (that is the duplicate-grant
  // bug) — rebuild sealed and re-seed from the durable checkpoint floor
  // (staged by the restore binding during RecoverSite above) plus a peer
  // high-watermark probe, unsealing in a fresh epoch. The probe still runs
  // and takes the max: the checkpoint covers grants no peer ever saw, the
  // probe covers grants issued after the checkpoint.
  for (size_t i = 0; i < site.seq_servers.size(); ++i) {
    if (site.seq_servers[i] == nullptr) continue;
    // Until a successor attaches, the service's messages land in no-ops.
    site.seq_ports[i]->AttachServer(nullptr);
    site.seq_servers[i].reset();
    const OrderService& service = order_services_[i];
    // A deposed primary (a failover moved the service away while the site
    // was down) stays without a server: its epoch is sealed forever.
    if (s != service.home && s != service.standby) continue;
    // A standby resumes standby duty with a fresh sealed server; a later
    // takeover recovers epoch and floor.
    site.seq_servers[i] = std::make_unique<msg::SequencerServer>(
        site.seq_ports[i].get(), &simulator_, /*start_sealed=*/true,
        std::max<int64_t>(service.restored_epoch, 1));
    site.seq_ports[i]->AttachServer(site.seq_servers[i].get());
    ConfigureSeqServer(s, i);
    if (s == service.home) {
      site.seq_servers[i]->BeginTakeover(service.restored_floor, up_peers);
    }
  }
  const int64_t size_bytes = 64 + 16 * config_.num_sites;
  for (SiteId d : catchup_targets) {
    tracer_.CatchupBegin(request.exchange, s, d, simulator_.Now());
    site.queues->Send(d, msg::Envelope{recovery::kCatchupRequestMsg, request},
                      size_bytes);
  }
}

void ReplicatedSystem::ConfigureSeqServer(SiteId s, size_t i) {
  msg::SequencerServer* server = sites_[s]->seq_servers[i].get();
  assert(server != nullptr);
  const ShardId shard = order_services_[i].shard;
  // The label first: set_metrics publishes the initial epoch under it.
  server->set_metric_shard(shard);
  server->set_metrics(&metrics_);
  server->set_service_time_us(config_.seq_service_us);
  server->set_local_high_watermark([this, s, i, shard]() {
    const SiteRuntime& site = *sites_[s];
    return std::max(site.seq_clients[i]->MaxGrantSeen(),
                    MethodOrderSeen(site.method.get(), shard));
  });
}

void ReplicatedSystem::ScheduleSequencerFailover(size_t i, SiteId down_home) {
  simulator_.Schedule(config_.seq_failover_detect_us, [this, i, down_home]() {
    OrderService& service = order_services_[i];
    if (service.home != down_home) return;    // someone already took over
    if (network_->SiteUp(down_home)) return;  // home came back; no takeover
    const SiteId standby = service.standby;
    if (!network_->SiteUp(standby)) return;  // standby is down too
    msg::SequencerServer* server = sites_[standby]->seq_servers[i].get();
    if (server == nullptr) return;
    service.home = standby;
    // Probe floor 1: the standby holds no durable server checkpoint — the
    // peer probe plus its own local watermark recover the floor. FIFO
    // stable queues guarantee any grant the old epoch managed to send a
    // peer is processed there before this probe, so the answer covers it.
    server->BeginTakeover(/*durable_floor=*/1, UpPeers(standby));
  });
}

std::vector<SiteId> ReplicatedSystem::UpPeers(SiteId exclude) const {
  std::vector<SiteId> peers;
  for (SiteId d = 0; d < config_.num_sites; ++d) {
    if (d != exclude && network_->SiteUp(d)) peers.push_back(d);
  }
  return peers;
}

void ReplicatedSystem::Loop(SimDuration first,
                            std::function<std::optional<SimDuration>()> step) {
  // The scheduled event copies own the chain; the closure holds only a weak
  // self-reference, so the chain is freed as soon as it stops rescheduling.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, step = std::move(step),
           weak = std::weak_ptr<std::function<void()>>(tick)]() {
    const std::optional<SimDuration> next = step();
    if (!next) return;
    if (auto self = weak.lock()) {
      simulator_.Schedule(*next, [self] { (*self)(); });
    }
  };
  simulator_.Schedule(first, [tick] { (*tick)(); });
}

void ReplicatedSystem::StartPeriodic(size_t i) {
  periodic_[i].on = true;
  Loop(periodic_[i].first, [this, i]() -> std::optional<SimDuration> {
    const PeriodicTask& task = periodic_[i];
    if (!task.on) return std::nullopt;
    task.run();
    return task.interval;
  });
}

void ReplicatedSystem::PublishMetricsSnapshot() {
  if (metrics_channel_ == nullptr) return;
  metrics_channel_->Publish(MetricsSnapshot(), simulator_.Now(), TracesJson());
}

void ReplicatedSystem::ShutdownMetricsEndpoint() {
  if (metrics_channel_ == nullptr) return;
  // Order matters: silence the publish timer first (a later tick would
  // publish into a channel whose exporter is gone — harmless, but the
  // sequence a scraper saw last would no longer be the final one), then
  // make the drained state visible, then stop the serving thread. A scrape
  // racing the Stop() either completes against the final snapshot or sees
  // the connection close — never torn state.
  if (publish_task_) periodic_[*publish_task_].on = false;
  PublishMetricsSnapshot();
  if (metrics_exporter_ != nullptr) metrics_exporter_->Stop();
}

std::string ReplicatedSystem::TracesJson() const {
  if (!tracer_.hops_enabled()) return "[]";
  analysis::ProtocolTypes types;
  types.mset = kMsetMsg;
  types.apply_ack = kApplyAckMsg;
  types.stable = kStableMsg;
  return analysis::WaterfallsJson(tracer_.completed(),
                                  config_.trace_max_ets, types);
}

void ReplicatedSystem::SampleAdmissionSignals() {
  // System-wide divergence scan once per tick (not per site).
  const DivergenceScan scan = ScanDivergence(/*export_per_object_gauges=*/false);
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    // Cumulative view: completed-query totals plus the live queries'
    // pressure counters (blocked_attempts/restarts are monotone per query
    // and move into the totals at EndQuery, so the sum never regresses).
    AdmissionTotals cum = admission_totals_[s];
    for (const auto& [_, q] : active_queries_) {
      if (q.site != s) continue;
      cum.blocked += q.blocked_attempts;
      cum.restarts += q.restarts;
    }
    AdmissionController::Signals sig;
    sig.completed = cum.completed - admission_prev_[s].completed;
    sig.utilization_sum =
        cum.utilization_sum - admission_prev_[s].utilization_sum;
    sig.value_completed =
        cum.value_completed - admission_prev_[s].value_completed;
    sig.value_utilization_sum =
        cum.value_utilization_sum - admission_prev_[s].value_utilization_sum;
    sig.blocked = cum.blocked - admission_prev_[s].blocked;
    sig.restarts = cum.restarts - admission_prev_[s].restarts;
    sig.queue_depth = tracer_.QueueDepth(s);
    sig.max_divergence = scan.max_spread;
    admission_->Observe(s, sig);
    admission_prev_[s] = cum;
  }
}

Result<EtId> ReplicatedSystem::SubmitUpdate(SiteId origin,
                                            std::vector<store::Operation> ops,
                                            CommitFn done) {
  if (origin < 0 || origin >= config_.num_sites) {
    return Status::InvalidArgument("no such site");
  }
  if (recovery_ != nullptr && !network_->SiteUp(origin)) {
    // With the amnesia fault model a down site has lost its method state;
    // admitting an update there would write into the doomed instance.
    return Status::Unavailable("origin site is down");
  }
  if (recovery_ != nullptr && recovery_->site(origin)->catching_up()) {
    // A recovering origin originates nothing until its catch-up completes:
    // its own commit would raise its applied watermark past its own MSets
    // lost with the unflushed WAL tail, and the peers' copies of those
    // would then be dropped as duplicates.
    return Status::Unavailable("origin site is catching up");
  }
  const EtId et = next_et_++;
  if (IsSyncMethod()) {
    if (config_.record_history) {
      analysis::UpdateRecord record;
      record.et = et;
      record.origin = origin;
      record.commit_time = simulator_.Now();
      record.ops = ops;
      history_.RecordUpdateCommit(std::move(record));
    }
    auto wrapped = [this, et, done = std::move(done)](Status s) {
      if (!s.ok() && config_.record_history) {
        history_.RecordUpdateAborted(et);
      }
      if (done) done(s);
    };
    if (config_.method == Method::kSync2pc) {
      sites_[origin]->tpc->ExecuteUpdate(std::move(ops), std::move(wrapped));
    } else {
      sites_[origin]->quorum->UpdateQuorum(std::move(ops),
                                           std::move(wrapped));
    }
    return et;
  }
  Status admitted = sites_[origin]->method->AdmitUpdate(ops);
  if (!admitted.ok()) {
    --next_et_;
    return admitted;
  }
  tracer_.OnSubmit(et, origin, simulator_.Now(),
                   tracer_.hops_enabled() ? ObjectClassLabel(ops) : "");
  metrics_.GetCounter("esr_updates_submitted_total").Increment();
  sites_[origin]->method->SubmitUpdate(et, std::move(ops), std::move(done));
  return et;
}

Status ReplicatedSystem::Decide(EtId et, bool commit) {
  if (IsSyncMethod()) {
    return Status::FailedPrecondition("decisions apply to COMPE only");
  }
  const analysis::UpdateRecord* u = history_.FindUpdate(et);
  // Without history we fall back to asking every site; with it we know the
  // origin directly.
  if (u != nullptr) {
    return sites_[u->origin]->method->SubmitDecision(et, commit);
  }
  for (auto& site : sites_) {
    Status s = site->method->SubmitDecision(et, commit);
    if (s.ok()) return s;
  }
  return Status::NotFound("no origin knows tentative ET " +
                          std::to_string(et));
}

Result<EtId> ReplicatedSystem::BeginSaga(SiteId origin) {
  if (config_.method != Method::kCompe &&
      config_.method != Method::kCompeOrdered) {
    return Status::FailedPrecondition("sagas run under COMPE only");
  }
  if (origin < 0 || origin >= config_.num_sites) {
    return Status::InvalidArgument("no such site");
  }
  const EtId saga = next_et_++;
  sagas_.emplace(saga, Saga{origin, {}});
  events_.Increment("esr.sagas_begun");
  return saga;
}

Result<EtId> ReplicatedSystem::SubmitSagaStep(EtId saga,
                                              std::vector<store::Operation> ops,
                                              CommitFn done) {
  auto it = sagas_.find(saga);
  if (it == sagas_.end()) {
    return Status::NotFound("unknown or finished saga");
  }
  Result<EtId> step = SubmitUpdate(it->second.origin, std::move(ops),
                                   std::move(done));
  if (step.ok()) it->second.steps.push_back(*step);
  return step;
}

Status ReplicatedSystem::EndSaga(EtId saga, bool commit) {
  auto it = sagas_.find(saga);
  if (it == sagas_.end()) {
    return Status::NotFound("unknown or finished saga");
  }
  Saga record = std::move(it->second);
  sagas_.erase(it);
  if (commit) {
    for (EtId step : record.steps) {
      ESR_RETURN_IF_ERROR(Decide(step, true));
    }
    events_.Increment("esr.sagas_committed");
  } else {
    // Compensate completed steps in reverse submission order.
    for (auto sit = record.steps.rbegin(); sit != record.steps.rend();
         ++sit) {
      ESR_RETURN_IF_ERROR(Decide(*sit, false));
    }
    events_.Increment("esr.sagas_aborted");
  }
  return Status::Ok();
}

EtId ReplicatedSystem::BeginQuery(SiteId site, int64_t epsilon,
                                  int64_t value_epsilon) {
  QueryBounds bounds;
  bounds.max_epsilon = epsilon;
  bounds.max_value_epsilon = value_epsilon;
  bounds.min_epsilon = std::min(config_.admission.default_min_epsilon, epsilon);
  bounds.min_value_epsilon =
      std::min(config_.admission.default_min_epsilon, value_epsilon);
  return BeginQuery(site, bounds);
}

EtId ReplicatedSystem::BeginQuery(SiteId site, const QueryBounds& bounds) {
  assert(site >= 0 && site < config_.num_sites);
  assert(bounds.min_epsilon >= 0 && bounds.max_epsilon >= 0);
  assert(bounds.min_value_epsilon >= 0 && bounds.max_value_epsilon >= 0);
  const EtId et = next_et_++;
  QueryState q;
  q.id = et;
  q.site = site;
  q.declared_epsilon = bounds.max_epsilon;
  q.declared_value_epsilon = bounds.max_value_epsilon;
  if (admission_ != nullptr) {
    q.epsilon = admission_->Effective(site, bounds.min_epsilon,
                                      bounds.max_epsilon);
    q.value_epsilon = admission_->EffectiveValue(site, bounds.min_value_epsilon,
                                                 bounds.max_value_epsilon);
  } else {
    q.epsilon = bounds.max_epsilon;
    q.value_epsilon = bounds.max_value_epsilon;
  }
  auto [it, inserted] = active_queries_.emplace(et, std::move(q));
  assert(inserted);
  if (!IsSyncMethod()) sites_[site]->method->OnQueryBegin(it->second);
  events_.Increment("esr.queries_begun");
  return et;
}

Result<Value> ReplicatedSystem::TryRead(EtId query, ObjectId object) {
  auto it = active_queries_.find(query);
  if (it == active_queries_.end()) {
    return Status::NotFound("unknown or finished query ET");
  }
  if (IsSyncMethod()) {
    return Status::InvalidArgument(
        "synchronous baselines serve reads via Read() only");
  }
  if (placement_ != nullptr &&
      !placement_->OwnsObject(it->second.site, object)) {
    // The single-attempt API is strictly local; reads of non-owned objects
    // go through Read(), which forwards them to an owner site.
    return Status::Unavailable(
        "object " + std::to_string(object) +
        " is not owned at the query's site; use Read()");
  }
  return sites_[it->second.site]->method->TryQueryRead(it->second, object);
}

void ReplicatedSystem::Read(EtId query, ObjectId object, ReadCallback done) {
  auto it = active_queries_.find(query);
  if (it == active_queries_.end()) {
    done(Result<Value>(Status::NotFound("unknown or finished query ET")));
    return;
  }
  QueryState& q = it->second;
  if (IsSyncMethod()) {
    auto record = [this, query, object, site = q.site,
                   done = std::move(done)](Result<Value> v) {
      if (v.ok() && config_.record_history) {
        analysis::ReadRecord r;
        r.query = query;
        r.site = site;
        r.object = object;
        r.value = *v;
        r.time = simulator_.Now();
        history_.RecordRead(std::move(r));
      }
      auto qit = active_queries_.find(query);
      if (qit != active_queries_.end()) ++qit->second.reads;
      done(std::move(v));
    };
    if (config_.method == Method::kSync2pc) {
      sites_[q.site]->tpc->ExecuteRead(object, std::move(record));
    } else {
      sites_[q.site]->quorum->ReadQuorum(object, std::move(record));
    }
    return;
  }
  if (placement_ != nullptr && !placement_->OwnsObject(q.site, object)) {
    ForwardRead(query, object, std::move(done));
    return;
  }
  Result<Value> r = sites_[q.site]->method->TryQueryRead(q, object);
  if (r.ok()) {
    done(std::move(r));
    return;
  }
  if (r.status().IsInconsistencyLimit()) {
    // Strict restart: release anything held, reset accounting, try again —
    // the strict path cannot hit the limit.
    RestartQuery(q);
    Result<Value> retry = sites_[q.site]->method->TryQueryRead(q, object);
    if (retry.ok()) {
      done(std::move(retry));
      return;
    }
    if (!retry.status().IsUnavailable()) {
      done(std::move(retry));  // internal error; surface it
      return;
    }
  }
  // kUnavailable: poll until the condition clears.
  ScheduleReadRetry(query, object, std::move(done));
}

void ReplicatedSystem::ScheduleReadRetry(EtId query, ObjectId object,
                                         ReadCallback done) {
  Loop(kReadRetryIntervalUs,
       [this, query, object,
        done = std::move(done)]() -> std::optional<SimDuration> {
         auto it = active_queries_.find(query);
         if (it == active_queries_.end()) {
           done(Result<Value>(Status::Aborted("query ended while blocked")));
           return std::nullopt;
         }
         Result<Value> r =
             sites_[it->second.site]->method->TryQueryRead(it->second, object);
         if (r.ok()) {
           done(std::move(r));
           return std::nullopt;
         }
         if (r.status().IsInconsistencyLimit()) {
           RestartQuery(it->second);
           return 0;
         }
         return kReadRetryIntervalUs;
       });
}

void ReplicatedSystem::ForwardRead(EtId query, ObjectId object,
                                   ReadCallback done) {
  auto it = active_queries_.find(query);
  assert(it != active_queries_.end());
  QueryState& q = it->second;
  const ShardId shard = placement_->ShardOf(object);
  // Deterministic owner choice: the shard's first owner (also its order
  // server home, so the forwarded read lands where the stream is freshest).
  const SiteId owner = placement_->Owners(shard).front();
  QueryReadRequest req;
  req.query = query;
  req.request_id = next_read_request_id_++;
  req.object = object;
  // The origin's *remaining* budget at send time: however many owners the
  // query fans out to, no single charge can push the total past epsilon.
  req.epsilon_budget = q.epsilon == kUnboundedEpsilon
                           ? kUnboundedEpsilon
                           : q.epsilon - q.inconsistency;
  req.attempt = q.restarts;
  req.strict = q.strict;
  pending_remote_reads_.emplace(req.request_id,
                                RemoteRead{query, q.site, std::move(done)});
  std::vector<SiteId>& owners = forwarded_owners_[query];
  if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
    owners.push_back(owner);
  }
  events_.Increment("esr.reads_forwarded");
  sites_[q.site]->queues->Send(
      owner, msg::Envelope{kQueryReadRequestMsg, req}, /*size_bytes=*/64);
}

void ReplicatedSystem::BindQueryForwarding(SiteId s) {
  SiteRuntime& site = *sites_[s];
  site.mailbox->RegisterHandler(
      kQueryReadRequestMsg, [this, s](SiteId source, const std::any& body) {
        const auto* req = std::any_cast<QueryReadRequest>(&body);
        assert(req != nullptr);
        auto [it, fresh] =
            shadow_queries_.try_emplace(std::make_pair(s, req->query));
        QueryState& shadow = it->second;
        if (fresh) {
          shadow.id = req->query;
          shadow.site = s;
          shadow.restarts = req->attempt;
        } else if (req->attempt > shadow.restarts) {
          // The origin strict-restarted since this shadow's last read:
          // restart the shadow too (release its pause, reset accounting).
          sites_[s]->method->OnQueryRestart(shadow);
          shadow.ResetForRestart();
          shadow.restarts = req->attempt;
        }
        if (req->strict) shadow.strict = true;
        // Re-anchor the shadow's limit so its remaining budget equals the
        // origin's remaining budget at send time.
        shadow.epsilon = req->epsilon_budget == kUnboundedEpsilon
                             ? kUnboundedEpsilon
                             : shadow.inconsistency + req->epsilon_budget;
        const int64_t before = shadow.inconsistency;
        Result<Value> r = sites_[s]->method->TryQueryRead(shadow, req->object);
        QueryReadResponse resp;
        resp.query = req->query;
        resp.request_id = req->request_id;
        resp.object = req->object;
        if (r.ok()) {
          resp.status_code = static_cast<int32_t>(StatusCode::kOk);
          resp.value = *r;
          resp.inconsistency_charged = shadow.inconsistency - before;
        } else {
          resp.status_code = static_cast<int32_t>(r.status().code());
        }
        events_.Increment("esr.forwarded_reads_served");
        sites_[s]->queues->Send(
            source, msg::Envelope{kQueryReadResponseMsg, resp},
            /*size_bytes=*/64);
      });
  site.mailbox->RegisterHandler(
      kQueryReadResponseMsg, [this](SiteId /*source*/, const std::any& body) {
        const auto* resp = std::any_cast<QueryReadResponse>(&body);
        assert(resp != nullptr);
        auto pit = pending_remote_reads_.find(resp->request_id);
        if (pit == pending_remote_reads_.end()) return;  // origin died
        RemoteRead pending = std::move(pit->second);
        pending_remote_reads_.erase(pit);
        auto qit = active_queries_.find(resp->query);
        if (qit == active_queries_.end()) {
          pending.done(Result<Value>(
              Status::Aborted("query ended while a read was forwarded")));
          return;
        }
        QueryState& q = qit->second;
        const auto code = static_cast<StatusCode>(resp->status_code);
        if (code == StatusCode::kOk) {
          q.inconsistency += resp->inconsistency_charged;
          ++q.reads;
          if (config_.record_history) {
            analysis::ReadRecord r;
            r.query = q.id;
            r.site = q.site;
            r.object = resp->object;
            r.value = resp->value;
            r.time = simulator_.Now();
            r.inconsistency_increment = resp->inconsistency_charged;
            history_.RecordRead(std::move(r));
          }
          pending.done(Result<Value>(resp->value));
          return;
        }
        if (code == StatusCode::kInconsistencyLimit) {
          // Strict restart + re-forward: the bumped attempt number tells
          // the owner to restart its shadow, and the strict re-read cannot
          // hit the limit again.
          RestartQuery(q);
          ForwardRead(resp->query, resp->object, std::move(pending.done));
          return;
        }
        pending.done(Result<Value>(Status(code, "forwarded read failed")));
      });
  site.mailbox->RegisterHandler(
      kQueryFinishMsg, [this, s](SiteId /*source*/, const std::any& body) {
        const auto* fin = std::any_cast<QueryFinish>(&body);
        assert(fin != nullptr);
        auto it = shadow_queries_.find(std::make_pair(s, fin->query));
        if (it == shadow_queries_.end()) return;
        sites_[s]->method->OnQueryEnd(it->second);
        shadow_queries_.erase(it);
      });
}

void ReplicatedSystem::ReleaseQueryShadows(EtId query) {
  for (auto it = shadow_queries_.begin(); it != shadow_queries_.end();) {
    if (it->first.second == query) {
      sites_[it->first.first]->method->OnQueryEnd(it->second);
      it = shadow_queries_.erase(it);
    } else {
      ++it;
    }
  }
  forwarded_owners_.erase(query);
}

void ReplicatedSystem::RestartQuery(QueryState& q) {
  // Not OnQueryEnd: the query stays alive, so only per-attempt resources
  // are released (the ORDUP applier pause in particular — see the
  // ResetForRestart precondition). A sequenced-ORDUP query's order
  // position survives the restart; ending it here would release the
  // position permanently and hang the retry.
  sites_[q.site]->method->OnQueryRestart(q);
  q.ResetForRestart();
  events_.Increment("esr.query_restarts");
}

Status ReplicatedSystem::EndQuery(EtId query) {
  auto it = active_queries_.find(query);
  if (it == active_queries_.end()) {
    return Status::NotFound("unknown or finished query ET");
  }
  QueryState& q = it->second;
  if (!IsSyncMethod()) sites_[q.site]->method->OnQueryEnd(q);
  auto fit = forwarded_owners_.find(query);
  if (fit != forwarded_owners_.end()) {
    // Release the owner-side shadows (and any strict pause they hold).
    for (SiteId owner : fit->second) {
      sites_[q.site]->queues->Send(
          owner, msg::Envelope{kQueryFinishMsg, QueryFinish{query}},
          /*size_bytes=*/32);
    }
    forwarded_owners_.erase(fit);
  }
  if (config_.record_history) {
    analysis::QueryRecord record;
    record.query = q.id;
    record.site = q.site;
    record.epsilon = q.epsilon;
    record.final_inconsistency = q.inconsistency;
    record.completed = true;
    history_.RecordQueryEnd(record);
  }
  const obs::LabelSet method_label = {
      {"method", std::string(MethodToString(config_.method))}};
  metrics_.GetCounter("esr_queries_completed_total", method_label)
      .Increment();
  metrics_.GetCounter("esr_query_reads_total", method_label)
      .Increment(q.reads);
  metrics_.GetCounter("esr_query_blocked_total", method_label)
      .Increment(q.blocked_attempts);
  metrics_.GetCounter("esr_query_restarts_total", method_label)
      .Increment(q.restarts);
  metrics_
      .GetHistogram("esr_query_inconsistency", method_label,
                    {0, 1, 2, 5, 10, 20, 50, 100, 1000})
      .Observe(static_cast<double>(q.inconsistency));
  if (q.epsilon != kUnboundedEpsilon && q.epsilon > 0) {
    // How much of its divergence budget the query actually consumed — the
    // paper's inconsistency-vs-epsilon accumulation, as a ratio in [0, 1].
    // With adaptive admission this is utilization of the *effective*
    // budget, which is exactly what the controller feeds back on.
    const double utilization = static_cast<double>(q.inconsistency) /
                               static_cast<double>(q.epsilon);
    metrics_
        .GetHistogram("esr_query_epsilon_utilization", method_label,
                      {0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0})
        .Observe(utilization);
    if (admission_ != nullptr) {
      admission_totals_[q.site].completed += 1;
      admission_totals_[q.site].utilization_sum += utilization;
    }
  }
  if (q.value_epsilon != kUnboundedEpsilon && q.value_epsilon > 0 &&
      admission_ != nullptr) {
    admission_totals_[q.site].value_completed += 1;
    admission_totals_[q.site].value_utilization_sum +=
        static_cast<double>(q.value_inconsistency) /
        static_cast<double>(q.value_epsilon);
  }
  if (admission_ != nullptr) {
    // Move the query's pressure counters from the live view into the
    // completed totals (the sampler folds live queries in itself).
    admission_totals_[q.site].blocked += q.blocked_attempts;
    admission_totals_[q.site].restarts += q.restarts;
  }
  active_queries_.erase(it);
  return Status::Ok();
}

const QueryState* ReplicatedSystem::query_state(EtId query) const {
  auto it = active_queries_.find(query);
  return it == active_queries_.end() ? nullptr : &it->second;
}

void ReplicatedSystem::RunUntilQuiescent() {
  // The periodic timers self-perpetuate; silence them so the queue can
  // drain, and restart the ones that were running afterwards.
  std::vector<bool> was_on;
  for (PeriodicTask& task : periodic_) {
    was_on.push_back(task.on);
    task.on = false;
  }
  simulator_.Run();
  if (!IsSyncMethod()) {
    // Flush a few explicit heartbeat rounds so every site's clock
    // watermarks (and thus the VTNC / ORDUP-TS release floor) reflect the
    // quiescent state — the periodic beats would have achieved this
    // eventually. Three rounds: watermark advance -> releases -> acks ->
    // stability -> final watermark advance.
    for (int round = 0; round < 3; ++round) {
      for (auto& site : sites_) {
        site->method->OnQuiesceFlush();
        site->method->SendHeartbeat();
      }
      simulator_.Run();
    }
  }
  for (size_t i = 0; i < periodic_.size(); ++i) {
    if (was_on[i]) StartPeriodic(i);
  }
  // A scraper watching the session should see the drained state, not the
  // last pre-drain cadence tick.
  PublishMetricsSnapshot();
}

void ReplicatedSystem::RunFor(SimDuration duration) {
  simulator_.RunUntil(simulator_.Now() + duration);
}

void ReplicatedSystem::SampleGauges() {
  metrics_.Describe("esr_transport_unacked",
                    "Reliable-transport entries awaiting ack, by origin and "
                    "destination site");
  metrics_.Describe("esr_outstanding_nonstable",
                    "Update ETs known at a site but not yet globally stable");
  metrics_.Describe("esr_mset_log_records",
                    "MSet-log records retained at a site (rollback window)");
  metrics_.Describe("esr_network_in_flight",
                    "Datagrams scheduled for delivery but not yet delivered");
  metrics_.Describe("esr_divergent_objects",
                    "Objects whose value differs across replicas right now");
  metrics_.Describe("esr_replica_divergence_max",
                    "Largest cross-replica |max - min| over integer objects");
  metrics_.Describe("esr_converged",
                    "1 when every replica holds identical state");
  metrics_.Describe("esr_replica_divergence_by_class",
                    "Largest cross-replica spread per object class");
  metrics_.Describe("esr_divergent_objects_by_class",
                    "Objects diverging across replicas, per object class");
  metrics_.Describe("esr_replica_divergence_by_shard",
                    "Largest cross-owner spread per placement shard");
  metrics_.Describe("esr_divergent_objects_by_shard",
                    "Objects diverging across owner replicas, per placement "
                    "shard");
  metrics_.Describe("esr_seq_pending",
                    "Order requests queued or in flight at a site");
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    const SiteRuntime& site = *sites_[s];
    const obs::LabelSet site_label = {{"site", std::to_string(s)}};
    if (!site.seq_clients.empty()) {
      int64_t seq_pending = 0;
      for (const auto& client : site.seq_clients) {
        seq_pending += client->PendingCount();
      }
      metrics_.GetGauge("esr_seq_pending", site_label)
          .Set(static_cast<double>(seq_pending));
    }
    int64_t unacked = 0;
    for (SiteId d = 0; d < config_.num_sites; ++d) {
      if (d == s) continue;
      unacked += site.queues->UnackedCount(d);
    }
    metrics_.GetGauge("esr_transport_unacked", site_label)
        .Set(static_cast<double>(unacked));
    if (site.stability != nullptr) {
      metrics_.GetGauge("esr_outstanding_nonstable", site_label)
          .Set(static_cast<double>(site.stability->OutstandingCount()));
    }
    metrics_.GetGauge("esr_mset_log_records", site_label)
        .Set(static_cast<double>(site.mset_log.size()));
    const store::MsetLog::CompensationStats& comp = site.mset_log.stats();
    metrics_.GetGauge("esr_compensation_fast_path", site_label)
        .Set(static_cast<double>(comp.fast_path));
    metrics_.GetGauge("esr_compensation_rollbacks", site_label)
        .Set(static_cast<double>(comp.general_rollbacks));
    metrics_.GetGauge("esr_compensation_records_rolled_back", site_label)
        .Set(static_cast<double>(comp.records_rolled_back));
  }
  metrics_.GetGauge("esr_network_in_flight")
      .Set(static_cast<double>(network_->InFlightCount()));

  const DivergenceScan scan = ScanDivergence(/*export_per_object_gauges=*/true);
  metrics_.GetGauge("esr_divergent_objects")
      .Set(static_cast<double>(scan.divergent_objects));
  metrics_.GetGauge("esr_replica_divergence_max")
      .Set(static_cast<double>(scan.max_spread));
  metrics_.GetGauge("esr_converged").Set(Converged() ? 1 : 0);
}

ReplicatedSystem::DivergenceScan ReplicatedSystem::ScanDivergence(
    bool export_per_object_gauges) {
  // Per-object replica divergence over integer objects. The per-object
  // gauge family is capped so it stays low-cardinality on wide keyspaces:
  // beyond the cap only the aggregates are maintained.
  constexpr size_t kMaxPerObjectSeries = 64;
  // Partial replication compares an object across the owner sites of its
  // shard only (non-owners hold nothing for it); the object universe is
  // the union over sites, since each site stores just its owned subset.
  std::vector<ObjectId> objects;
  if (placement_ != nullptr) {
    std::set<ObjectId> all;
    for (const auto& site : sites_) {
      for (ObjectId object : site->store.ObjectIds()) all.insert(object);
    }
    objects.assign(all.begin(), all.end());
  } else {
    objects = sites_[0]->store.ObjectIds();
  }
  std::vector<SiteId> everyone;
  for (SiteId s = 0; s < config_.num_sites; ++s) everyone.push_back(s);
  DivergenceScan scan;
  // Per-class aggregation mirrors the `object_class` label scheme of
  // esr_ops_applied_total; ordered map for a deterministic exposition.
  struct ClassAgg {
    int64_t max_spread = 0;
    int64_t divergent = 0;
  };
  std::map<std::string, ClassAgg> by_class;
  std::map<ShardId, ClassAgg> by_shard;
  for (const ObjectId object : objects) {
    ShardId shard = kInvalidShardId;
    const std::vector<SiteId>* readers = &everyone;
    if (placement_ != nullptr) {
      shard = placement_->ShardOf(object);
      readers = &placement_->Owners(shard);
    }
    bool all_int = true;
    bool differs = false;
    int64_t lo = 0, hi = 0;
    const Value first = SiteValue(readers->front(), object);
    if (first.is_int()) lo = hi = first.AsInt();
    for (SiteId s : *readers) {
      const Value v = SiteValue(s, object);
      if (!(v == first)) differs = true;
      if (v.is_int()) {
        lo = std::min(lo, v.AsInt());
        hi = std::max(hi, v.AsInt());
      } else {
        all_int = false;
      }
    }
    const int64_t spread = (all_int && first.is_int()) ? hi - lo : 0;
    if (differs) ++scan.divergent_objects;
    scan.max_spread = std::max(scan.max_spread, spread);
    if (export_per_object_gauges) {
      if (static_cast<size_t>(object) < kMaxPerObjectSeries) {
        metrics_
            .GetGauge("esr_replica_divergence",
                      {{"object", std::to_string(object)}})
            .Set(static_cast<double>(spread));
      }
      const std::optional<store::OpKind> kind = registry_.ClassOf(object);
      ClassAgg& agg =
          by_class[kind.has_value()
                       ? std::string(store::OpKindToString(*kind))
                       : std::string("unclassified")];
      agg.max_spread = std::max(agg.max_spread, spread);
      if (differs) ++agg.divergent;
      if (placement_ != nullptr) {
        ClassAgg& sagg = by_shard[shard];
        sagg.max_spread = std::max(sagg.max_spread, spread);
        if (differs) ++sagg.divergent;
      }
    }
  }
  for (const auto& [object_class, agg] : by_class) {
    const obs::LabelSet labels = {{"object_class", object_class}};
    metrics_.GetGauge("esr_replica_divergence_by_class", labels)
        .Set(static_cast<double>(agg.max_spread));
    metrics_.GetGauge("esr_divergent_objects_by_class", labels)
        .Set(static_cast<double>(agg.divergent));
  }
  for (const auto& [shard, agg] : by_shard) {
    const obs::LabelSet labels = {{"shard", std::to_string(shard)}};
    metrics_.GetGauge("esr_replica_divergence_by_shard", labels)
        .Set(static_cast<double>(agg.max_spread));
    metrics_.GetGauge("esr_divergent_objects_by_shard", labels)
        .Set(static_cast<double>(agg.divergent));
  }
  return scan;
}

std::string ReplicatedSystem::MetricsSnapshot() {
  SampleGauges();
  return metrics_.PrometheusText();
}

std::string ReplicatedSystem::ObjectClassLabel(
    const std::vector<store::Operation>& ops) const {
  for (const store::Operation& op : ops) {
    if (!op.IsUpdate()) continue;
    const std::optional<store::OpKind> kind = registry_.ClassOf(op.object);
    return kind.has_value() ? std::string(store::OpKindToString(*kind))
                            : std::string("unclassified");
  }
  return "unclassified";
}

bool ReplicatedSystem::Converged() const {
  if (config_.method == Method::kSyncQuorum) {
    // Quorum replication never promises full-replica convergence (only
    // quorum intersection); treat as trivially converged.
    return true;
  }
  if (config_.method == Method::kRituMulti && config_.version_gc) {
    // With version GC on, sites prune at independently-advancing VTNCs, so
    // full-chain digests differ transiently even when the replicas agree on
    // every object's latest value. Compare the GC-invariant latest-version
    // digest instead (GC never removes a chain's newest version).
    const uint64_t digest0 = sites_[0]->store.LatestDigest();
    for (const auto& site : sites_) {
      if (site->store.LatestDigest() != digest0) return false;
    }
    return true;
  }
  if (placement_ != nullptr) {
    // Owner-aware convergence: an object must agree across the owner sites
    // of its shard; non-owners do not replicate it at all, so whole-store
    // digests are expected to differ between sites.
    std::set<ObjectId> objects;
    for (const auto& site : sites_) {
      for (ObjectId object : site->store.ObjectIds()) objects.insert(object);
    }
    for (ObjectId object : objects) {
      const std::vector<SiteId>& owners =
          placement_->Owners(placement_->ShardOf(object));
      const Value first = sites_[owners.front()]->store.Read(object);
      for (size_t i = 1; i < owners.size(); ++i) {
        if (!(sites_[owners[i]]->store.Read(object) == first)) return false;
      }
    }
    return true;
  }
  const uint64_t digest0 = sites_[0]->store.StateDigest();
  for (const auto& site : sites_) {
    if (site->store.StateDigest() != digest0) return false;
  }
  return true;
}

Value ReplicatedSystem::SiteValue(SiteId site, ObjectId object) const {
  assert(site >= 0 && site < config_.num_sites);
  if (config_.method == Method::kSyncQuorum) {
    return sites_[site]->quorum->LocalValue(object);
  }
  if (config_.method == Method::kRituMulti) {
    auto v = sites_[site]->store.ReadLatest(object);
    return v.has_value() ? v->value : Value();
  }
  return sites_[site]->store.Read(object);
}

uint64_t ReplicatedSystem::SiteDigest(SiteId site) const {
  return sites_[site]->store.StateDigest();
}

store::MvStore& ReplicatedSystem::site_store(SiteId site) {
  return sites_[site]->store;
}
store::MsetLog& ReplicatedSystem::site_mset_log(SiteId site) {
  return sites_[site]->mset_log;
}
msg::StableQueueManager& ReplicatedSystem::site_queues(SiteId site) {
  return *sites_[site]->queues;
}
ReplicaControlMethod* ReplicatedSystem::site_method(SiteId site) {
  return sites_[site]->method.get();
}
cc::TwoPhaseCommitEngine* ReplicatedSystem::site_tpc(SiteId site) {
  return sites_[site]->tpc.get();
}
cc::QuorumEngine* ReplicatedSystem::site_quorum(SiteId site) {
  return sites_[site]->quorum.get();
}
msg::SequencerClient* ReplicatedSystem::site_seq_client(SiteId site) {
  const auto& clients = sites_[site]->seq_clients;
  return clients.empty() ? nullptr : clients[0].get();
}
msg::SequencerServer* ReplicatedSystem::site_seq_server(SiteId site) {
  const auto& servers = sites_[site]->seq_servers;
  return servers.empty() ? nullptr : servers[0].get();
}
msg::SequencerClient* ReplicatedSystem::site_shard_seq_client(SiteId site,
                                                              ShardId shard) {
  const auto& clients = sites_[site]->seq_clients;
  const size_t i = static_cast<size_t>(shard) + 1;
  return i < clients.size() ? clients[i].get() : nullptr;
}

}  // namespace esr::core
