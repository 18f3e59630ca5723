#ifndef ESR_MSG_SEQUENCER_H_
#define ESR_MSG_SEQUENCER_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/trace.h"
#include "common/types.h"
#include "runtime/interfaces.h"

namespace esr::obs {
class EtTracer;
class MetricRegistry;
}  // namespace esr::obs

namespace esr::msg {

/// Largest block one request may ask for. A server drops a request for
/// fewer than 1 or more than this many positions (its inputs arrive from
/// the network), and a client splits a larger re-send into several.
inline constexpr int32_t kMaxSeqBatchCount = 1 << 16;

/// Wire formats (shared between server and client).
struct SeqBatchRequest {
  int64_t request_id;
  /// Positions requested — one per coalesced Request().
  int32_t count;
  /// The client's epoch; a server drops requests from another epoch (the
  /// client re-sends after it processes the matching announce).
  int64_t epoch;
  /// Causal context of the first requesting ET in the batch; echoed onto
  /// the response envelope so both legs of the round trip are traceable.
  TraceContext trace;
  /// Strictly increasing across restarts of one client site (0 in
  /// deterministic simulations). Lets a server detect that a site came
  /// back with amnesia: grants taken by the previous incarnation and never
  /// observed filled are permanent order holes the server must heal.
  int64_t incarnation = 0;
};
struct SeqBatchGrant {
  int64_t request_id;
  /// First granted position; the block is [first, first + count).
  SequenceNumber first;
  int32_t count;
  /// Epoch the grant was issued in; clients discard superseded epochs.
  int64_t epoch;
};
/// Takeover probe: "what is the highest granted position you have seen?"
struct SeqProbeRequest {
  int64_t probe_id;
  SiteId from;
};
struct SeqProbeResponse {
  int64_t probe_id;
  /// The answering site. Informational only: the server credits an answer
  /// to the site the transport delivered it from.
  SiteId from;
  SequenceNumber max_seen;
  int64_t epoch;
};
/// Failover completion notice: grants resume from `first` in `epoch` at
/// site `home`. Clients re-target and re-send everything outstanding.
struct SeqEpochAnnounce {
  int64_t epoch;
  SiteId home;
  SequenceNumber first;
};

/// Cross-shard position request (partial replication). Besides granting one
/// position, the server takes its shard's *cross-lock* for the requester:
/// the lock stays held — blocking later cross requests, but not ordinary
/// single-shard batches — until the matching SeqCrossRelease arrives. An ET
/// spanning shards acquires its (shard, position) pairs strictly in
/// ascending shard order and releases every lock only after the last grant,
/// so two ETs sharing two or more shards are fully serialized by their
/// lowest common shard and their per-shard positions can never invert.
struct SeqCrossRequest {
  int64_t request_id;
  SiteId from;
  int64_t epoch;
  TraceContext trace;
};
struct SeqCrossGrant {
  int64_t request_id;
  SequenceNumber position;
  int64_t epoch;
};
struct SeqCrossRelease {
  /// The request id whose grant is being released (the lock token).
  int64_t request_id;
  SiteId from;
};

/// How the order service reaches other sites: one call per message the
/// server and client send. An implementation hands each message to site
/// `to`'s input of the same name (OnRequest, OnGrant, ...), with the site it
/// came from, and never from inside the call that sent it, even when `to`
/// is its own site: server and client do not guard against re-entry.
/// MailboxSequencerPort binds it to the simulator's mailboxes;
/// runtime::OrdupNode binds it to runtime::Transport, and hands its own
/// epoch announce to its client directly (safe: that client's sends are
/// posted, so nothing re-enters the announcing server).
class SequencerPort {
 public:
  virtual ~SequencerPort() = default;
  /// The site this port sends from.
  virtual SiteId self() const = 0;
  virtual void SendRequest(SiteId to, const SeqBatchRequest& request) = 0;
  virtual void SendProbeAnswer(SiteId to, const SeqProbeResponse& answer) = 0;
  /// `trace` is the causal context of the request the grant answers.
  virtual void SendGrant(SiteId to, const SeqBatchGrant& grant,
                         const TraceContext& trace) = 0;
  virtual void SendProbe(SiteId to, const SeqProbeRequest& probe) = 0;
  /// To every site, this one included.
  virtual void AnnounceEpoch(const SeqEpochAnnounce& announce) = 0;
  /// Cross-shard traffic; an unsharded service never sends it.
  virtual void SendCrossRequest(SiteId, const SeqCrossRequest&) {}
  virtual void SendCrossGrant(SiteId, const SeqCrossGrant&,
                              const TraceContext&) {}
  virtual void SendCrossRelease(SiteId, const SeqCrossRelease&) {}
};

/// Centralized global order server (paper section 3.1: "such ordering can be
/// generated easily by a centralized order server"), grown into a batched,
/// epoched, failover-capable ordering pipeline:
///
///   * **Group sequencing** — clients coalesce concurrent Request()s and the
///     server grants contiguous blocks (SeqBatchRequest{count} ->
///     SeqBatchGrant{first, count}), amortizing one round trip (and one unit
///     of server service time) over N updates, group-commit style.
///   * **Epoched grants** — every grant carries the epoch it was issued in.
///     A failover (standby takeover, or the home site's own amnesia restart)
///     seals the old epoch, recovers the high watermark from a durable floor
///     plus a peer probe, and unseals at `watermark + 1` in a strictly
///     higher epoch. Clients discard grants from superseded epochs and
///     re-request, so a sequencer crash delays but never corrupts the order.
///
/// It runs on a SequencerPort and a runtime::Clock only, so the simulator
/// and `esrd` run this one implementation; retries, their dedup and hole
/// healing belong to a caller whose transport can lose messages. The server
/// orders *update ETs only*; the whole point of ESR is that queries need no
/// global coordination (though ORDUP's divergence bounding may optionally
/// assign query order numbers too, which reuses this same service).
class SequencerServer {
 public:
  /// An active server starts unsealed in `epoch` granting from `first`; a
  /// standby starts sealed and only begins granting after BeginTakeover()
  /// completes its seal–probe–unseal handover. Probe ids start after
  /// `incarnation` (see SeqBatchRequest::incarnation), so a previous life's
  /// late probe answer never matches this one's probe.
  SequencerServer(SequencerPort* port, runtime::Clock* clock,
                  bool start_sealed = false, int64_t epoch = 1,
                  SequenceNumber first = 1, int64_t incarnation = 0);
  SequencerServer(const SequencerServer&) = delete;
  SequencerServer& operator=(const SequencerServer&) = delete;

  SequenceNumber LastIssued() const { return next_ - 1; }
  /// The durable-floor value a checkpoint should persist: re-seeding a
  /// restarted server at or above this can never reissue a granted position.
  SequenceNumber NextToGrant() const { return next_; }
  int64_t epoch() const { return epoch_; }
  bool sealed() const { return sealed_; }
  /// A takeover's probe is out and not every probed peer has answered.
  bool recovering() const { return recovering_; }

  /// Seals this epoch permanently: every further request is dropped (the
  /// requester re-sends to the new home once it sees the epoch announce).
  /// Used on a deposed primary that comes back after a standby took over.
  void Seal();

  /// Seal–failover–unseal: seals (if not already), probes `peers` for the
  /// highest granted position and epoch they have observed, and once every
  /// probed peer has answered unseals at
  ///   max(durable_floor, peer watermarks, local watermark) + 1
  /// in max(own epoch, peer epochs) + 1, then announces the new epoch to
  /// every site so every client re-targets and re-requests. With no
  /// reachable peers the handover completes immediately from the durable
  /// floor and local knowledge alone.
  void BeginTakeover(SequenceNumber durable_floor,
                     const std::vector<SiteId>& peers);
  /// Sends the current probe again to every peer that has not answered.
  void ResendProbe();
  /// Unseals on what the probe has heard so far, without waiting for the
  /// peers still silent (a caller's probe timeout). No-op unless recovering.
  void FinishTakeover();

  /// Inputs, one per message a client sends: `from` is the sending site,
  /// and malformed input is dropped. A probe answer counts for `from`,
  /// never for the payload's `from`.
  void OnRequest(SiteId from, const SeqBatchRequest& request);
  void OnProbeAnswer(SiteId from, const SeqProbeResponse& answer);
  void OnCrossRequest(SiteId from, const SeqCrossRequest& request);
  void OnCrossRelease(SiteId from, const SeqCrossRelease& release);

  /// Metrics sink for the esr_seq_* server families (null = off).
  void set_metrics(obs::MetricRegistry* metrics);

  /// Labels this instance's esr_seq_* series with {shard="k"} (partial
  /// replication: one sequencer per shard). -1 (default) emits unlabeled
  /// series, the unsharded behavior.
  void set_metric_shard(int32_t shard) { metric_shard_ = shard; }

  /// Models the server's per-request-message processing cost: grant
  /// responses are serialized through a busy-until horizon, so under load
  /// the sequencer becomes the queueing bottleneck batching exists to
  /// relieve. 0 (default) grants each request as it arrives.
  void set_service_time_us(SimDuration us) { service_time_us_ = us; }

  /// How this site's own high watermark is read during a takeover probe
  /// (the co-located client / method's max observed position).
  void set_local_high_watermark(std::function<SequenceNumber()> fn) {
    local_high_watermark_ = std::move(fn);
  }

 private:
  void GrantCross(SiteId source, int64_t request_id,
                  const TraceContext& trace);

  SequencerPort* port_;
  runtime::Clock* clock_;
  SequenceNumber next_ = 1;
  int64_t epoch_ = 1;
  bool sealed_ = false;
  int32_t metric_shard_ = -1;
  /// Cross-shard commit rule: while an ET collects positions across its
  /// shards, each touched shard's server keeps its cross-lock held for that
  /// ET so no later cross-shard ET can interleave positions with it (see
  /// DESIGN.md §13). Single-shard requests (OnRequest) ignore the lock.
  bool cross_locked_ = false;
  SiteId cross_holder_ = kInvalidSiteId;
  int64_t cross_holder_req_ = 0;
  /// Cross requests queued behind the current lock holder, FIFO.
  std::vector<std::pair<SiteId, SeqCrossRequest>> cross_queue_;
  SimDuration service_time_us_ = 0;
  SimTime busy_until_ = 0;
  /// Takeover state: outstanding probe id, peers still expected to answer,
  /// and the running (floor, epoch) maxima over everything heard so far.
  bool recovering_ = false;
  int64_t probe_id_ = 0;
  std::unordered_set<SiteId> awaiting_probe_;
  SequenceNumber recovered_floor_ = 0;
  int64_t recovered_epoch_ = 0;
  std::function<SequenceNumber()> local_high_watermark_;
  obs::MetricRegistry* metrics_ = nullptr;
  /// Liveness anchor for deferred (service-time) grant events: an amnesia
  /// crash destroys the server while responses may still be scheduled.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

/// Client stub used by every site to obtain global order numbers. Like the
/// server, it runs on a SequencerPort and a runtime::Clock only.
class SequencerClient {
 public:
  using Callback = std::function<void(SequenceNumber)>;
  /// Cross-shard grant callback: the granted position plus the lock token
  /// to pass back to ReleaseCross() once the cross-shard chain completes.
  using CrossCallback = std::function<void(SequenceNumber, int64_t)>;

  /// `home` is the (current) sequencer site; it moves when an epoch
  /// announce reports a failover. `incarnation` rides on every request
  /// (see SeqBatchRequest::incarnation), and request ids start after it, so
  /// a retried request of a dead predecessor is never mistaken for one of
  /// this client's.
  SequencerClient(SequencerPort* port, runtime::Clock* clock, SiteId home,
                  int64_t incarnation = 0);
  SequencerClient(const SequencerClient&) = delete;
  SequencerClient& operator=(const SequencerClient&) = delete;

  /// Requests the next global sequence number; `done` fires when the grant
  /// arrives, a later event even when the server is co-located. `trace`
  /// (optional) ties the round trip to an ET for hop tracing. Concurrent
  /// requests coalesce per the batching knobs.
  void Request(Callback done, TraceContext trace = {});

  /// Cross-shard commit rule: requests one position *and* this shard's
  /// cross-lock. `done` receives the position and the lock token; the
  /// caller must ReleaseCross(token) after its whole cross-shard chain has
  /// been granted. Never batched (the lock is per-request). Survives
  /// failover: pending cross requests are re-sent on an epoch announce,
  /// stale cross grants release below-floor positions as orphans.
  void RequestCross(CrossCallback done, TraceContext trace = {});

  /// Releases the cross-lock taken by the RequestCross() that returned
  /// `token`. Safe to call after a failover (the new epoch ignores it).
  void ReleaseCross(int64_t token);

  /// Sends every in-flight request again, unchanged, for a caller whose
  /// transport may lose messages (the server side must then answer a
  /// repeated request id with the grant it already issued). Returns the
  /// number of requests sent.
  int64_t ResendInflight();

  /// Inputs, one per message a server sends: `from` is the sending site
  /// (a probe is answered there), and malformed input is dropped.
  void OnGrant(SiteId from, const SeqBatchGrant& grant);
  void OnCrossGrant(SiteId from, const SeqCrossGrant& grant);
  void OnEpochAnnounce(SiteId from, const SeqEpochAnnounce& announce);
  void OnProbe(SiteId from, const SeqProbeRequest& probe);

  /// Labels this instance's esr_seq_* series with {shard="k"}; -1 = off.
  void set_metric_shard(int32_t shard) { metric_shard_ = shard; }

  /// Group-sequencing knobs: a wire batch is flushed as soon as `batch_max`
  /// requests are queued, or `linger_us` after the first queued request,
  /// whichever comes first. (1, 0) — the default — sends every request
  /// immediately and alone, the original one-grant-per-round-trip shape.
  void set_batching(int32_t batch_max, SimDuration linger_us);

  /// Installs the ET tracer recording kSeqRtt hops (null = off).
  void set_tracer(obs::EtTracer* tracer) { tracer_ = tracer; }

  /// Metrics sink for the esr_seq_* client families (null = off).
  void set_metrics(obs::MetricRegistry* metrics) { metrics_ = metrics; }

  /// Amnesia-crash support: forgets every pending callback (they capture
  /// protocol state that died with the site) but remembers the in-flight
  /// request ids, so when the server's grants eventually arrive — requests
  /// persist in the stable queues — the granted positions are handed to
  /// `orphan_handler` instead of vanishing as holes in the total order.
  /// Closes (cancels) the pending kSeqRtt hop spans: the requester is dead,
  /// so the round trips end here rather than dangling unterminated.
  void AbandonPending();

  /// Receives sequence numbers granted to abandoned requests. A batched
  /// abandoned request releases every position of its block, one call per
  /// position.
  void set_orphan_handler(std::function<void(SequenceNumber)> handler) {
    orphan_handler_ = std::move(handler);
  }

  /// How a takeover probe reads this site's protocol-level high watermark
  /// (the method's max observed total-order position); combined with the
  /// client's own max grant seen when answering a probe.
  void set_high_watermark_provider(std::function<SequenceNumber()> fn) {
    high_watermark_provider_ = std::move(fn);
  }

  /// Requests queued or in flight (entries, not wire batches).
  int64_t PendingCount() const;
  /// Abandoned request ids still awaiting their orphaned grants.
  int64_t AbandonedCount() const {
    return static_cast<int64_t>(abandoned_.size());
  }

  int64_t epoch() const { return epoch_; }
  SiteId home() const { return home_; }
  /// Highest position this client has ever seen granted (any request).
  SequenceNumber MaxGrantSeen() const { return max_grant_seen_; }

 private:
  struct Entry {
    Callback done;
    TraceContext trace;
    SimTime begin = -1;
    /// Sequencer site at request time — kSeqRtt spans are keyed by (from,
    /// to), so the close must name the home the span was opened against
    /// even if a failover moved home_ since.
    SiteId seq_to = kInvalidSiteId;
  };

  struct CrossEntry {
    CrossCallback done;
    TraceContext trace;
    SimTime begin = -1;
  };

  SeqBatchRequest BatchRequest(int64_t id,
                               const std::vector<Entry>& entries) const;
  void SendCrossRequest(int64_t id, const TraceContext& trace);
  /// Sends everything in queue_ as wire batches of at most
  /// kMaxSeqBatchCount (batch_max_ is a flush trigger, not a hard cap — an
  /// epoch-change re-send may exceed it).
  void Flush();
  void CloseSpan(const Entry& entry);
  SequenceNumber LocalHighWatermark() const;

  SequencerPort* port_;
  runtime::Clock* clock_;
  SiteId home_;
  int64_t incarnation_;
  int32_t metric_shard_ = -1;
  int64_t epoch_ = 1;
  /// First position of the current epoch (from its announce; 1 initially).
  /// Stale-grant positions below this were never re-granted — they are
  /// holes in the total order and must be released as orphan no-ops.
  SequenceNumber epoch_first_ = 1;
  int32_t batch_max_ = 1;
  SimDuration linger_us_ = 0;
  int64_t next_request_id_ = 1;
  /// Requests accumulated toward the next wire batch.
  std::vector<Entry> queue_;
  bool linger_scheduled_ = false;
  /// In-flight wire batches by request id; ordered so an epoch-change
  /// re-send preserves submission order.
  std::map<int64_t, std::vector<Entry>> inflight_;
  /// Abandoned in-flight batches: request id -> position count to orphan.
  std::unordered_map<int64_t, int32_t> abandoned_;
  /// In-flight cross requests by id (ordered for epoch-change re-send).
  std::map<int64_t, CrossEntry> cross_inflight_;
  /// Abandoned cross requests: their grants are orphaned AND the lock they
  /// took must be released, or the shard's cross traffic stalls forever.
  std::unordered_set<int64_t> cross_abandoned_;
  SequenceNumber max_grant_seen_ = 0;
  std::function<void(SequenceNumber)> orphan_handler_;
  std::function<SequenceNumber()> high_watermark_provider_;
  obs::EtTracer* tracer_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace esr::msg

#endif  // ESR_MSG_SEQUENCER_H_
