#ifndef ESR_OBS_ET_TRACER_H_
#define ESR_OBS_ET_TRACER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/trace.h"
#include "common/types.h"
#include "obs/metric_registry.h"

namespace esr::obs {

/// Phase of an update epsilon-transaction's replica lifecycle.
///
/// Maps one-to-one onto the paper's propagation pipeline: the ET is
/// *submitted* at its origin, *commits locally* once ordering metadata is
/// assigned, its MSet is *enqueued* on the stable queues toward every
/// replica, each replica *applies* it, and when every site has acknowledged
/// the apply the ET becomes *stable* everywhere. COMPE adds *aborted* as
/// the alternative terminal phase (the update was compensated).
enum class EtPhase {
  kSubmit,
  kLocalCommit,
  kEnqueue,
  kApply,
  kStable,
  kAborted,
};

std::string_view EtPhaseToString(EtPhase phase);

/// What a hop span measures.
enum class HopKind {
  /// One stable-queue delivery: begin = first send, arrive =
  /// first raw-datagram arrival at the destination (before hold-back
  /// reordering), end = hand-off to the destination component.
  kQueue,
  /// Sequencer round trip: begin = SequencerClient::Request, end = grant
  /// callback dispatch at the requester.
  kSeqRtt,
  /// Total-order wait at a replica: begin = MSet handed to the method,
  /// end = MSet applied (ORDUP/ORDUP-TS hold out-of-order MSets here).
  kOrderWait,
  /// Recovery catch-up exchange: begin = CatchupRequest sent, end =
  /// matching CatchupResponse applied at the requester.
  kCatchup,
};

std::string_view HopKindToString(HopKind kind);

/// One traced hop. Timestamps are simulated microseconds; -1 = "never
/// happened" (e.g. an in-flight hop when its ET reached a terminal phase).
struct HopRecord {
  int64_t span = 0;  ///< Unique, monotone per tracer (export identity).
  HopKind kind = HopKind::kQueue;
  /// Inner protocol message type for kQueue hops (kMsetMsg, kApplyAckMsg,
  /// kStableMsg, ...); 0 for the other kinds.
  int32_t msg_type = 0;
  SiteId from = kInvalidSiteId;
  SiteId to = kInvalidSiteId;
  SimTime begin = -1;
  SimTime arrive = -1;
  SimTime end = -1;
};

/// Everything recorded about one update ET, hop level, stamped by the same
/// lifecycle calls that drive the gauges.
struct EtTrace {
  EtId et = kInvalidEtId;
  SiteId origin = kInvalidSiteId;
  std::string object_class;
  SimTime submit_time = -1;
  SimTime commit_time = -1;
  /// Stability time at the origin; doubles as the abort time for aborted
  /// (compensated) ETs.
  SimTime stable_time = -1;
  bool aborted = false;
  std::vector<SimTime> apply_time;  ///< Per site; -1 until applied there.
  std::vector<HopRecord> hops;
  int64_t dropped_hops = 0;  ///< Hops over the per-ET cap, not recorded.
};

/// Traces the update-ET lifecycle. One instance per ReplicatedSystem,
/// shared by every site (like the HistoryRecorder); only the sim thread
/// touches it. Each lifecycle event is one call, and it serves two views:
///
/// Metrics, always on — the live gauges the paper cares about:
///  * `esr_mset_queue_depth{site}` — MSets enqueued toward a site and not
///    yet applied there (the per-site propagation backlog);
///  * `esr_stability_lag_us` — commit-to-stable latency histogram (how long
///    replicas stay potentially divergent per ET);
///  * `esr_apply_lag_us{site}` — commit-to-remote-apply latency;
///  * `esr_et_in_flight` — committed ETs not yet stable/aborted.
///
/// Hops, off until EnableHops (SystemConfig::record_hops) — per-ET causal
/// traces of every message hop for the critical-path waterfall analyzer.
/// While off, the hop calls record nothing. All hop containers are
/// bounded: at most kMaxOpenEts ETs are tracked concurrently (overflow
/// evicts the smallest et id — deterministic), completed traces live in a
/// FIFO ring of `max_completed`, and each ET keeps at most kMaxHopsPerEt
/// hops (the rest are counted, not stored). Under a fixed (config, seed)
/// the recorded traces are deterministic.
class EtTracer {
 public:
  static constexpr int64_t kMaxOpenEts = 4096;
  static constexpr int64_t kMaxHopsPerEt = 128;
  static constexpr int64_t kMaxCatchupHops = 1024;

  /// `metrics` may be null (hops only); `num_sites` sizes the per-site
  /// queue-depth accounting and each trace's apply times.
  EtTracer(MetricRegistry* metrics, int num_sites);

  /// Starts hop recording (see the class comment for the bounds).
  void EnableHops(int64_t max_completed);
  bool hops_enabled() const { return hops_enabled_; }

  /// --- ET lifecycle --------------------------------------------------------

  /// `object_class` labels the hop trace; callers may leave it empty while
  /// hops are off.
  void OnSubmit(EtId et, SiteId origin, SimTime now,
                std::string object_class = {});
  void OnLocalCommit(EtId et, SiteId origin, SimTime now);
  /// The MSet left `origin` toward `targets` (every site that will apply
  /// it: all others when fully replicated, the shards' owners otherwise).
  void OnEnqueue(EtId et, SiteId origin, const std::vector<SiteId>& targets);
  /// Also records the apply time at `site` and closes that site's
  /// kOrderWait hop.
  void OnApply(EtId et, SiteId site, SimTime now);
  /// `site` dropped the MSet unapplied (COMPE-ORD: the abort outran the
  /// ordered release). Drains that site's backlog without counting an
  /// apply.
  void OnSkip(EtId et, SiteId site);
  /// The origin saw every ack: settles the gauges and closes the hop trace.
  void OnStable(EtId et, SiteId site, SimTime now);
  void OnAborted(EtId et, SiteId site, SimTime now);

  /// MSets enqueued toward `site` and not yet applied there.
  int64_t QueueDepth(SiteId site) const;

  /// Committed ETs without a terminal (stable/aborted) event yet.
  int64_t InFlightEts() const { return in_flight_; }

  /// ETs whose lifecycle state is still held (see EtState).
  int64_t tracked_ets() const { return static_cast<int64_t>(ets_.size()); }

  /// --- Hop events ----------------------------------------------------------

  /// Opens a kQueue hop (no-op if one with the same key is already open or
  /// closed — retransmissions keep the first).
  void QueueSend(const TraceContext& trace, int32_t msg_type, SiteId from,
                 SiteId to, SimTime now);
  /// First raw-datagram arrival for an open kQueue hop (first wins); keyed
  /// by the context's stamped msg_type. Called from the network observer.
  void NetArrive(const TraceContext& trace, SiteId from, SiteId to,
                 SimTime now);
  /// Closes a kQueue hop at component hand-off (first wins).
  void QueueDeliver(const TraceContext& trace, int32_t msg_type, SiteId from,
                    SiteId to, SimTime now);

  void SeqBegin(EtId et, SiteId from, SiteId to, SimTime now);
  void SeqEnd(EtId et, SiteId from, SiteId to, SimTime now);

  /// Opens the total-order-wait hop for (et, site); closed by OnApply.
  void OrderWaitBegin(EtId et, SiteId site, SimTime now);

  /// Catch-up exchanges are not tied to a single ET; they live in their own
  /// bounded list, keyed by the requester's monotone exchange id (stored in
  /// HopRecord::span).
  void CatchupBegin(int64_t exchange, SiteId from, SiteId to, SimTime now);
  void CatchupEnd(int64_t exchange, SiteId from, SiteId to, SimTime now);

  /// --- Hop results ---------------------------------------------------------

  /// Completed (stable/aborted) traces, oldest first, FIFO-bounded.
  const std::deque<EtTrace>& completed() const { return completed_; }
  /// Still-open (in-flight) traces — tests scan these too when asserting
  /// that every span of a given kind was terminated.
  const std::unordered_map<EtId, EtTrace>& open_traces() const {
    return open_;
  }
  const std::vector<HopRecord>& catchup_hops() const { return catchup_hops_; }

  int64_t completed_total() const { return completed_total_; }
  int64_t dropped_ets() const { return dropped_ets_; }
  int64_t dropped_hops() const { return dropped_hops_; }

  /// FNV-1a digest over every completed trace (and catch-up hop) in
  /// recording order — the determinism-test fingerprint.
  uint64_t HopDigest() const;

 private:
  /// Per-ET lifecycle state behind the gauges. Dropped once it is
  /// terminal, locally committed and off every target's backlog: no later
  /// call then needs it. A late call for a dropped ET (a replayed stable
  /// notice, a remote abort, a re-apply after an amnesia restart) finds no
  /// entry and creates none; for the terminal phases that is the same as
  /// "already terminal".
  struct EtState {
    SiteId origin = kInvalidSiteId;
    SimTime commit_time = -1;
    bool enqueued = false;
    bool terminal = false;
    /// Targets counted by OnEnqueue that have not applied or skipped the
    /// MSet yet.
    std::vector<SiteId> pending;
  };

  void CountPhase(EtPhase phase, SiteId site);
  void SetDepthGauge(SiteId site);
  /// The MSet of `et` left `site`'s backlog (applied or skipped there).
  void DrainPending(EtId et, EtState& state, SiteId site);
  /// Drops `et`'s state once no later lifecycle call needs it.
  void MaybeEvict(EtId et, const EtState& state);
  /// Marks `et` terminal and drops it from the in-flight gauge; false if it
  /// already was terminal.
  bool SettleTerminal(EtState& state);

  EtTrace* FindOpen(EtId et);
  HopRecord* FindHop(EtTrace& t, HopKind kind, int32_t msg_type, SiteId from,
                     SiteId to);
  HopRecord* AddHop(EtTrace& t, HopKind kind, int32_t msg_type, SiteId from,
                    SiteId to);
  void Finalize(EtId et, SimTime now, bool aborted);

  MetricRegistry* metrics_;
  int num_sites_;
  std::unordered_map<EtId, EtState> ets_;
  std::vector<int64_t> queue_depth_;
  int64_t in_flight_ = 0;

  bool hops_enabled_ = false;
  int64_t max_completed_ = 1;
  int64_t next_span_ = 1;
  int64_t completed_total_ = 0;
  int64_t dropped_ets_ = 0;
  int64_t dropped_hops_ = 0;
  std::unordered_map<EtId, EtTrace> open_;
  std::deque<EtTrace> completed_;
  std::vector<HopRecord> catchup_hops_;
};

}  // namespace esr::obs

#endif  // ESR_OBS_ET_TRACER_H_
