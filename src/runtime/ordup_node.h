#ifndef ESR_RUNTIME_ORDUP_NODE_H_
#define ESR_RUNTIME_ORDUP_NODE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "esr/mset.h"
#include "msg/sequencer.h"
#include "msg/total_order_buffer.h"
#include "obs/metric_registry.h"
#include "recovery/wal.h"
#include "runtime/interfaces.h"
#include "store/mv_store.h"

namespace esr::runtime {

/// Message types the node exchanges (beyond the esr/mset.h protocol ids and
/// the msg/mailbox.h sequencer ids it reuses verbatim).
inline constexpr int kCatchupReqMsg = 113;
inline constexpr int kCatchupRespMsg = 114;
/// Order-hole healing: the sequencer asks every site whether it holds the
/// MSet at one total-order position (see OrdupNodeConfig::incarnation).
inline constexpr int kPosProbeReqMsg = 115;
inline constexpr int kPosProbeRespMsg = 116;
/// Stability gossip: the sender's applied watermark, then the sender's
/// knowledge of the receiver's (see the OrdupNode class comment).
inline constexpr int kWatermarkMsg = 117;
/// Catch-up from below the responder's trimmed history: one store image at
/// the responder's applied watermark, in the recovery codec's checkpoint
/// format (see the OrdupNode class comment).
inline constexpr int kSnapshotRespMsg = 118;

/// Payload of an apply ack, a catch-up request (the sender's applied
/// watermark), kWatermarkMsg (that watermark, then the echo) and
/// kPosProbeReqMsg (the probed position): positions as LEB128 varints
/// (wire::Encoder::Varint), 1 to 3 bytes each below 2^21.
std::string EncodePositions(std::initializer_list<SequenceNumber> positions);

/// Decodes positions from the front of `payload` into `out`, in order.
/// False, with the outputs unspecified, on a truncated or over-long varint.
bool DecodePositions(std::string_view payload,
                     std::initializer_list<SequenceNumber*> out);

struct OrdupNodeConfig {
  SiteId self = 0;
  int num_sites = 1;
  /// Home of the (centralized, epoched) order server.
  SiteId sequencer_site = 0;
  /// Rescan period for the retransmit/catch-up loop (µs of the bound
  /// Clock: simulated µs under the sim binding, wall µs under TCP).
  SimDuration retry_interval_us = 50'000;
  /// How long a total-order gap may stall before the node asks a peer to
  /// backfill it.
  SimDuration gap_timeout_us = 100'000;
  /// Identity of this process lifetime, strictly increasing across restarts
  /// of the site (esrd uses boot wall-clock µs; deterministic tests pick
  /// 0, 1, 2, ...). Seeds the ET-id and request-id counters so a restarted
  /// site never reuses its dead predecessor's ids, and rides on sequencer
  /// requests so the server can detect the restart and heal the
  /// predecessor's granted-but-never-filled order positions (probe all
  /// sites for the MSet; admit it if anyone holds it, else fill the hole
  /// with a no-op). Must stay below ~2^52 so ET ids fit int64.
  int64_t incarnation = 0;
  /// Hash partitions of the node's MvStore. The strand serializes all
  /// writes, but partitioning lets future off-strand readers (metrics
  /// scrapers, read-only RPCs) take per-partition shared locks instead of
  /// racing the applier; the default matches a small worker pool.
  int store_partitions = 8;
};

/// One ORDUP site as a binding-agnostic protocol core: the paper's
/// global-total-order method (centralized order server, MSet propagation,
/// apply acks) written purely against the runtime seam — runtime::Transport
/// for messages, runtime::Clock for timers, and the owning strand's
/// single-threaded discipline instead of locks. The same object runs
/// deterministically inside the simulator (SimTransport + Simulator) and for
/// real inside `esrd` (TcpTransport + TimerWheel).
///
/// Stability is a watermark, as the paper's VTNC is a counter: in a total
/// order, position p is stable once every site's applied prefix reaches p.
/// Each site keeps the highest applied watermark every peer has reported —
/// on every apply ack, and in kWatermarkMsg gossip that the retry loop sends
/// to each peer not yet told the current value — credited to the transport
/// sender, never to a payload field. The stable watermark is the minimum of
/// those and the site's own applied watermark, so it only rises. A local ET
/// fires `on_stable` once its position is at or below it: at the last apply
/// ack, with no further round. Stability is not logged; a restarted site
/// re-learns it from its peers, which is only conservative.
///
/// Ordering: the node drives the simulator's order service (a
/// msg::SequencerClient, and a msg::SequencerServer at the sequencer site)
/// as their msg::SequencerPort, with the msg/sequencer_wire.h codecs. Only
/// this fault model's extras live here: retries and their dedup, the
/// stale-epoch announce, the probe timeout and order-hole healing.
///
/// Reliability model: the transport is at-least-once/in-order at best and
/// lossy at worst, so every protocol edge is duplicate-tolerant and
/// retried: MSets are re-sent to peers whose known watermark is below their
/// position (a duplicate is re-acked), sequencer requests are re-sent (the
/// sequencer site dedups by request id), a site whose stability stalls for
/// a whole retry interval re-sends its watermark to the peers that look
/// behind (their echo of it repairs a lost gossip message), and total-order
/// gaps that outlive `gap_timeout_us` are backfilled from a peer's history
/// (which also serves a restarted site's catch-up after WAL replay).
///
/// Bounded history: a site keeps applied MSets only above its stable
/// watermark. Every peer has applied a stable position in its current life,
/// so no live peer asks for it again; only a restart that lost state (no
/// WAL, or a WAL that lost its unflushed tail) can ask from below the trim
/// point. Such a catch-up request is answered with kSnapshotRespMsg: the
/// responder's store image at its applied watermark, which the requester
/// installs in place of the MSets it missed (DESIGN.md §14).
///
/// Threading: every method (including Start/Stop and the transport handler
/// it installs) must run on the owner's strand.
class OrdupNode : private msg::SequencerPort {
 public:
  /// `wal` is optional (null = run without durability). The node does not
  /// own transport/clock/wal/metrics.
  OrdupNode(OrdupNodeConfig config, Transport* transport, Clock* clock,
            recovery::Wal* wal, obs::MetricRegistry* metrics);

  OrdupNode(const OrdupNode&) = delete;
  OrdupNode& operator=(const OrdupNode&) = delete;

  /// Installs the transport handler, replays the WAL (restart path), seeds
  /// the co-located order server (probing peers when the WAL shows a prior
  /// life), requests catch-up, and arms the retry loop.
  void Start();

  /// Cancels timers and detaches from the transport. Safe to call twice.
  void Stop();

  /// Submits one update ET (a set of update operations). Returns its ET id.
  /// `on_stable` (optional) fires once, when the ET becomes stable: applied
  /// by every site.
  EtId SubmitUpdate(std::vector<store::Operation> ops,
                    std::function<void()> on_stable = nullptr);

  /// --- Introspection ------------------------------------------------------
  /// The store itself is internally synchronized (striped per-partition
  /// locks), so point reads and digests may run off-strand — e.g. from an
  /// exporter thread — while the strand applies MSets.
  const store::MvStore& store() const { return store_; }
  SequenceNumber applied_watermark() const { return order_.Watermark(); }
  int64_t applied_count() const { return applied_count_; }
  int64_t submitted_count() const { return submitted_count_; }
  /// Stable positions (no-op hole fills included): the stable watermark.
  int64_t stable_count() const { return stable_watermark_; }
  /// No locally-originated ET still awaiting its grant or stability.
  bool Idle() const {
    return seq_client_.PendingCount() == 0 && unstable_.empty();
  }
  int64_t sequencer_epoch() const { return seq_client_.epoch(); }
  /// Applied MSets still held as the catch-up source: those above the
  /// stable watermark (zero once every site applied everything).
  int64_t history_msets() const {
    return static_cast<int64_t>(history_.size());
  }
  /// One-line debug rendering: the ungranted count and up to `limit`
  /// unstable local ETs.
  std::string DebugStuck(int limit = 4) const;

 private:
  /// A locally-originated ET from submission to stability: held by its
  /// sequencer request until the grant, then in unstable_ (its MSet in
  /// order_/history_, `ops` empty).
  struct LocalEt {
    std::vector<store::Operation> ops;
    SimTime submitted_at = 0;
    SimTime committed_at = 0;  // local in-order apply time
    std::function<void()> on_stable;
  };

  void HandleMessage(SiteId from, Message msg);
  void HandleWatermark(SiteId from, SequenceNumber applied,
                       SequenceNumber echo);
  /// Sequencer site: dedups a retried request, answers a stale epoch with
  /// the current announce, and records what the server grants.
  void HandleSeqRequest(SiteId from, const msg::SeqBatchRequest& req);
  void HandleCatchupReq(SiteId from, SequenceNumber after);
  void HandleCatchupResp(SiteId from, std::string_view payload);
  /// Answers a catch-up request from below history_floor_ with this site's
  /// store image (skipped when it exceeds kMaxFramePayloadBytes).
  void SendSnapshot(SiteId to);
  /// Installs a peer's store image above this site's applied watermark;
  /// a corrupt or stale image leaves the node unchanged.
  void HandleSnapshotResp(SiteId from, std::string_view payload);
  void HandlePosProbeReq(SiteId from, SequenceNumber pos);
  void HandlePosProbeResp(SiteId from, std::string_view payload);
  /// Begins (or continues) healing one orphaned total-order position.
  void StartHealing(SequenceNumber pos);
  /// Every site denied holding `pos`: fill it with a no-op MSet.
  void FillHole(SequenceNumber pos);

  void OnGranted(EtId et, SequenceNumber position, LocalEt local);
  /// Inserts into the order buffer and drains every contiguous MSet.
  void Admit(core::Mset mset, bool persist);
  /// Applies every held MSet contiguous with the applied prefix.
  void DrainHoldback();
  void ApplyInOrder(core::Mset mset);
  /// The MSet at `pos` if this site holds it (applied or buffered).
  const core::Mset* FindMset(SequenceNumber pos) const;
  /// Credits `applied` to peer `from`'s watermark and re-derives stability.
  void ObservePeer(SiteId from, SequenceNumber applied);
  /// Raises the stable watermark, trims history_ to the positions above it,
  /// and completes every local ET at or below it.
  void AdvanceStable();
  void SendApplyAck(SiteId origin, EtId et);
  void SendWatermark(SiteId to);
  void RetryTick();
  void SendCatchupRequest();
  void SendTo(SiteId to, int type, std::string payload, EtId et);
  void Broadcast(int type, const std::string& payload, EtId et);
  /// Highest total-order position this site has observed anywhere
  /// (applied, held, granted, or under an installed snapshot): the probe
  /// answer during a sequencer takeover.
  SequenceNumber MaxOrderSeen() const { return order_.MaxOffered(); }
  void ReplayWal();

  /// msg::SequencerPort: each sequencer message is one Message.
  SiteId self() const override { return config_.self; }
  void SendRequest(SiteId to, const msg::SeqBatchRequest& request) override;
  void SendProbeAnswer(SiteId to,
                       const msg::SeqProbeResponse& answer) override;
  void SendGrant(SiteId to, const msg::SeqBatchGrant& grant,
                 const TraceContext& trace) override;
  void SendProbe(SiteId to, const msg::SeqProbeRequest& probe) override;
  void AnnounceEpoch(const msg::SeqEpochAnnounce& announce) override;

  OrdupNodeConfig config_;
  Transport* transport_;
  Clock* clock_;
  recovery::Wal* wal_;
  obs::MetricRegistry* metrics_;

  store::MvStore store_;
  int64_t lamport_ = 0;
  int64_t submit_counter_ = 0;

  /// Total order state: the applied prefix, and the MSets held above a gap.
  msg::TotalOrderBuffer<core::Mset> order_;
  SimTime gap_since_ = -1;  // first moment the current gap was observed
  /// Applied MSets above the stable watermark, by position: the
  /// catch-up/backfill source and the retransmit source for local ETs not
  /// yet stable. AdvanceStable erases every entry at or below the stable
  /// watermark, so the map holds only the applied-but-unstable window.
  std::map<SequenceNumber, core::Mset> history_;
  /// Highest position this site no longer holds as an MSet (trimmed, or
  /// covered by an installed snapshot). A catch-up request from below it is
  /// answered with a snapshot instead.
  SequenceNumber history_floor_ = 0;
  /// Stability, indexed by site (self entries unused): the applied
  /// watermark each peer has reported, and the own watermark last sent to
  /// each peer (lowered when a peer's echo shows it missed a message).
  std::vector<SequenceNumber> peer_applied_;
  std::vector<SequenceNumber> told_;
  SequenceNumber stable_watermark_ = 0;
  SequenceNumber stable_at_last_tick_ = 0;
  SiteId catchup_rr_ = 0;  // round-robin cursor for backfill targets

  /// Locally-originated ETs granted and awaiting stability, by position.
  std::map<SequenceNumber, LocalEt> unstable_;

  /// The order service: this site's client, and the server at the
  /// sequencer site only (created by Start).
  msg::SequencerClient seq_client_;
  std::unique_ptr<msg::SequencerServer> seq_server_;
  /// Sequencer site only, from here to probe_ticks_.
  std::map<std::pair<SiteId, int64_t>, std::pair<SequenceNumber, int32_t>>
      granted_;  // (site, request id) -> (first, count); retry dedup
  /// Latest incarnation each client has spoken with; a jump marks a
  /// restart and triggers healing of the prior life's unfilled grants.
  std::map<SiteId, int64_t> last_incarnation_;
  /// Granted positions not yet observed admitted: position -> (site,
  /// incarnation). Erased the moment any MSet at that position is seen.
  std::map<SequenceNumber, std::pair<SiteId, int64_t>> unfilled_grants_;
  /// In-flight hole probes: position -> peers that have not answered.
  std::map<SequenceNumber, std::unordered_set<SiteId>> healing_;
  /// Retry ticks the startup probe has waited; at kProbeTicks it stops
  /// waiting for peers that never answer.
  static constexpr int kProbeTicks = 10;
  int probe_ticks_ = 0;

  TimerId retry_timer_ = 0;
  bool running_ = false;

  int64_t applied_count_ = 0;
  int64_t submitted_count_ = 0;

  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_applied_ = nullptr;
  obs::Counter* m_stable_ = nullptr;
  obs::Counter* m_retransmits_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_snapshots_sent_ = nullptr;
  obs::Counter* m_snapshots_installed_ = nullptr;
  obs::Histogram* m_commit_stable_us_ = nullptr;
  obs::Histogram* m_submit_commit_us_ = nullptr;
  obs::Gauge* m_applied_watermark_ = nullptr;
  obs::Gauge* m_stable_watermark_ = nullptr;
  obs::Gauge* m_history_msets_ = nullptr;
};

}  // namespace esr::runtime

#endif  // ESR_RUNTIME_ORDUP_NODE_H_
