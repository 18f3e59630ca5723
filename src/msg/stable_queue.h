#ifndef ESR_MSG_STABLE_QUEUE_H_
#define ESR_MSG_STABLE_QUEUE_H_

#include <any>
#include <functional>
#include <map>
#include <unordered_map>

#include "common/types.h"
#include "msg/mailbox.h"
#include "msg/total_order_buffer.h"
#include "sim/simulator.h"

namespace esr::obs {
class EtTracer;
}  // namespace esr::obs

namespace esr::msg {

/// Reliable exactly-once FIFO message delivery over the lossy network: the
/// paper's "stable queues [5] which persistently retry message delivery
/// until successful", and the only reliable channel the simulator uses.
///
/// Each site owns one StableQueueManager handling its outbound queues (one
/// per destination). Entries persist (in the stable-storage sense: they
/// survive simulated site crashes, which only silence the network) and are
/// retransmitted until acknowledged. The receiver deduplicates by (sender,
/// sequence) and holds back gaps, so each payload is handed to the deliver
/// handler exactly once and in send order per sender. Recovery depends on
/// that order: a site's applied cut records one watermark per origin, which
/// is exact only because an origin's MSets arrive in the order it sent them.
/// Events are counted in the network's registry as
/// `esr_transport_events_total{event,site}`.
class StableQueueManager {
 public:
  using DeliverHandler =
      std::function<void(SiteId source, const std::any& payload)>;

  StableQueueManager(sim::Simulator* simulator, Mailbox* mailbox);

  /// Replaces the delivery handler (default: dispatch Envelope payloads
  /// through the site's mailbox).
  void SetDeliverHandler(DeliverHandler handler) {
    deliver_ = std::move(handler);
  }

  /// Enqueues `payload` for reliable delivery to `destination`.
  void Send(SiteId destination, std::any payload,
            int64_t size_bytes = 256);

  /// Enqueues `payload` to every site except self.
  void Broadcast(std::any payload, int64_t size_bytes = 256);

  /// Number of entries awaiting acknowledgment (all destinations).
  int64_t UnackedCount() const;

  /// Entries awaiting acknowledgment toward `destination` (per-site
  /// propagation backlog, surfaced as the esr_transport_unacked gauge).
  int64_t UnackedCount(SiteId destination) const;

  /// Installs the ET tracer for hop recording (null = tracing off, the
  /// default). The queues then record a kQueue hop per (ET, message type,
  /// destination): opened at first transmission, closed at hand-off.
  void set_tracer(obs::EtTracer* tracer) { tracer_ = tracer; }

 private:
  struct Outbound {
    SequenceNumber next_seq = 1;
    std::map<SequenceNumber, std::pair<std::any, int64_t>> unacked;
    sim::EventId retry_event = 0;  // 0 when no timer pending
  };
  /// Per-sender receive side: holds back entries above a gap.
  using Inbound = TotalOrderBuffer<std::any>;

  void TransmitAll(SiteId destination);
  void ArmRetryTimer(SiteId destination);
  void OnData(SiteId source, const std::any& body);
  void OnAck(SiteId source, const std::any& body);

  /// Builds the outgoing wire envelope for an entry, stamping the inner
  /// envelope's trace context (plus msg_type) onto it when tracing is on.
  Envelope WireEnvelope(SequenceNumber seq, const std::any& payload) const;
  void RecordDeliverHop(SiteId source, const std::any& payload);

  sim::Simulator* simulator_;
  Mailbox* mailbox_;
  DeliverHandler deliver_;
  std::unordered_map<SiteId, Outbound> outbound_;
  std::unordered_map<SiteId, Inbound> inbound_;
  /// sent, retransmit, duplicate, delivered.
  obs::EventFamily events_{mailbox_->network()->metrics(),
                           "esr_transport_events_total",
                           {{"site", std::to_string(mailbox_->self())}}};
  obs::EtTracer* tracer_ = nullptr;
};

}  // namespace esr::msg

#endif  // ESR_MSG_STABLE_QUEUE_H_
