#ifndef ESR_MSG_STABLE_QUEUE_H_
#define ESR_MSG_STABLE_QUEUE_H_

#include <any>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"
#include "msg/mailbox.h"
#include "msg/reliable_transport.h"
#include "msg/total_order_buffer.h"
#include "sim/simulator.h"

namespace esr::msg {

/// Configuration of a site's stable queues.
struct StableQueueConfig {
  /// When true, deliver entries from each sender in send (FIFO) order,
  /// holding back gaps; when false, deliver on first arrival (dedup only).
  /// Replica control methods that sort at update time (ORDUP) bring their
  /// own total-order buffer, so they run fine over either mode; COMMU/RITU
  /// exploit unordered mode for extra asynchrony.
  bool fifo = true;
};

/// Reliable exactly-once message delivery over the lossy network: the
/// paper's "stable queues [5] which persistently retry message delivery
/// until successful".
///
/// Each site owns one StableQueueManager handling its outbound queues (one
/// per destination). Entries persist (in the stable-storage sense: they
/// survive simulated site crashes, which only silence the network) and are
/// retransmitted until acknowledged. The receiver side deduplicates by
/// (sender, sequence), so each payload is handed to the deliver handler
/// exactly once.
class StableQueueManager : public ReliableTransport {
 public:
  StableQueueManager(sim::Simulator* simulator, Mailbox* mailbox,
                     StableQueueConfig config);

  void SetDeliverHandler(DeliverHandler handler) override {
    deliver_ = std::move(handler);
  }

  /// Enqueues `payload` for reliable delivery to `destination`.
  void Send(SiteId destination, std::any payload,
            int64_t size_bytes = 256) override;

  /// Enqueues `payload` to every site except self.
  void Broadcast(std::any payload, int64_t size_bytes = 256) override;

  /// Number of entries awaiting acknowledgment (all destinations).
  int64_t UnackedCount() const override;

  /// Entries awaiting acknowledgment toward `destination`.
  int64_t UnackedCount(SiteId destination) const override;

  void set_tracer(obs::EtTracer* tracer) override { tracer_ = tracer; }

 private:
  struct Outbound {
    SequenceNumber next_seq = 1;
    std::map<SequenceNumber, std::pair<std::any, int64_t>> unacked;
    sim::EventId retry_event = 0;  // 0 when no timer pending
  };
  struct Inbound {
    TotalOrderBuffer<std::any> fifo;  // fifo mode
    // Unordered mode: contiguous watermark + sparse set above it.
    SequenceNumber delivered_upto = 0;
    std::unordered_set<SequenceNumber> delivered_sparse;
  };

  void TransmitAll(SiteId destination);
  void ArmRetryTimer(SiteId destination);
  void OnData(SiteId source, const std::any& body);
  void OnAck(SiteId source, const std::any& body);
  bool AlreadyDelivered(Inbound& in, SequenceNumber seq) const;
  void MarkDelivered(Inbound& in, SequenceNumber seq);

  /// Builds the outgoing wire envelope for an entry, stamping the inner
  /// envelope's trace context (plus msg_type) onto it when tracing is on.
  Envelope WireEnvelope(SequenceNumber seq, const std::any& payload) const;
  void RecordDeliverHop(SiteId source, const std::any& payload);

  sim::Simulator* simulator_;
  Mailbox* mailbox_;
  StableQueueConfig config_;
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
