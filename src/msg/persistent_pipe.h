#ifndef ESR_MSG_PERSISTENT_PIPE_H_
#define ESR_MSG_PERSISTENT_PIPE_H_

#include <any>
#include <map>
#include <unordered_map>

#include "common/types.h"
#include "msg/mailbox.h"
#include "msg/reliable_transport.h"
#include "msg/total_order_buffer.h"
#include "sim/simulator.h"

namespace esr::msg {

/// Configuration of a site's persistent pipes.
struct PersistentPipeConfig {
  /// Maximum unacknowledged segments in flight per destination.
  int window = 8;
};

/// The paper's alternative reliable substrate: *persistent pipes*
/// (unilateral-commit transmission). A connection-style transport: each
/// (source, destination) pair forms a pipe with a sliding window and
/// cumulative acknowledgments. Delivery is always FIFO. Jitter-level
/// reordering is absorbed by a bounded receiver buffer; genuine loss is
/// recovered go-back-N (timeout or fast retransmit on duplicate acks).
/// Contrast with StableQueueManager's per-message acks + selective
/// retransmission — the transport ablation bench quantifies the
/// difference under loss.
class PersistentPipeManager : public ReliableTransport {
 public:
  PersistentPipeManager(sim::Simulator* simulator, Mailbox* mailbox,
                        PersistentPipeConfig config);

  void SetDeliverHandler(DeliverHandler handler) override {
    deliver_ = std::move(handler);
  }
  void Send(SiteId destination, std::any payload,
            int64_t size_bytes = 256) override;
  void Broadcast(std::any payload, int64_t size_bytes = 256) override;
  int64_t UnackedCount() const override;
  int64_t UnackedCount(SiteId destination) const override;

  void set_tracer(obs::EtTracer* tracer) override { tracer_ = tracer; }

 private:
  struct Segment {
    std::any payload;
    int64_t size_bytes;
  };
  struct Outbound {
    SequenceNumber next_seq = 1;      // next new segment number
    SequenceNumber base = 1;          // lowest unacknowledged
    SequenceNumber next_to_send = 1;  // within-window send cursor
    std::map<SequenceNumber, Segment> buffered;  // base..next_seq-1
    sim::EventId timer = 0;
    int dup_acks = 0;  // duplicate cumulative acks since last progress
    /// One fast retransmit per loss event: set when it fires, cleared when
    /// the cumulative ack advances (TCP-style recovery gate — without it,
    /// the dup-acks of the retransmitted window re-trigger a storm).
    bool in_recovery = false;
    SequenceNumber max_transmitted = 0;  // retransmission accounting
  };
  /// Per-source reorder buffer: jitter-induced reordering within the send
  /// window is absorbed here instead of triggering go-back-N recovery
  /// (which remains the loss path). OnData bounds it to twice the window
  /// above the delivered prefix.
  using Inbound = TotalOrderBuffer<std::any>;

  void Pump(SiteId destination);
  void ArmTimer(SiteId destination);
  void OnData(SiteId source, const std::any& body);
  void OnAck(SiteId source, const std::any& body);
  void Transmit(SiteId destination, SequenceNumber seq);
  void RecordDeliverHop(SiteId source, const std::any& payload);

  sim::Simulator* simulator_;
  Mailbox* mailbox_;
  PersistentPipeConfig config_;
  DeliverHandler deliver_;
  std::unordered_map<SiteId, Outbound> outbound_;
  std::unordered_map<SiteId, Inbound> inbound_;
  /// sent, retransmit, fast_retransmit, timeouts, delivered, *_out_of_order.
  obs::EventFamily events_{mailbox_->network()->metrics(),
                           "esr_transport_events_total",
                           {{"site", std::to_string(mailbox_->self())}}};
  obs::EtTracer* tracer_ = nullptr;
};

}  // namespace esr::msg

#endif  // ESR_MSG_PERSISTENT_PIPE_H_
