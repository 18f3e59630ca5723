#ifndef ESR_MSG_RELIABLE_TRANSPORT_H_
#define ESR_MSG_RELIABLE_TRANSPORT_H_

#include <any>
#include <functional>

#include "common/types.h"

namespace esr::obs {
class EtTracer;
}  // namespace esr::obs

namespace esr::msg {

/// Reliable exactly-once delivery over the lossy network — the contract the
/// paper assumes of its messaging substrate ("stable queues [5] and
/// persistent pipes [17]"). Two implementations ship:
///
///   * StableQueueManager — per-message acknowledgments, selective
///     retransmission, receiver-side dedup + (optional) hold-back
///     reordering; supports FIFO and unordered delivery.
///   * PersistentPipeManager — connection-style sliding window with
///     cumulative acknowledgments and go-back-N retransmission; always
///     FIFO.
///
/// Both persist unacknowledged entries (in the stable-storage sense: they
/// survive simulated crashes, which only silence the network) and retry
/// until delivery succeeds, and count their events in their network's
/// registry as `esr_transport_events_total{event,site}`.
class ReliableTransport {
 public:
  using DeliverHandler =
      std::function<void(SiteId source, const std::any& payload)>;

  virtual ~ReliableTransport() = default;

  /// Enqueues `payload` for reliable delivery to `destination`.
  virtual void Send(SiteId destination, std::any payload,
                    int64_t size_bytes = 256) = 0;

  /// Enqueues `payload` to every site except self.
  virtual void Broadcast(std::any payload, int64_t size_bytes = 256) = 0;

  /// Replaces the delivery handler (default: dispatch Envelope payloads
  /// through the site's mailbox).
  virtual void SetDeliverHandler(DeliverHandler handler) = 0;

  /// Entries awaiting acknowledgment across all destinations.
  virtual int64_t UnackedCount() const = 0;

  /// Entries awaiting acknowledgment toward one destination (per-site
  /// propagation backlog, surfaced as the esr_transport_unacked gauge).
  virtual int64_t UnackedCount(SiteId destination) const = 0;

  /// Installs the ET tracer for hop recording (may be null = tracing off,
  /// the default).
  /// Transports then record a kQueue hop per (ET, message type,
  /// destination): opened at first transmission, closed at hand-off.
  virtual void set_tracer(obs::EtTracer* tracer) = 0;
};

}  // namespace esr::msg

#endif  // ESR_MSG_RELIABLE_TRANSPORT_H_
