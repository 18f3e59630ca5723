#ifndef ESR_MSG_MAILBOX_H_
#define ESR_MSG_MAILBOX_H_

#include <any>
#include <functional>
#include <unordered_map>

#include "common/trace.h"
#include "common/types.h"
#include "sim/network.h"

namespace esr::msg {

/// Integer tag identifying the component a message is addressed to.
/// The msg module reserves [1, 99]; protocol layers use 100 and up.
using MessageType = int;

/// Message types owned by this module.
inline constexpr MessageType kQueueData = 1;
inline constexpr MessageType kQueueAck = 2;
inline constexpr MessageType kSeqRequest = 3;
inline constexpr MessageType kSeqResponse = 4;
inline constexpr MessageType kSeqProbeRequest = 7;
inline constexpr MessageType kSeqProbeResponse = 8;
inline constexpr MessageType kSeqEpochAnnounce = 9;
/// Cross-shard commit rule (partial replication): a position request that
/// also takes the shard's cross-lock, its grant, and the lock release.
inline constexpr MessageType kSeqCrossRequest = 10;
inline constexpr MessageType kSeqCrossGrant = 11;
inline constexpr MessageType kSeqCrossRelease = 12;

/// Per-shard sequencer instances coexist on one mailbox by shifting every
/// sequencer message type into a per-shard block: shard k uses
/// `kShardSeqTypeBase + k * kShardSeqTypeStride + <base type>`. Offset 0
/// (the default) is the unsharded global sequencer with the original types.
inline constexpr MessageType kShardSeqTypeBase = 1000;
inline constexpr MessageType kShardSeqTypeStride = 16;

/// Typed message envelope carried over the (untyped) simulated network.
/// `trace` is the causal context of the ET this message belongs to (POD,
/// default-invalid; carrying it costs no allocation).
struct Envelope {
  MessageType type = 0;
  std::any body;
  TraceContext trace{};
};

/// Per-site message dispatcher. Components register one handler per message
/// type; the mailbox installs itself as the site's network receiver and
/// routes incoming envelopes. The stable queues (StableQueueManager)
/// re-dispatch their delivered payloads through the same mailbox, so a
/// component's handler sees a message the same way whether it arrived raw or
/// via a stable queue.
class Mailbox {
 public:
  using Handler = std::function<void(SiteId source, const std::any& body)>;

  /// Creates the mailbox for `self` and installs it as the network receiver.
  Mailbox(sim::Network* network, SiteId self);

  SiteId self() const { return self_; }
  sim::Network* network() { return network_; }

  /// Registers (or replaces) the handler for a message type.
  void RegisterHandler(MessageType type, Handler handler);

  /// Routes an envelope to its registered handler; unhandled types are
  /// counted and dropped (a handler may legitimately not exist yet during
  /// startup races in tests).
  void Dispatch(SiteId source, const Envelope& envelope);

  /// Sends an envelope to `destination` over the raw (unreliable) network.
  void Send(SiteId destination, Envelope envelope, int64_t size_bytes = 128);

 private:
  sim::Network* network_;
  SiteId self_;
  std::unordered_map<MessageType, Handler> handlers_;
  /// mailbox.unhandled, in the network's event family.
  obs::EventFamily events_{network_->metrics(), "esr_network_events_total"};
};

}  // namespace esr::msg

#endif  // ESR_MSG_MAILBOX_H_
