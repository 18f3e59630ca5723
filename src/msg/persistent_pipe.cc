#include "msg/persistent_pipe.h"

#include <cassert>
#include <utility>

#include "obs/et_tracer.h"

namespace esr::msg {

namespace {

/// Retransmission timeout: on expiry, resend everything from the lowest
/// unacknowledged segment (go-back-N). Restarted whenever a cumulative ack
/// makes progress, so it comfortably exceeds one round trip.
constexpr SimDuration kRetransmitTimeoutUs = 30'000;

struct PipeData {
  SequenceNumber seq;
  std::any payload;
};

/// Cumulative acknowledgment: every segment <= seq has been delivered.
struct PipeAck {
  SequenceNumber seq;
};

}  // namespace

PersistentPipeManager::PersistentPipeManager(sim::Simulator* simulator,
                                             Mailbox* mailbox,
                                             PersistentPipeConfig config)
    : simulator_(simulator), mailbox_(mailbox), config_(config) {
  assert(simulator != nullptr && mailbox != nullptr);
  assert(config.window > 0);
  deliver_ = [mailbox](SiteId source, const std::any& payload) {
    if (const auto* inner = std::any_cast<Envelope>(&payload)) {
      mailbox->Dispatch(source, *inner);
    }
  };
  mailbox_->RegisterHandler(kPipeData,
                            [this](SiteId source, const std::any& body) {
                              OnData(source, body);
                            });
  mailbox_->RegisterHandler(
      kPipeAck,
      [this](SiteId source, const std::any& body) { OnAck(source, body); });
}

void PersistentPipeManager::Send(SiteId destination, std::any payload,
                                 int64_t size_bytes) {
  Outbound& out = outbound_[destination];
  out.buffered.emplace(out.next_seq++, Segment{std::move(payload), size_bytes});
  events_.Increment("pipe.sent");
  Pump(destination);
}

void PersistentPipeManager::Broadcast(std::any payload, int64_t size_bytes) {
  for (SiteId s = 0; s < mailbox_->network()->num_sites(); ++s) {
    if (s == mailbox_->self()) continue;
    Send(s, payload, size_bytes);
  }
}

void PersistentPipeManager::Transmit(SiteId destination, SequenceNumber seq) {
  Outbound& out = outbound_[destination];
  auto it = out.buffered.find(seq);
  assert(it != out.buffered.end());
  if (seq <= out.max_transmitted) {
    events_.Increment("pipe.retransmit");
  } else {
    out.max_transmitted = seq;
  }
  Envelope wire{kPipeData, PipeData{seq, it->second.payload}};
  if (tracer_ != nullptr) {
    if (const auto* inner = std::any_cast<Envelope>(&it->second.payload);
        inner != nullptr && inner->trace.valid()) {
      // First transmission opens the hop (QueueSend ignores retransmits);
      // the wire datagram carries the context either way so the network
      // can attribute its transit.
      tracer_->QueueSend(inner->trace, inner->type, mailbox_->self(),
                         destination, simulator_->Now());
      wire.trace = inner->trace;
      wire.trace.msg_type = inner->type;
    }
  }
  mailbox_->Send(destination, std::move(wire), it->second.size_bytes);
}

void PersistentPipeManager::RecordDeliverHop(SiteId source,
                                             const std::any& payload) {
  if (tracer_ == nullptr) return;
  if (const auto* inner = std::any_cast<Envelope>(&payload);
      inner != nullptr && inner->trace.valid()) {
    tracer_->QueueDeliver(inner->trace, inner->type, source,
                          mailbox_->self(), simulator_->Now());
  }
}

void PersistentPipeManager::Pump(SiteId destination) {
  Outbound& out = outbound_[destination];
  const SequenceNumber window_end = out.base + config_.window;
  while (out.next_to_send < out.next_seq && out.next_to_send < window_end) {
    Transmit(destination, out.next_to_send);
    ++out.next_to_send;
  }
  ArmTimer(destination);
}

void PersistentPipeManager::ArmTimer(SiteId destination) {
  Outbound& out = outbound_[destination];
  if (out.timer != 0 || out.buffered.empty()) return;
  out.timer = simulator_->Schedule(
      kRetransmitTimeoutUs, [this, destination]() {
        Outbound& o = outbound_[destination];
        o.timer = 0;
        if (o.buffered.empty()) return;
        // Go-back-N: rewind to the lowest unacknowledged segment and
        // resend the window.
        events_.Increment("pipe.timeouts");
        o.next_to_send = o.base;
        Pump(destination);
      });
}

void PersistentPipeManager::OnData(SiteId source, const std::any& body) {
  const auto* data = std::any_cast<PipeData>(&body);
  assert(data != nullptr);
  Inbound& in = inbound_[source];
  const SequenceNumber expected = in.Watermark() + 1;
  // Segments beyond the window horizon, and duplicates, are dropped.
  if (data->seq >= expected + 2 * config_.window ||
      !in.Offer(data->seq, std::any(data->payload))) {
    events_.Increment("pipe.dropped_out_of_order");
  } else if (data->seq > expected) {
    // Future segment within the window horizon: absorb the reordering.
    events_.Increment("pipe.buffered_out_of_order");
  }
  while (in.Head() != nullptr) {
    std::any payload = in.Pop();
    events_.Increment("pipe.delivered");
    RecordDeliverHop(source, payload);
    if (deliver_) deliver_(source, payload);
  }
  // Cumulative ack of everything contiguously delivered.
  mailbox_->Send(source, Envelope{kPipeAck, PipeAck{in.Watermark()}},
                 /*size_bytes=*/32);
}

void PersistentPipeManager::OnAck(SiteId source, const std::any& body) {
  const auto* ack = std::any_cast<PipeAck>(&body);
  assert(ack != nullptr);
  Outbound& out = outbound_[source];
  if (ack->seq < out.base - 1) return;  // stale cumulative ack
  if (ack->seq == out.base - 1) {
    // Duplicate cumulative ack: the receiver is dropping a gap. Fast
    // retransmit after two duplicates instead of waiting for the timer —
    // but only once per loss event (recovery gate).
    if (!out.buffered.empty() && !out.in_recovery && ++out.dup_acks >= 2) {
      out.dup_acks = 0;
      out.in_recovery = true;
      events_.Increment("pipe.fast_retransmit");
      out.next_to_send = out.base;
      if (out.timer != 0) {
        simulator_->Cancel(out.timer);
        out.timer = 0;
      }
      Pump(source);
    }
    return;
  }
  out.dup_acks = 0;
  out.in_recovery = false;
  out.buffered.erase(out.buffered.begin(),
                     out.buffered.upper_bound(ack->seq));
  out.base = ack->seq + 1;
  if (out.next_to_send < out.base) out.next_to_send = out.base;
  // Progress restarts the retransmission clock (TCP-style): without this,
  // a timer armed at first send fires mid-stream and triggers spurious
  // go-back-N storms.
  if (out.timer != 0) {
    simulator_->Cancel(out.timer);
    out.timer = 0;
  }
  // The window slid: new segments may go out (Pump re-arms the timer when
  // anything is still unacknowledged).
  Pump(source);
}

int64_t PersistentPipeManager::UnackedCount() const {
  int64_t n = 0;
  for (const auto& [_, out] : outbound_) {
    n += static_cast<int64_t>(out.buffered.size());
  }
  return n;
}

int64_t PersistentPipeManager::UnackedCount(SiteId destination) const {
  auto it = outbound_.find(destination);
  return it == outbound_.end()
             ? 0
             : static_cast<int64_t>(it->second.buffered.size());
}

}  // namespace esr::msg
