#include "msg/stable_queue.h"

#include <cassert>
#include <utility>

#include "obs/et_tracer.h"

namespace esr::msg {

namespace {

/// Retransmission interval for unacknowledged entries.
constexpr SimDuration kRetryIntervalUs = 10'000;

/// Wire format of a stable-queue data message.
struct QueueData {
  SequenceNumber seq;
  std::any payload;
};

/// Wire format of an acknowledgment.
struct QueueAck {
  SequenceNumber seq;
};

}  // namespace

StableQueueManager::StableQueueManager(sim::Simulator* simulator,
                                       Mailbox* mailbox)
    : simulator_(simulator), mailbox_(mailbox) {
  assert(simulator != nullptr && mailbox != nullptr);
  // Default delivery: payloads that are themselves Envelopes are re-routed
  // through the mailbox, so components receive queue-carried messages via
  // the same handler registration as raw ones.
  deliver_ = [mailbox](SiteId source, const std::any& payload) {
    if (const auto* inner = std::any_cast<Envelope>(&payload)) {
      mailbox->Dispatch(source, *inner);
    }
  };
  mailbox_->RegisterHandler(kQueueData,
                            [this](SiteId source, const std::any& body) {
                              OnData(source, body);
                            });
  mailbox_->RegisterHandler(
      kQueueAck,
      [this](SiteId source, const std::any& body) { OnAck(source, body); });
}

Envelope StableQueueManager::WireEnvelope(SequenceNumber seq,
                                          const std::any& payload) const {
  Envelope wire{kQueueData, QueueData{seq, payload}};
  if (tracer_ != nullptr) {
    if (const auto* inner = std::any_cast<Envelope>(&payload);
        inner != nullptr && inner->trace.valid()) {
      wire.trace = inner->trace;
      wire.trace.msg_type = inner->type;
    }
  }
  return wire;
}

void StableQueueManager::RecordDeliverHop(SiteId source,
                                          const std::any& payload) {
  if (tracer_ == nullptr) return;
  if (const auto* inner = std::any_cast<Envelope>(&payload);
      inner != nullptr && inner->trace.valid()) {
    tracer_->QueueDeliver(inner->trace, inner->type, source,
                          mailbox_->self(), simulator_->Now());
  }
}

void StableQueueManager::Send(SiteId destination, std::any payload,
                              int64_t size_bytes) {
  Outbound& out = outbound_[destination];
  const SequenceNumber seq = out.next_seq++;
  out.unacked.emplace(seq, std::make_pair(std::move(payload), size_bytes));
  events_.Increment("queue.sent");
  const std::any& stored = out.unacked.at(seq).first;
  if (tracer_ != nullptr) {
    if (const auto* inner = std::any_cast<Envelope>(&stored);
        inner != nullptr && inner->trace.valid()) {
      tracer_->QueueSend(inner->trace, inner->type, mailbox_->self(),
                         destination, simulator_->Now());
    }
  }
  mailbox_->Send(destination, WireEnvelope(seq, stored), size_bytes);
  ArmRetryTimer(destination);
}

void StableQueueManager::Broadcast(std::any payload, int64_t size_bytes) {
  for (SiteId s = 0; s < mailbox_->network()->num_sites(); ++s) {
    if (s == mailbox_->self()) continue;
    Send(s, payload, size_bytes);
  }
}

void StableQueueManager::TransmitAll(SiteId destination) {
  Outbound& out = outbound_[destination];
  for (const auto& [seq, entry] : out.unacked) {
    events_.Increment("queue.retransmit");
    mailbox_->Send(destination, WireEnvelope(seq, entry.first), entry.second);
  }
}

void StableQueueManager::ArmRetryTimer(SiteId destination) {
  Outbound& out = outbound_[destination];
  if (out.retry_event != 0 || out.unacked.empty()) return;
  out.retry_event =
      simulator_->Schedule(kRetryIntervalUs, [this, destination]() {
        Outbound& o = outbound_[destination];
        o.retry_event = 0;
        if (o.unacked.empty()) return;
        TransmitAll(destination);
        ArmRetryTimer(destination);
      });
}

void StableQueueManager::OnData(SiteId source, const std::any& body) {
  const auto* data = std::any_cast<QueueData>(&body);
  assert(data != nullptr);
  // Always (re-)acknowledge: the original ack may have been lost.
  mailbox_->Send(source, Envelope{kQueueAck, QueueAck{data->seq}},
                 /*size_bytes=*/32);
  Inbound& in = inbound_[source];
  if (!in.Offer(data->seq, std::any(data->payload))) {
    events_.Increment("queue.duplicate");
    return;
  }
  while (in.Head() != nullptr) {
    std::any payload = in.Pop();
    events_.Increment("queue.delivered");
    RecordDeliverHop(source, payload);
    if (deliver_) deliver_(source, payload);
  }
}

void StableQueueManager::OnAck(SiteId source, const std::any& body) {
  const auto* ack = std::any_cast<QueueAck>(&body);
  assert(ack != nullptr);
  Outbound& out = outbound_[source];
  out.unacked.erase(ack->seq);
  if (out.unacked.empty() && out.retry_event != 0) {
    simulator_->Cancel(out.retry_event);
    out.retry_event = 0;
  }
}

int64_t StableQueueManager::UnackedCount() const {
  int64_t n = 0;
  for (const auto& [_, out] : outbound_) {
    n += static_cast<int64_t>(out.unacked.size());
  }
  return n;
}

int64_t StableQueueManager::UnackedCount(SiteId destination) const {
  auto it = outbound_.find(destination);
  return it == outbound_.end()
             ? 0
             : static_cast<int64_t>(it->second.unacked.size());
}

}  // namespace esr::msg
