#include "msg/mailbox.h"

#include <cassert>
#include <utility>

namespace esr::msg {

Mailbox::Mailbox(sim::Network* network, SiteId self)
    : network_(network), self_(self) {
  assert(network != nullptr);
  network_->RegisterReceiver(
      self, [this](SiteId source, const std::any& payload) {
        const auto* envelope = std::any_cast<Envelope>(&payload);
        assert(envelope != nullptr && "network payload must be an Envelope");
        Dispatch(source, *envelope);
      });
}

void Mailbox::RegisterHandler(MessageType type, Handler handler) {
  handlers_[type] = std::move(handler);
}

void Mailbox::Dispatch(SiteId source, const Envelope& envelope) {
  auto it = handlers_.find(envelope.type);
  if (it == handlers_.end()) {
    events_.Increment("mailbox.unhandled");
    return;
  }
  it->second(source, envelope.body);
}

void Mailbox::Send(SiteId destination, Envelope envelope,
                   int64_t size_bytes) {
  const TraceContext trace = envelope.trace;
  network_->Send(self_, destination, std::any(std::move(envelope)),
                 size_bytes, trace);
}

}  // namespace esr::msg
