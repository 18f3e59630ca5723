#include "msg/mailbox_sequencer_port.h"

#include <utility>

namespace esr::msg {

template <typename Component, typename T>
void MailboxSequencerPort::Route(MessageType type, Component* component,
                                 void (Component::*input)(SiteId, const T&)) {
  mailbox_->RegisterHandler(
      type_offset_ + type,
      [component, input](SiteId source, const std::any& body) {
        if (const T* message = std::any_cast<T>(&body)) {
          (component->*input)(source, *message);
        }
      });
}

void MailboxSequencerPort::AttachServer(SequencerServer* server) {
  if (server == nullptr) {
    for (MessageType type : {kSeqRequest, kSeqProbeResponse, kSeqCrossRequest,
                             kSeqCrossRelease}) {
      mailbox_->RegisterHandler(type_offset_ + type,
                                [](SiteId, const std::any&) {});
    }
    return;
  }
  Route(kSeqRequest, server, &SequencerServer::OnRequest);
  Route(kSeqProbeResponse, server, &SequencerServer::OnProbeAnswer);
  Route(kSeqCrossRequest, server, &SequencerServer::OnCrossRequest);
  Route(kSeqCrossRelease, server, &SequencerServer::OnCrossRelease);
}

void MailboxSequencerPort::AttachClient(SequencerClient* client) {
  Route(kSeqResponse, client, &SequencerClient::OnGrant);
  Route(kSeqCrossGrant, client, &SequencerClient::OnCrossGrant);
  Route(kSeqEpochAnnounce, client, &SequencerClient::OnEpochAnnounce);
  Route(kSeqProbeRequest, client, &SequencerClient::OnProbe);
}

void MailboxSequencerPort::Send(SiteId to, MessageType type, std::any body,
                                const TraceContext& trace,
                                int64_t size_bytes) {
  queues_->Send(to, Envelope{type_offset_ + type, std::move(body), trace},
                size_bytes);
}

void MailboxSequencerPort::AnnounceEpoch(const SeqEpochAnnounce& announce) {
  const Envelope envelope{type_offset_ + kSeqEpochAnnounce, announce, {}};
  queues_->Broadcast(envelope, kBytes);
  queues_->Send(self(), envelope, kBytes);
}

}  // namespace esr::msg
