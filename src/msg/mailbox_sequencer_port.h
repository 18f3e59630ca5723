#ifndef ESR_MSG_MAILBOX_SEQUENCER_PORT_H_
#define ESR_MSG_MAILBOX_SEQUENCER_PORT_H_

#include "msg/mailbox.h"
#include "msg/sequencer.h"
#include "msg/stable_queue.h"

namespace esr::msg {

/// Simulator binding of SequencerPort: typed envelopes over one site's
/// mailbox and stable queues, so a lossy network or a crashed sequencer
/// site delays but never loses an ordering request. A message to the
/// port's own site rides a stable queue like any other (the network loops
/// it back at zero delay), so no input runs inside the call that sent it.
/// One port serves one order service at one site and outlives its server
/// and client; `type_offset` shifts the message types so per-shard
/// services share a mailbox (kShardSeqTypeBase).
class MailboxSequencerPort final : public SequencerPort {
 public:
  MailboxSequencerPort(Mailbox* mailbox, StableQueueManager* queues,
                       MessageType type_offset = 0)
      : mailbox_(mailbox), queues_(queues), type_offset_(type_offset) {}
  MailboxSequencerPort(const MailboxSequencerPort&) = delete;
  MailboxSequencerPort& operator=(const MailboxSequencerPort&) = delete;

  /// Routes the server's inputs arriving here to `server`. Null leaves
  /// no-ops, so a site that no longer hosts the service swallows requests
  /// still addressed to it; detach a server before destroying it.
  void AttachServer(SequencerServer* server);
  void AttachClient(SequencerClient* client);

  SiteId self() const override { return mailbox_->self(); }
  void SendRequest(SiteId to, const SeqBatchRequest& r) override {
    Send(to, kSeqRequest, r, r.trace, kBytes + r.count * kBatchEntryBytes);
  }
  void SendProbeAnswer(SiteId to, const SeqProbeResponse& a) override {
    Send(to, kSeqProbeResponse, a, {}, kBytes);
  }
  void SendGrant(SiteId to, const SeqBatchGrant& g,
                 const TraceContext& trace) override {
    Send(to, kSeqResponse, g, trace, kBytes + g.count * kBatchEntryBytes);
  }
  void SendProbe(SiteId to, const SeqProbeRequest& p) override {
    Send(to, kSeqProbeRequest, p, {}, kBytes);
  }
  void AnnounceEpoch(const SeqEpochAnnounce& announce) override;
  void SendCrossRequest(SiteId to, const SeqCrossRequest& r) override {
    Send(to, kSeqCrossRequest, r, r.trace, kBytes);
  }
  void SendCrossGrant(SiteId to, const SeqCrossGrant& g,
                      const TraceContext& trace) override {
    Send(to, kSeqCrossGrant, g, trace, kBytes);
  }
  void SendCrossRelease(SiteId to, const SeqCrossRelease& r) override {
    Send(to, kSeqCrossRelease, r, {}, kBytes);
  }

 private:
  /// Wire size of a fixed-shape sequencer message, and what each further
  /// coalesced request adds to a batch request or grant.
  static constexpr int64_t kBytes = 48;
  static constexpr int64_t kBatchEntryBytes = 4;

  void Send(SiteId to, MessageType type, std::any body,
            const TraceContext& trace, int64_t size_bytes);
  /// Hands message `type` to `component`'s `input` with the sending site;
  /// a body of another type is dropped.
  template <typename Component, typename T>
  void Route(MessageType type, Component* component,
             void (Component::*input)(SiteId, const T&));

  Mailbox* mailbox_;
  StableQueueManager* queues_;
  MessageType type_offset_;
};

}  // namespace esr::msg

#endif  // ESR_MSG_MAILBOX_SEQUENCER_PORT_H_
