#ifndef ESR_RUNTIME_TCP_TRANSPORT_H_
#define ESR_RUNTIME_TCP_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "runtime/interfaces.h"

namespace esr::runtime {

/// Frames `msg` as TcpTransport sends it: wire::FrameAppend's
/// [u32 len][u32 crc] header, then the envelope
///   U8 kind (1 = message), varint type, I64 trace.et,
///   varint trace.parent_span, varint trace.origin, varint trace.msg_type,
/// then msg.payload as the rest of the frame. The varints carry the
/// 32-bit fields as their unsigned casts, so every TraceContext
/// round-trips exactly; an OrdupNode message, whose small fields each fit
/// one byte, spends 21 B on framing and envelope.
std::string EncodeMessageFrame(const Message& msg);

/// Decodes one message frame's payload (the bytes wire::FrameRead returns)
/// into `*msg`. False for a payload of another kind, a truncated field, or
/// a varint above its field's width.
bool DecodeMessageFrame(std::string_view payload, Message* msg);

/// Static endpoint table for a TcpTransport: `peers[s]` is site s's
/// "host:port" listen address (this site's own entry gives its listen
/// port; "host:0" binds an ephemeral port, readable via port()).
struct TcpTransportConfig {
  SiteId self = 0;
  std::vector<std::string> peers;
  /// Reconnect backoff: doubles from min to max per failed attempt,
  /// resets on a successful connect.
  int64_t backoff_min_ms = 50;
  int64_t backoff_max_ms = 2'000;
  /// Bound on buffered outbound bytes per peer; beyond it new sends to
  /// that peer are dropped (counted) — the protocol layer's retries are
  /// the delivery guarantee, not this buffer.
  int64_t max_outbound_bytes_per_peer = 64 << 20;
};

/// Real binding of runtime::Transport: a full mesh of directed TCP
/// connections over POSIX sockets, dependency-free, following the
/// obs::HttpExporter idiom (one poll loop thread, self-pipe wake,
/// non-blocking fds).
///
/// Wiring: site i's *outbound* connection to peer j carries only i→j
/// messages; inbound connections are accept()ed and identified by a hello
/// frame carrying the sender's site id. A connection gets exactly one
/// hello, naming a peer other than this site; a second hello, or one
/// naming this site or a site outside `peers`, ends the connection and
/// counts in corrupt_frames(). Messages are length+CRC framed
/// with the WAL codec (esr::wire). A partial frame waits for more bytes; a
/// frame with a bad CRC or a length above kMaxFramePayloadBytes ends the
/// connection (epoch) at once, and the dialer reconnects with backoff. So
/// does a frame with a valid CRC that is a message before the hello, of an
/// unknown kind, or whose envelope does not decode; it too counts in
/// corrupt_frames().
///
/// Delivery semantics: in-order per (sender, receiver) within a
/// connection epoch; a reconnect may replay the frame that straddled the
/// cut, so end-to-end the contract is at-least-once, in order, with
/// possible suffix loss while disconnected. Handler callbacks are posted
/// to the owner's Executor (strand) — never invoked from the IO thread —
/// and never run after Stop() returns observable effects (a stopped
/// transport's queued posts no-op).
class TcpTransport : public Transport {
 public:
  TcpTransport(TcpTransportConfig config, Executor* executor);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  SiteId self() const override { return config_.self; }
  void SetHandler(Handler handler) override { handler_ = std::move(handler); }

  void Send(SiteId to, Message msg) override;
  void Start() override;
  void Stop() override;

  /// Rebinds peer `site`'s address (tests binding ephemeral ports learn
  /// them after Start). Takes effect on the next connect attempt.
  void SetPeerAddress(SiteId site, const std::string& host_port);

  /// Bound listen port (valid after Start; differs from the configured one
  /// when it was 0).
  int port() const { return port_.load(std::memory_order_acquire); }

  /// True once Start() bound and listened successfully.
  bool ok() const { return started_ok_.load(std::memory_order_acquire); }

  /// Outbound messages dropped against the per-peer buffer bound.
  int64_t dropped_sends() const {
    return dropped_sends_.load(std::memory_order_relaxed);
  }

  /// Inbound frames with a bad CRC or an over-limit length, rejected
  /// hellos, and frames with a valid CRC that carry no acceptable message
  /// (before the hello, an unknown kind, an undecodable envelope); each one
  /// closed its connection.
  int64_t corrupt_frames() const {
    return corrupt_frames_.load(std::memory_order_relaxed);
  }

 private:
  struct Peer;    // outbound (dialed) connection state machine
  struct Inbound; // accepted connection: hello, then framed messages

  void IoLoop();
  void Wake();

  TcpTransportConfig config_;
  Executor* executor_;
  Handler handler_;

  /// Cleared before Stop() joins: delivery thunks already queued on the
  /// executor check it and become no-ops, closing the "callback after
  /// Stop" hole without the executor knowing about transports.
  std::shared_ptr<std::atomic<bool>> alive_;

  std::mutex mu_;  // guards peers_' queues and addresses (Send vs IO thread)
  std::vector<std::unique_ptr<Peer>> peers_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::atomic<int> port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> started_ok_{false};
  std::atomic<int64_t> dropped_sends_{0};
  std::atomic<int64_t> corrupt_frames_{0};
  std::thread thread_;
};

}  // namespace esr::runtime

#endif  // ESR_RUNTIME_TCP_TRANSPORT_H_
