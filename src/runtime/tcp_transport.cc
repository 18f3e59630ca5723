#include "runtime/tcp_transport.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ESR_TCP_TRANSPORT_POSIX 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <chrono>

#include "common/wire.h"

namespace esr::runtime {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Frame payload kinds (the payload's first byte, inside the [len][crc]
/// wire frame). A hello is U8 kind, U32 sender site id; a message is laid
/// out by EncodeMessageFrame (tcp_transport.h).
constexpr uint8_t kFrameHello = 0;
constexpr uint8_t kFrameMessage = 1;

std::string EncodeHello(SiteId self) {
  wire::Encoder e;
  e.U8(kFrameHello);
  e.U32(static_cast<uint32_t>(self));
  std::string framed;
  wire::FrameAppend(framed, e.bytes());
  return framed;
}

bool ParseHostPort(const std::string& host_port, std::string* host,
                   int* port) {
  const size_t colon = host_port.rfind(':');
  if (colon == std::string::npos) return false;
  *host = host_port.substr(0, colon);
  if (host->empty() || *host == "localhost") *host = "127.0.0.1";
  char* end = nullptr;
  const long p = std::strtol(host_port.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p < 0 || p > 65535) return false;
  *port = static_cast<int>(p);
  return true;
}

}  // namespace

std::string EncodeMessageFrame(const Message& msg) {
  wire::Encoder e;
  e.U8(kFrameMessage);
  e.Varint32(msg.type);
  e.I64(msg.trace.et);
  e.Varint(static_cast<uint64_t>(msg.trace.parent_span));
  e.Varint32(msg.trace.origin);
  e.Varint32(msg.trace.msg_type);
  e.Raw(msg.payload);
  std::string framed;
  wire::FrameAppend(framed, e.bytes());
  return framed;
}

bool DecodeMessageFrame(std::string_view payload, Message* msg) {
  wire::Decoder d(payload);
  if (d.U8() != kFrameMessage) return false;
  msg->type = d.Varint32();
  msg->trace.et = d.I64();
  msg->trace.parent_span = static_cast<int64_t>(d.Varint());
  msg->trace.origin = d.Varint32();
  msg->trace.msg_type = d.Varint32();
  if (!d.ok()) return false;
  msg->payload.assign(payload.substr(payload.size() - d.Remaining()));
  return true;
}

#ifdef ESR_TCP_TRANSPORT_POSIX

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// Outbound (dialed) side for one peer: a tiny connect state machine plus
/// the frame queue. The queue holds whole frames; on a broken connection
/// the partially-written head frame restarts from offset 0 on the next
/// epoch (the receiver discarded the torn prefix), which is where the
/// at-least-once duplicate can come from.
struct TcpTransport::Peer {
  enum class State { kIdle, kConnecting, kConnected };

  std::string host;
  int port = 0;
  State state = State::kIdle;
  int fd = -1;
  std::deque<std::string> queue;
  size_t head_off = 0;
  int64_t queued_bytes = 0;
  int64_t backoff_ms = 0;
  int64_t next_attempt_ms = 0;  // SteadyNowMs() deadline while kIdle

  void CloseAndBackoff(int64_t backoff_min, int64_t backoff_max) {
    if (fd >= 0) close(fd);
    fd = -1;
    state = State::kIdle;
    head_off = 0;  // resend the torn head frame whole on the next epoch
    backoff_ms = backoff_ms == 0
                     ? backoff_min
                     : std::min(backoff_max, backoff_ms * 2);
    next_attempt_ms = SteadyNowMs() + backoff_ms;
  }
};

/// Accepted connection: unidentified until its hello frame arrives, then a
/// framed message source attributed to `from`.
struct TcpTransport::Inbound {
  int fd = -1;
  std::string buf;
  SiteId from = kInvalidSiteId;
  bool bad = false;
};

TcpTransport::TcpTransport(TcpTransportConfig config, Executor* executor)
    : config_(std::move(config)),
      executor_(executor),
      alive_(std::make_shared<std::atomic<bool>>(true)) {
  peers_.resize(config_.peers.size());
  for (size_t s = 0; s < config_.peers.size(); ++s) {
    auto peer = std::make_unique<Peer>();
    ParseHostPort(config_.peers[s], &peer->host, &peer->port);
    peers_[s] = std::move(peer);
  }
}

TcpTransport::~TcpTransport() { Stop(); }

void TcpTransport::SetPeerAddress(SiteId site, const std::string& host_port) {
  if (site < 0 || static_cast<size_t>(site) >= peers_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ParseHostPort(host_port, &peers_[site]->host, &peers_[site]->port);
}

void TcpTransport::Wake() {
  const char byte = 'x';
  (void)!write(wake_fds_[1], &byte, 1);
}

void TcpTransport::Send(SiteId to, Message msg) {
  if (!running_.load(std::memory_order_acquire)) return;
  if (to == config_.self) {
    // Loopback short-circuit: straight back onto the strand.
    auto alive = alive_;
    Handler handler = handler_;
    executor_->Post([alive, handler, msg = std::move(msg),
                     self = config_.self]() mutable {
      if (!alive->load(std::memory_order_acquire) || !handler) return;
      handler(self, std::move(msg));
    });
    return;
  }
  if (to < 0 || static_cast<size_t>(to) >= peers_.size()) return;
  std::string frame = EncodeMessageFrame(msg);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Peer& peer = *peers_[to];
    if (peer.queued_bytes + static_cast<int64_t>(frame.size()) >
        config_.max_outbound_bytes_per_peer) {
      dropped_sends_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    peer.queued_bytes += static_cast<int64_t>(frame.size());
    peer.queue.push_back(std::move(frame));
  }
  Wake();
}

void TcpTransport::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  std::string host;
  int port = 0;
  if (static_cast<size_t>(config_.self) < config_.peers.size()) {
    ParseHostPort(config_.peers[config_.self], &host, &port);
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return;
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 16) != 0 || !SetNonBlocking(listen_fd_)) {
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  if (pipe(wake_fds_) != 0 || !SetNonBlocking(wake_fds_[0])) {
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  started_ok_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { IoLoop(); });
}

void TcpTransport::Stop() {
  alive_->store(false, std::memory_order_release);
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    Wake();
    if (thread_.joinable()) thread_.join();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

void TcpTransport::IoLoop() {
  std::vector<Inbound> inbound;
  while (running_.load(std::memory_order_acquire)) {
    // Kick idle dialers whose backoff expired and that have data queued.
    const int64_t now_ms = SteadyNowMs();
    int64_t next_deadline_ms = now_ms + 250;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t s = 0; s < peers_.size(); ++s) {
        if (static_cast<SiteId>(s) == config_.self) continue;
        Peer& peer = *peers_[s];
        if (peer.state != Peer::State::kIdle || peer.queue.empty()) continue;
        if (peer.port == 0) continue;  // address not known yet
        if (peer.next_attempt_ms > now_ms) {
          next_deadline_ms = std::min(next_deadline_ms, peer.next_attempt_ms);
          continue;
        }
        const int fd = socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) continue;
        SetNonBlocking(fd);
        SetNoDelay(fd);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(peer.port));
        if (inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
          close(fd);
          peer.CloseAndBackoff(config_.backoff_min_ms, config_.backoff_max_ms);
          continue;
        }
        const int rc =
            connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        if (rc == 0 || errno == EINPROGRESS) {
          peer.fd = fd;
          peer.state = Peer::State::kConnecting;
        } else {
          close(fd);
          peer.CloseAndBackoff(config_.backoff_min_ms, config_.backoff_max_ms);
        }
      }
    }

    // Build the poll set: wake pipe, listener, dialers, accepted conns.
    std::vector<pollfd> fds;
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    std::vector<size_t> peer_at(fds.size(), SIZE_MAX);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t s = 0; s < peers_.size(); ++s) {
        Peer& peer = *peers_[s];
        if (peer.fd < 0) continue;
        short events = 0;
        if (peer.state == Peer::State::kConnecting) {
          events = POLLOUT;
        } else if (!peer.queue.empty()) {
          events = POLLOUT;
        } else {
          events = POLLIN;  // detect peer close/reset promptly
        }
        fds.push_back(pollfd{peer.fd, events, 0});
        peer_at.push_back(s);
      }
    }
    const size_t inbound_base = fds.size();
    for (const Inbound& conn : inbound) {
      fds.push_back(pollfd{conn.fd, POLLIN, 0});
    }

    const int timeout_ms =
        static_cast<int>(std::max<int64_t>(1, next_deadline_ms - now_ms));
    if (poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) {
      char drain[64];
      while (read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (fds[1].revents != 0) {
      for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd)) {
          close(fd);
          continue;
        }
        SetNoDelay(fd);
        Inbound conn;
        conn.fd = fd;
        inbound.push_back(std::move(conn));
      }
    }

    // Dialer progress.
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 2; i < inbound_base; ++i) {
        if (fds[i].revents == 0) continue;
        Peer& peer = *peers_[peer_at[i]];
        if (peer.fd != fds[i].fd) continue;  // replaced meanwhile
        if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
          peer.CloseAndBackoff(config_.backoff_min_ms, config_.backoff_max_ms);
          continue;
        }
        if (peer.state == Peer::State::kConnecting) {
          int err = 0;
          socklen_t len = sizeof(err);
          getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            peer.CloseAndBackoff(config_.backoff_min_ms,
                                 config_.backoff_max_ms);
            continue;
          }
          peer.state = Peer::State::kConnected;
          peer.backoff_ms = 0;
          // New connection epoch: hello first, then the retained queue
          // from the head frame's start.
          peer.queue.push_front(EncodeHello(config_.self));
          peer.queued_bytes +=
              static_cast<int64_t>(peer.queue.front().size());
          peer.head_off = 0;
        }
        if (peer.state == Peer::State::kConnected &&
            (fds[i].revents & POLLIN) != 0) {
          // The receiving side never sends; readable means close/reset.
          char probe[64];
          const ssize_t n = read(peer.fd, probe, sizeof(probe));
          if (n == 0 ||
              (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
            peer.CloseAndBackoff(config_.backoff_min_ms,
                                 config_.backoff_max_ms);
            continue;
          }
        }
        while (peer.state == Peer::State::kConnected && !peer.queue.empty()) {
          const std::string& head = peer.queue.front();
          const ssize_t n = write(peer.fd, head.data() + peer.head_off,
                                  head.size() - peer.head_off);
          if (n > 0) {
            peer.head_off += static_cast<size_t>(n);
            if (peer.head_off == head.size()) {
              peer.queued_bytes -= static_cast<int64_t>(head.size());
              peer.queue.pop_front();
              peer.head_off = 0;
            }
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          peer.CloseAndBackoff(config_.backoff_min_ms, config_.backoff_max_ms);
          break;
        }
      }
    }

    // Inbound reads + frame decode.
    for (size_t i = inbound_base; i < fds.size(); ++i) {
      Inbound& conn = inbound[i - inbound_base];
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        conn.bad = true;
        continue;
      }
      char buf[4096];
      bool closed = false;
      for (;;) {
        const ssize_t n = read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
          conn.buf.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) closed = true;
        break;
      }
      size_t pos = 0;
      std::string_view payload;
      wire::FrameResult framing = wire::FrameResult::kIncomplete;
      // A frame whose CRC holds but whose content this connection cannot
      // accept ends it the same way as a bad CRC.
      bool rejected = false;
      while ((framing = wire::FrameRead(conn.buf, &pos, &payload,
                                        kMaxFramePayloadBytes)) ==
             wire::FrameResult::kFrame) {
        wire::Decoder d(payload);
        if (d.U8() == kFrameHello) {
          // One hello per connection, naming a peer: a second hello would
          // let the sender speak as another site.
          const SiteId from = static_cast<SiteId>(d.U32());
          if (!d.ok() || conn.from != kInvalidSiteId || from < 0 ||
              from >= static_cast<SiteId>(config_.peers.size()) ||
              from == config_.self) {
            rejected = true;
            break;
          }
          conn.from = from;
          continue;
        }
        // A message before the hello, an unknown kind, or an envelope that
        // does not decode.
        Message msg;
        if (conn.from == kInvalidSiteId || !DecodeMessageFrame(payload, &msg)) {
          rejected = true;
          break;
        }
        auto alive = alive_;
        Handler handler = handler_;
        const SiteId from = conn.from;
        executor_->Post(
            [alive, handler, from, msg = std::move(msg)]() mutable {
              if (!alive->load(std::memory_order_acquire) || !handler) return;
              handler(from, std::move(msg));
            });
      }
      if (rejected || framing == wire::FrameResult::kCorrupt) {
        corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
        conn.bad = true;
      }
      conn.buf.erase(0, pos);
      // A decodable-later partial frame is fine; corrupt data or EOF ends
      // the connection epoch (dialer will reconnect).
      if (closed || conn.bad) {
        close(conn.fd);
        conn.fd = -1;
      }
    }
    inbound.erase(std::remove_if(inbound.begin(), inbound.end(),
                                 [](const Inbound& c) { return c.fd < 0; }),
                  inbound.end());
  }
  for (Inbound& conn : inbound) {
    if (conn.fd >= 0) close(conn.fd);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& peer : peers_) {
    if (peer->fd >= 0) close(peer->fd);
    peer->fd = -1;
    peer->state = Peer::State::kIdle;
  }
}

#else  // !ESR_TCP_TRANSPORT_POSIX

struct TcpTransport::Peer {};
struct TcpTransport::Inbound {};

TcpTransport::TcpTransport(TcpTransportConfig config, Executor* executor)
    : config_(std::move(config)),
      executor_(executor),
      alive_(std::make_shared<std::atomic<bool>>(true)) {}
TcpTransport::~TcpTransport() = default;
void TcpTransport::Send(SiteId, Message) {}
void TcpTransport::Start() {}
void TcpTransport::Stop() {}
void TcpTransport::SetPeerAddress(SiteId, const std::string&) {}
void TcpTransport::Wake() {}
void TcpTransport::IoLoop() {}

#endif  // ESR_TCP_TRANSPORT_POSIX

}  // namespace esr::runtime
