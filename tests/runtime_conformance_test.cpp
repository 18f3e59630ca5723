// Conformance tests for the runtime seam (runtime/interfaces.h) against
// BOTH bindings — the deterministic simulator binding (SimTransport +
// Simulator-as-Clock + SimExecutor) and the real binding (TcpTransport +
// TimerWheel + ThreadPool strands). The contracts checked are the ones
// protocol code is written against:
//
//   * delivery: sent messages arrive, in per-peer send order (sim: with
//     jitter disabled), with sender identity and payload intact
//   * no delivery after Stop(): a stopped transport never invokes its
//     handler again, even for messages already in flight
//   * timers: earlier deadline fires first, FIFO among equal deadlines;
//     Cancel() == true guarantees the callback never runs — including for
//     a timer already expired and posted but not yet executed
//   * strand: tasks never run concurrently and run in post order
//
// Plus end-to-end checks of OrdupNode over the sim binding: a 3-site
// cluster converges deterministically (also under loss and reordering),
// stability costs no messages beyond one apply ack per follower and reaches
// every site, an apply ack counts only for the site that sent it, a WAL with
// the stability records older versions wrote still replays, and a site
// amnesia-restart with an in-flight sequencer grant is healed (the order
// hole is filled, the cluster drains). History is trimmed to the
// applied-but-unstable window; a site restarted below its peers' trim
// point (no WAL, or a WAL that lost its tail) converges by snapshot; a
// corrupt or stale snapshot changes nothing. The order server at site 0
// restarts without reissuing a position (a survivor's probe answer covers
// positions it holds only in the hold-back buffer or under an installed
// snapshot), unseals once its probe times out,
// credits a probe answer only to its sender, drops a request for an
// out-of-range count, and costs one request and one grant per update in
// steady state. Raw-socket tests check the
// TCP guards: a bad-CRC frame, an oversized length prefix, or a frame with
// a valid CRC but no acceptable message (an undecodable envelope, an
// unknown kind, a message before the hello) closes the connection and
// counts as corrupt, and a fresh connection still delivers; a second
// hello, or a hello naming the receiver itself or no peer, closes the
// connection.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/wire.h"
#include "esr/mset.h"
#include "msg/mailbox.h"
#include "msg/sequencer_wire.h"
#include "obs/metric_registry.h"
#include "recovery/checkpointer.h"
#include "recovery/codec.h"
#include "recovery/storage.h"
#include "recovery/wal.h"
#include "runtime/interfaces.h"
#include "runtime/ordup_node.h"
#include "runtime/sim_binding.h"
#include "runtime/tcp_transport.h"
#include "runtime/thread_pool.h"
#include "runtime/timer_wheel.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/operation.h"

namespace esr::runtime {
namespace {

/// Deterministic executor for TimerWheel unit tests: posted thunks queue
/// until the test drains them explicitly. Mutex-guarded because the wheel
/// posts from its own thread while the test polls and drains.
class ManualExecutor : public Executor {
 public:
  void Post(std::function<void()> fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  int Drain() {
    int n = 0;
    for (;;) {
      std::function<void()> fn;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.empty()) return n;
        fn = std::move(queue_.front());
        queue_.pop_front();
      }
      fn();
      ++n;
    }
  }
  bool WaitNonEmpty(int timeout_ms) {
    for (int i = 0; i < timeout_ms; ++i) {
      if (!Empty()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return !Empty();
  }

 private:
  bool Empty() {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.empty();
  }

  std::mutex mu_;
  std::deque<std::function<void()>> queue_;
};

sim::NetworkConfig LosslessFifoNetwork() {
  sim::NetworkConfig config;
  config.base_latency_us = 1'000;
  config.jitter_us = 0;  // equal latency + FIFO tiebreak = in-order
  config.loss_probability = 0.0;
  return config;
}

Message Msg(int type, std::string payload) {
  Message m;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

/// --- Sim binding -----------------------------------------------------------

TEST(SimBindingTest, DeliversInOrderWithSenderAndPayload) {
  sim::Simulator simulator;
  obs::MetricRegistry metrics;
  sim::Network network(&simulator, 2, LosslessFifoNetwork(), /*seed=*/1,
                       metrics);
  SimTransport a(&network, 0);
  SimTransport b(&network, 1);
  std::vector<std::pair<SiteId, std::string>> got;
  b.SetHandler([&](SiteId from, Message msg) {
    got.emplace_back(from, msg.payload);
  });
  a.Start();
  b.Start();
  for (int i = 0; i < 50; ++i) {
    a.Send(1, Msg(7, "m" + std::to_string(i)));
  }
  simulator.Run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].first, 0);
    EXPECT_EQ(got[static_cast<size_t>(i)].second, "m" + std::to_string(i));
  }
}

TEST(SimBindingTest, NoDeliveryAfterStopEvenForInFlightMessages) {
  sim::Simulator simulator;
  obs::MetricRegistry metrics;
  sim::Network network(&simulator, 2, LosslessFifoNetwork(), /*seed=*/1,
                       metrics);
  SimTransport a(&network, 0);
  SimTransport b(&network, 1);
  int delivered = 0;
  b.SetHandler([&](SiteId, Message) { ++delivered; });
  a.Start();
  b.Start();
  a.Send(1, Msg(1, "in-flight"));
  b.Stop();  // message is scheduled for delivery but must be dropped
  simulator.Run();
  EXPECT_EQ(delivered, 0);
}

TEST(SimBindingTest, SimulatorClockTimerOrderingAndCancel) {
  sim::Simulator simulator;
  Clock* clock = &simulator;
  std::vector<int> fired;
  clock->Schedule(300, [&] { fired.push_back(3); });
  clock->Schedule(100, [&] { fired.push_back(1); });
  const TimerId second = clock->Schedule(200, [&] { fired.push_back(2); });
  clock->Schedule(100, [&] { fired.push_back(11); });  // FIFO among equals
  EXPECT_TRUE(clock->Cancel(second));
  EXPECT_FALSE(clock->Cancel(second));  // already cancelled
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 3}));
  EXPECT_EQ(clock->Now(), 300);
}

TEST(SimBindingTest, SimExecutorPreservesPostOrder) {
  sim::Simulator simulator;
  SimExecutor executor(&simulator);
  std::vector<int> ran;
  for (int i = 0; i < 10; ++i) {
    executor.Post([&ran, i] { ran.push_back(i); });
  }
  simulator.Run();
  ASSERT_EQ(ran.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ran[static_cast<size_t>(i)], i);
}

/// --- Real binding: thread pool + strand ------------------------------------

TEST(StrandTest, SerializesAndPreservesFifoUnderConcurrentPosts) {
  ThreadPool pool(4);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  std::atomic<bool> in_task{false};
  std::atomic<int> overlaps{0};
  std::vector<int> order;
  constexpr int kPerThread = 200;
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        strand->Post([&, t, i] {
          if (in_task.exchange(true)) overlaps.fetch_add(1);
          order.push_back(t * kPerThread + i);  // unsynchronized on purpose
          in_task.store(false);
        });
      }
    });
  }
  for (auto& th : posters) th.join();
  pool.Shutdown();
  EXPECT_EQ(overlaps.load(), 0);
  ASSERT_EQ(order.size(), static_cast<size_t>(4 * kPerThread));
  // FIFO per poster: each thread's tasks appear in its own post order.
  std::vector<int> next(4, 0);
  for (int v : order) {
    const int t = v / kPerThread;
    EXPECT_EQ(v % kPerThread, next[static_cast<size_t>(t)]);
    ++next[static_cast<size_t>(t)];
  }
}

TEST(StrandTest, RunningInThisStrandIsTrueOnlyInside) {
  ThreadPool pool(2);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  EXPECT_FALSE(strand->RunningInThisStrand());
  std::atomic<bool> inside{false};
  strand->Post([&] { inside.store(strand->RunningInThisStrand()); });
  pool.Shutdown();
  EXPECT_TRUE(inside.load());
}

/// --- Real binding: timer wheel ---------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  ThreadPool pool(1);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  TimerWheel wheel(strand.get());
  wheel.Start();
  std::vector<int> fired;
  std::atomic<int> count{0};
  wheel.Schedule(60'000, [&] { fired.push_back(3); count.fetch_add(1); });
  wheel.Schedule(20'000, [&] { fired.push_back(1); count.fetch_add(1); });
  wheel.Schedule(40'000, [&] { fired.push_back(2); count.fetch_add(1); });
  for (int i = 0; i < 2000 && count.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wheel.Stop();
  pool.Shutdown();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheelTest, CancelBeforeExpiryPreventsRun) {
  ManualExecutor executor;
  TimerWheel wheel(&executor);
  wheel.Start();
  bool ran = false;
  const TimerId id = wheel.Schedule(5'000'000, [&] { ran = true; });
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  wheel.Stop();
  executor.Drain();
  EXPECT_FALSE(ran);
}

TEST(TimerWheelTest, CancelAfterExpiryButBeforeExecutionPreventsRun) {
  // The strongest clause of the Clock contract: a timer whose thunk is
  // already sitting on the executor can still be cancelled — Cancel()
  // returning true means the callback will never run.
  ManualExecutor executor;
  TimerWheel wheel(&executor);
  wheel.Start();
  bool ran = false;
  const TimerId id = wheel.Schedule(1'000, [&] { ran = true; });
  ASSERT_TRUE(executor.WaitNonEmpty(2'000));  // expired and posted
  EXPECT_TRUE(wheel.Cancel(id));
  executor.Drain();  // runs the posted thunk, which must no-op
  EXPECT_FALSE(ran);
  wheel.Stop();
}

TEST(TimerWheelTest, MonotonicNow) {
  ManualExecutor executor;
  TimerWheel wheel(&executor);
  const SimTime a = wheel.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const SimTime b = wheel.Now();
  EXPECT_GE(b - a, 4'000);
}

/// --- Real binding: TCP transport -------------------------------------------

struct TcpPair {
  explicit TcpPair(ThreadPool* pool)
      : strand_a(pool->MakeStrand()), strand_b(pool->MakeStrand()) {
    TcpTransportConfig cfg_a;
    cfg_a.self = 0;
    cfg_a.peers = {"127.0.0.1:0", "127.0.0.1:0"};
    TcpTransportConfig cfg_b = cfg_a;
    cfg_b.self = 1;
    a = std::make_unique<TcpTransport>(cfg_a, strand_a.get());
    b = std::make_unique<TcpTransport>(cfg_b, strand_b.get());
    a->Start();
    b->Start();
    // Ephemeral ports are only known after Start.
    a->SetPeerAddress(1, "127.0.0.1:" + std::to_string(b->port()));
    b->SetPeerAddress(0, "127.0.0.1:" + std::to_string(a->port()));
  }

  std::unique_ptr<Strand> strand_a;
  std::unique_ptr<Strand> strand_b;
  std::unique_ptr<TcpTransport> a;
  std::unique_ptr<TcpTransport> b;
};

TEST(TcpTransportTest, DeliversInOrderWithTypeSenderAndPayload) {
  ThreadPool pool(2);
  TcpPair pair(&pool);
  std::mutex mu;
  std::vector<Message> got;
  std::atomic<int> count{0};
  pair.b->SetHandler([&](SiteId from, Message msg) {
    EXPECT_EQ(from, 0);
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(std::move(msg));
    count.fetch_add(1);
  });
  constexpr int kMessages = 500;
  for (int i = 0; i < kMessages; ++i) {
    pair.a->Send(1, Msg(i % 7, "payload-" + std::to_string(i)));
  }
  for (int i = 0; i < 5000 && count.load() < kMessages; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pair.a->Stop();
  pair.b->Stop();
  pool.Shutdown();
  ASSERT_EQ(got.size(), static_cast<size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].type, i % 7);
    EXPECT_EQ(got[static_cast<size_t>(i)].payload,
              "payload-" + std::to_string(i));
  }
}

TEST(TcpTransportTest, LoopbackSelfSendDelivers) {
  ThreadPool pool(2);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  TcpTransportConfig cfg;
  cfg.self = 0;
  cfg.peers = {"127.0.0.1:0"};
  TcpTransport t(cfg, strand.get());
  std::atomic<int> got{0};
  t.SetHandler([&](SiteId from, Message msg) {
    EXPECT_EQ(from, 0);
    EXPECT_EQ(msg.payload, "self");
    got.fetch_add(1);
  });
  t.Start();
  t.Send(0, Msg(1, "self"));
  for (int i = 0; i < 2000 && got.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.Stop();
  pool.Shutdown();
  EXPECT_EQ(got.load(), 1);
}

TEST(TcpTransportTest, NoDeliveryAfterStop) {
  ThreadPool pool(2);
  TcpPair pair(&pool);
  std::atomic<int> delivered{0};
  pair.b->SetHandler([&](SiteId, Message) { delivered.fetch_add(1); });
  pair.a->Send(1, Msg(1, "warmup"));
  for (int i = 0; i < 5000 && delivered.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(delivered.load(), 1);
  pair.b->Stop();
  const int after_stop = delivered.load();
  for (int i = 0; i < 50; ++i) {
    pair.a->Send(1, Msg(1, "late-" + std::to_string(i)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(delivered.load(), after_stop);
  pair.a->Stop();
  pool.Shutdown();
}

/// A raw loopback client speaking the transport's wire format by hand, to
/// feed a TcpTransport frames no TcpTransport would send.
class RawPeer {
 public:
  explicit RawPeer(int port) : fd_(socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 && connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                     sizeof(addr)) == 0;
  }
  ~RawPeer() {
    if (fd_ >= 0) close(fd_);
  }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  bool connected() const { return connected_; }

  bool Write(const std::string& bytes) {
    return write(fd_, bytes.data(), bytes.size()) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// True once the transport has closed its end (EOF or reset) within
  /// `timeout_ms`.
  bool WaitClosed(int timeout_ms) {
    pollfd p{fd_, POLLIN, 0};
    if (poll(&p, 1, timeout_ms) <= 0) return false;
    char byte;
    return read(fd_, &byte, 1) <= 0;
  }

  /// A hello frame in the transport's layout (see tcp_transport.cc).
  static std::string HelloFrame(SiteId from) {
    wire::Encoder e;
    e.U8(0);
    e.U32(static_cast<uint32_t>(from));
    std::string framed;
    wire::FrameAppend(framed, e.bytes());
    return framed;
  }
  /// A message frame from the transport's own encoder.
  static std::string MessageFrame(int type, const std::string& body) {
    return EncodeMessageFrame(Msg(type, body));
  }

 private:
  int fd_;
  bool connected_ = false;
};

/// A started TcpTransport at site 0 of `sites` whose handler records what
/// arrives; raw peers pose as the other sites.
struct TcpReceiver {
  explicit TcpReceiver(ThreadPool* pool, int sites = 2)
      : strand(pool->MakeStrand()) {
    TcpTransportConfig cfg;
    cfg.self = 0;
    cfg.peers.assign(static_cast<size_t>(sites), "127.0.0.1:0");
    transport = std::make_unique<TcpTransport>(cfg, strand.get());
    transport->SetHandler([this](SiteId from, Message msg) {
      std::lock_guard<std::mutex> lock(mu);
      got.emplace_back(from, std::move(msg.payload));
    });
    transport->Start();
  }

  size_t WaitFor(size_t count) {
    for (int i = 0; i < 5000; ++i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (got.size() >= count) return got.size();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> lock(mu);
    return got.size();
  }

  std::unique_ptr<Strand> strand;
  std::unique_ptr<TcpTransport> transport;
  std::mutex mu;
  std::vector<std::pair<SiteId, std::string>> got;
};

TEST(TcpTransportTest, BadCrcFrameClosesConnectionAndFreshOneDelivers) {
  ThreadPool pool(2);
  TcpReceiver rx(&pool);
  {
    RawPeer peer(rx.transport->port());
    ASSERT_TRUE(peer.connected());
    std::string bad = RawPeer::MessageFrame(3, "corrupted");
    bad.back() ^= 0x5a;  // payload no longer matches the frame's CRC
    ASSERT_TRUE(peer.Write(RawPeer::HelloFrame(1) +
                           RawPeer::MessageFrame(3, "before") + bad));
    EXPECT_TRUE(peer.WaitClosed(5000))
        << "a corrupt frame must end the connection, not stall it";
  }
  EXPECT_EQ(rx.transport->corrupt_frames(), 1);
  RawPeer fresh(rx.transport->port());
  ASSERT_TRUE(fresh.connected());
  ASSERT_TRUE(fresh.Write(RawPeer::HelloFrame(1) +
                          RawPeer::MessageFrame(3, "after")));
  EXPECT_EQ(rx.WaitFor(2), 2u);
  rx.transport->Stop();
  pool.Shutdown();
  ASSERT_EQ(rx.got.size(), 2u);
  EXPECT_EQ(rx.got[0], (std::pair<SiteId, std::string>{1, "before"}));
  EXPECT_EQ(rx.got[1], (std::pair<SiteId, std::string>{1, "after"}));
}

TEST(TcpTransportTest, OversizedLengthClosesConnectionAndFreshOneDelivers) {
  ThreadPool pool(2);
  TcpReceiver rx(&pool);
  {
    RawPeer peer(rx.transport->port());
    ASSERT_TRUE(peer.connected());
    // A 0xFFFFFFFF length prefix and an arbitrary CRC: the transport must
    // reject the header instead of buffering toward 4 GiB.
    ASSERT_TRUE(peer.Write(RawPeer::HelloFrame(1) +
                           std::string("\xff\xff\xff\xff\0\0\0\0", 8) +
                           "trailing bytes"));
    EXPECT_TRUE(peer.WaitClosed(5000))
        << "an oversized length prefix must end the connection";
  }
  EXPECT_EQ(rx.transport->corrupt_frames(), 1);
  RawPeer fresh(rx.transport->port());
  ASSERT_TRUE(fresh.connected());
  ASSERT_TRUE(fresh.Write(RawPeer::HelloFrame(1) +
                          RawPeer::MessageFrame(4, "after")));
  EXPECT_EQ(rx.WaitFor(1), 1u);
  rx.transport->Stop();
  pool.Shutdown();
  ASSERT_EQ(rx.got.size(), 1u);
  EXPECT_EQ(rx.got[0], (std::pair<SiteId, std::string>{1, "after"}));
}

TEST(TcpTransportTest, SecondHelloClosesConnection) {
  // A re-binding hello would let site 1's connection speak as site 2.
  ThreadPool pool(2);
  TcpReceiver rx(&pool, /*sites=*/3);
  {
    RawPeer peer(rx.transport->port());
    ASSERT_TRUE(peer.connected());
    ASSERT_TRUE(peer.Write(RawPeer::HelloFrame(1) +
                           RawPeer::MessageFrame(3, "as-1") +
                           RawPeer::HelloFrame(2) +
                           RawPeer::MessageFrame(3, "as-2")));
    EXPECT_TRUE(peer.WaitClosed(5000))
        << "a second hello must end the connection";
  }
  EXPECT_EQ(rx.transport->corrupt_frames(), 1);
  EXPECT_EQ(rx.WaitFor(1), 1u);
  rx.transport->Stop();
  pool.Shutdown();
  ASSERT_EQ(rx.got.size(), 1u);
  EXPECT_EQ(rx.got[0], (std::pair<SiteId, std::string>{1, "as-1"}));
}

TEST(TcpTransportTest, HelloNamingSelfOrUnknownSiteClosesConnection) {
  ThreadPool pool(2);
  TcpReceiver rx(&pool);
  for (SiteId claimed : {SiteId{0}, SiteId{2}, SiteId{-1}}) {
    RawPeer peer(rx.transport->port());
    ASSERT_TRUE(peer.connected());
    ASSERT_TRUE(peer.Write(RawPeer::HelloFrame(claimed) +
                           RawPeer::MessageFrame(3, "spoofed")));
    EXPECT_TRUE(peer.WaitClosed(5000))
        << "a hello naming site " << claimed << " must end the connection";
  }
  EXPECT_EQ(rx.transport->corrupt_frames(), 3);
  RawPeer fresh(rx.transport->port());
  ASSERT_TRUE(fresh.connected());
  ASSERT_TRUE(fresh.Write(RawPeer::HelloFrame(1) +
                          RawPeer::MessageFrame(4, "after")));
  EXPECT_EQ(rx.WaitFor(1), 1u);
  rx.transport->Stop();
  pool.Shutdown();
  ASSERT_EQ(rx.got.size(), 1u);
  EXPECT_EQ(rx.got[0], (std::pair<SiteId, std::string>{1, "after"}));
}

TEST(TcpTransportTest, UndecodableMessageCountsAsCorruptAndFreshOneDelivers) {
  // Each frame has a valid CRC but carries no acceptable message: an
  // envelope cut inside its varint type, a kind that is neither hello nor
  // message, and a message before any hello. Each closes its connection
  // and counts as corrupt, and a fresh connection still delivers.
  ThreadPool pool(2);
  TcpReceiver rx(&pool);
  auto frame = [](std::string_view payload) {
    std::string framed;
    wire::FrameAppend(framed, payload);
    return framed;
  };
  const std::string bad_streams[] = {
      RawPeer::HelloFrame(1) + frame(std::string_view("\x01\x80", 2)),
      RawPeer::HelloFrame(1) + frame(std::string_view("\x07", 1)),
      RawPeer::MessageFrame(3, "unattributed"),
  };
  int64_t corrupt = 0;
  size_t delivered = 0;
  for (const std::string& bytes : bad_streams) {
    {
      RawPeer peer(rx.transport->port());
      ASSERT_TRUE(peer.connected());
      ASSERT_TRUE(peer.Write(bytes));
      EXPECT_TRUE(peer.WaitClosed(5000))
          << "an undecodable message must end the connection";
    }
    EXPECT_EQ(rx.transport->corrupt_frames(), ++corrupt);
    RawPeer fresh(rx.transport->port());
    ASSERT_TRUE(fresh.connected());
    ASSERT_TRUE(fresh.Write(RawPeer::HelloFrame(1) +
                            RawPeer::MessageFrame(4, "after")));
    ++delivered;
    EXPECT_EQ(rx.WaitFor(delivered), delivered);
  }
  rx.transport->Stop();
  pool.Shutdown();
  EXPECT_EQ(rx.got,
            (std::vector<std::pair<SiteId, std::string>>(3, {1, "after"})));
}

/// --- End to end: OrdupNode over the sim binding ---------------------------

/// A sequencer message (msg/mailbox.h types 3 to 12) one site sent another.
struct SeqSent {
  SiteId from = kInvalidSiteId;
  SiteId to = kInvalidSiteId;
  Message msg;
};

/// Forwards to another transport and tallies, by message type, what its
/// owner sends to other sites; sequencer messages are also kept whole.
class CountingTransport : public Transport {
 public:
  CountingTransport(Transport* inner, std::map<int, int>* sent,
                    std::vector<SeqSent>* seq_sent)
      : inner_(inner), sent_(sent), seq_sent_(seq_sent) {}

  SiteId self() const override { return inner_->self(); }
  void SetHandler(Handler handler) override {
    inner_->SetHandler(std::move(handler));
  }
  void Send(SiteId to, Message msg) override {
    if (to != self()) {
      ++(*sent_)[msg.type];
      if (msg.type >= msg::kSeqRequest && msg.type <= msg::kSeqCrossRelease) {
        seq_sent_->push_back(SeqSent{self(), to, msg});
      }
    }
    inner_->Send(to, std::move(msg));
  }
  void Start() override { inner_->Start(); }
  void Stop() override { inner_->Stop(); }

 private:
  Transport* inner_;
  std::map<int, int>* sent_;
  std::vector<SeqSent>* seq_sent_;
};

struct SimCluster {
  /// `wals[s]`, where given and non-null, is site s's WAL.
  explicit SimCluster(int n, uint64_t seed = 7,
                      sim::NetworkConfig net = LosslessFifoNetwork(),
                      std::vector<recovery::Wal*> wals = {})
      : num_sites(n), network(&simulator, n, net, seed, network_metrics) {
    wals.resize(static_cast<size_t>(n), nullptr);
    for (SiteId s = 0; s < n; ++s) {
      metrics.push_back(std::make_unique<obs::MetricRegistry>());
      AddNode(s, /*incarnation=*/0, wals[static_cast<size_t>(s)]);
    }
    for (auto& node : nodes) node->Start();
  }

  /// Site `s` dies (losing everything not in `wal`) and a new incarnation
  /// starts over `wal` on a fresh transport and metric registry.
  OrdupNode& Restart(SiteId s, int64_t incarnation, recovery::Wal* wal) {
    const auto i = static_cast<size_t>(s);
    nodes[i]->Stop();
    transports[i]->Stop();
    retired_metrics.push_back(std::move(metrics[i]));
    metrics[i] = std::make_unique<obs::MetricRegistry>();
    AddNode(s, incarnation, wal);
    nodes[i]->Start();
    return *nodes[i];
  }

  int64_t Counter(SiteId s, const std::string& name) {
    return metrics[static_cast<size_t>(s)]->GetCounter(name).value();
  }

  void RunUntilAllApplied(SequenceNumber watermark, SimTime horizon) {
    auto all_applied = [&] {
      for (const auto& node : nodes) {
        if (node->applied_watermark() < watermark || !node->Idle()) {
          return false;
        }
      }
      return true;
    };
    while (!all_applied() && simulator.Now() < horizon) {
      simulator.RunUntil(simulator.Now() + 1'000);
    }
  }

  int num_sites;
  sim::Simulator simulator;
  obs::MetricRegistry network_metrics;
  sim::Network network;
  std::vector<std::unique_ptr<obs::MetricRegistry>> metrics;
  std::vector<std::unique_ptr<SimTransport>> transports;
  std::vector<std::unique_ptr<CountingTransport>> counting;
  std::vector<std::unique_ptr<OrdupNode>> nodes;
  /// Messages the nodes sent to other sites, by type.
  std::map<int, int> sent;
  /// The sequencer messages among them, in send order.
  std::vector<SeqSent> seq_sent;

 private:
  void AddNode(SiteId s, int64_t incarnation, recovery::Wal* wal) {
    const auto i = static_cast<size_t>(s);
    auto transport = std::make_unique<SimTransport>(&network, s);
    auto counted = std::make_unique<CountingTransport>(transport.get(), &sent,
                                                       &seq_sent);
    OrdupNodeConfig cfg;
    cfg.self = s;
    cfg.num_sites = num_sites;
    cfg.sequencer_site = 0;
    cfg.incarnation = incarnation;
    auto node = std::make_unique<OrdupNode>(cfg, counted.get(), &simulator,
                                            wal, metrics[i].get());
    if (i < nodes.size()) {
      // The dead incarnation's objects outlive it: late timer callbacks
      // and deliveries still reach them and must find them stopped.
      retired.push_back(std::move(nodes[i]));
      retired_transports.push_back(std::move(transports[i]));
      retired_counting.push_back(std::move(counting[i]));
      nodes[i] = std::move(node);
      transports[i] = std::move(transport);
      counting[i] = std::move(counted);
    } else {
      nodes.push_back(std::move(node));
      transports.push_back(std::move(transport));
      counting.push_back(std::move(counted));
    }
  }

  std::vector<std::unique_ptr<obs::MetricRegistry>> retired_metrics;
  std::vector<std::unique_ptr<OrdupNode>> retired;
  std::vector<std::unique_ptr<SimTransport>> retired_transports;
  std::vector<std::unique_ptr<CountingTransport>> retired_counting;
};

TEST(OrdupNodeSimTest, ThreeSitesConvergeDeterministically) {
  uint64_t first_digest = 0;
  for (int run = 0; run < 2; ++run) {
    SimCluster cluster(3);
    for (int round = 0; round < 20; ++round) {
      for (SiteId s = 0; s < 3; ++s) {
        cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
            {store::Operation::Increment(1 + round % 4, 1 + s)});
      }
    }
    // Bounded horizon: the retry loop re-arms itself while nodes run, so
    // the event queue never drains on its own.
    cluster.simulator.RunUntil(5'000'000);
    const uint64_t digest = cluster.nodes[0]->store().StateDigest();
    for (SiteId s = 0; s < 3; ++s) {
      OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
      EXPECT_EQ(node.applied_watermark(), 60) << "site " << s;
      EXPECT_EQ(node.store().StateDigest(), digest) << "site " << s;
      EXPECT_TRUE(node.Idle()) << "site " << s;
      EXPECT_EQ(node.stable_count(), 60) << "site " << s;
    }
    if (run == 0) {
      first_digest = digest;
    } else {
      EXPECT_EQ(digest, first_digest) << "determinism across identical runs";
    }
  }
}

/// Runs 15 rounds of one update per site over a lossy, jittery network and
/// checks that the cluster converges, every update becomes stable, once, at
/// every site, and every site trimmed its history without a snapshot.
void ExpectConvergesUnderLoss(uint64_t seed, double loss) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  sim::NetworkConfig net;
  net.base_latency_us = 1'000;
  net.jitter_us = 900;
  net.loss_probability = loss;
  SimCluster cluster(3, seed, net);
  std::vector<int> fired(45, 0);
  for (int round = 0; round < 15; ++round) {
    for (SiteId s = 0; s < 3; ++s) {
      const size_t i = static_cast<size_t>(round * 3 + s);
      cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
          {store::Operation::Increment(1 + s, 1)}, [&fired, i] { ++fired[i]; });
    }
  }
  cluster.simulator.RunUntil(10'000'000);
  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  for (SiteId s = 0; s < 3; ++s) {
    OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), 45) << "site " << s;
    EXPECT_EQ(node.store().StateDigest(), digest) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
    EXPECT_EQ(node.stable_count(), 45) << "site " << s;
    EXPECT_EQ(node.history_msets(), 0) << "site " << s;
    EXPECT_EQ(cluster.Counter(s, "esr_runtime_snapshots_sent_total"), 0)
        << "site " << s;
  }
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], 1) << "on_stable of update " << i;
  }
}

TEST(OrdupNodeSimTest, ConvergesUnderLossAndReordering) {
  ExpectConvergesUnderLoss(/*seed=*/42, /*loss=*/0.05);
}

TEST(OrdupNodeSimTest, StabilityReachesEverySiteDespiteLostWatermarks) {
  // At 20% loss some final watermark messages are lost in most of these
  // runs; only the stall probe's echo gets them re-sent.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ExpectConvergesUnderLoss(seed, /*loss=*/0.2);
  }
}

TEST(OrdupNodeSimTest, HeavyLossLeavesNoSiteStuck) {
  // With the 5% and 20% cases above, the loss sweep: trimming history must
  // never leave a gap that only a snapshot could fill.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ExpectConvergesUnderLoss(seed, /*loss=*/0.4);
  }
}

TEST(OrdupNodeSimTest, StabilityNeedsOnlyApplyAcksAndReachesEverySite) {
  // Sites 0 and 1 originate; site 2 only follows, so it never receives an
  // apply ack and learns the others' progress from watermark gossip alone.
  constexpr int kUpdates = 40;
  constexpr SimDuration kRetry = OrdupNodeConfig{}.retry_interval_us;
  SimCluster cluster(3);
  int fired = 0;
  for (int i = 0; i < kUpdates; ++i) {
    cluster.nodes[static_cast<size_t>(i % 2)]->SubmitUpdate(
        {store::Operation::Increment(1 + i % 4, 1)}, [&fired] { ++fired; });
  }
  auto all_applied = [&] {
    for (const auto& node : cluster.nodes) {
      if (node->applied_watermark() < kUpdates) return false;
    }
    return true;
  };
  while (!all_applied() && cluster.simulator.Now() < 5'000'000) {
    cluster.simulator.RunUntil(cluster.simulator.Now() + 100);
  }
  ASSERT_TRUE(all_applied());
  cluster.simulator.RunUntil(cluster.simulator.Now() + 2 * kRetry);
  for (SiteId s = 0; s < 3; ++s) {
    const OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), kUpdates) << "site " << s;
    EXPECT_EQ(node.stable_count(), node.applied_watermark()) << "site " << s;
  }
  EXPECT_EQ(fired, kUpdates);

  // Quiet afterwards: no retransmission, no stability round.
  cluster.simulator.RunUntil(cluster.simulator.Now() + 20 * kRetry);
  EXPECT_EQ(cluster.sent[core::kStableMsg], 0);
  EXPECT_EQ(cluster.sent[112], 0);  // the former stable-ack id
  EXPECT_EQ(cluster.sent[core::kMsetMsg], 2 * kUpdates);
  EXPECT_EQ(cluster.sent[core::kApplyAckMsg], 2 * kUpdates);
}

TEST(OrdupNodeSimTest, ApplyAckCountsOnlyForItsSender) {
  // With site 1 down, site 0's update can never become stable. Site 2
  // sends an apply ack in the payload format that named the acking site,
  // naming site 1: it must not count as site 1's.
  SimCluster cluster(3);
  cluster.nodes[1]->Stop();
  cluster.transports[1]->Stop();
  bool fired = false;
  const EtId et = cluster.nodes[0]->SubmitUpdate(
      {store::Operation::Increment(1, 1)}, [&fired] { fired = true; });
  cluster.simulator.RunUntil(2'000'000);
  ASSERT_EQ(cluster.nodes[2]->applied_watermark(), 1);
  EXPECT_FALSE(fired);

  wire::Encoder spoof;
  spoof.I64(et);
  spoof.U32(1);
  Message ack = Msg(core::kApplyAckMsg, spoof.Take());
  ack.trace.et = et;
  cluster.transports[2]->Send(0, std::move(ack));
  cluster.simulator.RunUntil(3'000'000);
  EXPECT_FALSE(fired);
  EXPECT_EQ(cluster.nodes[0]->stable_count(), 0);
  EXPECT_FALSE(cluster.nodes[0]->Idle());
}

TEST(OrdupNodeSimTest, WalWithOldStableRecordsReplaysIdentically) {
  // Older versions appended a kStable record per stable ET. Replay must
  // skip them: the same MSets with and without them restore the same state.
  struct Replayed {
    SequenceNumber watermark = 0;
    uint64_t digest = 0;
    size_t stable_records = 0;
  };
  auto replay = [](bool with_stable_records) {
    sim::Simulator simulator;
    obs::MetricRegistry metrics;
    sim::Network network(&simulator, 3, LosslessFifoNetwork(), 7,
                         metrics);
    recovery::MemoryStorage storage;
    recovery::Wal wal(&simulator, &storage, 1, recovery::RecoveryConfig{},
                      nullptr);
    for (SequenceNumber pos = 1; pos <= 10; ++pos) {
      core::Mset mset;
      mset.et = 100 + pos;
      mset.origin = static_cast<SiteId>(pos % 3);
      mset.global_order = pos;
      mset.timestamp = LamportTimestamp{pos, mset.origin};
      mset.operations = {store::Operation::Increment(1 + pos % 4, pos)};
      wal.AppendMset(mset);
      if (with_stable_records && pos % 2 == 0) {
        wal.AppendStable(mset.et - 1, LamportTimestamp{});
        wal.AppendStable(mset.et, LamportTimestamp{});
      }
    }
    wal.Flush();
    Replayed out;
    for (const recovery::WalRecord& rec : wal.ReadAll()) {
      if (rec.type == recovery::WalRecordType::kStable) ++out.stable_records;
    }
    SimTransport transport(&network, 1);
    OrdupNodeConfig cfg;
    cfg.self = 1;
    cfg.num_sites = 3;
    OrdupNode node(cfg, &transport, &simulator, &wal, nullptr);
    node.Start();
    out.watermark = node.applied_watermark();
    out.digest = node.store().StateDigest();
    node.Stop();
    return out;
  };
  const Replayed old_format = replay(true);
  const Replayed new_format = replay(false);
  EXPECT_EQ(old_format.stable_records, 10u);
  EXPECT_EQ(new_format.stable_records, 0u);
  EXPECT_EQ(old_format.watermark, 10);
  EXPECT_EQ(new_format.watermark, 10);
  EXPECT_EQ(old_format.digest, new_format.digest);
}

TEST(OrdupNodeSimTest, AmnesiaRestartWithInFlightGrantHealsOrderHole) {
  // Site 1 submits one update and dies with the sequencer's grant still in
  // flight: position 1 is granted but no MSet for it will ever exist. The
  // restarted incarnation must make the cluster whole again — the server
  // detects the incarnation jump, probes, and fills the hole with a no-op.
  SimCluster cluster(3);
  cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(1, 100)});
  // The order server only activates once its startup probe round-trip
  // finishes (t~2000, epoch 2); site 1's request is then re-sent on the
  // epoch announce (t~3000), granted at t~4000, and the grant lands back at
  // t~5000. Stop site 1 at t=4500: the grant is consumed by a dead site.
  cluster.simulator.RunUntil(4'500);
  cluster.nodes[1]->Stop();
  cluster.transports[1]->Stop();
  cluster.simulator.RunUntil(1'000'000);
  EXPECT_EQ(cluster.nodes[0]->applied_watermark(), 0);  // the hole stalls all

  // Amnesia restart: a fresh node, same site id, higher incarnation.
  auto transport = std::make_unique<SimTransport>(&cluster.network, 1);
  OrdupNodeConfig cfg;
  cfg.self = 1;
  cfg.num_sites = 3;
  cfg.sequencer_site = 0;
  cfg.incarnation = 1'000'000;
  OrdupNode restarted(cfg, transport.get(), &cluster.simulator, nullptr,
                      nullptr);
  restarted.Start();
  restarted.SubmitUpdate({store::Operation::Increment(2, 5)});
  cluster.nodes[0]->SubmitUpdate({store::Operation::Increment(3, 7)});
  cluster.simulator.RunUntil(10'000'000);

  // Healed: the granted-but-dead position was no-op filled, both live
  // updates applied, everyone agrees.
  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  EXPECT_EQ(cluster.nodes[0]->applied_watermark(), 3);
  EXPECT_EQ(cluster.nodes[2]->applied_watermark(), 3);
  EXPECT_EQ(restarted.applied_watermark(), 3);
  EXPECT_EQ(restarted.store().StateDigest(), digest);
  EXPECT_EQ(cluster.nodes[2]->store().StateDigest(), digest);
  EXPECT_TRUE(restarted.Idle());
  EXPECT_TRUE(cluster.nodes[0]->Idle());
  // The dead incarnation's +100 increment never landed anywhere.
  EXPECT_EQ(restarted.store().Read(1).AsInt(), 0);
  EXPECT_EQ(restarted.store().Read(2).AsInt(), 5);
  EXPECT_EQ(restarted.store().Read(3).AsInt(), 7);
}

/// Submits `rounds` rounds of one increment per site (objects 1..4).
void SubmitRounds(SimCluster& cluster, int rounds, int64_t amount = 1) {
  for (int round = 0; round < rounds; ++round) {
    for (SiteId s = 0; s < cluster.num_sites; ++s) {
      cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
          {store::Operation::Increment(1 + round % 4, amount + s)});
    }
  }
}

/// Every site at `watermark` and idle, with one state digest.
void ExpectConverged(SimCluster& cluster, SequenceNumber watermark) {
  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  for (SiteId s = 0; s < cluster.num_sites; ++s) {
    const OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), watermark) << "site " << s;
    EXPECT_EQ(node.store().StateDigest(), digest) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
  }
}

TEST(OrdupNodeSimTest, HistoryIsTrimmedToTheUnstableWindow) {
  SimCluster cluster(3);
  SubmitRounds(cluster, 20);
  // Mid-run, each site holds exactly its applied-but-unstable positions.
  for (SimTime t = 2'000; t <= 60'000; t += 2'000) {
    cluster.simulator.RunUntil(t);
    for (SiteId s = 0; s < 3; ++s) {
      const OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
      EXPECT_EQ(node.history_msets(),
                node.applied_watermark() - node.stable_count())
          << "site " << s << " at t=" << t;
    }
  }
  cluster.RunUntilAllApplied(60, 5'000'000);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 200'000);
  ExpectConverged(cluster, 60);
  for (SiteId s = 0; s < 3; ++s) {
    const OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.stable_count(), 60) << "site " << s;
    EXPECT_EQ(node.history_msets(), 0) << "site " << s;
    EXPECT_EQ(cluster.metrics[static_cast<size_t>(s)]
                  ->GetGauge("esr_runtime_history_msets")
                  .value(),
              0.0)
        << "site " << s;
  }
  // Asked about a trimmed position, a site stays silent: denying it would
  // let the order server fill a real MSet's position with a no-op.
  cluster.transports[0]->Send(1, Msg(kPosProbeReqMsg, EncodePositions({30})));
  cluster.simulator.RunUntil(cluster.simulator.Now() + 10'000);
  EXPECT_EQ(cluster.sent[kPosProbeRespMsg], 0);
}

TEST(OrdupNodeSimTest, AmnesiaRestartWithoutWalConvergesBySnapshot) {
  SimCluster cluster(3);
  SubmitRounds(cluster, 10);
  cluster.RunUntilAllApplied(30, 5'000'000);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 200'000);
  ASSERT_EQ(cluster.nodes[0]->history_msets(), 0);  // nothing to replay

  OrdupNode& restarted =
      cluster.Restart(2, /*incarnation=*/1'000'000, /*wal=*/nullptr);
  cluster.RunUntilAllApplied(30, 5'000'000);
  ExpectConverged(cluster, 30);
  EXPECT_EQ(cluster.Counter(2, "esr_runtime_snapshots_installed_total"), 1);
  EXPECT_EQ(cluster.Counter(0, "esr_runtime_snapshots_sent_total") +
                cluster.Counter(1, "esr_runtime_snapshots_sent_total"),
            1);

  // New updates flow afterwards, the restarted site's own included.
  SubmitRounds(cluster, 5, /*amount=*/10);
  cluster.RunUntilAllApplied(45, 10'000'000);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 200'000);
  ExpectConverged(cluster, 45);
  EXPECT_EQ(restarted.stable_count(), 45);
  EXPECT_EQ(restarted.history_msets(), 0);
  // Objects 1..4 received 15 rounds of increments from every site.
  int64_t total = 0;
  for (ObjectId o = 1; o <= 4; ++o) total += restarted.store().Read(o).AsInt();
  EXPECT_EQ(total, 10 * (1 + 2 + 3) + 5 * (10 + 11 + 12));
}

TEST(OrdupNodeSimTest, WalRestartBelowTrimPointConvergesBySnapshot) {
  // Site 2's WAL flushes only when told to, so a crash loses its tail: its
  // group-commit timer runs on a clock that never advances, and the record
  // threshold is out of reach.
  sim::Simulator wal_clock;
  recovery::MemoryStorage storage;
  recovery::RecoveryConfig rcfg;
  rcfg.group_commit_records = 1'000'000;
  recovery::Wal wal(&wal_clock, &storage, 2, rcfg, nullptr);
  SimCluster cluster(3, 7, LosslessFifoNetwork(), {nullptr, nullptr, &wal});

  SubmitRounds(cluster, 4);  // positions 1..12 reach the WAL's durable part
  cluster.RunUntilAllApplied(12, 5'000'000);
  wal.Flush();
  SubmitRounds(cluster, 6);  // 13..30 stay in the volatile tail
  cluster.RunUntilAllApplied(30, 5'000'000);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 200'000);
  ASSERT_EQ(cluster.nodes[0]->history_msets(), 0);
  ASSERT_EQ(cluster.nodes[1]->history_msets(), 0);

  // Crash: the tail is lost, so replay stops at 12, below every peer's
  // trim point (30). The peers can only answer with a snapshot.
  wal.DropUnflushed();
  OrdupNode& first = cluster.Restart(2, /*incarnation=*/2'000, &wal);
  EXPECT_EQ(first.applied_watermark(), 12);
  cluster.RunUntilAllApplied(30, 5'000'000);
  ExpectConverged(cluster, 30);
  EXPECT_EQ(cluster.Counter(2, "esr_runtime_snapshots_installed_total"), 1);

  // Updates after the snapshot reach the WAL above a gap: it now holds
  // 1..12 and 31..39, but not 13..30.
  SubmitRounds(cluster, 3, /*amount=*/7);
  cluster.RunUntilAllApplied(39, 5'000'000);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 200'000);
  ExpectConverged(cluster, 39);
  wal.Flush();

  // A second restart over the gapped WAL: 1..12 apply, 31..39 wait in the
  // hold-back, and the snapshot at 39 replaces both.
  OrdupNode& second = cluster.Restart(2, /*incarnation=*/3'000, &wal);
  EXPECT_EQ(second.applied_watermark(), 12);
  cluster.RunUntilAllApplied(39, 5'000'000);
  ExpectConverged(cluster, 39);
  EXPECT_EQ(cluster.Counter(2, "esr_runtime_snapshots_installed_total"), 1);

  SubmitRounds(cluster, 2, /*amount=*/3);
  cluster.RunUntilAllApplied(45, 5'000'000);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 200'000);
  ExpectConverged(cluster, 45);
  EXPECT_EQ(second.stable_count(), 45);
}

TEST(OrdupNodeSimTest, CorruptOrStaleSnapshotLeavesNodeUnchanged) {
  SimCluster cluster(3);
  SubmitRounds(cluster, 4);
  cluster.RunUntilAllApplied(12, 5'000'000);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 200'000);
  OrdupNode& node = *cluster.nodes[1];
  const uint64_t digest = node.store().StateDigest();

  auto image_at = [](SequenceNumber watermark) {
    recovery::CheckpointData image;
    image.cut.order_watermark = watermark;
    image.clock_counter = 1'000;
    image.store_entries = {{ObjectId{1}, Value(int64_t{99}), LamportTimestamp{}},
                           {ObjectId{7}, Value(int64_t{5}), LamportTimestamp{}}};
    return recovery::EncodeCheckpoint(image);
  };
  auto deliver = [&](std::string payload) {
    cluster.transports[0]->Send(1, Msg(kSnapshotRespMsg, std::move(payload)));
    cluster.simulator.RunUntil(cluster.simulator.Now() + 10'000);
  };
  const std::string fresh = image_at(100);
  std::string flipped = fresh;
  flipped[flipped.size() / 2] ^= 0x5a;
  deliver(fresh.substr(0, fresh.size() - 3));  // truncated
  deliver(flipped);                            // CRC mismatch
  deliver(image_at(12));                       // at the applied watermark
  deliver(image_at(5));                        // below it
  EXPECT_EQ(node.applied_watermark(), 12);
  EXPECT_EQ(node.store().StateDigest(), digest);
  EXPECT_EQ(cluster.Counter(1, "esr_runtime_snapshots_installed_total"), 0);

  // The same image above the watermark is installed whole.
  deliver(fresh);
  EXPECT_EQ(node.applied_watermark(), 100);
  EXPECT_EQ(node.store().Read(1).AsInt(), 99);
  EXPECT_EQ(node.store().Read(7).AsInt(), 5);
  EXPECT_EQ(node.store().Read(2).AsInt(), 0);
  EXPECT_EQ(cluster.Counter(1, "esr_runtime_snapshots_installed_total"), 1);
}

/// --- The order server at site 0 --------------------------------------------

TEST(OrdupNodeSimTest, SequencerSiteRestartNeverReissuesPositions) {
  // Sites 1 and 2 submit; the sequencer site dies without a WAL while its
  // grants are in flight (the epoch announce reaches the clients at about
  // t=3000, their re-sent requests are granted at t=4000, and the grants
  // land at t=5000). Its new incarnation must probe the survivors and
  // unseal above every position they saw, or two updates share one.
  SimCluster cluster(3);
  for (int round = 0; round < 10; ++round) {
    for (SiteId s = 1; s < 3; ++s) {
      cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
          {store::Operation::Increment(1 + round % 4, s)});
    }
  }
  cluster.simulator.RunUntil(4'500);
  cluster.Restart(0, /*incarnation=*/1'000'000, /*wal=*/nullptr);
  SubmitRounds(cluster, 5, /*amount=*/10);
  cluster.RunUntilAllApplied(35, 10'000'000);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 200'000);
  ExpectConverged(cluster, 35);
  for (SiteId s = 1; s < 3; ++s) {
    EXPECT_EQ(cluster.Counter(s, "esr_runtime_msets_applied_total"), 35)
        << "site " << s;
  }
  int64_t total = 0;
  for (ObjectId o = 1; o <= 4; ++o) {
    total += cluster.nodes[0]->store().Read(o).AsInt();
  }
  EXPECT_EQ(total, 10 * (1 + 2) + 5 * (10 + 11 + 12));
}

TEST(OrdupNodeSimTest, ProbeAnswerCoversHeldBackAndSnapshotPositions) {
  // A survivor's probe answer is the highest position it knows of in any
  // form. Site 1 knows position 9 only as an MSet held back above a gap
  // (7 and 8 never arrive); site 2 knows 20 only as an installed snapshot's
  // watermark. A restarted order server must hear both, or it re-grants a
  // position some site already holds.
  SimCluster cluster(3);
  SubmitRounds(cluster, 2);
  cluster.RunUntilAllApplied(6, 5'000'000);

  auto last_probe_answer = [&](SiteId from) {
    std::optional<msg::SeqProbeResponse> answer;
    for (const SeqSent& sent : cluster.seq_sent) {
      if (sent.msg.type == msg::kSeqProbeResponse && sent.from == from) {
        answer = msg::DecodeSeqProbeResponse(sent.msg.payload);
      }
    }
    return answer;
  };
  auto lowest_grant = [&] {
    SequenceNumber lowest = std::numeric_limits<SequenceNumber>::max();
    for (const SeqSent& sent : cluster.seq_sent) {
      if (sent.msg.type != msg::kSeqResponse) continue;
      auto grant = msg::DecodeSeqBatchGrant(sent.msg.payload);
      if (grant) lowest = std::min(lowest, grant->first);
    }
    return lowest;
  };

  core::Mset held;
  held.et = 1'000;
  held.origin = 2;
  held.global_order = 9;
  held.timestamp = LamportTimestamp{100, 2};
  held.operations = {store::Operation::Increment(1, 1)};
  recovery::Encoder mset_bytes;
  mset_bytes.MsetRec(held);
  cluster.transports[2]->Send(1, Msg(core::kMsetMsg, mset_bytes.Take()));
  cluster.simulator.RunUntil(cluster.simulator.Now() + 10'000);
  ASSERT_EQ(cluster.nodes[1]->applied_watermark(), 6);

  cluster.seq_sent.clear();
  cluster.Restart(0, /*incarnation=*/1'000'000, /*wal=*/nullptr);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 10'000);
  auto answer = last_probe_answer(1);
  ASSERT_TRUE(answer.has_value());
  EXPECT_GE(answer->max_seen, 9);
  cluster.nodes[2]->SubmitUpdate({store::Operation::Increment(2, 1)});
  cluster.simulator.RunUntil(cluster.simulator.Now() + 10'000);
  EXPECT_GT(lowest_grant(), 9);

  recovery::CheckpointData image;
  image.cut.order_watermark = 20;
  image.clock_counter = 1'000;
  image.store_entries = {{ObjectId{1}, Value(int64_t{99}), LamportTimestamp{}}};
  cluster.transports[0]->Send(
      2, Msg(kSnapshotRespMsg, recovery::EncodeCheckpoint(image)));
  cluster.simulator.RunUntil(cluster.simulator.Now() + 10'000);
  ASSERT_EQ(cluster.nodes[2]->applied_watermark(), 20);

  cluster.seq_sent.clear();
  cluster.Restart(0, /*incarnation=*/2'000'000, /*wal=*/nullptr);
  cluster.simulator.RunUntil(cluster.simulator.Now() + 10'000);
  answer = last_probe_answer(2);
  ASSERT_TRUE(answer.has_value());
  EXPECT_GE(answer->max_seen, 20);
  cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(2, 1)});
  cluster.simulator.RunUntil(cluster.simulator.Now() + 10'000);
  EXPECT_GT(lowest_grant(), 20);
}

TEST(OrdupNodeSimTest, SequencerUnsealsAfterProbeTimeout) {
  // The restarted sequencer probes both peers, but site 2 is down and
  // never answers: the server stays sealed for ten retry intervals, then
  // unseals on what site 1 reported.
  constexpr SimDuration kRetry = OrdupNodeConfig{}.retry_interval_us;
  SimCluster cluster(3);
  SubmitRounds(cluster, 2);
  cluster.RunUntilAllApplied(6, 5'000'000);
  cluster.nodes[2]->Stop();
  cluster.transports[2]->Stop();
  const SimTime restart_at = cluster.simulator.Now();
  OrdupNode& sequencer =
      cluster.Restart(0, /*incarnation=*/1'000'000, /*wal=*/nullptr);
  for (int i = 0; i < 3; ++i) {
    cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(1, 5)});
  }
  cluster.simulator.RunUntil(restart_at + 9 * kRetry);
  EXPECT_EQ(cluster.nodes[1]->applied_watermark(), 6);
  EXPECT_EQ(sequencer.sequencer_epoch(), 1);

  cluster.simulator.RunUntil(restart_at + 12 * kRetry);
  EXPECT_EQ(sequencer.sequencer_epoch(), 3);
  EXPECT_EQ(cluster.nodes[1]->sequencer_epoch(), 3);
  EXPECT_EQ(cluster.nodes[1]->applied_watermark(), 9);
  EXPECT_EQ(sequencer.applied_watermark(), 9);
  EXPECT_EQ(sequencer.store().StateDigest(),
            cluster.nodes[1]->store().StateDigest());
}

TEST(OrdupNodeSimTest,
     SteadyStateSequencerTrafficIsOneRequestAndOneGrantPerUpdate) {
  // Once every site runs in the first epoch, an update from a site other
  // than the sequencer's costs one request and one grant between sites;
  // the grant names one position and carries the update's ET, on which a
  // tracer joins the two legs of the round trip.
  constexpr int kRounds = 10;
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);
  for (const auto& node : cluster.nodes) {
    ASSERT_EQ(node->sequencer_epoch(), 2);
  }
  const std::map<int, int> before = cluster.sent;
  cluster.seq_sent.clear();
  std::set<EtId> remote;
  for (int round = 0; round < kRounds; ++round) {
    for (SiteId s = 0; s < 3; ++s) {
      const EtId et = cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
          {store::Operation::Increment(1 + round % 4, 1)});
      if (s != 0) remote.insert(et);
    }
  }
  cluster.RunUntilAllApplied(3 * kRounds, 5'000'000);
  ExpectConverged(cluster, 3 * kRounds);

  auto sent_since = [&](int type) {
    auto it = before.find(type);
    return cluster.sent[type] - (it == before.end() ? 0 : it->second);
  };
  EXPECT_EQ(sent_since(msg::kSeqRequest), 2 * kRounds);
  EXPECT_EQ(sent_since(msg::kSeqResponse), 2 * kRounds);
  std::set<EtId> granted;
  for (const SeqSent& sent : cluster.seq_sent) {
    ASSERT_TRUE(sent.msg.type == msg::kSeqRequest ||
                sent.msg.type == msg::kSeqResponse)
        << "type " << sent.msg.type << " from site " << sent.from;
    if (sent.msg.type == msg::kSeqRequest) {
      EXPECT_NE(sent.from, 0);
      EXPECT_EQ(remote.count(sent.msg.trace.et), 1u);
      continue;
    }
    EXPECT_EQ(sent.from, 0);
    auto grant = msg::DecodeSeqBatchGrant(sent.msg.payload);
    ASSERT_TRUE(grant.has_value());
    EXPECT_EQ(grant->count, 1);
    EXPECT_EQ(remote.count(sent.msg.trace.et), 1u);
    granted.insert(sent.msg.trace.et);
  }
  EXPECT_EQ(granted, remote);
}

TEST(OrdupNodeSimTest, ProbeAnswerCountsOnlyForItsSender) {
  // The restarted sequencer probes sites 1 and 2, but site 2 is down. Site
  // 1 answers for itself, then sends a second answer naming site 2 in the
  // payload. It must not count as site 2's: the server stays sealed until
  // the probe times out, so site 1's update waits.
  constexpr SimDuration kRetry = OrdupNodeConfig{}.retry_interval_us;
  SimCluster cluster(3);
  SubmitRounds(cluster, 2);
  cluster.RunUntilAllApplied(6, 5'000'000);
  cluster.nodes[2]->Stop();
  cluster.transports[2]->Stop();
  cluster.seq_sent.clear();
  const SimTime restart_at = cluster.simulator.Now();
  OrdupNode& sequencer =
      cluster.Restart(0, /*incarnation=*/1'000'000, /*wal=*/nullptr);
  cluster.simulator.RunUntil(restart_at + 10'000);
  std::optional<msg::SeqProbeRequest> probe;
  for (const SeqSent& sent : cluster.seq_sent) {
    if (sent.msg.type == msg::kSeqProbeRequest && sent.to == 1) {
      probe = msg::DecodeSeqProbeRequest(sent.msg.payload);
    }
  }
  ASSERT_TRUE(probe.has_value());
  const msg::SeqProbeResponse forged{probe->probe_id, /*from=*/2,
                                     /*max_seen=*/0, /*epoch=*/1};
  cluster.transports[1]->Send(
      0, Msg(msg::kSeqProbeResponse, msg::EncodeSeqProbeResponse(forged)));
  cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(1, 5)});
  cluster.simulator.RunUntil(restart_at + 9 * kRetry);
  EXPECT_EQ(sequencer.sequencer_epoch(), 1);
  EXPECT_EQ(cluster.nodes[1]->applied_watermark(), 6);

  // The timeout unseals on site 1's own answer.
  cluster.simulator.RunUntil(restart_at + 12 * kRetry);
  EXPECT_EQ(sequencer.sequencer_epoch(), 3);
  EXPECT_EQ(cluster.nodes[1]->applied_watermark(), 7);
}

TEST(OrdupNodeSimTest, RequestCountOutOfRangeIsDropped) {
  // A request for no position, or for more than kMaxSeqBatchCount, is
  // dropped: granted, it would take positions no MSet will ever fill (and
  // one unfilled-grant entry each at the sequencer site), stalling the
  // order behind them.
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);
  ASSERT_EQ(cluster.nodes[2]->sequencer_epoch(), 2);
  int64_t forged_id = 1'000'000;
  for (int32_t count : {0, msg::kMaxSeqBatchCount + 1}) {
    const msg::SeqBatchRequest forged{forged_id++, count, /*epoch=*/2,
                                      TraceContext{}, /*incarnation=*/0};
    cluster.transports[2]->Send(
        0, Msg(msg::kSeqRequest, msg::EncodeSeqBatchRequest(forged)));
  }
  cluster.simulator.RunUntil(20'000);
  cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(1, 5)});
  cluster.RunUntilAllApplied(1, 1'000'000);
  ExpectConverged(cluster, 1);
  EXPECT_EQ(cluster.nodes[0]->store().Read(1).AsInt(), 5);
}

}  // namespace
}  // namespace esr::runtime
