#ifndef ESR_RUNTIME_INTERFACES_H_
#define ESR_RUNTIME_INTERFACES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/trace.h"
#include "common/types.h"

/// The runtime seam: three narrow interfaces the protocol core runs
/// against, with two bindings.
///
///  - The **sim binding** adapts `sim::Simulator` / `sim::Network`.
///    `Simulator` *is* a `Clock` (it implements this interface directly, so
///    existing single-threaded deterministic executions are byte-identical),
///    and `SimTransport`/`SimExecutor` wrap the simulated network and event
///    queue. The sim stays the test oracle.
///  - The **real binding** (`tcp_transport.h`, `timer_wheel.h`,
///    `thread_pool.h`) runs the same protocol core over POSIX TCP sockets,
///    a monotonic-clock timer wheel, and a thread pool with one serialized
///    strand per site.
///
/// Contracts (held to by `runtime_conformance_test`, against BOTH bindings):
///  - Transport: per-(sender, receiver) pair, messages are delivered in send
///    order or not at all (a crashed/partitioned stretch may drop a suffix);
///    delivery callbacks run on the receiver's strand; no callback runs
///    after Stop() returns. Delivery is at-least-once across reconnects —
///    protocol code must tolerate duplicates.
///  - Clock: Now() is monotone non-decreasing (microseconds); timers fire in
///    (deadline, schedule-order) order on the owner's strand; Cancel()
///    returning true guarantees the callback never runs.
///  - Executor: tasks posted to one strand run serialized in FIFO order;
///    tasks never run concurrently with each other or with that strand's
///    timer/delivery callbacks.
namespace esr::runtime {

/// Identifier of a scheduled timer; usable to cancel it. Shared with
/// sim::EventId (the sim binding's Clock is the simulator itself).
using TimerId = int64_t;

/// Time source + cancellable timers. Method names and signatures
/// deliberately mirror `sim::Simulator` so the simulator can implement this
/// interface with zero adaptation (and zero behavior change).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds. Simulated time under the sim binding,
  /// monotonic wall time under the real binding — protocol code must only
  /// compare/subtract values from the same clock.
  virtual SimTime Now() const = 0;

  /// Schedules `fn` to run `delay` microseconds from now (delay >= 0).
  virtual TimerId Schedule(SimDuration delay, std::function<void()> fn) = 0;

  /// Schedules `fn` at absolute time `when` (>= Now()).
  virtual TimerId ScheduleAt(SimTime when, std::function<void()> fn) = 0;

  /// Cancels a pending timer. Returns false if already fired or cancelled.
  virtual bool Cancel(TimerId id) = 0;
};

/// A typed protocol message. `type` is the msg::MessageType the mailbox
/// layer already uses; `payload` is the wire-encoded body (esr::wire /
/// recovery codec byte layout).
struct Message {
  int type = 0;
  std::string payload;
  TraceContext trace;
};

/// Largest frame payload the real binding carries; TcpTransport treats a
/// longer length prefix as corruption and closes the connection. A frame
/// holds one Message: its payload plus an envelope of at most 34 bytes
/// (13 for an OrdupNode message; see EncodeMessageFrame). The
/// largest messages OrdupNode builds are a full catch-up response
/// (OrdupNode's kCatchupBatch, 256 MSets; a 16-increment MSet encodes to
/// about 650 bytes) and a snapshot response, whose size grows with the
/// store (about 30 bytes per object): a store above roughly two million
/// objects has no snapshot that fits, and OrdupNode does not send one.
inline constexpr size_t kMaxFramePayloadBytes = size_t{64} << 20;

/// Site-to-site message channel. Send() is non-blocking and may be called
/// from the owner's strand only; delivery of inbound messages invokes the
/// registered handler on the owner's strand.
class Transport {
 public:
  using Handler = std::function<void(SiteId from, Message msg)>;

  virtual ~Transport() = default;

  /// This endpoint's site id.
  virtual SiteId self() const = 0;

  /// Registers the delivery callback. Must be called before Start().
  virtual void SetHandler(Handler handler) = 0;

  /// Queues `msg` for delivery to `to`. Never blocks; under the real
  /// binding an unreachable peer buffers (bounded) and retries with
  /// backoff, so a send is "delivered in order, eventually, at least once
  /// per connection epoch" rather than guaranteed-exactly-once.
  virtual void Send(SiteId to, Message msg) = 0;

  /// Begins accepting/connecting (real binding) or registering receivers
  /// (sim binding).
  virtual void Start() = 0;

  /// Stops delivery. After Stop() returns, the handler is never invoked
  /// again; queued outbound messages may be dropped.
  virtual void Stop() = 0;
};

/// A serialized task queue (strand). One strand per site: all of a site's
/// protocol state is confined to its strand, so protocol code is written
/// single-threaded and never locks.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Enqueues `fn` to run on this strand, FIFO with everything else posted
  /// to it. May be called from any thread.
  virtual void Post(std::function<void()> fn) = 0;
};

}  // namespace esr::runtime

#endif  // ESR_RUNTIME_INTERFACES_H_
