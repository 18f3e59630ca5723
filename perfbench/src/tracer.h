// Tracing for the benchmark's traced run: timing decorators over the
// runtime seam (Executor, Clock, Transport) and the WAL's StorageBackend,
// plus an in-memory span store keyed by the ET id that Message.trace
// already carries. Nothing inside the library is instrumented; every
// timestamp is taken around a public call.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <array>
#include <memory>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "recovery/storage.h"
#include "runtime/interfaces.h"

namespace perfbench {

inline constexpr int kSites = 3;

/// Per-ET blocking-path timestamps (ns on NowNs). Zero = not observed.
/// Retransmissions never overwrite: each field keeps its first sighting.
struct EtSpan {
  int origin = -1;
  int64_t due = 0;            // generator schedule
  int64_t post = 0;           // generator posted SubmitUpdate to the strand
  int64_t submit_run = 0;     // SubmitUpdate started on the origin strand
  int64_t seq_req_send = 0;   // origin -> sequencer kSeqRequest
  int64_t seq_resp_run = 0;   // origin's kSeqResponse handler start
  int64_t mset_send = 0;      // origin's first kMset send
  std::array<int64_t, kSites> mset_post{};  // delivery posted at follower
  std::array<int64_t, kSites> mset_run{};   // follower kMset handler start
  std::array<int64_t, kSites> ack_send{};   // follower kApplyAck send
  std::array<int64_t, kSites> ack_post{};   // delivery posted at origin
  std::array<int64_t, kSites> ack_run{};    // origin kApplyAck handler start
  int64_t stable = 0;         // on_stable callback
};

/// What one phase (a load step) of the traced run observed.
struct PhaseStats {
  double wall_s = 0;
  std::vector<double> send_us;         // time inside Transport::Send
  std::vector<double> oneway_us;       // Send -> delivery posted to strand
  std::vector<double> strand_wait_us;  // Executor::Post -> task start
  std::vector<double> holdback_us;     // follower kMset run -> kApplyAck send
  std::vector<double> seq_rtt_us;      // kSeqRequest send -> kSeqResponse run
  std::vector<double> wal_append_us;   // StorageBackend::AppendWal
  std::vector<double> timer_late_us;   // timer callback start - deadline
  int64_t sends = 0;        // every Transport::Send
  int64_t net_sends = 0;    // sends to another site
  int64_t net_bytes = 0;    // payload + envelope bytes of net_sends
  int64_t mset_sends = 0;   // kMset sends to another site...
  int64_t mset_bytes = 0;   // ...and their payload + envelope bytes
  int64_t resends = 0;      // sends repeating (type, ET, destination)
  int64_t seq_requests = 0;
  int64_t posts = 0;        // tasks posted to the three strands
  int64_t schedules = 0;    // Clock::Schedule/ScheduleAt calls
  int64_t wal_flushes = 0;
  int64_t wal_bytes = 0;
  std::array<int64_t, kSites> busy_ns{};
  std::array<int64_t, kSites> wal_ns{};
  std::unordered_map<esr::EtId, EtSpan> ets;
};

/// Collects raw events from the decorators and turns them into PhaseStats.
/// Recording is a push onto a per-thread log under that log's own
/// (uncontended) mutex; matching sends to receives and building spans
/// happens offline in TakePhase, so the traced run perturbs the cluster
/// as little as a timestamp pair per call. What remains is reported as
/// bench.trace_overhead_frac. A thread's log pointer is a plain
/// thread_local, so a process holds at most one Tracer.
class Tracer {
 public:
  /// Envelope TcpTransport adds to each message payload on the wire:
  /// [u32 len][u32 crc] + kind u8 + type u32 + et i64 + span u64 +
  /// origin u32 + msg_type u32 + payload length u32.
  static constexpr int64_t kEnvelopeBytes = 41;

  Tracer();
  ~Tracer();

  void OnTaskRun(int site, int64_t post_ns, int64_t start_ns, int64_t end_ns);
  void OnSchedule(int64_t now_ns);
  void OnTimerFire(int64_t due_ns, int64_t start_ns);
  void OnSend(int from, int to, int type, esr::EtId et, size_t payload_bytes,
              int64_t start_ns, int64_t dur_ns);
  void OnReceive(int self, int from, int type, esr::EtId et, int64_t post_ns,
                 int64_t start_ns);
  void OnWalAppend(int site, size_t bytes, int64_t start_ns, int64_t dur_ns);
  void OnSubmit(esr::EtId et, int origin, int64_t due, int64_t post,
                int64_t run);
  void OnStable(esr::EtId et, int64_t t);

  /// Closes the current phase and starts a fresh one.
  PhaseStats TakePhase();

  struct Event {
    int64_t t;   // ordering timestamp (start of the observed call)
    int64_t a;   // kind-specific (see the On* recorders)
    int64_t b;
    esr::EtId et;
    int32_t type;
    int8_t kind;
    int8_t site;
    int8_t peer;
  };
  struct ThreadLog;

 private:
  void Record(const Event& e);

  std::mutex logs_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  int64_t phase_start_ns_ = 0;
};

/// The task running on this thread was posted at this NowNs() (set by
/// TimedExecutor around each task, read by TimedTransport's handler).
int64_t CurrentTaskPostNs();

class TimedExecutor : public esr::runtime::Executor {
 public:
  TimedExecutor(esr::runtime::Executor* inner, int site, Tracer* tracer)
      : inner_(inner), site_(site), tracer_(tracer) {}
  void Post(std::function<void()> fn) override;

 private:
  esr::runtime::Executor* inner_;
  int site_;
  Tracer* tracer_;
};

class TimedClock : public esr::runtime::Clock {
 public:
  TimedClock(esr::runtime::Clock* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  esr::SimTime Now() const override { return inner_->Now(); }
  esr::runtime::TimerId Schedule(esr::SimDuration delay,
                                 std::function<void()> fn) override;
  esr::runtime::TimerId ScheduleAt(esr::SimTime when,
                                   std::function<void()> fn) override;
  bool Cancel(esr::runtime::TimerId id) override { return inner_->Cancel(id); }

 private:
  esr::runtime::Clock* inner_;
  Tracer* tracer_;
};

class TimedTransport : public esr::runtime::Transport {
 public:
  TimedTransport(esr::runtime::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  esr::SiteId self() const override { return inner_->self(); }
  void SetHandler(Handler handler) override;
  void Send(esr::SiteId to, esr::runtime::Message msg) override;
  void Start() override { inner_->Start(); }
  void Stop() override { inner_->Stop(); }

 private:
  esr::runtime::Transport* inner_;
  Tracer* tracer_;
};

class TimedStorage : public esr::recovery::StorageBackend {
 public:
  TimedStorage(esr::recovery::StorageBackend* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void AppendWal(esr::SiteId site, std::string_view bytes) override;
  std::string ReadWal(esr::SiteId site) const override {
    return inner_->ReadWal(site);
  }
  void ReplaceWal(esr::SiteId site, std::string bytes) override {
    inner_->ReplaceWal(site, std::move(bytes));
  }
  void WriteCheckpoint(esr::SiteId site, std::string bytes) override {
    inner_->WriteCheckpoint(site, std::move(bytes));
  }
  std::string ReadCheckpoint(esr::SiteId site) const override {
    return inner_->ReadCheckpoint(site);
  }

 private:
  esr::recovery::StorageBackend* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
