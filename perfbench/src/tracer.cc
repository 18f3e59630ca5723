#include "tracer.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common.h"
#include "esr/mset.h"
#include "msg/mailbox.h"

namespace perfbench {

struct Tracer::ThreadLog {
  std::mutex mu;
  std::vector<Event> events;
};

namespace {

enum Kind : int8_t {
  kTask,       // t=start a=post b=end site
  kSchedule,   // t=now
  kTimerFire,  // t=start a=due
  kSend,       // t=start a=dur b=payload bytes site=from peer=to et type
  kReceive,    // t=start a=post site=self peer=from et type
  kWal,        // t=start a=dur b=bytes site
  kSubmit,     // t=run a=due b=post site=origin et
  kStable,     // t et
};

// The calling thread's log in the process's one Tracer.
thread_local Tracer::ThreadLog* tl_log = nullptr;
thread_local int64_t tl_task_post_ns = 0;

double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

struct SendKey {
  int from, to, type;
  esr::EtId et;
  bool operator==(const SendKey&) const = default;
};

struct SendKeyHash {
  size_t operator()(const SendKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.et) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(k.type) << 16 ^
         static_cast<uint64_t>(k.from) << 8 ^ static_cast<uint64_t>(k.to);
    return static_cast<size_t>(h * 0xff51afd7ed558ccdULL >> 7);
  }
};

/// Replays one phase's events in time order into its statistics and
/// per-ET spans. A send is matched to the first receipt of the same
/// (from, to, type, ET); later copies of either are retransmissions.
void Build(std::vector<Tracer::Event>& events, PhaseStats* ph) {
  std::sort(events.begin(), events.end(),
            [](const Tracer::Event& x, const Tracer::Event& y) {
              return x.t < y.t;
            });
  std::unordered_map<SendKey, int64_t, SendKeyHash> in_flight;
  std::unordered_set<SendKey, SendKeyHash> sent;
  for (const Tracer::Event& e : events) {
    const size_t site = static_cast<size_t>(e.site);
    switch (e.kind) {
      case kTask:
        ++ph->posts;
        ph->strand_wait_us.push_back(Us(e.t - e.a));
        ph->busy_ns[site] += e.b - e.t;
        break;
      case kSchedule:
        ++ph->schedules;
        break;
      case kTimerFire:
        ph->timer_late_us.push_back(Us(e.t - e.a));
        break;
      case kWal:
        ++ph->wal_flushes;
        ph->wal_bytes += e.b;
        ph->wal_ns[site] += e.a;
        ph->wal_append_us.push_back(Us(e.a));
        break;
      case kSubmit: {
        EtSpan& span = ph->ets[e.et];
        span.origin = e.site;
        span.due = e.a;
        span.post = e.b;
        span.submit_run = e.t;
        break;
      }
      case kStable: {
        auto it = ph->ets.find(e.et);
        if (it != ph->ets.end()) it->second.stable = e.t;
        break;
      }
      case kSend: {
        ++ph->sends;
        ph->send_us.push_back(Us(e.a));
        if (e.type == esr::msg::kSeqRequest) ++ph->seq_requests;
        if (e.site != e.peer) {
          ++ph->net_sends;
          ph->net_bytes += e.b + Tracer::kEnvelopeBytes;
          if (e.type == esr::core::kMsetMsg) {
            ++ph->mset_sends;
            ph->mset_bytes += e.b + Tracer::kEnvelopeBytes;
          }
        }
        if (e.et <= 0) break;
        const SendKey key{e.site, e.peer, e.type, e.et};
        if (!sent.insert(key).second) {
          ++ph->resends;
          break;
        }
        in_flight.emplace(key, e.t);
        EtSpan& span = ph->ets[e.et];
        if (e.type == esr::msg::kSeqRequest && span.seq_req_send == 0) {
          span.seq_req_send = e.t;
        } else if (e.type == esr::core::kMsetMsg && e.site == span.origin &&
                   span.mset_send == 0) {
          span.mset_send = e.t;
        } else if (e.type == esr::core::kApplyAckMsg &&
                   span.ack_send[site] == 0) {
          span.ack_send[site] = e.t;
          if (span.mset_run[site] != 0) {
            ph->holdback_us.push_back(Us(e.t - span.mset_run[site]));
          }
        }
        break;
      }
      case kReceive: {
        if (e.et <= 0) break;
        auto it = in_flight.find(SendKey{e.peer, e.site, e.type, e.et});
        if (it == in_flight.end()) break;  // a retransmitted copy
        const int64_t sent_at = it->second;
        in_flight.erase(it);
        if (e.peer != e.site) ph->oneway_us.push_back(Us(e.a - sent_at));
        EtSpan& span = ph->ets[e.et];
        const size_t from = static_cast<size_t>(e.peer);
        if (e.type == esr::msg::kSeqResponse && span.seq_resp_run == 0) {
          span.seq_resp_run = e.t;
          if (span.seq_req_send != 0) {
            ph->seq_rtt_us.push_back(Us(e.t - span.seq_req_send));
          }
        } else if (e.type == esr::core::kMsetMsg && span.mset_run[site] == 0) {
          span.mset_post[site] = e.a;
          span.mset_run[site] = e.t;
        } else if (e.type == esr::core::kApplyAckMsg &&
                   span.ack_run[from] == 0) {
          span.ack_post[from] = e.a;
          span.ack_run[from] = e.t;
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

int64_t CurrentTaskPostNs() { return tl_task_post_ns; }

void Tracer::Record(const Event& e) {
  if (tl_log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    log->events.reserve(1 << 16);
    tl_log = log.get();
    std::lock_guard<std::mutex> lock(logs_mu_);
    logs_.push_back(std::move(log));
  }
  std::lock_guard<std::mutex> lock(tl_log->mu);
  tl_log->events.push_back(e);
}

void Tracer::OnTaskRun(int site, int64_t post_ns, int64_t start_ns,
                       int64_t end_ns) {
  Record({start_ns, post_ns, end_ns, 0, 0, kTask, static_cast<int8_t>(site),
          0});
}

void Tracer::OnSchedule(int64_t now_ns) {
  Record({now_ns, 0, 0, 0, 0, kSchedule, 0, 0});
}

void Tracer::OnTimerFire(int64_t due_ns, int64_t start_ns) {
  Record({start_ns, due_ns, 0, 0, 0, kTimerFire, 0, 0});
}

void Tracer::OnSend(int from, int to, int type, esr::EtId et,
                    size_t payload_bytes, int64_t start_ns, int64_t dur_ns) {
  Record({start_ns, dur_ns, static_cast<int64_t>(payload_bytes), et, type,
          kSend, static_cast<int8_t>(from), static_cast<int8_t>(to)});
}

void Tracer::OnReceive(int self, int from, int type, esr::EtId et,
                       int64_t post_ns, int64_t start_ns) {
  Record({start_ns, post_ns, 0, et, type, kReceive, static_cast<int8_t>(self),
          static_cast<int8_t>(from)});
}

void Tracer::OnWalAppend(int site, size_t bytes, int64_t start_ns,
                         int64_t dur_ns) {
  Record({start_ns, dur_ns, static_cast<int64_t>(bytes), 0, 0, kWal,
          static_cast<int8_t>(site), 0});
}

void Tracer::OnSubmit(esr::EtId et, int origin, int64_t due, int64_t post,
                      int64_t run) {
  Record({run, due, post, et, 0, kSubmit, static_cast<int8_t>(origin), 0});
}

void Tracer::OnStable(esr::EtId et, int64_t t) {
  Record({t, 0, 0, et, 0, kStable, 0, 0});
}

PhaseStats Tracer::TakePhase() {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(logs_mu_);
    for (const auto& log : logs_) {
      std::lock_guard<std::mutex> log_lock(log->mu);
      events.insert(events.end(), log->events.begin(), log->events.end());
      log->events.clear();
    }
  }
  const int64_t now = NowNs();
  PhaseStats ph;
  ph.wall_s = phase_start_ns_ == 0
                  ? 0
                  : static_cast<double>(now - phase_start_ns_) * 1e-9;
  phase_start_ns_ = now;
  Build(events, &ph);
  return ph;
}

void TimedExecutor::Post(std::function<void()> fn) {
  const int64_t post = NowNs();
  inner_->Post([this, post, fn = std::move(fn)] {
    const int64_t start = NowNs();
    tl_task_post_ns = post;
    fn();
    tracer_->OnTaskRun(site_, post, start, NowNs());
  });
}

esr::runtime::TimerId TimedClock::Schedule(esr::SimDuration delay,
                                           std::function<void()> fn) {
  const int64_t now = NowNs();
  tracer_->OnSchedule(now);
  const int64_t due = now + delay * 1000;
  return inner_->Schedule(delay, [this, due, fn = std::move(fn)] {
    tracer_->OnTimerFire(due, NowNs());
    fn();
  });
}

esr::runtime::TimerId TimedClock::ScheduleAt(esr::SimTime when,
                                             std::function<void()> fn) {
  const int64_t now = NowNs();
  tracer_->OnSchedule(now);
  const int64_t due = now + (when - inner_->Now()) * 1000;
  return inner_->ScheduleAt(when, [this, due, fn = std::move(fn)] {
    tracer_->OnTimerFire(due, NowNs());
    fn();
  });
}

void TimedTransport::SetHandler(Handler handler) {
  const int self = inner_->self();
  inner_->SetHandler([this, self, handler = std::move(handler)](
                         esr::SiteId from, esr::runtime::Message msg) {
    tracer_->OnReceive(self, from, msg.type, msg.trace.et,
                       CurrentTaskPostNs(), NowNs());
    handler(from, std::move(msg));
  });
}

void TimedTransport::Send(esr::SiteId to, esr::runtime::Message msg) {
  const int self = inner_->self();
  const int type = msg.type;
  const esr::EtId et = msg.trace.et;
  const size_t bytes = msg.payload.size();
  const int64_t start = NowNs();
  inner_->Send(to, std::move(msg));
  tracer_->OnSend(self, to, type, et, bytes, start, NowNs() - start);
}

void TimedStorage::AppendWal(esr::SiteId site, std::string_view bytes) {
  const int64_t start = NowNs();
  inner_->AppendWal(site, bytes);
  tracer_->OnWalAppend(site, bytes.size(), start, NowNs() - start);
}

}  // namespace perfbench
