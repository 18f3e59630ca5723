#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common.h"
#include "store/operation.h"

namespace perfbench {

namespace {

// lo_rate and hi_rate were set once, at about 0.15 and 0.5 of the
// capacity_ups of calibration runs on the reference host in a busy period
// (README.md), so that the hi step stays off the knee whatever the host's
// neighbours do.
const WorkloadSpec kWorkloads[] = {
    {.name = "durable_small", .wal = true, .ops_per_et = 1, .objects = 8,
     .zipf_theta = 0, .reads_per_update = 1, .lo_rate = 1500,
     .hi_rate = 4500},
    {.name = "volatile_small", .wal = false, .ops_per_et = 1, .objects = 8,
     .zipf_theta = 0, .reads_per_update = 1, .lo_rate = 5000,
     .hi_rate = 16000},
    {.name = "store_wide", .wal = false, .ops_per_et = 16,
     .objects = 1'000'000, .zipf_theta = 0.99, .reads_per_update = 4,
     .lo_rate = 2500, .hi_rate = 8000},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

KeyGen::KeyGen(int64_t objects, double theta) : n_(objects), theta_(theta) {
  if (theta_ <= 0) return;
  for (int64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(i, theta_);
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
  half_pow_ = std::pow(0.5, theta_);
}

esr::ObjectId KeyGen::Next(std::mt19937_64& rng) {
  if (theta_ <= 0) {
    return 1 + static_cast<esr::ObjectId>(rng() % static_cast<uint64_t>(n_));
  }
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const double uz = u * zetan_;
  if (uz < 1.0) return 1;
  if (uz < 1.0 + half_pow_) return 2;
  const int64_t rank = 1 + static_cast<int64_t>(
                               static_cast<double>(n_) *
                               std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::clamp<int64_t>(rank, 1, n_);
}

Schedule MakeSchedule(const WorkloadSpec& w, KeyGen& keys, double rate,
                      double seconds, std::mt19937_64& rng) {
  Schedule s;
  s.duration_ns = static_cast<int64_t>(seconds * 1e9);
  const double read_rate = rate * w.reads_per_update;
  std::exponential_distribution<double> gap_u(rate);
  std::exponential_distribution<double> gap_r(read_rate > 0 ? read_rate : 1);
  std::uniform_int_distribution<int> site(0, kSites - 1);
  // Two independent Poisson streams merged by time.
  double tu = gap_u(rng), tr = read_rate > 0 ? gap_r(rng) : kInf;
  for (;;) {
    const bool read = tr < tu;
    const double t = read ? tr : tu;
    if (t >= seconds) break;
    Schedule::Arrival a;
    a.t_ns = static_cast<int64_t>(t * 1e9);
    a.origin = site(rng);
    a.read = read;
    a.key_at = static_cast<int32_t>(s.keys.size());
    const int nkeys = read ? 1 : w.ops_per_et;
    for (int k = 0; k < nkeys; ++k) s.keys.push_back(keys.Next(rng));
    s.arrivals.push_back(a);
    if (read) {
      ++s.reads;
      tr += gap_r(rng);
    } else {
      ++s.updates;
      tu += gap_u(rng);
    }
  }
  return s;
}

bool StepResult::Passed(double p99_limit_ms) const {
  if (unfinished > 0 || failed_reads > 0 || dropped_sends > 0) return false;
  if (stable_ms.empty()) return false;
  return Quantile(stable_ms, 0.99) <= p99_limit_ms;
}

LoadGen::LoadGen(Cluster* cluster, const WorkloadSpec& w, Tracer* tracer)
    : cluster_(cluster),
      w_(w),
      tracer_(tracer),
      expected_(
          new std::atomic<int64_t>[static_cast<size_t>(w.objects) + 1]()),
      stable_total_(std::make_shared<std::atomic<int64_t>>(0)) {}

int64_t LoadGen::Outstanding() const {
  return posted_ - stable_total_->load(std::memory_order_acquire);
}

namespace {

/// Gives the calling generator thread a 1 ns timer slack, so its sleeps end
/// close to each arrival's due time. Only the generator threads get it: the
/// cluster's threads keep the default slack esrd runs with.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Sleeps and then spins to `due`; returns how late the caller got there,
/// in ms.
double WaitUntil(int64_t due) {
  int64_t now = NowNs();
  if (due - now > 30'000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 10'000));
    now = NowNs();
  }
  while (now < due) now = NowNs();
  return static_cast<double>(now - due) * 1e-6;
}

}  // namespace

void LoadGen::ReadLoop(const Schedule& sch, int64_t t0, StepResult* r,
                      std::vector<double>* lag, double* cpu_s) {
  TightenTimerSlack();
  const double cpu0 = ThreadCpuS();
  r->read_us.reserve(static_cast<size_t>(sch.reads));
  lag->reserve(static_cast<size_t>(sch.reads));
  for (const Schedule::Arrival& a : sch.arrivals) {
    if (!a.read) continue;
    const int64_t due = t0 + a.t_ns;
    lag->push_back(WaitUntil(due));
    const esr::ObjectId key = sch.keys[static_cast<size_t>(a.key_at)];
    const esr::Value v = cluster_->node(a.origin).store().Read(key);
    r->read_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
    // The update thread counts an increment before posting it, and the
    // read synchronizes with the apply through the store's lock, so the
    // count read here already includes every increment `v` reflects.
    const int64_t submitted =
        expected_[static_cast<size_t>(key)].load(std::memory_order_relaxed);
    if (!v.is_int() || v.AsInt() < 0 || v.AsInt() > submitted) {
      ++r->failed_reads;
    }
  }
  *cpu_s = ThreadCpuS() - cpu0;
}

void LoadGen::UpdateLoop(const Schedule& sch, int64_t t0, int step,
                        std::shared_ptr<std::atomic<int64_t>> done,
                        std::vector<double>* lag, double* cpu_s) {
  TightenTimerSlack();
  const double cpu0 = ThreadCpuS();
  Slot* slots = slots_[static_cast<size_t>(step)].get();
  std::vector<int64_t>& due_of = due_[static_cast<size_t>(step)];
  lag->reserve(static_cast<size_t>(sch.updates));
  size_t ui = 0;
  for (const Schedule::Arrival& a : sch.arrivals) {
    if (a.read) continue;
    const int64_t due = t0 + a.t_ns;
    lag->push_back(WaitUntil(due));
    std::vector<esr::store::Operation> ops;
    ops.reserve(static_cast<size_t>(w_.ops_per_et));
    for (int k = 0; k < w_.ops_per_et; ++k) {
      const esr::ObjectId key = sch.keys[static_cast<size_t>(a.key_at + k)];
      ops.push_back(esr::store::Operation::Increment(key, 1));
      expected_[static_cast<size_t>(key)].fetch_add(1,
                                                    std::memory_order_relaxed);
    }
    Slot* slot = &slots[ui];
    due_of[ui++] = due;
    ++posted_;
    Cluster* cluster = cluster_;
    Tracer* tracer = tracer_;
    auto total = stable_total_;
    const int origin = a.origin;
    const int64_t post = NowNs();
    cluster_->executor(origin)->Post([cluster, tracer, origin, slot, done,
                                      total, due, post,
                                      ops = std::move(ops)]() mutable {
      const int64_t run = NowNs();
      slot->et = cluster->node(origin).SubmitUpdate(
          std::move(ops), [slot, done, total, tracer] {
            const int64_t t = NowNs();
            slot->stable_ns.store(t, std::memory_order_release);
            done->fetch_add(1, std::memory_order_release);
            total->fetch_add(1, std::memory_order_release);
            if (tracer != nullptr) tracer->OnStable(slot->et, t);
          });
      if (tracer != nullptr) {
        tracer->OnSubmit(slot->et, origin, due, post, run);
      }
    });
  }
  *cpu_s = ThreadCpuS() - cpu0;
}

StepResult LoadGen::Run(const Schedule& sch, double drain_s) {
  StepResult r;
  const size_t n = static_cast<size_t>(sch.updates);
  r.step = static_cast<int>(slots_.size());
  slots_.push_back(std::make_unique<Slot[]>(std::max<size_t>(1, n)));
  due_.emplace_back(n);
  auto done = std::make_shared<std::atomic<int64_t>>(0);
  const int64_t dropped0 = cluster_->DroppedSends();
  const int64_t t0 = NowNs() + 1'000'000;

  // Reads get their own thread, so a read's due time is not delayed by the
  // update posts queued ahead of it.
  std::vector<double> read_lag;
  double read_cpu_s = 0, update_cpu_s = 0;
  std::thread reader([&] { ReadLoop(sch, t0, &r, &read_lag, &read_cpu_s); });
  std::thread updater(
      [&] { UpdateLoop(sch, t0, r.step, done, &r.lag_ms, &update_cpu_s); });
  updater.join();
  reader.join();
  r.gen_cpu_s = read_cpu_s + update_cpu_s;
  r.lag_ms.insert(r.lag_ms.end(), read_lag.begin(), read_lag.end());
  reads_ += sch.reads;
  failed_reads_ += r.failed_reads;

  const int64_t deadline = std::max(NowNs(), t0 + sch.duration_ns) +
                           static_cast<int64_t>(drain_s * 1e9);
  while (done->load(std::memory_order_acquire) < static_cast<int64_t>(n) &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  r.offered_ups = static_cast<double>(n) /
                  (static_cast<double>(sch.duration_ns) * 1e-9);
  r.stable_ms = SettledMs(r.step);
  for (double ms : r.stable_ms) r.unfinished += ms == kInf ? 1 : 0;
  r.dropped_sends = cluster_->DroppedSends() - dropped0;
  return r;
}

std::vector<double> LoadGen::SettledMs(int step) const {
  const Slot* slots = slots_[static_cast<size_t>(step)].get();
  const std::vector<int64_t>& due = due_[static_cast<size_t>(step)];
  std::vector<double> ms;
  ms.reserve(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    const int64_t t = slots[i].stable_ns.load(std::memory_order_acquire);
    ms.push_back(t == 0 ? kInf : static_cast<double>(t - due[i]) * 1e-6);
  }
  return ms;
}

std::string LoadGen::CheckCounts(esr::ObjectId probe_object,
                                int64_t probe_count) {
  int64_t touched = 0;
  for (int s = 0; s < kSites; ++s) {
    const esr::store::MvStore& store = cluster_->node(s).store();
    for (size_t obj = 1; obj <= static_cast<size_t>(w_.objects); ++obj) {
      const int64_t want = expected_[obj].load(std::memory_order_relaxed);
      if (want == 0) continue;
      if (s == 0) ++touched;
      const esr::Value v = store.Read(static_cast<esr::ObjectId>(obj));
      if (!v.is_int() || v.AsInt() != want) {
        return "site " + std::to_string(s) + " object " + std::to_string(obj) +
               " reads " + v.ToString() + ", expected " + std::to_string(want);
      }
    }
    const esr::Value p = store.Read(probe_object);
    if (!p.is_int() || p.AsInt() != probe_count) {
      return "site " + std::to_string(s) + " probe object reads " +
             p.ToString() + ", expected " + std::to_string(probe_count);
    }
    if (store.ObjectCount() != touched + 1) {
      return "site " + std::to_string(s) + " holds " +
             std::to_string(store.ObjectCount()) + " objects, expected " +
             std::to_string(touched + 1);
    }
  }
  return "";
}

}  // namespace perfbench
