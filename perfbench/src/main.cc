// esr_cluster_bench: open-loop benchmark of a three-site ORDUP cluster over
// loopback TCP in one process.
//
//   esr_cluster_bench --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR [--out-dir DIR]
//
// Every run first measures the cluster untraced (set-up, capacity search,
// lo and hi steps, restarts). --trace 1 then runs it again behind timing
// decorators for the blocking-path waterfall and adds the layer
// microbenchmarks. The table lists every metric; the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Any correctness failure exits non-zero. README.md defines every metric.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <thread>
#include <tuple>
#include <utility>

#include "cluster.h"
#include "common.h"
#include "load.h"
#include "micro.h"
#include "tracer.h"

namespace perfbench {
namespace {

/// Capacity rule: a step passes when its p99 due->stable is at most half
/// of esrd's 50 ms retry interval, nothing failed, and no send was dropped.
constexpr double kP99LimitMs = 25;
/// Shares of --seconds spent in the warm-up, the lo and hi steps and the
/// capacity search.
constexpr double kWarmUpShare = 0.05;
constexpr double kLoShare = 0.15;
constexpr double kHiShare = 0.25;
constexpr double kSearchShare = 0.35;
/// The untraced run is cut into rounds, each with its search steps, one lo
/// slice and one hi slice, so that every metric is sampled across the
/// whole run: a shared host's background load changes over seconds.
constexpr int kRounds = 8;
constexpr int kSearchStepsPerRound = 2;
constexpr int kSearchSteps = kRounds * kSearchStepsPerRound;
/// Further search steps, after the rounds, while no step has passed.
constexpr int kSearchExtraSteps = 6;
constexpr double kSearchGrowth = 1.25;
/// The search starts at this multiple of the workload's hi rate (hi was set
/// at about half of the reference host's busy-period capacity).
constexpr double kSearchStartOverHi = 1.6;
/// Updates not stable this long after a step's last arrival count as +inf.
constexpr double kStepDrainS = 0.5;
constexpr double kQuiesceS = 30;
/// Start-ups of the main cluster; every search step adds one more sample
/// to setup_s.
constexpr int kMainSetups = 3;
constexpr int kRecoveries = 3;
/// The whole run ends (non-zero, no result) if it outlives this.
constexpr int kWatchdogS = 165;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string work_dir;
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count etc., printed only in the table
  bool end_to_end;   // else per-layer
};

/// Every metric of a run, in the table; the result line carries only the
/// end-to-end ones (--trace 0) or only the per-layer ones (--trace 1).
class Report {
 public:
  /// Metrics added from now on are end-to-end (true) or per-layer.
  void Section(bool end_to_end) { end_to_end_ = end_to_end; }
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note), end_to_end_});
  }
  void AddDist(const std::string& base, const std::vector<double>& v,
               const std::string& unit) {
    const Dist d = Summarize(v);
    const std::string n = "n=" + std::to_string(d.n);
    Add(base + "_p50", d.p50, unit, n);
    Add(base + "_p99", d.p99, unit, n);
  }
  bool AllFinite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     m.name.c_str());
        return false;
      }
    }
    return true;
  }
  void Print(bool correct, int64_t attempted, int64_t failed,
             bool per_layer) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-3s %-40s %14.6g %-6s %s\n", m.end_to_end ? "e2e" : "",
                  m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (m.end_to_end == per_layer) continue;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", m.value);
      if (!first) json += ", ";
      first = false;
      json += "\"" + m.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  bool end_to_end_ = true;
};

/// A memory line of /proc/self/status ("VmHWM:", "VmRSS:") in MB.
double RssMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

/// Returns freed heap to the kernel and restarts VmHWM from the current
/// resident set, so the peak read later is that of what is still alive.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) std::fprintf(stderr, "perfbench: cannot reset VmHWM\n");
  std::printf("peak reset: rss %.1f MB, hwm %.1f MB\n", RssMb("VmRSS:"),
              RssMb("VmHWM:"));
}

void PrintStep(const char* label, double rate, const StepResult& r) {
  const Dist d = Summarize(r.stable_ms);
  std::printf(
      "step %-10s rate %8.0f offered %8.0f ups  p50 %7.3f ms  p99 %8.3f ms  "
      "n=%" PRId64 "  unfinished %" PRId64 "  failed_reads %" PRId64
      "  dropped %" PRId64 "  %s\n",
      label, rate, r.offered_ups, d.p50, d.p99, d.n, r.unfinished,
      r.failed_reads, r.dropped_sends, r.Passed(kP99LimitMs) ? "pass" : "FAIL");
  std::fflush(stdout);
}

/// Builds a cluster and waits for its start-up probe; returns seconds.
double TimedStart(std::unique_ptr<Cluster>* out, ClusterOptions opts,
                  esr::ObjectId probe) {
  const int64_t t0 = NowNs();
  auto cluster = std::make_unique<Cluster>(std::move(opts));
  cluster->Start(probe);
  const double s = SecondsSince(t0);
  *out = std::move(cluster);
  return s;
}

/// num / den, with an empty base reading as 0 rather than NaN.
double Ratio(int64_t num, int64_t den) {
  return static_cast<double>(num) /
         static_cast<double>(std::max<int64_t>(1, den));
}

/// A short unmeasured step at the lo rate on a freshly started cluster, so
/// first-use costs (page faults, container growth, connection warm-up) do
/// not land in the first measured step.
void WarmUp(LoadGen& gen, Cluster& cluster, const WorkloadSpec& w,
            KeyGen& keys, std::mt19937_64& rng, double seconds) {
  const Schedule warm =
      MakeSchedule(w, keys, w.lo_rate, kWarmUpShare * seconds, rng);
  gen.Run(warm, kStepDrainS);
  if (!cluster.WaitQuiescent(kQuiesceS)) Fatal("warm-up never drained");
}

/// Operations attempted and failed (updates not stable by the final drain
/// plus failed reads) over every load generator of the run.
struct Totals {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Final drain and the correctness gate shared by both modes.
bool FinalGate(Cluster& cluster, LoadGen& gen, esr::ObjectId probe,
               Totals* totals) {
  bool ok = true;
  if (!cluster.WaitQuiescent(kQuiesceS)) {
    std::fprintf(stderr, "perfbench: cluster did not drain\n");
    ok = false;
  }
  totals->attempted += gen.updates_posted() + gen.reads_done();
  totals->failed += gen.Outstanding() + gen.failed_reads();
  if (gen.Outstanding() > 0 || gen.failed_reads() > 0) ok = false;
  uint64_t digest = 0;
  if (!cluster.DigestsMatch(&digest)) {
    std::fprintf(stderr, "perfbench: site digests differ\n");
    ok = false;
  }
  const std::string mismatch = gen.CheckCounts(probe, kSites);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", mismatch.c_str());
    ok = false;
  }
  std::printf("gate: digest %016" PRIx64 " %s\n", digest, ok ? "ok" : "FAILED");
  return ok;
}

/// Offered-rate search for capacity_ups, taken one step at a time so its
/// steps can be spread over the run. The rate grows by kSearchGrowth until
/// a step fails (or shrinks until one passes), then is bisected
/// geometrically between the highest pass and the lowest failure. A failing
/// step is repeated once at the same rate and fails only if the repeat
/// fails too, so one host stall cannot cap the search (a step that left
/// updates unfinished was overloaded and is not repeated).
class CapacitySearch {
 public:
  explicit CapacitySearch(double start_rate) : rate_(start_rate) {}

  double rate() const { return rate_; }
  bool retrying() const { return retry_; }
  bool passed_any() const { return pass_rate_ > 0; }
  /// Realized offered rate of the highest passing step (0 if none).
  double capacity() const { return pass_offered_; }

  void Record(const StepResult& r) {
    if (r.Passed(kP99LimitMs)) {
      retry_ = false;
      if (rate_ > pass_rate_) {
        pass_rate_ = rate_;
        pass_offered_ = r.offered_ups;
      }
    } else if (!retry_ && r.unfinished == 0) {
      retry_ = true;
      return;  // same rate once more
    } else {
      retry_ = false;
      if (fail_rate_ == 0 || rate_ < fail_rate_) fail_rate_ = rate_;
    }
    if (fail_rate_ == 0) {
      rate_ *= kSearchGrowth;
    } else if (pass_rate_ == 0) {
      rate_ /= kSearchGrowth;
    } else {
      rate_ = std::sqrt(pass_rate_ * fail_rate_);
    }
  }

 private:
  double rate_;
  double pass_rate_ = 0, pass_offered_ = 0, fail_rate_ = 0;
  bool retry_ = false;
};

/// One search step on a freshly started cluster, so that a step neither
/// inherits the backlog of an overloaded predecessor nor the main
/// cluster's history, and passes the same correctness gate as the main
/// run. Its start-up time is one more setup_s sample. False if the gate
/// failed.
bool SearchStep(const Args& args, const WorkloadSpec& w, KeyGen& keys,
                std::mt19937_64& rng, int index, CapacitySearch* search,
                std::vector<double>* setups, Totals* totals) {
  const esr::ObjectId probe = w.objects + 1;
  ClusterOptions opts;
  opts.wal = w.wal;
  opts.wal_dir = args.work_dir + "/search" + std::to_string(index);
  std::unique_ptr<Cluster> cluster;
  setups->push_back(TimedStart(&cluster, opts, probe));
  LoadGen gen(cluster.get(), w, nullptr);
  const Schedule sch = MakeSchedule(
      w, keys, search->rate(), kSearchShare * args.seconds / kSearchSteps,
      rng);
  const StepResult r = gen.Run(sch, kStepDrainS);
  PrintStep(search->retrying() ? "search-re" : "search", search->rate(), r);
  const bool gated = FinalGate(*cluster, gen, probe, totals);
  cluster->Shutdown();
  cluster.reset();
  if (!gated) return false;
  std::filesystem::remove_all(opts.wal_dir);
  search->Record(r);
  return true;
}

/// Bytes this process has passed to write(): TcpTransport's frames and
/// wake-ups and, with a WAL, FileStorage's appends (/proc/self/io wchar).
double WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("wchar:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return std::nan("");
}

/// What one slice cost the cluster per update.
struct SliceCost {
  double cpu_us = 0;    // process CPU less the load generator's threads
  double io_bytes = 0;  // bytes written (WrittenBytes)
};

/// Runs one lo or hi slice on the main cluster, waits until it drained, and
/// measures its cost.
StepResult Slice(LoadGen& gen, Cluster& cluster, const Schedule& sch,
                 const char* label, double rate, SliceCost* cost) {
  const double cpu0 = ProcessCpuS();
  const double io0 = WrittenBytes();
  StepResult r = gen.Run(sch, kStepDrainS);
  if (!cluster.WaitQuiescent(kQuiesceS)) {
    Fatal(std::string(label) + " step never drained");
  }
  const double updates = static_cast<double>(std::max<int64_t>(1, sch.updates));
  cost->cpu_us = (ProcessCpuS() - cpu0 - r.gen_cpu_s) * 1e6 / updates;
  cost->io_bytes = (WrittenBytes() - io0) / updates;
  PrintStep(label, rate, r);
  std::printf("  per update: cpu %.1f us, written %.1f B; rss %.1f MB\n",
              cost->cpu_us, cost->io_bytes, RssMb("VmRSS:"));
  return r;
}

/// The untraced measurement every run makes: set-ups, then kRounds rounds
/// of search steps and lo and hi slices on the main cluster, then restarts
/// of site 2 and the correctness gate. Sets `lo_p50_ms` to the reported
/// stable_p50_ms.lo.
bool RunRounds(const Args& args, const WorkloadSpec& w, Report* report,
               Totals* totals, double* lo_p50_ms) {
  std::mt19937_64 rng(args.seed);
  // The search's schedules depend on which of its steps passed, so they
  // draw from their own stream: the main steps' inputs depend on the seed
  // alone.
  std::mt19937_64 search_rng(args.seed ^ 0x5eed5eed5eed5eedULL);
  KeyGen keys(w.objects, w.zipf_theta);
  const esr::ObjectId probe = w.objects + 1;
  ClusterOptions opts;
  opts.wal = w.wal;

  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kMainSetups; ++i) {
    if (cluster) cluster->Shutdown();
    cluster.reset();
    opts.wal_dir = args.work_dir + "/setup" + std::to_string(i);
    setups.push_back(TimedStart(&cluster, opts, probe));
  }
  LoadGen gen(cluster.get(), w, nullptr);
  WarmUp(gen, *cluster, w, keys, rng, args.seconds);

  // Every per-slice value is reduced to the median over the rounds, so a
  // host burst that covers less than half of the run does not move it.
  CapacitySearch search(kSearchStartOverHi * w.hi_rate);
  int search_steps = 0;
  bool ok = true;
  std::vector<int> lo_steps, hi_steps;
  std::vector<double> lo_p50, hi_p50, read_p50, read_p99, cpu_us, lo_cpu_us,
      io_bytes;
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kSearchStepsPerRound && ok; ++k) {
      ok = SearchStep(args, w, keys, search_rng, search_steps++, &search,
                      &setups, totals);
    }
    if (!ok) break;
    // From here on only the main cluster is alive: its peak is the one
    // reported.
    if (round + 1 == kRounds) ResetPeakRss();
    const Schedule lo = MakeSchedule(
        w, keys, w.lo_rate, kLoShare * args.seconds / kRounds, rng);
    SliceCost cost;
    lo_steps.push_back(Slice(gen, *cluster, lo, "lo", w.lo_rate, &cost).step);
    lo_cpu_us.push_back(cost.cpu_us);
    const Schedule hi = MakeSchedule(
        w, keys, w.hi_rate, kHiShare * args.seconds / kRounds, rng);
    const StepResult r_hi = Slice(gen, *cluster, hi, "hi", w.hi_rate, &cost);
    hi_steps.push_back(r_hi.step);
    cpu_us.push_back(cost.cpu_us);
    io_bytes.push_back(cost.io_bytes);
    const Dist rd = Summarize(r_hi.read_us);
    read_p50.push_back(rd.p50);
    read_p99.push_back(rd.p99);
  }

  // Read before the restarts: WAL replay loads the whole log at once, and
  // that transient, not the cluster's state, would set durable_small's peak.
  const double peak_rss_mb = RssMb("VmHWM:");
  std::vector<double> recoveries;
  for (int i = 0; i < kRecoveries && ok; ++i) {
    const RecoveryTimes rec = cluster->RestartSite(2);
    std::printf("recovery: total %.4f s, replay %.4f s, catch-up %.4f s\n",
                rec.total_s, rec.replay_s, rec.catchup_s);
    recoveries.push_back(rec.total_s);
  }
  ok = FinalGate(*cluster, gen, probe, totals) && ok;
  const double end_hwm_mb = RssMb("VmHWM:");
  cluster->Shutdown();
  cluster.reset();
  for (int extra = 0; ok && !search.passed_any() && extra < kSearchExtraSteps;
       ++extra) {
    ok = SearchStep(args, w, keys, search_rng, search_steps++, &search,
                    &setups, totals);
  }
  if (!ok) return false;

  // The lo and hi latencies are read after the final drain, so an update
  // that missed its step's drain window counts with its real latency.
  std::vector<double> lo_all, hi_all;
  for (const auto& [steps, p50, all] :
       {std::tuple{&lo_steps, &lo_p50, &lo_all}, {&hi_steps, &hi_p50, &hi_all}}) {
    for (int step : *steps) {
      const std::vector<double> ms = gen.SettledMs(step);
      p50->push_back(Quantile(ms, 0.5));
      all->insert(all->end(), ms.begin(), ms.end());
    }
  }
  const std::string rounds = "median of " + std::to_string(kRounds);
  report->Section(true);
  report->Add("setup_s", Median(setups), "s",
              "median of " + std::to_string(setups.size()));
  report->Add("io_bytes_per_update", Median(io_bytes), "B",
              rounds + " hi slices");
  report->Add("peak_rss_mb", peak_rss_mb, "MB",
              "final round; " + std::to_string(end_hwm_mb) +
                  " MB after the restarts");
  // CPU and wall-clock figures follow the host's CPU steal beyond any bound
  // (README.md), so they are per-layer: measured by every run, reported in
  // the result line of --trace 1.
  report->Section(false);
  report->Add("cpu_us_per_update", Median(cpu_us), "us",
              rounds + " hi slices; lo " + std::to_string(Median(lo_cpu_us)) +
                  " us");
  report->Add("capacity_ups", search.capacity(), "1/s",
              std::to_string(search_steps) + " steps");
  for (const auto& [tag, p50, all] :
       {std::tuple{"lo", &lo_p50, &lo_all}, {"hi", &hi_p50, &hi_all}}) {
    char note[128];
    std::snprintf(note, sizeof(note), "%s; n=%zu p90=%.3f p99=%.3f ms",
                  rounds.c_str(), all->size(), Quantile(*all, 0.9),
                  Quantile(*all, 0.99));
    report->Add(std::string("stable_p50_ms.") + tag, Median(*p50), "ms",
                note);
  }
  report->Add("read_p50_us", Median(read_p50), "us", rounds);
  report->Add("read_p99_us", Median(read_p99), "us", rounds);
  report->Add("recovery_s", Median(recoveries), "s",
              "median of " + std::to_string(recoveries.size()));
  *lo_p50_ms = Median(lo_p50);
  return ok;
}

/// Per-ET blocking path of one step: for each fully observed ET, the
/// follower whose apply ack reached the origin last is on the critical
/// path. Segments partition due -> stable except two sub-µs gaps (inside
/// SubmitUpdate before its send, and inside the last ack's handler before
/// the stable callback), which land in the residual.
struct Waterfall {
  std::vector<std::string> names;
  std::vector<std::vector<double>> us;  // per segment
};

Waterfall BuildWaterfall(const PhaseStats& ph) {
  Waterfall wf;
  wf.names = {"gen_lag",      "submit_wait",   "seq_rtt",
              "origin_admit", "mset_oneway",   "follower_wait",
              "holdback",     "ack_oneway",    "origin_ack_wait"};
  wf.us.resize(wf.names.size());
  for (const auto& [et, sp] : ph.ets) {
    if (sp.origin < 0 || sp.due == 0 || sp.submit_run == 0 ||
        sp.seq_req_send == 0 || sp.seq_resp_run == 0 || sp.mset_send == 0 ||
        sp.stable == 0) {
      continue;
    }
    int crit = -1;
    bool complete = true;
    for (int f = 0; f < kSites; ++f) {
      if (f == sp.origin) continue;
      const size_t i = static_cast<size_t>(f);
      if (sp.mset_post[i] == 0 || sp.mset_run[i] == 0 || sp.ack_send[i] == 0 ||
          sp.ack_post[i] == 0 || sp.ack_run[i] == 0) {
        complete = false;
        break;
      }
      if (crit < 0 || sp.ack_run[i] > sp.ack_run[static_cast<size_t>(crit)]) {
        crit = f;
      }
    }
    if (!complete || crit < 0) continue;
    const size_t c = static_cast<size_t>(crit);
    const int64_t seg[] = {sp.post - sp.due,
                           sp.submit_run - sp.post,
                           sp.seq_resp_run - sp.seq_req_send,
                           sp.mset_send - sp.seq_resp_run,
                           sp.mset_post[c] - sp.mset_send,
                           sp.mset_run[c] - sp.mset_post[c],
                           sp.ack_send[c] - sp.mset_run[c],
                           sp.ack_post[c] - sp.ack_send[c],
                           sp.ack_run[c] - sp.ack_post[c]};
    for (size_t k = 0; k < wf.names.size(); ++k) {
      wf.us[k].push_back(static_cast<double>(seg[k]) * 1e-3);
    }
  }
  return wf;
}

using NamedPhases = std::vector<std::pair<std::string, const PhaseStats*>>;

void WriteSpans(const std::string& path, const NamedPhases& phases) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "phase,et,origin,due,post,submit_run,seq_req_send,seq_resp_run,"
         "mset_send";
  for (const char* f :
       {"mset_post", "mset_run", "ack_send", "ack_post", "ack_run"}) {
    for (int s = 0; s < kSites; ++s) out << ',' << f << s;
  }
  out << ",stable\n";
  for (const auto& [name, ph] : phases) {
    for (const auto& [et, sp] : ph->ets) {
      if (sp.origin < 0) continue;
      out << name << ',' << et << ',' << sp.origin << ',' << sp.due << ','
          << sp.post << ',' << sp.submit_run << ',' << sp.seq_req_send << ','
          << sp.seq_resp_run << ',' << sp.mset_send;
      for (const auto* arr : {&sp.mset_post, &sp.mset_run, &sp.ack_send,
                              &sp.ack_post, &sp.ack_run}) {
        for (int64_t v : *arr) out << ',' << v;
      }
      out << ',' << sp.stable << '\n';
    }
  }
}

std::vector<double> Concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// The traced part of --trace 1, after RunRounds: one lo and one hi step on
/// a cluster behind the timing decorators, a restart, and the layer
/// microbenchmarks. `untraced_lo_p50` is RunRounds' stable_p50_ms.lo.
bool RunTraced(const Args& args, const WorkloadSpec& w, Report* report,
               Totals* totals, double untraced_lo_p50) {
  std::mt19937_64 rng(args.seed);
  KeyGen keys(w.objects, w.zipf_theta);
  const esr::ObjectId probe = w.objects + 1;
  const Schedule lo =
      MakeSchedule(w, keys, w.lo_rate, kLoShare * args.seconds, rng);
  const Schedule hi =
      MakeSchedule(w, keys, w.hi_rate, kHiShare * args.seconds, rng);

  Tracer tracer;
  ClusterOptions opts;
  opts.wal = w.wal;
  opts.wal_dir = args.work_dir + "/traced";
  opts.tracer = &tracer;
  std::unique_ptr<Cluster> cluster;
  TimedStart(&cluster, opts, probe);
  LoadGen gen(cluster.get(), w, &tracer);
  WarmUp(gen, *cluster, w, keys, rng, args.seconds);
  tracer.TakePhase();  // start-up and warm-up traffic is not a load step

  const StepResult r_lo = gen.Run(lo, kStepDrainS);
  PrintStep("lo-traced", w.lo_rate, r_lo);
  if (!cluster->WaitQuiescent(kQuiesceS)) Fatal("lo step never drained");
  const PhaseStats p_lo = tracer.TakePhase();
  const StepResult r_hi = gen.Run(hi, kStepDrainS);
  PrintStep("hi-traced", w.hi_rate, r_hi);
  if (!cluster->WaitQuiescent(kQuiesceS)) Fatal("hi step never drained");
  const PhaseStats p_hi = tracer.TakePhase();

  const RecoveryTimes rec = cluster->RestartSite(2);
  std::printf("recovery: total %.4f s, replay %.4f s, catch-up %.4f s\n",
              rec.total_s, rec.replay_s, rec.catchup_s);
  const bool ok = FinalGate(*cluster, gen, probe, totals);
  const int64_t store_objects = cluster->node(0).store().ObjectCount();
  const int64_t dropped = cluster->DroppedSends();
  cluster->Shutdown();
  cluster.reset();

  const int64_t updates = lo.updates + hi.updates;
  auto both = [&](auto field) { return Concat(p_lo.*field, p_hi.*field); };
  const int64_t sends = p_lo.sends + p_hi.sends;
  const int64_t mset_sends = p_lo.mset_sends + p_hi.mset_sends;
  const int64_t flushes = p_lo.wal_flushes + p_hi.wal_flushes;
  int64_t busy = 0, wal_ns = 0;
  for (size_t s = 0; s < kSites; ++s) {
    busy += p_lo.busy_ns[s] + p_hi.busy_ns[s];
    wal_ns += p_lo.wal_ns[s] + p_hi.wal_ns[s];
  }
  auto busy_frac = [&](size_t s) {
    return static_cast<double>(p_hi.busy_ns[s]) * 1e-9 /
           std::max(1e-9, p_hi.wall_s);
  };

  report->Add("runtime.transport.msgs_per_update",
              Ratio(p_lo.net_sends + p_hi.net_sends, updates), "count");
  report->Add("runtime.transport.bytes_per_update",
              Ratio(p_lo.net_bytes + p_hi.net_bytes, updates), "B");
  const Dist send = Summarize(both(&PhaseStats::send_us));
  report->Add("runtime.transport.send_us_p50", send.p50, "us",
              "n=" + std::to_string(send.n));
  report->AddDist("runtime.transport.oneway_us", p_lo.oneway_us, "us");
  report->Add("runtime.transport.resend_frac",
              Ratio(p_lo.resends + p_hi.resends, sends), "fraction");
  report->Add("runtime.transport.dropped_sends", static_cast<double>(dropped),
              "count");
  report->AddDist("runtime.strand.wait_us", p_hi.strand_wait_us, "us");
  report->Add("runtime.strand.busy_frac.seq", busy_frac(0), "fraction");
  report->Add("runtime.strand.busy_frac.follower_max",
              std::max(busy_frac(1), busy_frac(2)), "fraction");
  report->Add("runtime.strand.tasks_per_update",
              Ratio(p_lo.posts + p_hi.posts, updates), "count");
  const Dist late = Summarize(p_lo.timer_late_us);
  report->Add("runtime.timer.late_us_p99", late.p99, "us",
              "n=" + std::to_string(late.n));
  report->Add("runtime.timer.schedules_per_update",
              Ratio(p_lo.schedules + p_hi.schedules, updates), "count");
  report->AddDist("runtime.holdback.wait_us", p_hi.holdback_us, "us");
  report->AddDist("msg.sequencer.rtt_us", p_lo.seq_rtt_us, "us");
  report->Add("msg.sequencer.requests_per_update",
              Ratio(p_lo.seq_requests + p_hi.seq_requests, updates),
              "count");
  report->Add("recovery.wal.flushes_per_update", Ratio(flushes, updates),
              "count");
  report->Add("recovery.wal.bytes_per_update",
              Ratio(p_lo.wal_bytes + p_hi.wal_bytes, updates), "B");
  report->AddDist("recovery.wal.append_us", both(&PhaseStats::wal_append_us),
                  "us");
  report->Add("recovery.wal.strand_share", Ratio(wal_ns, busy), "fraction");
  report->Add("recovery.replay_s", rec.replay_s, "s");
  report->Add("recovery.catchup_s", rec.catchup_s, "s");

  MicroSizes sizes;
  sizes.frame_bytes = mset_sends > 0
                          ? (p_lo.mset_bytes + p_hi.mset_bytes) / mset_sends
                          : 0;
  sizes.flush_bytes =
      flushes > 0 ? (p_lo.wal_bytes + p_hi.wal_bytes) / flushes : 0;
  const MicroResults micro =
      RunMicro(w, keys, rng, sizes, args.work_dir + "/micro");
  const std::string frame_note =
      "frame=" + std::to_string(sizes.frame_bytes) + "B";
  report->Add("recovery.wal.file_append_us", micro.file_append_us, "us",
              "flush=" + std::to_string(sizes.flush_bytes) + "B");
  report->Add("recovery.codec.mset_encode_ns", micro.mset_encode_ns, "ns");
  report->Add("recovery.codec.mset_decode_ns", micro.mset_decode_ns, "ns");
  report->Add("common.wire.crc32_ns_per_kb", micro.crc32_ns_per_kb, "ns",
              frame_note);
  report->Add("common.wire.frame_roundtrip_ns", micro.frame_roundtrip_ns, "ns",
              frame_note);
  report->Add("store.apply_ns_per_op", micro.store_apply_ns_per_op, "ns");
  report->Add("store.read_ns", micro.store_read_ns, "ns");
  report->Add("store.objects", static_cast<double>(store_objects), "count");
  report->Add("obs.histogram_observe_ns", micro.histogram_observe_ns, "ns");

  const Waterfall wf = BuildWaterfall(p_lo);
  const double traced_lo_p50 =
      Quantile(gen.SettledMs(r_lo.step), 0.5);
  double seg_sum_ms = 0;
  for (size_t k = 0; k < wf.names.size(); ++k) {
    const double m = wf.us[k].empty() ? 0 : Median(wf.us[k]);
    seg_sum_ms += m * 1e-3;
    report->Add("bench.waterfall." + wf.names[k] + "_us", m, "us",
                "n=" + std::to_string(wf.us[k].size()));
  }
  for (const auto& [tag, step] :
       {std::pair{"lo", r_lo.step}, {"hi", r_hi.step}}) {
    const std::vector<double> ms = gen.SettledMs(step);
    report->Add(std::string("bench.stable_p90_ms.") + tag,
                Quantile(ms, 0.9), "ms");
    report->Add(std::string("bench.stable_p99_ms.") + tag,
                Quantile(ms, 0.99), "ms");
  }
  report->Add("bench.gen_lag_p99_ms",
              Quantile(Concat(r_lo.lag_ms, r_hi.lag_ms), 0.99), "ms");
  report->Add("bench.trace_overhead_frac",
              (traced_lo_p50 - untraced_lo_p50) / untraced_lo_p50, "fraction",
              "untraced p50 " + std::to_string(untraced_lo_p50) + " ms");
  report->Add("bench.residual_frac",
              (traced_lo_p50 - seg_sum_ms) / traced_lo_p50, "fraction",
              "traced p50 " + std::to_string(traced_lo_p50) + " ms");
  report->Add("bench.failed_frac", Ratio(totals->failed, totals->attempted),
              "fraction");

  if (!args.out_dir.empty()) {
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/spans_" + w.name + ".csv";
    WriteSpans(path, {{"lo", &p_lo}, {"hi", &p_hi}});
    std::printf("spans: %s\n", path.c_str());
  }
  return ok;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: esr_cluster_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--out-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // As in esrd: a peer's closed connection surfaces as a write error in
  // TcpTransport instead of killing the process.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(kWatchdogS));
    Fatal("run exceeded " + std::to_string(kWatchdogS) + " s");
  }).detach();

  args.work_dir += "/" + w->name + "-s" + std::to_string(args.seed) + "-p" +
                   std::to_string(getpid());
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  std::printf("workload %s seed %" PRIu64 " seconds %.1f trace %d pool %d\n",
              w->name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              PoolThreads());

  Report report;
  Totals totals;
  double lo_p50_ms = 0;
  bool ok = RunRounds(args, *w, &report, &totals, &lo_p50_ms);
  if (ok && args.trace) ok = RunTraced(args, *w, &report, &totals, lo_p50_ms);
  if (!report.AllFinite()) return 1;  // no result line without numbers
  if (ok) std::filesystem::remove_all(args.work_dir);
  report.Print(ok, totals.attempted, totals.failed, args.trace);
  return ok ? 0 : 1;
}
