// Open-loop load for the cluster benchmark: seeded Poisson schedules of
// updates and off-strand point reads, and the generator that runs them on
// two threads, one posting each update to its origin's strand at its due
// time and one issuing the reads.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cluster.h"
#include "common/types.h"

namespace perfbench {

/// One benchmark workload (see README.md for why each exists).
struct WorkloadSpec {
  std::string name;
  bool wal = false;
  int ops_per_et = 1;
  int64_t objects = 8;
  double zipf_theta = 0;     // 0 = uniform keys
  double reads_per_update = 1;
  double lo_rate = 0;        // cluster-wide updates/s
  double hi_rate = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Draws object ids in [1, objects]: uniform, or Zipf(theta) by the
/// Gray et al. closed form with the zeta sum computed once.
class KeyGen {
 public:
  KeyGen(int64_t objects, double theta);
  esr::ObjectId Next(std::mt19937_64& rng);

 private:
  int64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_ = 0;
};

/// Arrivals of one load step, relative to the step's start.
struct Schedule {
  struct Arrival {
    int64_t t_ns;
    int origin;      // site the update is submitted to / read from
    bool read;
    int32_t key_at;  // index into keys (ops_per_et keys for an update)
  };
  std::vector<Arrival> arrivals;
  std::vector<esr::ObjectId> keys;
  int64_t duration_ns = 0;
  int64_t updates = 0;
  int64_t reads = 0;
};

Schedule MakeSchedule(const WorkloadSpec& w, KeyGen& keys, double rate,
                      double seconds, std::mt19937_64& rng);

/// What one step measured.
struct StepResult {
  double offered_ups = 0;        // update arrivals / step duration
  int step = 0;                  // index for LoadGen::SettledMs
  std::vector<double> stable_ms; // due -> stable; +inf if not stable by drain
  std::vector<double> read_us;   // due -> Read returned
  std::vector<double> lag_ms;    // how late the generator posted/read (ms)
  int64_t unfinished = 0;        // updates not stable by the step's drain
  int64_t failed_reads = 0;
  int64_t dropped_sends = 0;
  double gen_cpu_s = 0;          // CPU time of the two generator threads
  /// Capacity rule: the step's p99 due->stable (an unfinished update
  /// counts as +inf) is within the limit, nothing failed, nothing dropped.
  bool Passed(double p99_limit_ms) const;
};

/// The load generator: owns per-object submit counts (the correctness
/// oracle) and the completion slots of every update it ever posted.
class LoadGen {
 public:
  LoadGen(Cluster* cluster, const WorkloadSpec& w, Tracer* tracer);

  /// Runs the schedule open-loop, then waits up to `drain_s` for its
  /// updates to become stable. Updates still in flight stay tracked.
  StepResult Run(const Schedule& schedule, double drain_s);

  /// Number of updates posted so far that have not become stable.
  int64_t Outstanding() const;

  /// Due -> stable latency (ms) of every update of one step as of now
  /// (+inf while unstable). After a drain this covers the updates that
  /// missed the step's own drain window too.
  std::vector<double> SettledMs(int step) const;

  /// After a final drain: every site's value of every object equals the
  /// increments submitted to it, and object counts match. Returns a
  /// description of the first mismatch, or "" when correct.
  std::string CheckCounts(esr::ObjectId probe_object, int64_t probe_count);

  int64_t updates_posted() const { return posted_; }
  int64_t reads_done() const { return reads_; }
  int64_t failed_reads() const { return failed_reads_; }

 private:
  struct Slot {
    std::atomic<int64_t> stable_ns{0};
    esr::EtId et = 0;
  };

  /// The two generator threads of Run: reads, and update posts for `step`.
  /// Each reports its own CPU time in `cpu_s`.
  void ReadLoop(const Schedule& sch, int64_t t0, StepResult* r,
                std::vector<double>* lag, double* cpu_s);
  void UpdateLoop(const Schedule& sch, int64_t t0, int step,
                  std::shared_ptr<std::atomic<int64_t>> done,
                  std::vector<double>* lag, double* cpu_s);

  Cluster* cluster_;
  const WorkloadSpec& w_;
  Tracer* tracer_;
  /// Increments submitted per object id (read by the reader thread too).
  std::unique_ptr<std::atomic<int64_t>[]> expected_;
  std::vector<std::unique_ptr<Slot[]>> slots_;
  std::vector<std::vector<int64_t>> due_;  // per step, per update
  std::shared_ptr<std::atomic<int64_t>> stable_total_;
  int64_t posted_ = 0;
  int64_t reads_ = 0;
  int64_t failed_reads_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
