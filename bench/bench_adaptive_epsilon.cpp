// Experiment: closed-loop adaptive epsilon admission vs static budgets.
//
// The controller (esr::core::AdmissionController) adapts each query's
// effective epsilon inside declared [min, max] bounds, loosening when
// queries block (COMMU kUnavailable) or restart (ORDUP strict restarts)
// and tightening when budgets go unused. The macro sweep compares, per
// method, three policies over the SAME declared range:
//
//   * static tight  — every query runs at the min (conservative budget);
//   * static loose  — every query runs at the declared max;
//   * adaptive      — controller starts tight and moves inside [min, max].
//
// Expected shape: adaptive pays far fewer blocked attempts / restarts than
// the equally-bounded static-tight policy, while its delivered
// inconsistency stays at or below the declared max (the bound every policy
// must respect) and typically below static-loose's.
//
//   * micro (google-benchmark): controller decision + effective-epsilon
//     interpolation cost (the per-query admission overhead).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "esr/admission.h"
#include "esr/replicated_system.h"
#include "workload/workload.h"

namespace esr {
namespace {

using bench::Banner;
using bench::Fmt;
using bench::FmtInt;
using bench::Table;

constexpr int64_t kMinEpsilon = 1;
constexpr int64_t kMaxEpsilon = 16;

void BM_AdmissionObserve(benchmark::State& state) {
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController controller(cfg, 3, nullptr);
  core::AdmissionController::Signals signals;
  signals.completed = 4;
  signals.utilization_sum = 0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.Observe(1, signals));
  }
}
BENCHMARK(BM_AdmissionObserve);

void BM_AdmissionEffectiveEpsilon(benchmark::State& state) {
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.initial_scale = 0.37;
  core::AdmissionController controller(cfg, 3, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        controller.Effective(1, kMinEpsilon, kMaxEpsilon));
  }
}
BENCHMARK(BM_AdmissionEffectiveEpsilon);

struct CellResult {
  workload::WorkloadResult result;
  double final_scale = -1;  // adaptive runs only
};

/// One experiment cell: a contended workload under one admission policy.
/// `static_epsilon < 0` selects the adaptive controller over
/// [kMinEpsilon, kMaxEpsilon]; otherwise every query declares exactly
/// `static_epsilon`.
CellResult RunCell(core::Method method, int64_t static_epsilon) {
  core::SystemConfig config;
  config.method = method;
  config.num_sites = 3;
  config.seed = 811;
  config.network.base_latency_us = 20'000;  // stability lag keeps locks hot
  config.record_history = false;
  if (static_epsilon < 0) {
    config.admission.enabled = true;
    config.admission.initial_scale = 0.0;  // start at the min, like tight
    config.admission.default_min_epsilon = kMinEpsilon;
  }

  workload::WorkloadSpec spec;
  spec.seed = 811;
  spec.num_objects = 4;  // hot set
  spec.zipf_theta = 0.9;
  spec.update_fraction = 0.6;
  spec.reads_per_query = 3;
  spec.read_gap_us = 3'000;  // updates drift past running queries
  spec.think_time_us = 3'000;
  spec.clients_per_site = 2;
  spec.duration_us = 600'000;
  spec.query_epsilon = static_epsilon < 0 ? kMaxEpsilon : static_epsilon;

  core::ReplicatedSystem system(config);
  workload::WorkloadRunner runner(&system, spec);
  CellResult cell;
  cell.result = runner.Run();
  if (system.admission() != nullptr) {
    double sum = 0;
    for (SiteId s = 0; s < config.num_sites; ++s) {
      sum += system.admission()->scale(s);
    }
    cell.final_scale = sum / config.num_sites;
  }
  bench::CollectMetrics(system);
  return cell;
}

double PerQuery(int64_t total, int64_t queries) {
  return queries > 0 ? static_cast<double>(total) / queries : 0;
}

void AdaptiveSweep(core::Method method) {
  Banner(std::string("Adaptive epsilon admission: ") +
         std::string(core::MethodToString(method)) +
         ", declared range [" + std::to_string(kMinEpsilon) + ", " +
         std::to_string(kMaxEpsilon) + "], hot set, 20 ms links");
  Table table({"policy", "blocked/qry", "restarts/qry", "incon mean",
               "incon max", "qry p50 (ms)", "queries/s", "final scale"});

  const CellResult tight = RunCell(method, kMinEpsilon);
  const CellResult loose = RunCell(method, kMaxEpsilon);
  const CellResult adaptive = RunCell(method, -1);

  auto add_row = [&table](const std::string& name, const CellResult& cell) {
    const auto& r = cell.result;
    table.AddRow(
        {name, Fmt(PerQuery(r.query_blocked_attempts, r.queries_completed), 2),
         Fmt(PerQuery(r.query_restarts, r.queries_completed), 3),
         Fmt(r.query_inconsistency.mean(), 2),
         FmtInt(static_cast<int64_t>(r.query_inconsistency.max())),
         Fmt(r.query_latency_us.Percentile(50) / 1000.0, 1),
         Fmt(r.QueriesPerSec(), 1),
         cell.final_scale < 0 ? std::string("-") : Fmt(cell.final_scale, 2)});
  };
  add_row("static tight (eps=" + std::to_string(kMinEpsilon) + ")", tight);
  add_row("static loose (eps=" + std::to_string(kMaxEpsilon) + ")", loose);
  add_row("adaptive [" + std::to_string(kMinEpsilon) + ".." +
              std::to_string(kMaxEpsilon) + "]",
          adaptive);
  table.Print();

  // The acceptance checks, machine-readable in the bench output.
  const int64_t tight_pressure = tight.result.query_blocked_attempts +
                                 tight.result.query_restarts;
  const int64_t adaptive_pressure = adaptive.result.query_blocked_attempts +
                                    adaptive.result.query_restarts;
  std::printf(
      "\n[check] %s adaptive blocked+restarts %lld vs static tight %lld: "
      "%s\n",
      std::string(core::MethodToString(method)).c_str(),
      static_cast<long long>(adaptive_pressure),
      static_cast<long long>(tight_pressure),
      adaptive_pressure < tight_pressure ? "PASS" : "FAIL");
  std::printf(
      "[check] %s adaptive max inconsistency %lld <= declared max %lld: "
      "%s\n",
      std::string(core::MethodToString(method)).c_str(),
      static_cast<long long>(adaptive.result.query_inconsistency.max()),
      static_cast<long long>(kMaxEpsilon),
      adaptive.result.query_inconsistency.max() <=
              static_cast<double>(kMaxEpsilon)
          ? "PASS"
          : "FAIL");
}

}  // namespace
}  // namespace esr

int main(int argc, char** argv) {
  // COMMU surfaces the blocking signal (kUnavailable retries); ORDUP the
  // strict-restart signal. The controller must win on both.
  esr::AdaptiveSweep(esr::core::Method::kCommu);
  esr::AdaptiveSweep(esr::core::Method::kOrdup);
  esr::bench::WriteMetricsSnapshot("bench_adaptive_epsilon");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
