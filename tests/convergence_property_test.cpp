// Property sweep: for every asynchronous replica control method, across
// seeds, network conditions and workload shapes, (1) all replicas converge
// to an identical state at quiescence, (2) the update subhistory is
// serializable, and (3) the converged state equals the serial oracle — the
// paper's central convergence claim ("replicas always converge to global
// serializability"). The recovery cases add durable logging and an
// amnesia crash, which relies on the stable queues' per-origin FIFO order.

#include <gtest/gtest.h>

#include "analysis/query_checker.h"
#include "analysis/sr_checker.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::MustSubmit;

struct Case {
  Method method;
  uint64_t seed;
  double loss;
  SimDuration jitter_us;
  /// Durable recovery on, and site 2 amnesia-crashed from 100 to 300 ms.
  bool recovery = false;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name(MethodToString(info.param.method));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(info.param.seed) + "_loss" +
         std::to_string(static_cast<int>(info.param.loss * 100)) + "_j" +
         std::to_string(info.param.jitter_us) +
         (info.param.recovery ? "_amnesia" : "");
}

class ConvergenceProperty : public ::testing::TestWithParam<Case> {};

TEST_P(ConvergenceProperty, ReplicasConvergeToSerialOracle) {
  const Case& c = GetParam();
  SystemConfig config;
  config.method = c.method;
  config.num_sites = 4;
  config.seed = c.seed;
  config.network.loss_probability = c.loss;
  config.network.jitter_us = c.jitter_us;
  config.recovery.enabled = c.recovery;
  ReplicatedSystem system(config);
  if (c.recovery) {
    system.failures().ScheduleCrash(sim::CrashSpec{
        /*site=*/2, /*crash_at=*/100'000, /*restart_at=*/300'000,
        /*amnesia=*/true});
  }

  Rng rng(c.seed * 31 + 7);
  std::vector<EtId> tentative;
  const bool compe = c.method == Method::kCompe ||
                     c.method == Method::kCompeOrdered;
  const bool ritu = c.method == Method::kRituMulti ||
                    c.method == Method::kRituSingle;
  const bool ordered_ops = c.method == Method::kOrdup ||
                           c.method == Method::kOrdupTs ||
                           c.method == Method::kCompeOrdered;
  for (int i = 0; i < 40; ++i) {
    const SiteId origin = static_cast<SiteId>(rng.Uniform(0, 3));
    const ObjectId object = rng.Uniform(0, 5);
    std::vector<Operation> ops;
    if (ritu) {
      ops.push_back(Operation::TimestampedWrite(
          object, Value(rng.Uniform(0, 1000)), kZeroTimestamp));
    } else if (ordered_ops && rng.Bernoulli(0.5)) {
      // Ordered methods handle non-commutative operations.
      ops.push_back(Operation::Write(object, Value(rng.Uniform(0, 1000))));
    } else {
      ops.push_back(Operation::Increment(object, rng.Uniform(1, 9)));
    }
    auto submitted = system.SubmitUpdate(origin, std::move(ops));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    if (compe) tentative.push_back(*submitted);
    if (rng.Bernoulli(0.3)) {
      system.RunFor(rng.Uniform(100, 5'000));
    }
  }
  system.RunUntilQuiescent();
  // COMPE: decide everything (mixed commits and aborts), then drain again.
  for (size_t i = 0; i < tentative.size(); ++i) {
    ASSERT_TRUE(system.Decide(tentative[i], i % 3 != 0).ok());
  }
  system.RunUntilQuiescent();

  // (1) replica convergence
  ASSERT_TRUE(system.Converged());

  // (2) update subhistory serializable
  auto sr = analysis::CheckUpdateSerializability(system.history(), 4);
  ASSERT_TRUE(sr.serializable) << sr.violation;

  // (3) converged state equals the serial oracle
  auto oracle = analysis::ComputeSerialState(system.history(),
                                             sr.serial_order);
  for (const auto& [object, value] : oracle) {
    for (SiteId s = 0; s < 4; ++s) {
      EXPECT_EQ(system.SiteValue(s, object), value)
          << "site " << s << " object " << object;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ConvergenceProperty,
    ::testing::Values(
        // Clean network.
        Case{Method::kOrdup, 1, 0.0, 200},
        Case{Method::kOrdupTs, 1, 0.0, 200},
        Case{Method::kCommu, 1, 0.0, 200},
        Case{Method::kRituMulti, 1, 0.0, 200},
        Case{Method::kRituSingle, 1, 0.0, 200},
        Case{Method::kCompe, 1, 0.0, 200},
        Case{Method::kCompeOrdered, 1, 0.0, 200},
        // Lossy network.
        Case{Method::kOrdup, 2, 0.25, 200},
        Case{Method::kOrdupTs, 2, 0.25, 200},
        Case{Method::kCommu, 2, 0.25, 200},
        Case{Method::kRituMulti, 2, 0.25, 200},
        Case{Method::kRituSingle, 2, 0.25, 200},
        Case{Method::kCompe, 2, 0.25, 200},
        Case{Method::kCompeOrdered, 2, 0.25, 200},
        // Heavy reordering.
        Case{Method::kOrdup, 3, 0.0, 8'000},
        Case{Method::kOrdupTs, 3, 0.0, 8'000},
        Case{Method::kCommu, 3, 0.0, 8'000},
        Case{Method::kRituMulti, 3, 0.0, 8'000},
        Case{Method::kRituSingle, 3, 0.0, 8'000},
        Case{Method::kCompe, 3, 0.0, 8'000},
        Case{Method::kCompeOrdered, 3, 0.0, 8'000},
        // Loss + reordering, different seeds.
        Case{Method::kOrdup, 4, 0.15, 4'000},
        Case{Method::kCommu, 5, 0.15, 4'000},
        Case{Method::kRituMulti, 6, 0.15, 4'000},
        Case{Method::kRituSingle, 7, 0.15, 4'000},
        Case{Method::kCompe, 8, 0.15, 4'000},
        Case{Method::kCompeOrdered, 9, 0.15, 4'000},
        Case{Method::kOrdup, 10, 0.15, 4'000},
        Case{Method::kOrdupTs, 11, 0.15, 4'000},
        Case{Method::kCommu, 12, 0.15, 4'000},
        Case{Method::kRituMulti, 13, 0.15, 4'000},
        Case{Method::kCompe, 14, 0.15, 4'000},
        // Heavy reordering with an amnesia crash: recovery drops an MSet
        // its applied cut covers, which is exact only over FIFO queues.
        Case{Method::kCommu, 15, 0.0, 8'000, true},
        Case{Method::kRituSingle, 16, 0.0, 8'000, true},
        Case{Method::kCompe, 17, 0.0, 8'000, true}),
    CaseName);

}  // namespace
}  // namespace esr::core
