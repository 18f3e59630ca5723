// Determinism regression: a (configuration, seed) pair must fully
// determine an execution — identical final state digests, histories and
// protocol counters across repeated runs, for every method.
// This is the property all the benchmark tables and property sweeps rest
// on; accidental nondeterminism (e.g., iteration-order-dependent protocol
// decisions) shows up here first.

#include <gtest/gtest.h>

#include <string>

#include "test_util.h"
#include "workload/workload.h"

namespace esr::core {
namespace {

struct Fingerprint {
  std::vector<uint64_t> digests;
  int64_t updates = 0;
  int64_t queries = 0;
  int64_t msets_applied = 0;
  int64_t reads_recorded = 0;
  int64_t blocked_attempts = 0;
  int64_t restarts = 0;
  double inconsistency_sum = 0;
  /// FNV-1a over every field of every recorded read, in record order.
  uint64_t reads_digest = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

uint64_t DigestReads(const std::vector<analysis::ReadRecord>& reads) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const analysis::ReadRecord& r : reads) {
    const std::string line =
        std::to_string(r.query) + ' ' + std::to_string(r.site) + ' ' +
        std::to_string(r.object) + ' ' + r.value.ToString() + ' ' +
        std::to_string(r.time) + ' ' +
        std::to_string(r.inconsistency_increment) + ' ' +
        std::to_string(r.pin) + ' ' + std::to_string(r.site_apply_index) +
        '\n';
    for (unsigned char c : line) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

Fingerprint RunOnce(Method method, uint64_t seed,
                    bool adaptive_admission = false) {
  SystemConfig config;
  config.method = method;
  config.num_sites = 3;
  config.seed = seed;
  config.network.loss_probability = 0.15;
  config.network.jitter_us = 2'000;
  if (adaptive_admission) {
    config.admission.enabled = true;
    config.admission.initial_scale = 0.5;
  }
  ReplicatedSystem system(config);

  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_objects = 8;
  spec.update_fraction = 0.5;
  spec.clients_per_site = 2;
  spec.think_time_us = 4'000;
  spec.read_gap_us = 2'000;
  spec.query_epsilon = 2;
  spec.duration_us = 250'000;
  if (method == Method::kRituMulti || method == Method::kRituSingle) {
    spec.update_kind = workload::WorkloadSpec::UpdateKind::kTimestampedWrite;
  }
  if (method == Method::kCompe) {
    spec.compe_abort_probability = 0.2;
    spec.compe_decision_delay_us = 10'000;
  }
  workload::WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  system.RunUntilQuiescent();

  Fingerprint fp;
  for (SiteId s = 0; s < 3; ++s) fp.digests.push_back(system.SiteDigest(s));
  fp.updates = result.updates_committed;
  fp.queries = result.queries_completed;
  fp.msets_applied = test::EventCount(system, "esr.msets_applied");
  fp.reads_recorded = static_cast<int64_t>(system.history().reads().size());
  fp.blocked_attempts = result.query_blocked_attempts;
  fp.restarts = result.query_restarts;
  fp.inconsistency_sum = result.query_inconsistency.sum();
  fp.reads_digest = DigestReads(system.history().reads());
  return fp;
}

class Determinism : public ::testing::TestWithParam<Method> {};

TEST_P(Determinism, IdenticalRunsProduceIdenticalFingerprints) {
  const Method method = GetParam();
  const Fingerprint a = RunOnce(method, 777);
  const Fingerprint b = RunOnce(method, 777);
  EXPECT_EQ(a, b);
  // And a different seed genuinely changes the execution.
  const Fingerprint c = RunOnce(method, 778);
  EXPECT_FALSE(a == c) << "seed must matter";
}

// Final-state digest of every site after RunOnce(method, 777).
// The runs converge, so all three sites share one value. A change to any
// store, codec or protocol that moves a digest fails here, not just one
// that makes two runs disagree.
uint64_t PinnedDigest(Method method) {
  switch (method) {
    case Method::kOrdup: return 0xe00c52a89a7a8e75ull;
    case Method::kOrdupTs: return 0x3867254f9d9529daull;
    case Method::kCommu: return 0xe66131ba06ec337cull;
    case Method::kRituMulti: return 0x818699f88aa79ce8ull;
    case Method::kRituSingle: return 0xaf88741a8eec8ae1ull;
    case Method::kCompe: return 0xfcdfad56e5338a14ull;
    case Method::kSync2pc: return 0x836d619280f83c1full;
    case Method::kSyncQuorum: return 0x14650fb0739d0383ull;
    case Method::kQuasiCopy: return 0x2eebd27a6d45e831ull;
    default: return 0;
  }
}

TEST_P(Determinism, DigestsMatchPinnedValues) {
  const Method method = GetParam();
  const uint64_t pinned = PinnedDigest(method);
  ASSERT_NE(pinned, 0u) << "no pinned digest for this parameter";
  const Fingerprint fp = RunOnce(method, 777);
  EXPECT_EQ(fp.digests, std::vector<uint64_t>(3, pinned));
}

// Every recorded read of RunOnce(method, 777): query, site,
// object, value, time, charge, pin and the site's apply index, hashed in
// record order. A change to how a method builds its read records must
// leave this unchanged.
uint64_t PinnedReadsDigest(Method method) {
  switch (method) {
    case Method::kOrdup: return 0x510656f8d226ab96ull;
    case Method::kOrdupTs: return 0x8233440928bd67c4ull;
    case Method::kCommu: return 0x0602250fe4621039ull;
    case Method::kRituMulti: return 0xa8099c6747b47d52ull;
    case Method::kRituSingle: return 0xdecb5e9eb03a5159ull;
    case Method::kCompe: return 0x592ec62fdd2191e2ull;
    case Method::kSync2pc: return 0x783a48c019a4715dull;
    case Method::kSyncQuorum: return 0x75552fd25519636eull;
    case Method::kQuasiCopy: return 0x251f76782fc51f4dull;
    default: return 0;
  }
}

TEST_P(Determinism, ReadRecordsMatchPinnedValues) {
  const Method method = GetParam();
  const uint64_t pinned = PinnedReadsDigest(method);
  ASSERT_NE(pinned, 0u) << "no pinned read digest for this parameter";
  const Fingerprint fp = RunOnce(method, 777);
  EXPECT_GT(fp.reads_recorded, 0);
  EXPECT_EQ(fp.reads_digest, pinned)
      << "actual: 0x" << std::hex << fp.reads_digest << "ull";
}

TEST(AdmissionDeterminism, AdaptiveControllerPreservesDeterminism) {
  // The admission loop samples only simulated-time state, so enabling it
  // must not cost the (configuration, seed) -> execution guarantee.
  for (Method method :
       {Method::kOrdup, Method::kOrdupTs, Method::kCommu,
        Method::kRituSingle}) {
    const Fingerprint a = RunOnce(method, 991, /*adaptive=*/true);
    const Fingerprint b = RunOnce(method, 991, /*adaptive=*/true);
    EXPECT_EQ(a, b) << "method " << MethodToString(method);
    // And the controller genuinely changes the execution relative to
    // static admission (it grants different effective budgets).
    const Fingerprint c = RunOnce(method, 991, /*adaptive=*/false);
    EXPECT_FALSE(a == c)
        << "adaptive admission had no effect for " << MethodToString(method);
  }
}

TEST(BatchingDeterminism, BatchedMatchesUnbatchedFinalState) {
  // Group sequencing changes message timing, not semantics: under a
  // commutative increment-only schedule the drained final state must be
  // identical with batching on or off, and the batched execution itself
  // must remain a pure function of (config, seed). ORDUP-TS consumes no
  // sequencer (decentralized Lamport ordering) — it rides along to pin
  // down that the knobs are inert there.
  using store::Operation;
  for (Method method :
       {Method::kOrdup, Method::kOrdupTs, Method::kCompeOrdered}) {
    SCOPED_TRACE(std::string(MethodToString(method)));
    auto run = [&](int32_t batch_max, SimDuration linger_us) {
      SystemConfig config = test::Config(method, 3, 881);
      config.seq_batch_max = batch_max;
      config.seq_batch_linger_us = linger_us;
      ReplicatedSystem system(config);
      const bool compe = method == Method::kCompeOrdered;
      for (int i = 0; i < 12; ++i) {
        // Two concurrent submissions per round give batches something to
        // coalesce.
        const EtId a =
            test::MustSubmit(system, 1, {Operation::Increment(0, 1)});
        const EtId b =
            test::MustSubmit(system, 2, {Operation::Increment(1, i)});
        if (compe) {
          EXPECT_TRUE(system.Decide(a, true).ok());
          EXPECT_TRUE(system.Decide(b, true).ok());
        }
        system.RunFor(8'000);
      }
      system.RunUntilQuiescent();
      EXPECT_TRUE(system.Converged());
      std::vector<uint64_t> digests;
      for (SiteId s = 0; s < 3; ++s) digests.push_back(system.SiteDigest(s));
      return digests;
    };
    const std::vector<uint64_t> unbatched = run(1, 0);
    const std::vector<uint64_t> batched = run(8, 1'000);
    const std::vector<uint64_t> batched_again = run(8, 1'000);
    EXPECT_EQ(batched, batched_again) << "batched run must be deterministic";
    EXPECT_EQ(unbatched, batched)
        << "batching must not change the converged final state";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, Determinism,
    ::testing::Values(Method::kOrdup, Method::kOrdupTs, Method::kCommu,
                      Method::kRituMulti, Method::kRituSingle, Method::kCompe,
                      Method::kSync2pc, Method::kSyncQuorum,
                      Method::kQuasiCopy),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name(MethodToString(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace esr::core
