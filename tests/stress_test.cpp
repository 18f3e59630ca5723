// Randomized stress tests of the substrates, checking structural
// invariants rather than example-based expectations:
//   * lock manager: no two incompatible holders ever coexist; every
//     transaction eventually terminates (granted or aborted);
//   * stable queues: exactly-once, order-preserving delivery under
//     simultaneous loss, jitter, crashes and partitions;
//   * full system: a random soup of updates, queries, crashes and
//     partitions still converges to the serial oracle.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/query_checker.h"
#include "analysis/sr_checker.h"
#include "cc/lock_manager.h"
#include "common/rng.h"
#include "msg/stable_queue.h"
#include "test_util.h"

namespace esr {
namespace {

// ---------------------------------------------------------------------------
// Lock manager stress.
// ---------------------------------------------------------------------------

struct LockStressCase {
  cc::CompatibilityTable table;
  uint64_t seed;
};

class LockManagerStress : public ::testing::TestWithParam<LockStressCase> {};

TEST_P(LockManagerStress, HoldersAlwaysPairwiseCompatible) {
  const auto& param = GetParam();
  cc::LockManager lm(param.table);
  Rng rng(param.seed);

  struct Txn {
    std::vector<std::pair<cc::LockMode, store::OpKind>> held;
    std::vector<ObjectId> held_objects;
    bool live = false;
  };
  std::map<EtId, Txn> txns;
  // Shadow holder table to verify the manager's grants.
  std::map<ObjectId, std::vector<std::tuple<EtId, cc::LockMode, store::OpKind>>>
      holders;

  auto verify = [&]() {
    for (const auto& [object, hs] : holders) {
      for (size_t i = 0; i < hs.size(); ++i) {
        for (size_t j = 0; j < hs.size(); ++j) {
          if (i == j) continue;
          const auto& [t1, m1, k1] = hs[i];
          const auto& [t2, m2, k2] = hs[j];
          if (t1 == t2) continue;
          ASSERT_TRUE(cc::LockCompatible(param.table, m1, k1, m2, k2))
              << "incompatible co-holders on object " << object;
        }
      }
    }
  };

  const cc::LockMode modes[] = {cc::LockMode::kReadUpdate,
                                cc::LockMode::kWriteUpdate,
                                cc::LockMode::kReadQuery};
  const store::OpKind kinds[] = {store::OpKind::kRead,
                                 store::OpKind::kIncrement,
                                 store::OpKind::kMultiply,
                                 store::OpKind::kWrite};
  EtId next_txn = 1;
  for (int step = 0; step < 4'000; ++step) {
    const int64_t action = rng.Uniform(0, 2);
    if (action <= 1) {
      // Try-acquire for a random (possibly new) transaction.
      EtId txn;
      if (!txns.empty() && rng.Bernoulli(0.5)) {
        auto it = txns.begin();
        std::advance(it, rng.Uniform(0, static_cast<int64_t>(txns.size()) - 1));
        txn = it->first;
      } else {
        txn = next_txn++;
      }
      const ObjectId object = rng.Uniform(0, 5);
      const cc::LockMode mode = modes[rng.Uniform(0, 2)];
      const store::OpKind kind =
          mode == cc::LockMode::kWriteUpdate ? kinds[rng.Uniform(1, 3)]
                                             : store::OpKind::kRead;
      Status s = lm.Acquire(txn, object, mode, kind, nullptr);
      if (s.ok()) {
        txns[txn].live = true;
        holders[object].emplace_back(txn, mode, kind);
        verify();
      }
    } else if (!txns.empty()) {
      // Release a random transaction entirely.
      auto it = txns.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(txns.size()) - 1));
      const EtId txn = it->first;
      lm.ReleaseAll(txn);
      txns.erase(it);
      for (auto& [object, hs] : holders) {
        hs.erase(std::remove_if(hs.begin(), hs.end(),
                                [txn](const auto& h) {
                                  return std::get<0>(h) == txn;
                                }),
                 hs.end());
      }
    }
  }
  // Drain: everything releasable, no waiters (try-lock mode), counts sane.
  for (const auto& [txn, _] : txns) lm.ReleaseAll(txn);
  EXPECT_EQ(lm.WaiterCount(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Tables, LockManagerStress,
    ::testing::Values(
        LockStressCase{cc::CompatibilityTable::kStrict2PL, 1},
        LockStressCase{cc::CompatibilityTable::kOrdupEt, 2},
        LockStressCase{cc::CompatibilityTable::kCommuEt, 3},
        LockStressCase{cc::CompatibilityTable::kStrict2PL, 4},
        LockStressCase{cc::CompatibilityTable::kOrdupEt, 5},
        LockStressCase{cc::CompatibilityTable::kCommuEt, 6}),
    [](const ::testing::TestParamInfo<LockStressCase>& info) {
      const char* name =
          info.param.table == cc::CompatibilityTable::kStrict2PL ? "strict"
          : info.param.table == cc::CompatibilityTable::kOrdupEt ? "ordup"
                                                                 : "commu";
      return std::string(name) + "_seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Stable queue stress.
// ---------------------------------------------------------------------------

TEST(StableQueueStress, ExactlyOnceInOrderUnderChaos) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    sim::Simulator sim;
    sim::NetworkConfig net_config;
    net_config.loss_probability = 0.35;
    net_config.jitter_us = 6'000;
    obs::MetricRegistry metrics;
    sim::Network net(&sim, 3, net_config, seed, metrics);
    std::vector<std::unique_ptr<msg::Mailbox>> mailboxes;
    std::vector<std::unique_ptr<msg::StableQueueManager>> queues;
    std::vector<std::vector<int>> delivered(3);
    for (SiteId s = 0; s < 3; ++s) {
      mailboxes.push_back(std::make_unique<msg::Mailbox>(&net, s));
      queues.push_back(std::make_unique<msg::StableQueueManager>(
          &sim, mailboxes.back().get()));
      queues.back()->SetDeliverHandler(
          [&delivered, s](SiteId, const std::any& payload) {
            delivered[s].push_back(std::any_cast<int>(payload));
          });
    }
    // Crashes and a partition in the middle of the stream.
    sim::FailureInjector inject(&sim, &net, seed * 7);
    inject.ScheduleCrash(sim::CrashSpec{1, 30'000, 120'000});
    inject.SchedulePartition(
        sim::PartitionSpec{{{0}, {1, 2}}, 200'000, 320'000});

    Rng rng(seed);
    for (int i = 0; i < 100; ++i) {
      sim.ScheduleAt(i * 4'000, [&queues, i]() {
        queues[0]->Send(1, i);
        queues[0]->Send(2, i);
      });
    }
    sim.Run();
    for (SiteId s = 1; s <= 2; ++s) {
      ASSERT_EQ(delivered[s].size(), 100u) << "site " << s;
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(delivered[s][i], i) << "fifo broken at site " << s;
      }
    }
    EXPECT_EQ(queues[0]->UnackedCount(), 0);
  }
}

// ---------------------------------------------------------------------------
// Whole-system chaos soup.
// ---------------------------------------------------------------------------

struct SoupCase {
  core::Method method;
  uint64_t seed;
};

class SystemChaos : public ::testing::TestWithParam<SoupCase> {};

TEST_P(SystemChaos, ConvergesToOracleThroughCrashesAndPartitions) {
  const auto& param = GetParam();
  core::SystemConfig config;
  config.method = param.method;
  config.num_sites = 4;
  config.seed = param.seed;
  config.network.loss_probability = 0.1;
  config.network.jitter_us = 3'000;
  core::ReplicatedSystem system(config);

  system.failures().ScheduleCrash(sim::CrashSpec{2, 40'000, 150'000});
  system.failures().SchedulePartition(
      sim::PartitionSpec{{{0, 1}, {2, 3}}, 200'000, 350'000});

  Rng rng(param.seed * 13 + 1);
  const bool ritu = param.method == core::Method::kRituMulti ||
                    param.method == core::Method::kRituSingle;
  std::vector<EtId> tentative;
  const bool compe = param.method == core::Method::kCompe;
  int query_count = 0;
  for (int i = 0; i < 50; ++i) {
    const SiteId origin = static_cast<SiteId>(rng.Uniform(0, 3));
    std::vector<store::Operation> ops;
    const ObjectId object = rng.Uniform(0, 7);
    if (ritu) {
      ops.push_back(store::Operation::TimestampedWrite(
          object, Value(rng.Uniform(0, 100)), kZeroTimestamp));
    } else {
      ops.push_back(store::Operation::Increment(object, rng.Uniform(1, 5)));
    }
    auto r = system.SubmitUpdate(origin, std::move(ops));
    if (r.ok() && compe) tentative.push_back(*r);
    // Interleave bounded queries; their completion is not required while
    // partitioned, but none may crash the system.
    if (rng.Bernoulli(0.3)) {
      const EtId q = system.BeginQuery(static_cast<SiteId>(rng.Uniform(0, 3)),
                                       rng.Uniform(0, 3));
      system.Read(q, rng.Uniform(0, 7), [&system, q, &query_count](
                                            Result<Value> v) {
        if (v.ok()) ++query_count;
        (void)system.EndQuery(q);
      });
    }
    system.RunFor(rng.Uniform(2'000, 12'000));
  }
  for (size_t i = 0; i < tentative.size(); ++i) {
    (void)system.Decide(tentative[i], i % 5 != 0);
  }
  system.RunUntilQuiescent();

  ASSERT_TRUE(system.Converged());
  auto sr = analysis::CheckUpdateSerializability(system.history(), 4);
  ASSERT_TRUE(sr.serializable) << sr.violation;
  auto oracle =
      analysis::ComputeSerialState(system.history(), sr.serial_order);
  for (const auto& [object, value] : oracle) {
    EXPECT_EQ(system.SiteValue(0, object), value) << "object " << object;
  }
  EXPECT_GT(query_count, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Soup, SystemChaos,
    ::testing::Values(SoupCase{core::Method::kOrdup, 41},
                      SoupCase{core::Method::kOrdupTs, 43},
                      SoupCase{core::Method::kCommu, 47},
                      SoupCase{core::Method::kRituMulti, 53},
                      SoupCase{core::Method::kRituSingle, 59},
                      SoupCase{core::Method::kCompe, 61},
                      SoupCase{core::Method::kQuasiCopy, 67}),
    [](const ::testing::TestParamInfo<SoupCase>& info) {
      std::string name(core::MethodToString(info.param.method));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace esr
