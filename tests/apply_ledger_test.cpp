#include "esr/apply_ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "common/rng.h"

namespace esr::core {
namespace {

using store::Operation;

QueryState Query(EtId id, int64_t epsilon) {
  QueryState q;
  q.id = id;
  q.epsilon = epsilon;
  return q;
}

TEST(ApplyLedgerTest, NoLivePinIndexesNothing) {
  ApplyLedger ledger;
  for (int i = 0; i < 100'000; ++i) {
    ledger.RecordApply({Operation::Increment(i % 64, 1),
                        Operation::Increment((i + 1) % 64, 1)});
  }
  EXPECT_EQ(ledger.applied(), 100'000);
  EXPECT_EQ(ledger.entries(), 0u);
  // A query pinned now is charged nothing for what came before.
  QueryState q = Query(1, kUnboundedEpsilon);
  EXPECT_EQ(*ledger.Charge(q, 0), 0);
  EXPECT_EQ(q.order_pin, 100'000);
  ledger.RecordApply({Operation::Increment(0, 1)});
  EXPECT_EQ(ledger.entries(), 1u);
  EXPECT_EQ(*ledger.Charge(q, 0), 1);
  EXPECT_FALSE(ledger.Release(q));
  EXPECT_EQ(ledger.entries(), 0u);
}

TEST(ApplyLedgerTest, OneEntryPerEtAndWrittenObject) {
  ApplyLedger ledger;
  QueryState q = Query(1, kUnboundedEpsilon);
  ASSERT_TRUE(ledger.Charge(q, 9).ok());
  ledger.RecordApply({Operation::Increment(0, 1), Operation::Increment(0, 2),
                      Operation::Read(1), Operation::Increment(2, 1)});
  EXPECT_EQ(ledger.entries(), 2u);
  EXPECT_EQ(*ledger.Charge(q, 0), 1);
  EXPECT_EQ(*ledger.Charge(q, 1), 0) << "a read is not a write";
  EXPECT_EQ(*ledger.Charge(q, 0), 0) << "charged at most once per ET";
}

// Over a random apply/begin/read/end schedule, a query pinned first and
// live throughout keeps exactly the entries above its pin, and every charge
// equals that of an index that keeps every write forever.
TEST(ApplyLedgerTest, LongLivedPinChargesMatchUntrimmedIndex) {
  constexpr int64_t kObjects = 6;
  ApplyLedger ledger;
  std::map<ObjectId, std::vector<int64_t>> untrimmed;
  auto reference_charge = [&](const QueryState& q, ObjectId o) {
    auto mit = q.charged_marks.find(o);
    const int64_t mark =
        mit == q.charged_marks.end() ? q.order_pin : mit->second;
    const std::vector<int64_t>& idx = untrimmed[o];
    return static_cast<int64_t>(
        idx.end() - std::upper_bound(idx.begin(), idx.end(), mark));
  };
  QueryState anchor = Query(1, kUnboundedEpsilon);
  ASSERT_TRUE(ledger.Charge(anchor, 0).ok());
  std::map<EtId, QueryState> others;
  EtId next_id = 2;
  Rng rng(17);
  int64_t charged = 0;
  for (int step = 0; step < 20'000; ++step) {
    const int64_t action = rng.Uniform(0, 9);
    if (action < 4) {
      std::vector<Operation> ops;
      for (int64_t n = rng.Uniform(1, 3); n > 0; --n) {
        ops.push_back(Operation::Increment(rng.Uniform(0, kObjects - 1), 1));
      }
      ledger.RecordApply(ops);
      for (const Operation& op : ops) {
        std::vector<int64_t>& idx = untrimmed[op.object];
        if (idx.empty() || idx.back() != ledger.applied()) {
          idx.push_back(ledger.applied());
        }
      }
    } else if (action == 4 && others.size() < 4) {
      others.emplace(next_id, Query(next_id, kUnboundedEpsilon));
      ++next_id;
    } else if (action == 5 && !others.empty()) {
      auto it = others.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(others.size()) - 1));
      EXPECT_FALSE(ledger.Release(it->second));
      others.erase(it);
    } else {
      const ObjectId o = rng.Uniform(0, kObjects - 1);
      const int64_t want = reference_charge(anchor, o);
      ASSERT_EQ(*ledger.Charge(anchor, o), want) << "step " << step;
      charged += want;
      for (auto& [id, q] : others) {
        // The first read pins the query; the reference charges from there.
        if (!q.pinned) {
          ASSERT_EQ(*ledger.Charge(q, o), 0) << "step " << step;
        }
        const int64_t other_want = reference_charge(q, o);
        ASSERT_EQ(*ledger.Charge(q, o), other_want) << "step " << step;
        charged += other_want;
      }
    }
    size_t above = 0;
    for (const auto& [o, idx] : untrimmed) {
      above += static_cast<size_t>(
          idx.end() - std::upper_bound(idx.begin(), idx.end(),
                                       static_cast<int64_t>(anchor.order_pin)));
    }
    ASSERT_EQ(ledger.entries(), above) << "step " << step;
  }
  EXPECT_GT(charged, 0) << "the schedule must exercise nonzero charges";
  for (auto& [id, q] : others) ledger.Release(q);
  ledger.Release(anchor);
  EXPECT_EQ(ledger.entries(), 0u);
}

TEST(ApplyLedgerTest, ReleasingAnUnregisteredQueryTrimsNothing) {
  ApplyLedger ledger;
  QueryState pinned = Query(1, kUnboundedEpsilon);
  ASSERT_TRUE(ledger.Charge(pinned, 0).ok());
  QueryState strict = Query(2, 0);
  ASSERT_TRUE(ledger.Charge(strict, 0).ok());
  ASSERT_TRUE(ledger.paused());
  ledger.RecordApply({Operation::Increment(0, 1)});
  // A sequenced ORDUP query: pinned at the count, never registered.
  QueryState sequenced = Query(3, 0);
  sequenced.pinned = true;
  sequenced.order_pin = ledger.applied();
  EXPECT_FALSE(ledger.Release(sequenced));
  EXPECT_EQ(ledger.entries(), 1u);
  EXPECT_TRUE(ledger.paused()) << "an unregistered release lifts no pause";
  EXPECT_EQ(*ledger.Charge(pinned, 0), 1);
}

TEST(ApplyLedgerTest, NestedStrictPausesResumeOnlyAtDepthZero) {
  ApplyLedger ledger;
  QueryState a = Query(1, 0);
  QueryState b = Query(2, kUnboundedEpsilon);
  b.strict = true;
  QueryState loose = Query(3, 5);
  EXPECT_FALSE(ledger.paused());
  ASSERT_TRUE(ledger.Charge(a, 0).ok());
  ASSERT_TRUE(ledger.Charge(b, 1).ok());
  ASSERT_TRUE(ledger.Charge(loose, 1).ok());
  EXPECT_TRUE(a.holds_pause);
  EXPECT_TRUE(b.holds_pause);
  EXPECT_FALSE(loose.holds_pause) << "budget left, not strict: no pause";
  // A second read does not stack another pause.
  ASSERT_TRUE(ledger.Charge(a, 1).ok());
  EXPECT_FALSE(ledger.Release(loose));
  EXPECT_FALSE(ledger.Release(a));
  EXPECT_FALSE(a.holds_pause);
  EXPECT_TRUE(ledger.paused());
  EXPECT_TRUE(ledger.Release(b)) << "the last pause lifts";
  EXPECT_FALSE(ledger.paused());
  EXPECT_FALSE(ledger.Release(b)) << "a second release is a no-op";
}

TEST(ApplyLedgerTest, RefusedReadLeavesAccountingUnchanged) {
  ApplyLedger ledger;
  QueryState q = Query(1, 2);
  ASSERT_TRUE(ledger.Charge(q, 0).ok());
  ASSERT_TRUE(ledger.Charge(q, 1).ok());
  ledger.RecordApply({Operation::Increment(0, 1), Operation::Increment(1, 1)});
  EXPECT_EQ(*ledger.Charge(q, 0), 1);
  ledger.RecordApply({Operation::Increment(1, 1)});
  ledger.RecordApply({Operation::Increment(1, 1)});
  const auto marks = q.charged_marks;
  Result<int64_t> refused = ledger.Charge(q, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInconsistencyLimit());
  EXPECT_EQ(q.inconsistency, 1);
  EXPECT_EQ(q.charged_marks, marks);
  // The one unit left still buys a read that overlaps one ET.
  ledger.RecordApply({Operation::Increment(0, 1)});
  EXPECT_EQ(*ledger.Charge(q, 0), 1);
  EXPECT_EQ(q.inconsistency, 2);
}

}  // namespace
}  // namespace esr::core
