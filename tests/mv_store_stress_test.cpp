#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "store/mv_store.h"

namespace esr::store {
namespace {

// Immediate predecessor timestamp (mirrors core::PredTimestamp without
// linking esr_core).
LamportTimestamp PredStress(LamportTimestamp ts) {
  if (ts.site > 0) return LamportTimestamp{ts.counter, ts.site - 1};
  return LamportTimestamp{ts.counter - 1, std::numeric_limits<SiteId>::max()};
}

// Concurrency stress for the partitioned store, meant to run under TSan
// (scripts/run_tier2.sh builds it into build-tsan): writer threads append
// monotone version chains, reader threads take latch-shared point reads, a
// GC thread prunes at a lagging watermark, and a scan thread digests and
// snapshots partition-at-a-time — all simultaneously. Assertions check
// what stays invariant under fuzziness; TSan checks the locking.
TEST(MvStoreStressTest, ConcurrentAppendReadGcSnapshot) {
  MvStore store(MvStoreOptions{.partitions = 8});
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int64_t kObjects = 64;
  constexpr int64_t kWritesPerWriter = 4000;

  std::atomic<int64_t> watermark_counter{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  // Writers: thread w appends versions with site id w, so timestamps are
  // globally unique and each object's chain grows strictly newer.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, &watermark_counter, w] {
      for (int64_t c = 1; c <= kWritesPerWriter; ++c) {
        const ObjectId object = (c * (w + 1)) % kObjects;
        store.AppendVersion(object,
                            LamportTimestamp{c, static_cast<SiteId>(w)},
                            Value(c));
        // The stability watermark trails the slowest writer.
        int64_t floor = watermark_counter.load(std::memory_order_relaxed);
        while (c - 32 > floor &&
               !watermark_counter.compare_exchange_weak(
                   floor, c - 32, std::memory_order_relaxed)) {
        }
      }
    });
  }
  // Readers: latest and watermark reads; a returned version must carry a
  // timestamp consistent with the request.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&store, &watermark_counter, &done, r] {
      int64_t reads = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ObjectId object = reads++ % kObjects;
        const LamportTimestamp at{
            watermark_counter.load(std::memory_order_relaxed), 0};
        auto pinned = store.ReadAtOrBefore(object, at);
        if (pinned.has_value()) {
          EXPECT_LE(pinned->timestamp, at);
        }
        auto latest = store.ReadLatest(object);
        if (pinned.has_value()) {
          ASSERT_TRUE(latest.has_value());
          EXPECT_GE(latest->timestamp, pinned->timestamp);
        }
        (void)r;
      }
    });
  }
  // GC: prunes strictly below the shared watermark; pinned reads at the
  // watermark stay servable (checked by the readers above).
  threads.emplace_back([&store, &watermark_counter, &done] {
    while (!done.load(std::memory_order_acquire)) {
      store.GcBelow(LamportTimestamp{
          watermark_counter.load(std::memory_order_relaxed), 0});
      std::this_thread::yield();
    }
  });
  // Scans: fuzzy digests and snapshots concurrent with everything else.
  threads.emplace_back([&store, &done] {
    while (!done.load(std::memory_order_acquire)) {
      (void)store.StateDigest();
      (void)store.LatestDigest();
      auto snap = store.SnapshotVersions();
      for (size_t i = 1; i < snap.size(); ++i) {
        // Sorted by (object, timestamp) even when taken mid-write.
        EXPECT_LE(std::get<0>(snap[i - 1]), std::get<0>(snap[i]));
      }
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Quiescent invariants: a final GC at the last watermark bounds every
  // chain to [watermark, newest] and keeps the watermark read servable.
  const LamportTimestamp floor{watermark_counter.load(), 0};
  store.GcBelow(floor);
  int64_t chained = 0;
  for (ObjectId id : store.ObjectIds()) chained += store.VersionCount(id);
  EXPECT_EQ(static_cast<int64_t>(store.SnapshotVersions().size()), chained);
  for (ObjectId id : store.ObjectIds()) {
    auto latest = store.ReadLatest(id);
    ASSERT_TRUE(latest.has_value());
    auto pinned = store.ReadAtOrBefore(id, floor);
    if (pinned.has_value()) {
      // Nothing older than the kept at-or-below version survived.
      EXPECT_FALSE(
          store.ReadAtOrBefore(id, PredStress(pinned->timestamp)).has_value());
    }
  }
}

// Two stores fed the same operations from different thread interleavings
// converge to the same digest: appends commute across objects and
// same-object appends are keyed by timestamp.
TEST(MvStoreStressTest, ConcurrentAppendsAreOrderInsensitive) {
  auto run = [](int nthreads) {
    MvStore store(MvStoreOptions{.partitions = 4});
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&store, t, nthreads] {
        for (int64_t c = t; c < 2000; c += nthreads) {
          store.AppendVersion(c % 16, LamportTimestamp{c, 0}, Value(c));
        }
      });
    }
    for (auto& th : threads) th.join();
    return store.StateDigest();
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace esr::store
