// Concurrent multi-version store benchmark: Zipf-skewed point reads and
// read/write mixes over a million-object MvStore, swept 1 -> 8 threads.
//
// What it shows:
//   * the store's heap bytes per materialized single-version object,
//   * read scaling of the striped-lock partitioned store (8 partitions)
//     against the single-partition layout (one lock),
//   * tail read latency (p99) under each concurrency level,
//   * stability-driven GC keeping version chains bounded under a sustained
//     append load, versus unbounded growth with GC off.
//
// Results print as tables (and land in bench_mvstore.bench.json /
// BENCH_RESULTS.json via scripts/run_benches.sh). Absolute numbers depend
// on the host; on a single-core container the sweep still runs but shows
// no parallel speedup — the scaling claim needs >= 8 hardware threads.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <malloc.h>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/types.h"
#include "store/mv_store.h"

namespace esr::bench {
namespace {

using store::MvStore;
using store::MvStoreOptions;

constexpr int64_t kObjects = 1'000'000;
constexpr double kTheta = 0.99;
constexpr int64_t kReadsPerThread = 150'000;
constexpr int64_t kMixedOpsPerThread = 100'000;
constexpr int64_t kGcLag = 64;  // watermark trails the newest write by this

/// O(1)-per-sample Zipf generator (Gray et al.), zeta sum memoized once —
/// Rng::Zipf recomputes it per call, which is fine for the sim's small
/// object universes but not for a million-object bench hot loop.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (int64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) /
           (1.0 - (1.0 / std::pow(2.0, theta)) / zetan);
  }

  int64_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    return static_cast<int64_t>(n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_)) %
           n_;
  }

 private:
  int64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

/// Pre-drawn per-thread key streams so the timed loops touch only the store.
std::vector<std::vector<ObjectId>> DrawKeys(const ZipfSampler& zipf,
                                            int threads, int64_t per_thread,
                                            uint64_t seed) {
  std::vector<std::vector<ObjectId>> keys(threads);
  Rng root(seed);
  for (int t = 0; t < threads; ++t) {
    Rng rng = root.Split();
    keys[t].reserve(per_thread);
    for (int64_t i = 0; i < per_thread; ++i) {
      keys[t].push_back(zipf.Sample(rng));
    }
  }
  return keys;
}

void Preload(MvStore& store) {
  for (ObjectId id = 0; id < kObjects; ++id) {
    store.AppendVersion(id, LamportTimestamp{1, 0}, Value(id));
  }
}

/// Heap bytes in use (malloc arena plus mmapped chunks).
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// Heap growth per object over one Apply increment to each of kObjects
/// ids in a fresh 8-partition store: the single-version role's footprint,
/// with hash-node, bucket and allocator overhead included.
double BytesPerObject() {
  const size_t before = HeapInUse();
  MvStore store(MvStoreOptions{.partitions = 8});
  for (ObjectId id = 0; id < kObjects; ++id) {
    (void)store.Apply(store::Operation::Increment(id, 1));
  }
  const double grown = static_cast<double>(HeapInUse() - before);
  return grown / static_cast<double>(store.ObjectCount());
}

struct ReadRunResult {
  double reads_per_sec = 0;
  double p99_us = 0;
};

/// Timed read-only run: every thread drains its key stream with ReadLatest;
/// every 32nd op is individually timed for the latency percentile.
ReadRunResult RunReads(const MvStore& store,
                       const std::vector<std::vector<ObjectId>>& keys,
                       int threads) {
  std::vector<std::vector<int64_t>> lat_ns(threads);
  std::atomic<int64_t> sink{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&store, &keys, &lat_ns, &sink, t] {
      int64_t local = 0;
      auto& lats = lat_ns[t];
      lats.reserve(keys[t].size() / 32 + 1);
      for (size_t i = 0; i < keys[t].size(); ++i) {
        if (i % 32 == 0) {
          const auto t0 = std::chrono::steady_clock::now();
          auto v = store.ReadLatest(keys[t][i]);
          const auto t1 = std::chrono::steady_clock::now();
          if (v.has_value()) local += v->timestamp.counter;
          lats.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
        } else {
          auto v = store.ReadLatest(keys[t][i]);
          if (v.has_value()) local += v->timestamp.counter;
        }
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::vector<int64_t> all;
  for (auto& v : lat_ns) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ReadRunResult out;
  out.reads_per_sec =
      static_cast<double>(threads) * kReadsPerThread / std::max(secs, 1e-9);
  out.p99_us = all.empty()
                   ? 0
                   : all[static_cast<size_t>(0.99 * (all.size() - 1))] / 1e3;
  return out;
}

struct MixedRunResult {
  double ops_per_sec = 0;
  int64_t max_chain = 0;
  int64_t pruned = 0;
};

/// Timed 90/10 read/append mix. Thread t appends with site id t (globally
/// unique timestamps). With GC on, the appending thread prunes below the
/// lagging shared watermark every 1024 writes — the shape of the VTNC hook.
MixedRunResult RunMixed(MvStore& store,
                        const std::vector<std::vector<ObjectId>>& keys,
                        int threads, bool gc) {
  std::atomic<int64_t> watermark{0};
  std::atomic<int64_t> sink{0};
  const int64_t pruned_before = store.gc_pruned_total();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&store, &keys, &watermark, &sink, t, gc] {
      int64_t counter = 1;
      int64_t writes = 0;
      int64_t local = 0;
      for (size_t i = 0; i < keys[t].size(); ++i) {
        if (i % 10 == 9) {
          store.AppendVersion(keys[t][i],
                              LamportTimestamp{++counter,
                                               static_cast<SiteId>(t + 1)},
                              Value(static_cast<int64_t>(i)));
          ++writes;
          int64_t floor = watermark.load(std::memory_order_relaxed);
          while (counter - kGcLag > floor &&
                 !watermark.compare_exchange_weak(floor, counter - kGcLag,
                                                  std::memory_order_relaxed)) {
          }
          if (gc && writes % 1024 == 0) {
            store.GcBelow(LamportTimestamp{
                watermark.load(std::memory_order_relaxed), 0});
          }
        } else {
          auto v = store.ReadLatest(keys[t][i]);
          if (v.has_value()) local += v->timestamp.counter;
        }
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (gc) {
    store.GcBelow(LamportTimestamp{watermark.load(), 0});
  }
  MixedRunResult out;
  out.ops_per_sec =
      static_cast<double>(threads) * kMixedOpsPerThread / std::max(secs, 1e-9);
  out.max_chain = store.MaxChainLength();
  out.pruned = store.gc_pruned_total() - pruned_before;
  return out;
}

}  // namespace
}  // namespace esr::bench

int main() {
  using namespace esr::bench;

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("bench_mvstore: %lld objects, Zipf(%.2f), %d hardware threads\n",
              static_cast<long long>(kObjects), kTheta, hw);

  Banner("Footprint: 1M Apply increments into a fresh 8-partition store");
  {
    Table table({"objects", "heap bytes/object"});
    table.AddRow({FmtInt(kObjects), Fmt(BytesPerObject(), 1)});
    table.Print();
  }

  const ZipfSampler zipf(kObjects, kTheta);
  const std::vector<int> sweep = {1, 2, 4, 8};

  Banner("Read scaling: Zipf(0.99) point reads, 1M objects");
  {
    MvStore striped(MvStoreOptions{.partitions = 8});
    MvStore single(MvStoreOptions{.partitions = 1});
    Preload(striped);
    Preload(single);
    Table table({"threads", "reads/s (8 parts)", "reads/s (1 part)",
                 "speedup vs 1 thr", "p99 us (8 parts)"});
    double base = 0;
    for (int threads : sweep) {
      const auto keys = DrawKeys(zipf, threads, kReadsPerThread, 42);
      const ReadRunResult striped_run = RunReads(striped, keys, threads);
      const ReadRunResult single_run = RunReads(single, keys, threads);
      if (threads == 1) base = striped_run.reads_per_sec;
      table.AddRow({FmtInt(threads), Fmt(striped_run.reads_per_sec, 0),
                    Fmt(single_run.reads_per_sec, 0),
                    Fmt(striped_run.reads_per_sec / std::max(base, 1.0), 2),
                    Fmt(striped_run.p99_us, 2)});
    }
    table.Print();
  }

  Banner("Mixed 90/10 read/append with stability-driven GC");
  {
    Table table({"threads", "gc", "ops/s", "max chain", "versions pruned"});
    for (int threads : sweep) {
      for (bool gc : {false, true}) {
        MvStore store(MvStoreOptions{.partitions = 8});
        Preload(store);
        const auto keys = DrawKeys(zipf, threads, kMixedOpsPerThread, 7);
        const MixedRunResult run = RunMixed(store, keys, threads, gc);
        table.AddRow({FmtInt(threads), gc ? "on" : "off",
                      Fmt(run.ops_per_sec, 0), FmtInt(run.max_chain),
                      FmtInt(run.pruned)});
      }
    }
    table.Print();
    std::printf(
        "\nGC keeps every chain within the watermark lag (%lld) + 1;\n"
        "with GC off the hottest Zipf keys grow unboundedly.\n",
        static_cast<long long>(kGcLag));
  }

  WriteMetricsSnapshot("bench_mvstore");
  return 0;
}
