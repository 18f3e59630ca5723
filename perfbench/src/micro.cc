#include "micro.h"

#include <vector>

#include "common.h"
#include "common/wire.h"
#include "esr/mset.h"
#include "obs/metric_registry.h"
#include "recovery/codec.h"
#include "recovery/storage.h"
#include "store/mv_store.h"
#include "store/operation.h"

namespace perfbench {

namespace {

/// Median over `batches` of the per-iteration time of `fn(i)` in ns.
template <typename Fn>
double TimePerOp(int batches, int iters, Fn&& fn) {
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const int64_t start = NowNs();
    for (int i = 0; i < iters; ++i) fn(b * iters + i);
    per_op.push_back(static_cast<double>(NowNs() - start) / iters);
  }
  return Median(per_op);
}

/// Defeats dead-code elimination of a benchmarked result.
volatile uint64_t g_sink = 0;

esr::core::Mset MakeMset(const WorkloadSpec& w, KeyGen& keys,
                         std::mt19937_64& rng, int64_t position) {
  esr::core::Mset m;
  m.et = 3 * position + 1;
  m.origin = 1;
  m.global_order = position;
  m.timestamp = esr::LamportTimestamp{position, 1};
  for (int k = 0; k < w.ops_per_et; ++k) {
    m.operations.push_back(esr::store::Operation::Increment(keys.Next(rng), 1));
  }
  return m;
}

}  // namespace

MicroResults RunMicro(const WorkloadSpec& w, KeyGen& keys, std::mt19937_64& rng,
                      const MicroSizes& sizes, const std::string& scratch_dir) {
  MicroResults r;
  constexpr int kBatches = 7;

  // wire: CRC and framing over a buffer the size of a measured frame.
  const size_t frame =
      static_cast<size_t>(std::max<int64_t>(16, sizes.frame_bytes));
  std::string payload(frame, '\0');
  for (char& c : payload) c = static_cast<char>(rng());
  const double crc_ns = TimePerOp(kBatches, 20'000, [&](int i) {
    payload[0] = static_cast<char>(i);
    g_sink = g_sink + esr::wire::Crc32(payload);
  });
  r.crc32_ns_per_kb = crc_ns * 1024.0 / static_cast<double>(frame);
  std::string framed;
  r.frame_roundtrip_ns = TimePerOp(kBatches, 20'000, [&](int i) {
    payload[0] = static_cast<char>(i);
    framed.clear();
    esr::wire::FrameAppend(framed, payload);
    size_t pos = 0;
    std::string_view out;
    const bool ok = esr::wire::FrameNext(framed, &pos, &out);
    g_sink = g_sink + (ok ? out.size() : 0);
  });

  // recovery codec on MSets of the workload's shape.
  std::vector<esr::core::Mset> msets;
  std::vector<std::string> encoded;
  for (int i = 0; i < 256; ++i) {
    msets.push_back(MakeMset(w, keys, rng, i + 1));
    esr::recovery::Encoder e;
    e.MsetRec(msets.back());
    encoded.push_back(e.Take());
  }
  r.mset_encode_ns = TimePerOp(kBatches, 20'000, [&](int i) {
    esr::recovery::Encoder e;
    e.MsetRec(msets[static_cast<size_t>(i) % msets.size()]);
    g_sink = g_sink + e.bytes().size();
  });
  r.mset_decode_ns = TimePerOp(kBatches, 20'000, [&](int i) {
    esr::recovery::Decoder d(encoded[static_cast<size_t>(i) % encoded.size()]);
    g_sink = g_sink + d.MsetRec().operations.size();
  });

  // store: ApplyAll on a fresh 8-partition store, then uncontended reads,
  // both on the workload's key distribution.
  {
    esr::store::MvStore store(esr::store::MvStoreOptions{.partitions = 8});
    constexpr int kEts = 20'000;
    std::vector<std::vector<esr::store::Operation>> ets;
    ets.reserve(kEts);
    for (int i = 0; i < kEts; ++i) {
      ets.push_back(MakeMset(w, keys, rng, 1).operations);
    }
    const int per_batch = kEts / kBatches;
    r.store_apply_ns_per_op =
        TimePerOp(kBatches, per_batch, [&](int i) {
          (void)store.ApplyAll(ets[static_cast<size_t>(i)]);
        }) /
        w.ops_per_et;
    std::vector<esr::ObjectId> read_keys(100'000);
    for (esr::ObjectId& k : read_keys) k = keys.Next(rng);
    r.store_read_ns = TimePerOp(kBatches, 100'000, [&](int i) {
      const esr::Value v =
          store.Read(read_keys[static_cast<size_t>(i) % read_keys.size()]);
      g_sink = g_sink + static_cast<uint64_t>(v.is_int() ? v.AsInt() : 0);
    });
  }

  // obs: one P²-tracking histogram observe.
  {
    esr::obs::MetricRegistry registry;
    esr::obs::Histogram& h = registry.GetHistogram("perfbench_observe_us");
    std::exponential_distribution<double> lat(1.0 / 500.0);
    std::vector<double> values(4096);
    for (double& v : values) v = lat(rng);
    r.histogram_observe_ns = TimePerOp(kBatches, 50'000, [&](int i) {
      h.Observe(values[static_cast<size_t>(i) & 4095]);
    });
  }

  // recovery: FileStorage::AppendWal (write + fsync) of one measured flush.
  if (sizes.flush_bytes > 0) {
    esr::recovery::FileStorage storage(scratch_dir);
    const std::string flush(static_cast<size_t>(sizes.flush_bytes), 'w');
    r.file_append_us =
        TimePerOp(kBatches, 40, [&](int) { storage.AppendWal(0, flush); }) *
        1e-3;
  }
  return r;
}

}  // namespace perfbench
