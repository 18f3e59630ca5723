// Layer microbenchmarks: each times one public function of one layer in
// isolation, sized from what the traced run measured for the workload.
#ifndef PERFBENCH_MICRO_H_
#define PERFBENCH_MICRO_H_

#include <cstdint>
#include <random>
#include <string>

#include "load.h"

namespace perfbench {

struct MicroSizes {
  int64_t frame_bytes = 0;  // mean kMset payload + transport envelope
  int64_t flush_bytes = 0;  // mean WAL flush (0 = no WAL)
};

struct MicroResults {
  double crc32_ns_per_kb = 0;
  double frame_roundtrip_ns = 0;
  double mset_encode_ns = 0;
  double mset_decode_ns = 0;
  double store_apply_ns_per_op = 0;
  double store_read_ns = 0;
  double histogram_observe_ns = 0;
  double file_append_us = 0;  // 0 when flush_bytes == 0
};

/// `scratch_dir` holds the FileStorage the append benchmark writes.
MicroResults RunMicro(const WorkloadSpec& w, KeyGen& keys, std::mt19937_64& rng,
                      const MicroSizes& sizes, const std::string& scratch_dir);

}  // namespace perfbench

#endif  // PERFBENCH_MICRO_H_
