#ifndef ESR_RECOVERY_RECOVERY_CONFIG_H_
#define ESR_RECOVERY_RECOVERY_CONFIG_H_

#include <string>

#include "common/types.h"

namespace esr::recovery {

/// Which durable medium backs the per-site WAL + checkpoint pair.
enum class StorageBackendKind {
  /// Deterministic in-memory stable storage. Owned by the RecoveryManager,
  /// so it survives amnesia crashes of the site it belongs to — exactly the
  /// "stable storage" abstraction the paper assumes of its queues. Default
  /// for seeded tests: a run is a pure function of (config, seed).
  kMemory,
  /// Real files under `dir` (site_<N>.wal / site_<N>.ckpt), left behind for
  /// inspection after an esrsim run. The RecoveryManager starts every
  /// site's files empty, so a run never reads an earlier run's state.
  kFile,
};

/// Knobs for the durability + crash-recovery subsystem.
///
/// Disabled by default: with `enabled == false` the simulator keeps its
/// historical shortcut where a crashed site's volatile state simply survives
/// in memory. Enabling it arms WAL logging on every site and makes the
/// `amnesia` crash mode of FailureInjector meaningful.
struct RecoveryConfig {
  bool enabled = false;
  StorageBackendKind backend = StorageBackendKind::kMemory;
  /// Directory for the file backend; ignored by the memory backend.
  std::string dir;
  /// Fuzzy checkpoint period per site; 0 disables periodic checkpoints
  /// (the WAL then grows until TakeCheckpoint is called explicitly).
  SimDuration checkpoint_interval_us = 0;
  /// Group commit: flush the WAL buffer once this many records accumulate...
  int group_commit_records = 8;
  /// ...or when the oldest buffered record has waited this long.
  SimDuration group_commit_interval_us = 5'000;
};

}  // namespace esr::recovery

#endif  // ESR_RECOVERY_RECOVERY_CONFIG_H_
