#ifndef ESR_RECOVERY_WAL_H_
#define ESR_RECOVERY_WAL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "esr/mset.h"
#include "obs/metric_registry.h"
#include "recovery/recovery_config.h"
#include "recovery/storage.h"
#include "runtime/interfaces.h"

namespace esr::recovery {

/// What a WAL record describes. The four types mirror the replica-control
/// message flow: a delivered MSet, a COMPE commit/abort decision, an apply
/// acknowledgment received at the origin, and a global-stability notice.
enum class WalRecordType : uint8_t {
  kMset = 1,
  kDecision = 2,
  kAck = 3,
  kStable = 4,
};

/// One decoded WAL record. Only the fields relevant to `type` are
/// meaningful (mset for kMset; et+commit for kDecision; et+replica for
/// kAck; et+ts for kStable).
struct WalRecord {
  WalRecordType type = WalRecordType::kMset;
  int64_t lsn = 0;
  core::Mset mset;
  EtId et = kInvalidEtId;
  bool commit = false;
  SiteId replica = kInvalidSiteId;
  LamportTimestamp ts;
};

/// One record's payload, the bytes inside its frame: a tag byte (the
/// format version in the high nibble, the type in the low one), the varint
/// LSN, then the type's fields.
std::string EncodeWalRecord(const WalRecord& record);

/// Decodes EncodeWalRecord's bytes into `out`. False for a record of
/// another format version, an unknown type, or malformed or trailing
/// bytes.
bool DecodeWalRecord(std::string_view payload, WalRecord* out);

/// Per-site write-ahead log with group-commit batching.
///
/// Appends buffer in volatile memory and reach stable storage on Flush():
/// either when `group_commit_records` records accumulate or when the group
/// commit timer (armed when the buffer goes non-empty) fires. The unflushed
/// tail is exactly the data-loss window of an amnesia crash — DropUnflushed
/// models the crash, ReadAll never sees those records.
///
/// Records are length+CRC framed (codec.h); ReadAll stops at the first torn
/// or corrupt frame and at the first record of another format version
/// (kFormatVersion). LSNs are assigned at append time and preserved across
/// truncation, so `next_lsn` always moves forward even after a restart.
class Wal {
 public:
  Wal(runtime::Clock* clock, StorageBackend* storage, SiteId site,
      const RecoveryConfig& config, obs::MetricRegistry* metrics);

  int64_t AppendMset(const core::Mset& mset);
  int64_t AppendDecision(EtId et, bool commit);
  int64_t AppendAck(EtId et, SiteId replica);
  int64_t AppendStable(EtId et, const LamportTimestamp& ts);

  /// Forces the buffered tail to stable storage.
  void Flush();

  /// Amnesia crash: the volatile tail vanishes. Also disarms the timer.
  void DropUnflushed();

  /// Decodes everything durably stored (buffered appends are NOT visible —
  /// callers that need them must Flush first).
  std::vector<WalRecord> ReadAll() const;

  /// Rewrites the stored WAL keeping only records where `keep` returns
  /// true, preserving their LSNs. Flushes first so the decision sees every
  /// record. Returns the number of records dropped.
  int64_t Truncate(const std::function<bool(const WalRecord&)>& keep);

  int64_t next_lsn() const { return next_lsn_; }
  int64_t UnflushedCount() const {
    return static_cast<int64_t>(buffer_.size());
  }
  /// The buffered (not yet durable) tail. Truncation planning reads this to
  /// stay conservative about records that may still BECOME durable on the
  /// next flush — e.g. a tentative MSet whose decision must then remain
  /// servable from peer WALs.
  const std::vector<WalRecord>& UnflushedRecords() const { return buffer_; }
  int64_t StorageBytes() const;

 private:
  int64_t Append(WalRecord record);
  void ArmTimer();

  runtime::Clock* clock_;
  StorageBackend* storage_;
  SiteId site_;
  RecoveryConfig config_;
  obs::MetricRegistry* metrics_;

  std::vector<WalRecord> buffer_;
  int64_t next_lsn_ = 1;
  runtime::TimerId timer_ = 0;
  bool timer_armed_ = false;
};

}  // namespace esr::recovery

#endif  // ESR_RECOVERY_WAL_H_
