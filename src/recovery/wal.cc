#include "recovery/wal.h"

#include "recovery/codec.h"

namespace esr::recovery {

namespace {

void BumpWalCounter(obs::MetricRegistry* metrics, const char* name,
                    SiteId site, int64_t by = 1) {
  if (metrics == nullptr || by == 0) return;
  metrics->GetCounter(name, {{"site", std::to_string(site)}}).Increment(by);
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  Encoder enc;
  // The format version in the tag's high nibble: DecodeWalRecord refuses a
  // record an older build wrote, and ReadAll stops there.
  enc.U8(static_cast<uint8_t>(kFormatVersion << 4 |
                              static_cast<uint8_t>(record.type)));
  enc.Varint(static_cast<uint64_t>(record.lsn));
  switch (record.type) {
    case WalRecordType::kMset:
      enc.MsetRec(record.mset);
      break;
    case WalRecordType::kDecision:
      enc.I64(record.et);
      enc.U8(record.commit ? 1 : 0);
      break;
    case WalRecordType::kAck:
      enc.I64(record.et);
      enc.Varint32(record.replica);
      break;
    case WalRecordType::kStable:
      enc.I64(record.et);
      enc.Ts(record.ts);
      break;
  }
  return enc.Take();
}

bool DecodeWalRecord(std::string_view payload, WalRecord* out) {
  Decoder dec(payload);
  WalRecord record;
  const uint8_t tag = dec.U8();
  if (tag >> 4 != kFormatVersion) return false;
  record.type = static_cast<WalRecordType>(tag & 0x0F);
  record.lsn = static_cast<int64_t>(dec.Varint());
  switch (record.type) {
    case WalRecordType::kMset:
      record.mset = dec.MsetRec();
      break;
    case WalRecordType::kDecision:
      record.et = dec.I64();
      record.commit = dec.U8() != 0;
      break;
    case WalRecordType::kAck:
      record.et = dec.I64();
      record.replica = dec.Varint32();
      break;
    case WalRecordType::kStable:
      record.et = dec.I64();
      record.ts = dec.Ts();
      break;
    default:
      return false;
  }
  if (!dec.ok() || !dec.AtEnd()) return false;
  *out = std::move(record);
  return true;
}

Wal::Wal(runtime::Clock* clock, StorageBackend* storage, SiteId site,
         const RecoveryConfig& config, obs::MetricRegistry* metrics)
    : clock_(clock),
      storage_(storage),
      site_(site),
      config_(config),
      metrics_(metrics) {
  // Resume LSN assignment past everything already durable (a restarted
  // site's WAL keeps growing monotonically).
  for (const WalRecord& record : ReadAll()) {
    if (record.lsn >= next_lsn_) next_lsn_ = record.lsn + 1;
  }
  if (metrics_ != nullptr) {
    metrics_->Describe("esr_wal_records_total", "WAL records appended");
    metrics_->Describe("esr_wal_flushes_total", "WAL group-commit flushes");
    metrics_->Describe("esr_wal_flushed_bytes_total",
                       "Bytes written to stable WAL storage");
    metrics_->Describe("esr_wal_dropped_records_total",
                       "Unflushed WAL records lost to amnesia crashes");
    metrics_->Describe("esr_wal_truncated_records_total",
                       "WAL records reclaimed by checkpoint truncation");
  }
}

int64_t Wal::Append(WalRecord record) {
  record.lsn = next_lsn_++;
  buffer_.push_back(std::move(record));
  BumpWalCounter(metrics_, "esr_wal_records_total", site_);
  if (static_cast<int>(buffer_.size()) >= config_.group_commit_records) {
    Flush();
  } else {
    ArmTimer();
  }
  return next_lsn_ - 1;
}

int64_t Wal::AppendMset(const core::Mset& mset) {
  WalRecord record;
  record.type = WalRecordType::kMset;
  record.mset = mset;
  return Append(std::move(record));
}

int64_t Wal::AppendDecision(EtId et, bool commit) {
  WalRecord record;
  record.type = WalRecordType::kDecision;
  record.et = et;
  record.commit = commit;
  return Append(std::move(record));
}

int64_t Wal::AppendAck(EtId et, SiteId replica) {
  WalRecord record;
  record.type = WalRecordType::kAck;
  record.et = et;
  record.replica = replica;
  return Append(std::move(record));
}

int64_t Wal::AppendStable(EtId et, const LamportTimestamp& ts) {
  WalRecord record;
  record.type = WalRecordType::kStable;
  record.et = et;
  record.ts = ts;
  return Append(std::move(record));
}

void Wal::ArmTimer() {
  if (timer_armed_ || clock_ == nullptr) return;
  timer_armed_ = true;
  timer_ = clock_->Schedule(config_.group_commit_interval_us,
                                [this] {
                                  timer_armed_ = false;
                                  Flush();
                                });
}

void Wal::Flush() {
  if (timer_armed_) {
    clock_->Cancel(timer_);
    timer_armed_ = false;
  }
  if (buffer_.empty()) return;
  std::string bytes;
  for (const WalRecord& record : buffer_) {
    wire::FrameAppend(bytes, EncodeWalRecord(record));
  }
  storage_->AppendWal(site_, bytes);
  BumpWalCounter(metrics_, "esr_wal_flushes_total", site_);
  BumpWalCounter(metrics_, "esr_wal_flushed_bytes_total", site_,
                 static_cast<int64_t>(bytes.size()));
  buffer_.clear();
}

void Wal::DropUnflushed() {
  if (timer_armed_) {
    clock_->Cancel(timer_);
    timer_armed_ = false;
  }
  BumpWalCounter(metrics_, "esr_wal_dropped_records_total", site_,
                 static_cast<int64_t>(buffer_.size()));
  buffer_.clear();
}

std::vector<WalRecord> Wal::ReadAll() const {
  std::vector<WalRecord> records;
  const std::string bytes = storage_->ReadWal(site_);
  size_t pos = 0;
  std::string_view payload;
  while (wire::FrameNext(bytes, &pos, &payload)) {
    // A record that does not decode is corruption: stop here.
    WalRecord record;
    if (!DecodeWalRecord(payload, &record)) break;
    records.push_back(std::move(record));
  }
  return records;
}

int64_t Wal::Truncate(const std::function<bool(const WalRecord&)>& keep) {
  Flush();
  std::vector<WalRecord> records = ReadAll();
  std::string bytes;
  int64_t dropped = 0;
  for (const WalRecord& record : records) {
    if (keep(record)) {
      wire::FrameAppend(bytes, EncodeWalRecord(record));
    } else {
      ++dropped;
    }
  }
  storage_->ReplaceWal(site_, std::move(bytes));
  BumpWalCounter(metrics_, "esr_wal_truncated_records_total", site_, dropped);
  return dropped;
}

int64_t Wal::StorageBytes() const {
  return static_cast<int64_t>(storage_->ReadWal(site_).size());
}

}  // namespace esr::recovery
