#ifndef ESR_MSG_TOTAL_ORDER_BUFFER_H_
#define ESR_MSG_TOTAL_ORDER_BUFFER_H_

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "common/types.h"

namespace esr::msg {

/// Hold-back buffer that releases payloads in sequence order.
///
/// ORDUP's MSet-delivery rule (paper section 3.1): "each site simply waits
/// for the next MSet in the execution sequence to show up before running
/// other MSets". Payloads may arrive in any order; the buffer holds them
/// until the gap below closes. The same rule gives the paper's stable
/// queues (section 2.2) their per-sender FIFO order.
///
/// The caller drives release, so it can stop early or check other streams
/// first:
///
///   while (buffer.Head() != nullptr) Use(buffer.Pop());
///
/// Pop() advances the watermark before it returns, so a delivery that
/// re-enters the owner sees the position as released.
template <typename T>
class TotalOrderBuffer {
 public:
  /// Holds `payload` at `seq`. Returns false, leaving `payload` untouched,
  /// when `seq` is already released or held (the first arrival wins).
  /// Raises MaxOffered() either way.
  bool Offer(SequenceNumber seq, T&& payload) {
    max_offered_ = std::max(max_offered_, seq);
    if (seq <= watermark_) return false;
    return held_.try_emplace(seq, std::move(payload)).second;
  }

  /// The payload at the next position, or null while that position is
  /// missing.
  const T* Head() const {
    if (held_.empty() || held_.begin()->first != watermark_ + 1) {
      return nullptr;
    }
    return &held_.begin()->second;
  }

  /// Releases the head. Only valid while Head() is non-null.
  T Pop() {
    assert(Head() != nullptr);
    T payload = std::move(held_.extract(held_.begin()).mapped());
    ++watermark_;
    return payload;
  }

  /// The payload held at `seq`, or null when none is (released positions
  /// are not held).
  const T* Find(SequenceNumber seq) const {
    auto it = held_.find(seq);
    return it == held_.end() ? nullptr : &it->second;
  }

  /// Releases every position up to `watermark` without its payload, and
  /// drops the held entries at or below it: the state below `watermark`
  /// arrived some other way (a checkpoint, or a snapshot image).
  void SkipThrough(SequenceNumber watermark) {
    if (watermark <= watermark_) return;
    watermark_ = watermark;
    max_offered_ = std::max(max_offered_, watermark);
    held_.erase(held_.begin(), held_.upper_bound(watermark));
  }

  /// Highest released position (0 when none): the applied watermark.
  SequenceNumber Watermark() const { return watermark_; }

  /// Highest position ever offered or skipped through, released or held:
  /// what a site reports to a sequencer-takeover probe.
  SequenceNumber MaxOffered() const { return max_offered_; }

  /// No payload held.
  bool Empty() const { return held_.empty(); }

 private:
  SequenceNumber watermark_ = 0;
  SequenceNumber max_offered_ = 0;
  std::map<SequenceNumber, T> held_;
};

}  // namespace esr::msg

#endif  // ESR_MSG_TOTAL_ORDER_BUFFER_H_
