#include "msg/sequencer_wire.h"

#include "common/wire.h"

namespace esr::msg {

namespace {

// Signed fields ride as their unsigned casts: a 32-bit one (a count or a
// site id) as Varint32, so -1 costs 5 bytes and still round-trips.
void Put64(wire::Encoder& e, int64_t v) { e.Varint(static_cast<uint64_t>(v)); }

int64_t Get64(wire::Decoder& d) { return static_cast<int64_t>(d.Varint()); }

}  // namespace

std::string EncodeSeqBatchRequest(const SeqBatchRequest& r) {
  wire::Encoder e;
  e.I64(r.request_id);
  e.Varint32(r.count);
  Put64(e, r.epoch);
  e.I64(r.incarnation);
  return e.Take();
}

std::optional<SeqBatchRequest> DecodeSeqBatchRequest(std::string_view bytes) {
  wire::Decoder d(bytes);
  SeqBatchRequest r;
  r.request_id = d.I64();
  r.count = d.Varint32();
  r.epoch = Get64(d);
  r.incarnation = d.I64();
  if (!d.ok()) return std::nullopt;
  return r;
}

std::string EncodeSeqBatchGrant(const SeqBatchGrant& g) {
  wire::Encoder e;
  e.I64(g.request_id);
  Put64(e, g.first);
  e.Varint32(g.count);
  Put64(e, g.epoch);
  return e.Take();
}

std::optional<SeqBatchGrant> DecodeSeqBatchGrant(std::string_view bytes) {
  wire::Decoder d(bytes);
  SeqBatchGrant g;
  g.request_id = d.I64();
  g.first = Get64(d);
  g.count = d.Varint32();
  g.epoch = Get64(d);
  if (!d.ok()) return std::nullopt;
  return g;
}

std::string EncodeSeqProbeRequest(const SeqProbeRequest& p) {
  wire::Encoder e;
  e.I64(p.probe_id);
  e.Varint32(p.from);
  return e.Take();
}

std::optional<SeqProbeRequest> DecodeSeqProbeRequest(std::string_view bytes) {
  wire::Decoder d(bytes);
  SeqProbeRequest p;
  p.probe_id = d.I64();
  p.from = d.Varint32();
  if (!d.ok()) return std::nullopt;
  return p;
}

std::string EncodeSeqProbeResponse(const SeqProbeResponse& p) {
  wire::Encoder e;
  e.I64(p.probe_id);
  e.Varint32(p.from);
  Put64(e, p.max_seen);
  Put64(e, p.epoch);
  return e.Take();
}

std::optional<SeqProbeResponse> DecodeSeqProbeResponse(
    std::string_view bytes) {
  wire::Decoder d(bytes);
  SeqProbeResponse p;
  p.probe_id = d.I64();
  p.from = d.Varint32();
  p.max_seen = Get64(d);
  p.epoch = Get64(d);
  if (!d.ok()) return std::nullopt;
  return p;
}

std::string EncodeSeqEpochAnnounce(const SeqEpochAnnounce& a) {
  wire::Encoder e;
  Put64(e, a.epoch);
  e.Varint32(a.home);
  Put64(e, a.first);
  return e.Take();
}

std::optional<SeqEpochAnnounce> DecodeSeqEpochAnnounce(
    std::string_view bytes) {
  wire::Decoder d(bytes);
  SeqEpochAnnounce a;
  a.epoch = Get64(d);
  a.home = d.Varint32();
  a.first = Get64(d);
  if (!d.ok()) return std::nullopt;
  return a;
}

}  // namespace esr::msg
