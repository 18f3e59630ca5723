#ifndef ESR_MSG_SEQUENCER_WIRE_H_
#define ESR_MSG_SEQUENCER_WIRE_H_

#include <optional>
#include <string>
#include <string_view>

#include "msg/sequencer.h"

namespace esr::msg {

/// Byte codecs for the sequencer wire structs (esr::wire layout).
///
/// Inside the simulator the sequencer structs travel by value in std::any
/// envelopes; over the real runtime binding the same structs are serialized
/// with these functions and carried as runtime::Message payloads, so both
/// bindings speak one sequencer protocol (same request ids, same epochs,
/// same seal–probe–unseal failover semantics).
///
/// Layouts (V = LEB128 varint, wire::Encoder::Varint; a 32-bit field
/// travels as its unsigned cast and decodes only up to 2^32-1):
///   request:  I64 request_id, V count, V epoch, I64 incarnation
///   grant:    I64 request_id, V first, V count, V epoch
///   probe:    I64 probe_id, V from
///   answer:   I64 probe_id, V from, V max_seen, V epoch
///   announce: V epoch, V home, V first
/// Request and probe ids and the incarnation start at the client's boot
/// time in µs, so they stay fixed 8 B; counts, epochs, positions and site
/// ids are small and take one to three bytes each. A request carries no
/// TraceContext: the trace rides the message envelope, never the payload,
/// so DecodeSeqBatchRequest leaves `trace` empty and the receiver copies
/// it from the envelope.
std::string EncodeSeqBatchRequest(const SeqBatchRequest& r);
std::string EncodeSeqBatchGrant(const SeqBatchGrant& g);
std::string EncodeSeqProbeRequest(const SeqProbeRequest& p);
std::string EncodeSeqProbeResponse(const SeqProbeResponse& p);
std::string EncodeSeqEpochAnnounce(const SeqEpochAnnounce& a);

/// Decoders return nullopt on torn/corrupt input (latched wire::Decoder).
std::optional<SeqBatchRequest> DecodeSeqBatchRequest(std::string_view bytes);
std::optional<SeqBatchGrant> DecodeSeqBatchGrant(std::string_view bytes);
std::optional<SeqProbeRequest> DecodeSeqProbeRequest(std::string_view bytes);
std::optional<SeqProbeResponse> DecodeSeqProbeResponse(
    std::string_view bytes);
std::optional<SeqEpochAnnounce> DecodeSeqEpochAnnounce(
    std::string_view bytes);

}  // namespace esr::msg

#endif  // ESR_MSG_SEQUENCER_WIRE_H_
