#ifndef ESR_RECOVERY_CODEC_H_
#define ESR_RECOVERY_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "common/value.h"
#include "common/wire.h"
#include "esr/mset.h"
#include "store/operation.h"

namespace esr::recovery {

/// The version of the record layout below. A checkpoint carries it in its
/// header and every WAL record in its tag byte; bytes of any other version
/// are refused, never decoded (there is one accepted format).
inline constexpr uint8_t kFormatVersion = 7;

/// WAL/checkpoint encoder: the generic byte layer lives in
/// esr::wire::Encoder; this subclass adds the protocol-value composites
/// (Value, Operation, Mset) that depend on store/esr types. `OrdupNode`
/// sends the same MSet record on the wire.
///
/// Every field is kept, so every operation round-trips exactly. Counts, site
/// and shard ids and positions are varints, the signed object, operand,
/// integer value and Lamport counter zigzag varints, and the ET id a fixed
/// I64 (a daemon's ids start at its boot time in µs). Records are only ever
/// read back by the matching Decoder of the same version.
class Encoder : public wire::Encoder {
 public:
  void Val(const Value& v);
  void Op(const store::Operation& op);
  void MsetRec(const core::Mset& mset);
};

/// Matching decoder. On malformed input it latches `ok() == false` and every
/// subsequent getter returns a default value; callers check ok() once at the
/// end rather than after each field.
class Decoder : public wire::Decoder {
 public:
  explicit Decoder(std::string_view bytes) : wire::Decoder(bytes) {}

  Value Val();
  store::Operation Op();
  core::Mset MsetRec();
};

}  // namespace esr::recovery

#endif  // ESR_RECOVERY_CODEC_H_
