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

/// WAL/checkpoint encoder: the generic little-endian byte layer lives in
/// esr::wire::Encoder; this subclass adds the protocol-value composites
/// (Value, Operation, Mset) that depend on store/esr types.
///
/// The format is private to this subsystem: records are only ever read back
/// by the matching Decoder, never exchanged between heterogeneous builds.
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
