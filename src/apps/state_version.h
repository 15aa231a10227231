// The AAD an app's state is sealed under with the MSK: the app's label and
// the migratable-counter version the state was sealed at.  A restore
// accepts the state only at the counter's current value (the Teechan /
// TrInX pattern of paper §III).
#pragma once

#include <string>
#include <string_view>

#include "support/serde.h"

namespace sgxmig::apps {

struct StateVersion {
  std::string label;
  uint32_t version = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.str(m.label, 64);
    io.u32(m.version);
  }
};

/// The version an `aad` of `label` carries; kTampered for any other AAD.
inline Result<uint32_t> state_version(ByteView aad, std::string_view label) {
  auto decoded = decode_record<StateVersion>(aad);
  if (!decoded.ok() || decoded.value().label != label) {
    return Status::kTampered;
  }
  return decoded.value().version;
}

}  // namespace sgxmig::apps
