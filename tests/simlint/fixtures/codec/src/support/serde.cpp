// The generic reader itself is whitelisted: ZERO findings.
#include "support/serde.h"

uint64_t fixture_generic_reader(sgxmig::ByteView blob) {
  sgxmig::BinaryReader r(blob);
  return r.u64();
}
