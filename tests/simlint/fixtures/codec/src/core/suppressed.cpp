// The one violation carries the escape hatch: ZERO findings.
#include "support/serde.h"

uint64_t fixture_allowed_reader(sgxmig::ByteView blob) {
  sgxmig::BinaryReader r(blob);  // simlint: allow(hand-codec) in-place view
  return r.u64();
}
