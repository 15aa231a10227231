// Seeded violation: a hand-kept reader beside some writer elsewhere.
#include "support/serde.h"

uint64_t fixture_hand_reader(sgxmig::ByteView blob) {
  sgxmig::BinaryReader r(blob);
  return r.u64();
}
