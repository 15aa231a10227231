// A reader parameter and the reader's constants are not constructions:
// ZERO findings.
#include "support/serde.h"

uint64_t fixture_reader_param(sgxmig::BinaryReader& r) {
  return r.u64() + sgxmig::BinaryReader::kDefaultMaxLen;
}
