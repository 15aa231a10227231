// Codec-entry calls, member calls and mentions in comments are not
// declarations: ZERO findings.  (A serialize() member is what the rule
// looks for.)
#include "support/serde.h"

sgxmig::Bytes fixture_round_trip(const FixtureRecord& r, Other& o) {
  auto back = sgxmig::decode_record<FixtureRecord>(sgxmig::encode_record(r));
  o.serialize();
  o.state->deserialize(sgxmig::ByteView());
  return sgxmig::encode_record(back.value());
}
