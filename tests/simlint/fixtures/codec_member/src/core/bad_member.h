// Seeded violations: a record that spells its codec a second time.
#include "support/serde.h"

struct FixtureRecord {
  uint64_t id = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.id);
  }
  sgxmig::Bytes serialize() const { return sgxmig::encode_record(*this); }
  static sgxmig::Result<FixtureRecord> deserialize(sgxmig::ByteView b) {
    return sgxmig::decode_record<FixtureRecord>(b);
  }
};
