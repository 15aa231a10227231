// Both members carry the escape hatch: ZERO findings.
#include "support/serde.h"

struct FixtureAllowed {
  uint64_t id = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.id);
  }
  sgxmig::Bytes serialize() const;  // simlint: allow(codec-member) fixture
  static FixtureAllowed deserialize(sgxmig::ByteView b);  // simlint: allow(codec-member) fixture
};
