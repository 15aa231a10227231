// Wire format of Platform Services (monotonic counter) calls.
//
// App enclaves reach Platform Services through a simulated Unix-socket →
// TCP proxy chain into the management VM (paper §VI-C), so the operations
// are serialized.  A session token — a MAC over the caller's MRENCLAVE
// with a machine secret — models the local attestation that binds a PSE
// session to the calling enclave; software outside an enclave cannot forge
// it, which the tests exercise.
#pragma once

#include <vector>

#include "crypto/cmac.h"
#include "sgx/pse.h"
#include "sgx/types.h"
#include "support/bytes.h"
#include "support/status.h"

namespace sgxmig::sgx {

enum class PseOp : uint8_t {
  kCreate = 1,
  kRead = 2,
  kIncrement = 3,
  kDestroy = 4,
  /// Logical destroy of the listed counters (one firmware journal
  /// entry); physical slot reclaim is the background sweep.
  kRetire = 5,
};

struct PseRequest {
  PseOp op = PseOp::kRead;
  Measurement owner{};
  crypto::CmacTag session_token{};
  CounterUuid uuid{};        // ignored for kCreate
  Bytes nonce_entropy;       // only for kCreate
  // Only for kRetire, and only on the wire for it: every other op keeps
  // its exact bytes.
  std::vector<CounterUuid> retire_uuids;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u8(m.op, PseOp::kCreate, PseOp::kRetire);
    io.fixed(m.owner);
    io.fixed(m.session_token);
    io.record(m.uuid);
    io.bytes(m.nonce_entropy, 64);
    if (m.op == PseOp::kRetire) {
      io.list(m.retire_uuids, MonotonicCounterService::kMaxCountersPerEnclave);
    }
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<PseRequest> deserialize(ByteView b) {
    return decode_record<PseRequest>(b);
  }
};

struct PseResponse {
  Status status = Status::kUnexpected;
  CounterUuid uuid{};   // for kCreate
  uint32_t value = 0;   // for kCreate/kRead/kIncrement

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.status);
    io.record(m.uuid);
    io.u32(m.value);
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<PseResponse> deserialize(ByteView b) {
    return decode_record<PseResponse>(b);
  }
};

/// Session token binding `owner` to this machine's PSE.
crypto::CmacTag pse_session_token(const Key128& machine_secret,
                                  const Measurement& owner);

}  // namespace sgxmig::sgx
