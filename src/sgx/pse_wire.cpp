#include "sgx/pse_wire.h"

#include "support/serde.h"

namespace sgxmig::sgx {

Bytes PseRequest::serialize() const {
  BinaryWriter w;
  w.u8(static_cast<uint8_t>(op));
  w.fixed(owner);
  w.fixed(session_token);
  serialize_uuid(w, uuid);
  w.bytes(nonce_entropy);
  if (op == PseOp::kRetire) {
    w.u32(static_cast<uint32_t>(retire_uuids.size()));
    for (const CounterUuid& retired : retire_uuids) serialize_uuid(w, retired);
  }
  return w.take();
}

Result<PseRequest> PseRequest::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  PseRequest req;
  const uint8_t op = r.u8();
  if (op < 1 || op > 5) return Status::kTampered;
  req.op = static_cast<PseOp>(op);
  req.owner = r.fixed<32>();
  req.session_token = r.fixed<16>();
  req.uuid = deserialize_uuid(r);
  req.nonce_entropy = r.bytes(64);
  if (req.op == PseOp::kRetire) {
    const uint32_t n = r.u32();
    if (n > MonotonicCounterService::kMaxCountersPerEnclave) {
      return Status::kTampered;
    }
    for (uint32_t i = 0; i < n; ++i) {
      req.retire_uuids.push_back(deserialize_uuid(r));
    }
  }
  if (!r.done()) return Status::kTampered;
  return req;
}

Bytes PseResponse::serialize() const {
  BinaryWriter w;
  w.u32(static_cast<uint32_t>(status));
  serialize_uuid(w, uuid);
  w.u32(value);
  return w.take();
}

Result<PseResponse> PseResponse::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  PseResponse resp;
  resp.status = static_cast<Status>(r.u32());
  resp.uuid = deserialize_uuid(r);
  resp.value = r.u32();
  if (!r.done()) return Status::kTampered;
  return resp;
}

crypto::CmacTag pse_session_token(const Key128& machine_secret,
                                  const Measurement& owner) {
  return crypto::aes_cmac(ByteView(machine_secret.data(), machine_secret.size()),
                          ByteView(owner.data(), owner.size()));
}

}  // namespace sgxmig::sgx
