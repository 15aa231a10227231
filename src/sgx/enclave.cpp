#include "sgx/enclave.h"

#include "sgx/pse_wire.h"

namespace sgxmig::sgx {

Enclave::Enclave(PlatformIface& platform,
                 std::shared_ptr<const EnclaveImage> image)
    : platform_(platform),
      image_(std::move(image)),
      identity_(image_->identity()),
      drbg_(platform_.draw_entropy(48)) {}

Result<Bytes> Enclave::seal(KeyPolicy policy, ByteView aad,
                            ByteView plaintext) {
  platform_.charge(platform_.costs().egetkey);
  charge_gcm(plaintext.size() + aad.size());
  return seal_data(platform_.cpu(), identity_, drbg_, policy, aad, plaintext);
}

SealContext Enclave::make_seal_context(KeyPolicy policy) {
  platform_.charge(platform_.costs().egetkey);
  return SealContext(platform_.cpu(), identity_, drbg_, policy);
}

Result<UnsealedData> Enclave::unseal(ByteView sealed_blob) {
  platform_.charge(platform_.costs().egetkey);
  charge_gcm(sealed_blob.size());
  return unseal_data(platform_.cpu(), identity_, sealed_blob);
}

Report Enclave::make_report(const TargetInfo& target, const ReportData& data) {
  platform_.charge(platform_.costs().ereport);
  return create_report(platform_.cpu(), identity_, target, data);
}

bool Enclave::check_report(const Report& report) {
  platform_.charge(platform_.costs().report_verify);
  return verify_report(platform_.cpu(), identity_.mr_enclave, report);
}

void Enclave::charge_gcm(size_t bytes) {
  platform_.charge(platform_.costs().gcm_time(bytes));
}

Result<PseResponse> Enclave::pse_roundtrip(const PseRequest& request) {
  auto raw = platform_.pse_call(identity_.mr_enclave, encode_record(request));
  if (!raw.ok()) return raw.status();
  auto resp = decode_record<PseResponse>(raw.value());
  if (!resp.ok()) return Status::kTampered;
  return resp;
}

Result<CreatedCounter> Enclave::counter_create() {
  PseRequest req;
  req.op = PseOp::kCreate;
  req.owner = identity_.mr_enclave;
  req.nonce_entropy = drbg_.bytes(12);
  auto resp = pse_roundtrip(req);
  if (!resp.ok()) return resp.status();
  if (resp.value().status != Status::kOk) return resp.value().status;
  CreatedCounter created;
  created.uuid = resp.value().uuid;
  created.value = resp.value().value;
  return created;
}

Result<uint32_t> Enclave::counter_read(const CounterUuid& uuid) {
  PseRequest req;
  req.op = PseOp::kRead;
  req.owner = identity_.mr_enclave;
  req.uuid = uuid;
  auto resp = pse_roundtrip(req);
  if (!resp.ok()) return resp.status();
  if (resp.value().status != Status::kOk) return resp.value().status;
  return resp.value().value;
}

Result<uint32_t> Enclave::counter_increment(const CounterUuid& uuid) {
  PseRequest req;
  req.op = PseOp::kIncrement;
  req.owner = identity_.mr_enclave;
  req.uuid = uuid;
  auto resp = pse_roundtrip(req);
  if (!resp.ok()) return resp.status();
  if (resp.value().status != Status::kOk) return resp.value().status;
  return resp.value().value;
}

Status Enclave::counter_destroy(const CounterUuid& uuid) {
  PseRequest req;
  req.op = PseOp::kDestroy;
  req.owner = identity_.mr_enclave;
  req.uuid = uuid;
  auto resp = pse_roundtrip(req);
  if (!resp.ok()) return resp.status();
  return resp.value().status;
}

Result<uint32_t> Enclave::counter_retire(
    const std::vector<CounterUuid>& uuids) {
  PseRequest req;
  req.op = PseOp::kRetire;
  req.owner = identity_.mr_enclave;
  req.retire_uuids = uuids;
  auto resp = pse_roundtrip(req);
  if (!resp.ok()) return resp.status();
  if (resp.value().status != Status::kOk) return resp.value().status;
  return resp.value().value;
}

}  // namespace sgxmig::sgx
