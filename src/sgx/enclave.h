// Enclave base class: the trusted runtime of a simulated enclave.
//
// Lifecycle semantics match the SGX Developer Guide rules the paper quotes:
// an Enclave object's members are the EPC contents; destroying the object
// (application closes the enclave, application crashes, machine reboots)
// irrecoverably discards them.  Anything that must survive goes through
// seal()/counters — the persistent state whose migration this repo is
// about.
//
// Concrete enclaves (Migration Enclave, Quoting Enclave, the example app
// enclaves) subclass this.  Public methods of subclasses are the ECALL
// surface; they should open an EcallScope to account for the transition
// cost.  The protected methods below are the in-enclave trusted runtime
// (sgx_tseal / EREPORT / PSE session / RDRAND equivalents).
#pragma once

#include <memory>
#include <vector>

#include "crypto/drbg.h"
#include "sgx/measurement.h"
#include "sgx/platform_iface.h"
#include "sgx/pse.h"
#include "sgx/pse_wire.h"
#include "sgx/report.h"
#include "sgx/sealing.h"
#include "sgx/types.h"

namespace sgxmig::migration {
class MigrationLibrary;
}  // namespace sgxmig::migration

namespace sgxmig::baseline {
class GuMigrationLibrary;
}  // namespace sgxmig::baseline

namespace sgxmig::sgx {

class Enclave {
 public:
  Enclave(PlatformIface& platform, std::shared_ptr<const EnclaveImage> image);
  virtual ~Enclave() = default;

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  /// Public identity (readable by untrusted code, as on real SGX).
  const EnclaveIdentity& identity() const { return identity_; }
  const EnclaveImage& image() const { return *image_; }

 protected:
  /// RAII ECALL transition: charges EENTER on construction, EEXIT on
  /// destruction.
  class EcallScope {
   public:
    explicit EcallScope(PlatformIface& platform) : platform_(platform) {
      platform_.charge(platform_.costs().ecall);
    }
    ~EcallScope() { platform_.charge(platform_.costs().ecall); }
    EcallScope(const EcallScope&) = delete;
    EcallScope& operator=(const EcallScope&) = delete;

   private:
    PlatformIface& platform_;
  };

  EcallScope enter_ecall() { return EcallScope(platform_); }

  // ----- sealing (sgx_seal_data / sgx_unseal_data) -----
  Result<Bytes> seal(KeyPolicy policy, ByteView aad, ByteView plaintext);
  Result<UnsealedData> unseal(ByteView sealed_blob);

  /// One-time EGETKEY for a reusable seal context: the derivation cost is
  /// charged here, once; each seal_record_with() charges only the GCM
  /// work.  Used by hot persist paths that re-seal the same state
  /// repeatedly.
  SealContext make_seal_context(KeyPolicy policy);
  /// context.seal_record(aad, record), charging the GCM work for the AAD
  /// and the record's encoding.
  template <class T>
  Result<Bytes> seal_record_with(SealContext& context, ByteView aad,
                                 const T& record) {
    Result<Bytes> sealed = context.seal_record(aad, record);
    if (sealed.ok()) charge_gcm(sealed.value().size() - sealed_blob_size(0, 0));
    return sealed;
  }

  // ----- local attestation (EREPORT) -----
  Report make_report(const TargetInfo& target, const ReportData& data);
  bool check_report(const Report& report);

  // ----- Platform Services monotonic counters -----
  Result<CreatedCounter> counter_create();
  Result<uint32_t> counter_read(const CounterUuid& uuid);
  Result<uint32_t> counter_increment(const CounterUuid& uuid);
  Status counter_destroy(const CounterUuid& uuid);
  /// Logically destroys the counters `uuids` names in one PSE round trip
  /// (one firmware journal entry).  Reads of retired counters fail
  /// immediately; the flash slots are reclaimed later by the platform's
  /// background sweep.  Returns how many counters were retired.
  Result<uint32_t> counter_retire(const std::vector<CounterUuid>& uuids);

  // ----- misc trusted runtime -----
  crypto::CtrDrbg& rng() { return drbg_; }
  PlatformIface& platform() { return platform_; }
  const PlatformIface& platform() const { return platform_; }
  void charge(Duration d) { platform_.charge(d); }
  /// Charges the modeled AES-GCM cost for `bytes` of payload.
  void charge_gcm(size_t bytes);

 private:
  // The migration libraries are linked into the enclave and run in the
  // same protection domain (paper §V-C: "the Migration Library and the
  // application enclave ... reside in the same protection domain. This
  // means that they both trust each other fully"), so they may use the
  // trusted runtime of their host enclave.
  friend class sgxmig::migration::MigrationLibrary;
  friend class sgxmig::baseline::GuMigrationLibrary;

  Result<PseResponse> pse_roundtrip(const PseRequest& request);

  PlatformIface& platform_;
  std::shared_ptr<const EnclaveImage> image_;
  EnclaveIdentity identity_;
  crypto::CtrDrbg drbg_;
};

}  // namespace sgxmig::sgx
