// A rollback-protected key-value store enclave on the Migration Library —
// the kind of stateful cloud service whose persistent state must survive
// VM migration (paper §I: "most real-world enclaves have data that must
// be persisted").
#pragma once

#include <map>
#include <optional>
#include <string>

#include "migration/migratable_enclave.h"

namespace sgxmig::apps {

/// The sealed store: the id of the migratable counter that versions it,
/// then every entry.
struct KvStoreState {
  uint32_t version_counter = 0;
  std::map<std::string, Bytes> entries;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.version_counter);
    io.map(m.entries, 1000000, [](auto& f, auto& key, auto& value) {
      f.str(key, 1u << 16);
      f.bytes(value, 1u << 24);
    });
  }
};

class KvStoreEnclave : public migration::MigratableEnclave {
 public:
  KvStoreEnclave(sgx::PlatformIface& platform,
                 std::shared_ptr<const sgx::EnclaveImage> image)
      : MigratableEnclave(platform, std::move(image)) {}

  /// Creates the version counter (requires ecall_migration_init first).
  Status ecall_setup();

  Status ecall_put(const std::string& key, ByteView value);
  Result<Bytes> ecall_get(const std::string& key);
  Status ecall_erase(const std::string& key);
  Result<uint64_t> ecall_size();

  /// Seals the whole store under a fresh version.
  Result<Bytes> ecall_persist();
  /// Restores; stale blobs are rejected with kReplayDetected.
  Status ecall_restore(ByteView blob);

 private:
  bool setup_done_ = false;
  KvStoreState state_;
};

}  // namespace sgxmig::apps
