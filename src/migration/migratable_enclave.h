// A ready-to-use migratable enclave: an sgx::Enclave embedding the
// Migration Library and exposing the paper's Listing 1 / Listing 2 API as
// its ECALL surface.  Application enclaves (examples/, apps/) either use
// this directly or subclass it and add their own ECALLs.
#pragma once

#include "migration/migration_library.h"
#include "sgx/enclave.h"

namespace sgxmig::migration {

class MigratableEnclave : public sgx::Enclave {
 public:
  /// `live_transfer_capable` equips the library with the epoch guard
  /// required for iterative pre-copy migration (one extra hardware counter
  /// at init).
  MigratableEnclave(sgx::PlatformIface& platform,
                    std::shared_ptr<const sgx::EnclaveImage> image,
                    bool live_transfer_capable = false)
      : Enclave(platform, std::move(image)),
        library_(*this, live_transfer_capable) {}

  // ----- Listing 1 (untrusted application interface) -----
  Status ecall_migration_init(ByteView state_buffer, InitState init_state,
                              const std::string& me_address) {
    auto scope = enter_ecall();
    return library_.migration_init(state_buffer, init_state, me_address);
  }

  /// Warm pre-copy destination: creates the counter set of the attempt
  /// staged at `me_address` before its data arrives.  See
  /// MigrationLibrary::migration_warm_up.
  Status ecall_migration_warm_up(const std::string& me_address) {
    auto scope = enter_ecall();
    return library_.migration_warm_up(me_address);
  }

  /// Retires an unconsumed warm set (abandoned attempt).
  Status ecall_retire_warm_set() {
    auto scope = enter_ecall();
    return library_.retire_warm_set();
  }

  Status ecall_migration_start(const std::string& destination_address) {
    auto scope = enter_ecall();
    return library_.migration_start(destination_address);
  }

  /// Convenience overload: restrict the destination to a region list.
  Status ecall_migration_start(const std::string& destination_address,
                               std::vector<std::string> allowed_regions) {
    MigrationPolicy policy;
    policy.allowed_regions = std::move(allowed_regions);
    return ecall_migration_start_with_policy(destination_address, policy);
  }

  Status ecall_migration_start_with_policy(
      const std::string& destination_address, const MigrationPolicy& policy) {
    auto scope = enter_ecall();
    return library_.migration_start(destination_address, policy);
  }

  /// Structured-failure variant (class + failing-step message), for
  /// callers with retry logic such as the fleet orchestrator.
  MigrationStartResult ecall_migration_start_detailed(
      const std::string& destination_address, MigrationPolicy policy = {}) {
    auto scope = enter_ecall();
    return library_.migration_start_detailed(destination_address,
                                             std::move(policy));
  }

  // ----- pipelined (non-blocking) migration start -----

  /// Stages the migration and queues it at the local ME's TransferTask
  /// pipeline; kOk means QUEUED.  Poll with ecall_migration_poll_transfer
  /// while pumping the ME/network.
  MigrationStartResult ecall_migration_enqueue_detailed(
      const std::string& destination_address, MigrationPolicy policy = {}) {
    auto scope = enter_ecall();
    return library_.migration_enqueue_detailed(destination_address,
                                               std::move(policy));
  }

  /// Freeze-aware enqueue: reserves a transfer slot at the local ME while
  /// the enclave KEEPS RUNNING; the poll that observes the slot going
  /// live runs the freeze+collect+arm step.  See
  /// MigrationLibrary::migration_reserve_detailed.
  MigrationStartResult ecall_migration_reserve_detailed(
      const std::string& destination_address, MigrationPolicy policy = {}) {
    auto scope = enter_ecall();
    return library_.migration_reserve_detailed(destination_address,
                                               std::move(policy));
  }

  /// Fate of the queued attempt: kOk = accepted; kMigrationInProgress
  /// with failure_class kNone = still in flight; anything else =
  /// classified terminal failure (staged data kept for a retry).
  MigrationStartResult ecall_migration_poll_transfer() {
    auto scope = enter_ecall();
    return library_.migration_poll_transfer();
  }

  bool transfer_enqueued() const { return library_.transfer_enqueued(); }

  // ----- live pre-copy migration -----

  /// One iterative pre-copy round: ships the Table II chunks dirtied
  /// since the last round while counter operations keep running.
  Result<PrecopyRoundReport> ecall_migration_precopy_round(
      const std::string& destination_address, MigrationPolicy policy = {}) {
    auto scope = enter_ecall();
    return library_.migration_precopy_round(destination_address,
                                            std::move(policy));
  }

  /// Freezes and ships only the final dirty delta (plus the MSK); the
  /// destination ME assembles the authoritative snapshot from its staged
  /// rounds.  See MigrationLibrary::migration_finalize_detailed.
  MigrationStartResult ecall_migration_finalize_detailed(
      const std::string& destination_address, MigrationPolicy policy = {}) {
    auto scope = enter_ecall();
    return library_.migration_finalize_detailed(destination_address,
                                                std::move(policy));
  }

  Status ecall_migration_finalize(const std::string& destination_address,
                                  MigrationPolicy policy = {}) {
    auto scope = enter_ecall();
    return library_.migration_finalize(destination_address,
                                       std::move(policy));
  }

  Result<OutgoingState> ecall_query_migration_status() {
    auto scope = enter_ecall();
    return library_.query_migration_status();
  }

  /// Fate of the currently staged migration attempt (nonce-scoped): lets
  /// retry drivers detect that a "failed" start actually landed in the
  /// ME's durable transfer queue and resume instead of re-sending.
  Result<OutgoingState> ecall_query_staged_attempt_status() {
    auto scope = enter_ecall();
    return library_.query_staged_attempt_status();
  }

  // ----- Listing 2 (in-enclave API, exposed for tests/benches) -----
  Result<Bytes> ecall_seal_migratable_data(ByteView additional_mac_text,
                                           ByteView text_to_encrypt) {
    auto scope = enter_ecall();
    return library_.seal_migratable_data(additional_mac_text, text_to_encrypt);
  }

  Result<sgx::UnsealedData> ecall_unseal_migratable_data(ByteView blob) {
    auto scope = enter_ecall();
    return library_.unseal_migratable_data(blob);
  }

  Result<CreatedMigratableCounter> ecall_create_migratable_counter() {
    auto scope = enter_ecall();
    return library_.create_migratable_counter();
  }

  Status ecall_destroy_migratable_counter(uint32_t counter_id) {
    auto scope = enter_ecall();
    return library_.destroy_migratable_counter(counter_id);
  }

  Result<uint32_t> ecall_increment_migratable_counter(uint32_t counter_id) {
    auto scope = enter_ecall();
    return library_.increment_migratable_counter(counter_id);
  }

  Result<uint32_t> ecall_read_migratable_counter(uint32_t counter_id) {
    auto scope = enter_ecall();
    return library_.read_migratable_counter(counter_id);
  }

  // ----- untrusted-side plumbing -----
  void set_persist_callback(MigrationLibrary::PersistCallback callback) {
    library_.set_persist_callback(std::move(callback));
  }
  const SharedBytes& sealed_state() const { return library_.sealed_state(); }
  bool migration_frozen() const { return library_.frozen(); }
  uint64_t warm_nonce() const { return library_.warm_nonce(); }
  size_t active_counters() const { return library_.active_counters(); }
  size_t library_memory_bytes() const { return library_.memory_bytes(); }
  bool live_transfer_capable() const {
    return library_.live_transfer_capable();
  }
  /// Freeze-window / payload metrics of the last successful outgoing
  /// migration (full-snapshot or pre-copy) — the bench observable.
  Duration last_freeze_window() const {
    return library_.last_freeze_window();
  }
  uint64_t last_transfer_bytes() const {
    return library_.last_transfer_bytes();
  }
  uint32_t last_precopy_rounds() const {
    return library_.last_precopy_rounds();
  }
  Duration last_enqueue_wait() const { return library_.last_enqueue_wait(); }
  /// Chaos drill only: see MigrationLibrary::chaos_disable_epoch_guard.
  void chaos_disable_epoch_guard() { library_.chaos_disable_epoch_guard(); }

 protected:
  /// Subclasses (application enclaves) use the library from inside their
  /// own ECALLs.
  MigrationLibrary& library() { return library_; }

 private:
  MigrationLibrary library_;
};

}  // namespace sgxmig::migration
