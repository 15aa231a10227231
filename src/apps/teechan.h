// Teechan-style payment channel enclave (Lind et al. [3]), rebuilt on the
// Migration Library.
//
// Two enclaves hold a full-duplex off-chain channel; each payment is a
// single signed message updating the balances.  The enclave persists its
// channel state "encrypted under a key and stored with a non-replayable
// version number from the hardware monotonic counter" — the exact pattern
// §III shows is breakable under naive migration, and the pattern our
// migratable primitives make safely migratable.
#pragma once

#include <optional>

#include "crypto/ed25519.h"
#include "migration/migratable_enclave.h"

namespace sgxmig::apps {

struct PaymentMessage {
  uint64_t channel_id = 0;
  uint32_t sequence = 0;    // strictly increasing per channel
  uint64_t balance_a = 0;   // post-payment balances
  uint64_t balance_b = 0;
  crypto::Ed25519PublicKey sender{};
  crypto::Ed25519Signature signature{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.channel_id);
    io.u32(m.sequence);
    io.u64(m.balance_a);
    io.u64(m.balance_b);
    io.fixed(m.sender);
    io.fixed(m.signature);
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<PaymentMessage> deserialize(ByteView b) {
    return decode_record<PaymentMessage>(b);
  }
  Bytes signed_message() const;
};

/// Signed channel-closing statement for on-chain settlement.
struct SettlementMessage {
  uint64_t channel_id = 0;
  uint32_t sequence = 0;
  uint64_t balance_a = 0;
  uint64_t balance_b = 0;
  crypto::Ed25519PublicKey signer{};
  crypto::Ed25519Signature signature{};

  Bytes signed_message() const;
  bool verify() const;
};

/// One side of a payment channel, as sealed by ecall_persist_channel:
/// the channel and the id of the migratable counter that versions it.
struct TeechanChannelState {
  uint64_t channel_id = 0;
  bool is_party_a = true;
  uint64_t balance_a = 0;
  uint64_t balance_b = 0;
  uint32_t sequence = 0;
  crypto::Ed25519Seed signing_seed{};
  crypto::Ed25519PublicKey peer_key{};
  bool peer_key_set = false;
  uint32_t version_counter = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.channel_id);
    io.u8(m.is_party_a);
    io.u64(m.balance_a);
    io.u64(m.balance_b);
    io.u32(m.sequence);
    io.fixed(m.signing_seed);
    io.fixed(m.peer_key);
    io.u8(m.peer_key_set);
    io.u32(m.version_counter);
  }
};

class TeechanEnclave : public migration::MigratableEnclave {
 public:
  /// `persistence` selects the Migration Library's PersistenceEngine
  /// (sync / group-commit / write-behind); the default keeps the paper's
  /// synchronous-persist semantics.
  TeechanEnclave(sgx::PlatformIface& platform,
                 std::shared_ptr<const sgx::EnclaveImage> image,
                 migration::PersistenceMode persistence =
                     migration::PersistenceMode::kSync);

  /// Opens the channel side: `is_party_a` fixes which balance is "mine".
  /// Creates the version counter via the Migration Library, so
  /// ecall_migration_init must have run first.
  Status ecall_open_channel(uint64_t channel_id, bool is_party_a,
                            uint64_t deposit_a, uint64_t deposit_b);

  Result<crypto::Ed25519PublicKey> ecall_channel_public_key();
  Status ecall_set_peer_key(const crypto::Ed25519PublicKey& peer);

  /// Sends `amount` to the peer; returns the signed payment message.
  Result<PaymentMessage> ecall_pay(uint64_t amount);

  /// Applies a payment message received from the peer.
  Status ecall_receive_payment(const PaymentMessage& message);

  Result<uint64_t> ecall_my_balance();
  Result<uint32_t> ecall_sequence();

  /// Persists the channel state with a fresh counter version (the Teechan
  /// pattern).  Returns the blob for untrusted storage.
  Result<Bytes> ecall_persist_channel();
  /// Restores; rejects stale blobs with kReplayDetected.
  Status ecall_restore_channel(ByteView blob);

  /// Produces the signed closing statement.
  Result<SettlementMessage> ecall_settle();

 private:
  uint64_t& my_balance_ref();
  uint64_t& peer_balance_ref();

  std::optional<TeechanChannelState> channel_;
  std::optional<crypto::Ed25519KeyPair> signing_key_;
};

}  // namespace sgxmig::apps
