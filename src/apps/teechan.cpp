#include "apps/teechan.h"

#include "apps/state_version.h"
#include "support/serde.h"

namespace sgxmig::apps {

namespace {
constexpr char kPaymentLabel[] = "TEECHAN-PAYMENT-v1";
constexpr char kSettlementLabel[] = "TEECHAN-SETTLE-v1";
constexpr char kStateLabel[] = "teechan-state";
}  // namespace

Bytes PaymentMessage::signed_message() const {
  BinaryWriter w;
  w.str(kPaymentLabel);
  w.u64(channel_id);
  w.u32(sequence);
  w.u64(balance_a);
  w.u64(balance_b);
  w.fixed(sender);
  return w.take();
}

Bytes SettlementMessage::signed_message() const {
  BinaryWriter w;
  w.str(kSettlementLabel);
  w.u64(channel_id);
  w.u32(sequence);
  w.u64(balance_a);
  w.u64(balance_b);
  w.fixed(signer);
  return w.take();
}

bool SettlementMessage::verify() const {
  return crypto::ed25519_verify(signer, signed_message(), signature);
}

uint64_t& TeechanEnclave::my_balance_ref() {
  return channel_->is_party_a ? channel_->balance_a : channel_->balance_b;
}

uint64_t& TeechanEnclave::peer_balance_ref() {
  return channel_->is_party_a ? channel_->balance_b : channel_->balance_a;
}

Status TeechanEnclave::ecall_open_channel(uint64_t channel_id, bool is_party_a,
                                          uint64_t deposit_a,
                                          uint64_t deposit_b) {
  auto scope = enter_ecall();
  if (channel_.has_value()) return Status::kAlreadyExists;
  TeechanChannelState state;
  state.channel_id = channel_id;
  state.is_party_a = is_party_a;
  state.balance_a = deposit_a;
  state.balance_b = deposit_b;
  rng().generate(state.signing_seed.data(), state.signing_seed.size());
  // The non-replayable version number comes from a migratable counter.
  auto counter = library().create_migratable_counter();
  if (!counter.ok()) return counter.status();
  state.version_counter = counter.value().counter_id;
  channel_ = state;
  signing_key_ = crypto::Ed25519KeyPair::from_seed(state.signing_seed);
  return Status::kOk;
}

Result<crypto::Ed25519PublicKey> TeechanEnclave::ecall_channel_public_key() {
  auto scope = enter_ecall();
  if (!signing_key_.has_value()) return Status::kNotInitialized;
  return signing_key_->public_key();
}

Status TeechanEnclave::ecall_set_peer_key(
    const crypto::Ed25519PublicKey& peer) {
  auto scope = enter_ecall();
  if (!channel_.has_value()) return Status::kNotInitialized;
  channel_->peer_key = peer;
  channel_->peer_key_set = true;
  return Status::kOk;
}

Result<PaymentMessage> TeechanEnclave::ecall_pay(uint64_t amount) {
  auto scope = enter_ecall();
  if (!channel_.has_value() || !signing_key_.has_value()) {
    return Status::kNotInitialized;
  }
  if (library().frozen()) return Status::kMigrationFrozen;
  if (my_balance_ref() < amount) return Status::kInvalidParameter;
  my_balance_ref() -= amount;
  peer_balance_ref() += amount;
  ++channel_->sequence;

  PaymentMessage m;
  m.channel_id = channel_->channel_id;
  m.sequence = channel_->sequence;
  m.balance_a = channel_->balance_a;
  m.balance_b = channel_->balance_b;
  m.sender = signing_key_->public_key();
  m.signature = signing_key_->sign(m.signed_message());
  return m;
}

Status TeechanEnclave::ecall_receive_payment(const PaymentMessage& message) {
  auto scope = enter_ecall();
  if (!channel_.has_value()) return Status::kNotInitialized;
  if (library().frozen()) return Status::kMigrationFrozen;
  if (!channel_->peer_key_set) return Status::kNotInitialized;
  if (message.channel_id != channel_->channel_id) {
    return Status::kInvalidParameter;
  }
  if (!(message.sender == channel_->peer_key)) return Status::kSignatureInvalid;
  if (!crypto::ed25519_verify(message.sender, message.signed_message(),
                              message.signature)) {
    return Status::kSignatureInvalid;
  }
  // Sequence must advance (no replays of old payments).
  if (message.sequence <= channel_->sequence) return Status::kReplayDetected;
  // Conservation: total funds in the channel never change, and the peer
  // can only move funds toward us.
  const uint64_t total = channel_->balance_a + channel_->balance_b;
  if (message.balance_a + message.balance_b != total) {
    return Status::kInvalidParameter;
  }
  const uint64_t my_before =
      channel_->is_party_a ? channel_->balance_a : channel_->balance_b;
  const uint64_t my_after =
      channel_->is_party_a ? message.balance_a : message.balance_b;
  if (my_after < my_before) return Status::kInvalidParameter;

  channel_->balance_a = message.balance_a;
  channel_->balance_b = message.balance_b;
  channel_->sequence = message.sequence;
  return Status::kOk;
}

Result<uint64_t> TeechanEnclave::ecall_my_balance() {
  auto scope = enter_ecall();
  if (!channel_.has_value()) return Status::kNotInitialized;
  return my_balance_ref();
}

Result<uint32_t> TeechanEnclave::ecall_sequence() {
  auto scope = enter_ecall();
  if (!channel_.has_value()) return Status::kNotInitialized;
  return channel_->sequence;
}

Result<Bytes> TeechanEnclave::ecall_persist_channel() {
  auto scope = enter_ecall();
  if (!channel_.has_value()) return Status::kNotInitialized;
  return seal_versioned(library(), kStateLabel, *channel_);
}

Status TeechanEnclave::ecall_restore_channel(ByteView blob) {
  auto scope = enter_ecall();
  if (channel_.has_value()) return Status::kInvalidState;
  auto state =
      unseal_versioned<TeechanChannelState>(library(), kStateLabel, blob);
  if (!state.ok()) return state.status();
  channel_ = std::move(state).value();
  signing_key_ = crypto::Ed25519KeyPair::from_seed(channel_->signing_seed);
  return Status::kOk;
}

Result<SettlementMessage> TeechanEnclave::ecall_settle() {
  auto scope = enter_ecall();
  if (!channel_.has_value() || !signing_key_.has_value()) {
    return Status::kNotInitialized;
  }
  SettlementMessage m;
  m.channel_id = channel_->channel_id;
  m.sequence = channel_->sequence;
  m.balance_a = channel_->balance_a;
  m.balance_b = channel_->balance_b;
  m.signer = signing_key_->public_key();
  m.signature = signing_key_->sign(m.signed_message());
  return m;
}

}  // namespace sgxmig::apps
