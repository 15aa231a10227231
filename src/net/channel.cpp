#include "net/channel.h"

#include "support/serde.h"

namespace sgxmig::net {

namespace {
std::array<uint8_t, 12> make_iv(uint32_t dir, uint64_t seq) {
  std::array<uint8_t, 12> iv{};
  store_be32(iv.data(), dir);
  store_be64(iv.data() + 4, seq);
  return iv;
}

Bytes make_aad(uint32_t dir, uint64_t seq) {
  BinaryWriter w;
  w.u32(dir);
  w.u64(seq);
  return w.take();
}

/// One sealed record on the wire: the GCM tag, then the ciphertext.
struct SealedRecord {
  std::array<uint8_t, 16> tag{};
  Bytes ciphertext;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.tag);
    io.bytes(m.ciphertext, BinaryReader::kDefaultMaxLen);
  }
};
}  // namespace

SecureChannel::SecureChannel(const sgx::Key128& key, Role role) : key_(key) {
  if (role == Role::kInitiator) {
    send_dir_ = kDirInitiatorToResponder;
    recv_dir_ = kDirResponderToInitiator;
  } else {
    send_dir_ = kDirResponderToInitiator;
    recv_dir_ = kDirInitiatorToResponder;
  }
}

Bytes SecureChannel::seal_record(ByteView plaintext) {
  const auto iv = make_iv(send_dir_, send_seq_);
  auto ct = crypto::gcm_encrypt(ByteView(key_.data(), key_.size()),
                                ByteView(iv.data(), iv.size()),
                                make_aad(send_dir_, send_seq_), plaintext);
  ++send_seq_;
  return encode_record(SealedRecord{ct.tag, std::move(ct.ciphertext)});
}

Result<Bytes> SecureChannel::open_record(ByteView record) {
  auto sealed = decode_record<SealedRecord>(record);
  if (!sealed.ok()) return Status::kChannelError;

  const auto iv = make_iv(recv_dir_, recv_seq_);
  auto plaintext = crypto::gcm_decrypt(
      ByteView(key_.data(), key_.size()), ByteView(iv.data(), iv.size()),
      make_aad(recv_dir_, recv_seq_), sealed.value().ciphertext,
      ByteView(sealed.value().tag.data(), 16));
  if (!plaintext.ok()) {
    // A record that does not authenticate under the expected sequence
    // number is either tampered or an out-of-order/replayed record.
    return Status::kReplayDetected;
  }
  ++recv_seq_;
  return plaintext;
}

}  // namespace sgxmig::net
