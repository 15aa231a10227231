// Authenticated-encryption record channel over an attestation-derived key.
//
// Every enclave-to-enclave conversation (Migration Library <-> Migration
// Enclave after local attestation; Migration Enclave <-> Migration Enclave
// after remote attestation) runs over one of these.  Records are AES-GCM
// with direction-tagged deterministic IVs and strictly increasing sequence
// numbers, so reflection, reordering, and replay of records within a
// session are all detected.
#pragma once

#include "crypto/gcm.h"
#include "sgx/types.h"
#include "support/bytes.h"
#include "support/status.h"

namespace sgxmig::net {

/// Direction tags keep the two halves of the duplex channel from ever
/// reusing an IV under the shared key.
inline constexpr uint32_t kDirInitiatorToResponder = 0x49325200;  // "I2R"
inline constexpr uint32_t kDirResponderToInitiator = 0x52324900;  // "R2I"

class SecureChannel {
 public:
  enum class Role { kInitiator, kResponder };

  SecureChannel(const sgx::Key128& key, Role role);
  /// An unkeyed channel: the target a durable snapshot decodes into.
  SecureChannel() = default;

  /// Encrypts and frames one record.
  Bytes seal_record(ByteView plaintext);

  /// Opens the next record; enforces the expected sequence number.
  Result<Bytes> open_record(ByteView record);

  uint64_t records_sent() const { return send_seq_; }
  uint64_t records_received() const { return recv_seq_; }

  // ----- durable snapshot (Migration Enclave transfer queue) -----
  //
  // A Migration Enclave must be able to resume a channel after a restart
  // (e.g. open the destination's DONE record over the RA-derived channel
  // that transferred the data).  The snapshot carries the RAW session key
  // and both sequence counters; callers may only ever persist it inside a
  // sealed blob — it must never touch untrusted storage in plaintext.  The
  // direction tags encode the role; storing both keeps the decoder free of
  // role inference, and only the two valid pairs decode.
  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.key_);
    io.u32(m.send_dir_);
    io.u32(m.recv_dir_);
    io.u64(m.send_seq_);
    io.u64(m.recv_seq_);
    io.require((m.send_dir_ == kDirInitiatorToResponder &&
                m.recv_dir_ == kDirResponderToInitiator) ||
               (m.send_dir_ == kDirResponderToInitiator &&
                m.recv_dir_ == kDirInitiatorToResponder));
  }

 private:
  sgx::Key128 key_{};
  uint32_t send_dir_ = 0;
  uint32_t recv_dir_ = 0;
  uint64_t send_seq_ = 0;
  uint64_t recv_seq_ = 0;
};

}  // namespace sgxmig::net
