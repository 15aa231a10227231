// Mutual remote attestation between enclaves on different machines.
//
// Each side proves its identity with a quote (REPORT -> Quoting Enclave ->
// EPID signature) whose report_data binds the X25519 key agreement; each
// side submits the peer's quote to the IAS and checks the signed verdict.
// A completed session yields a shared key plus the peer's verified
// identity and leaves the transcript hash available so higher layers (the
// Migration Enclaves) can bind additional authentication to the session —
// the paper's cloud-provider signature exchange (§V-B).
#pragma once

#include "crypto/x25519.h"
#include "sgx/ias.h"
#include "sgx/platform_iface.h"
#include "sgx/quote.h"
#include "sgx/types.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::sgx {

struct RaMsg1 {
  crypto::X25519Key initiator_public{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.initiator_public);
  }
};

struct RaMsg2 {
  crypto::X25519Key responder_public{};
  Bytes responder_quote;  // serialized Quote

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.responder_public);
    io.bytes(m.responder_quote, 4096);
  }
};

struct RaMsg3 {
  Bytes initiator_quote;  // serialized Quote

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.bytes(m.initiator_quote, 4096);
  }
};

class RaSession {
 public:
  enum class Role { kInitiator, kResponder };

  RaSession(PlatformIface& platform, const EnclaveIdentity& self, Role role);

  // --- initiator ---
  RaMsg1 create_msg1();
  Result<RaMsg3> handle_msg2(const RaMsg2& msg2);

  // --- responder ---
  Result<RaMsg2> handle_msg1(const RaMsg1& msg1);
  Status handle_msg3(const RaMsg3& msg3);

  bool established() const { return established_; }
  const Key128& session_key() const { return session_key_; }
  const EnclaveIdentity& peer_identity() const { return peer_identity_; }

  /// SHA-256 over both DH public keys — the attestation transcript both
  /// sides agree on, used for provider-authentication signatures.
  std::array<uint8_t, 32> transcript_hash() const;

 private:
  ReportData binding(const char* label) const;
  Result<Bytes> make_quote(const char* label);
  Status verify_peer_quote(ByteView quote_bytes, const char* label);
  void derive_key();

  PlatformIface& platform_;
  EnclaveIdentity self_;
  Role role_;
  crypto::X25519Key private_key_{};
  crypto::X25519Key public_key_{};
  crypto::X25519Key initiator_public_{};
  crypto::X25519Key responder_public_{};
  Key128 session_key_{};
  EnclaveIdentity peer_identity_;
  bool established_ = false;
};

}  // namespace sgxmig::sgx
