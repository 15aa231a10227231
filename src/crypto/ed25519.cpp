#include "crypto/ed25519.h"

#include <cstring>

#include "crypto/ge25519.h"
#include "crypto/sc25519.h"
#include "crypto/sha512.h"

namespace sgxmig::crypto {

namespace {

void clamp(uint8_t scalar[32]) {
  scalar[0] &= 248;
  scalar[31] &= 127;
  scalar[31] |= 64;
}

}  // namespace

Ed25519KeyPair Ed25519KeyPair::from_seed(const Ed25519Seed& seed) {
  Ed25519KeyPair kp;
  kp.seed_ = seed;
  const Sha512Digest h = Sha512::hash(ByteView(seed.data(), seed.size()));
  std::memcpy(kp.scalar_.data(), h.data(), 32);
  std::memcpy(kp.prefix_.data(), h.data() + 32, 32);
  clamp(kp.scalar_.data());
  ge_tobytes(kp.public_key_.data(), ge_scalarmult_base(kp.scalar_.data()));
  return kp;
}

Ed25519Signature Ed25519KeyPair::sign(ByteView message) const {
  // r = SHA512(prefix || M) mod L.
  Sha512 hr;
  hr.update(ByteView(prefix_.data(), prefix_.size()));
  hr.update(message);
  const Sha512Digest r_hash = hr.finish();
  const Sc r = sc_from_bytes(ByteView(r_hash.data(), r_hash.size()));

  uint8_t r_bytes[32];
  sc_tobytes(r_bytes, r);
  Ed25519Signature sig{};
  ge_tobytes(sig.data(), ge_scalarmult_base(r_bytes));

  // k = SHA512(enc(R) || pub || M) mod L.
  Sha512 hk;
  hk.update(ByteView(sig.data(), 32));
  hk.update(ByteView(public_key_.data(), public_key_.size()));
  hk.update(message);
  const Sha512Digest k_hash = hk.finish();
  const Sc k = sc_from_bytes(ByteView(k_hash.data(), k_hash.size()));

  // S = r + k * s mod L.
  const Sc s = sc_from_bytes(ByteView(scalar_.data(), scalar_.size()));
  const Sc big_s = sc_muladd(k, s, r);
  sc_tobytes(sig.data() + 32, big_s);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& public_key, ByteView message,
                    const Ed25519Signature& signature) {
  if (!sc_is_canonical(signature.data() + 32)) return false;
  Ge a{};
  if (!ge_frombytes(a, public_key.data())) return false;
  // A small-order key makes [k]A vanish from the check below (for the
  // identity, R = enc(B) and S = 1 would verify any message).
  if (ge_is_small_order(a)) return false;

  Sha512 hk;
  hk.update(ByteView(signature.data(), 32));
  hk.update(ByteView(public_key.data(), public_key.size()));
  hk.update(message);
  const Sha512Digest k_hash = hk.finish();
  const Sc k = sc_from_bytes(ByteView(k_hash.data(), k_hash.size()));
  uint8_t k_bytes[32];
  sc_tobytes(k_bytes, k);

  // Check enc([S]B - [k]A) == R.
  const Ge r_check =
      ge_double_scalarmult(k_bytes, ge_neg(a), signature.data() + 32);
  uint8_t r_bytes[32];
  ge_tobytes(r_bytes, r_check);
  return constant_time_eq(ByteView(r_bytes, 32), ByteView(signature.data(), 32));
}

}  // namespace sgxmig::crypto
