// Supporting microbenchmarks: REAL-time throughput of
// the from-scratch crypto primitives, measured with google-benchmark.
// These numbers ground the cost-model constants (e.g. aes_gcm_ns_per_byte)
// and document what the simulation's crypto actually costs on the host.
#include <benchmark/benchmark.h>

#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/gcm.h"
#include "crypto/gcm_kernels.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/x25519.h"
#include "migration/library_state.h"
#include "sgx/sealing.h"

namespace sgxmig::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
  const Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HmacSha256);

void BM_AesBlock(benchmark::State& state) {
  const Bytes key(16, 0x22);
  const Aes aes(key);
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesBlock);

// GCM rows run each kernel (crypto/gcm_kernels.h) at the two sealed
// sizes that dominate the simulator, a Table II buffer (5,436 B) and a
// 64 KB ME queue blob, and the older two at a small record too (under
// 256 B the VAES kernel runs the AES-NI code).  The "gcm_kernel" context
// line names the kernel gcm_encrypt/gcm_decrypt selected on this CPU.
using gcm_kernels::Kernel;

bool skip_missing(benchmark::State& state, Kernel kernel) {
  if (kernel == Kernel::kAesNi && !gcm_kernels::cpu_has_aesni()) {
    state.SkipWithError("CPU lacks AES-NI/PCLMULQDQ/SSSE3");
    return true;
  }
  if (kernel == Kernel::kVaes && !gcm_kernels::cpu_has_vaes()) {
    state.SkipWithError("CPU lacks AVX2/VAES/VPCLMULQDQ");
    return true;
  }
  return false;
}

void BM_GcmSeal(benchmark::State& state, Kernel kernel) {
  if (skip_missing(state, kernel)) return;
  const Bytes key(16, 0x33);
  const Bytes iv(12, 0x44);
  const Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gcm_kernels::encrypt(kernel, key, iv, ByteView(), data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_GcmSeal, portable, Kernel::kPortable)
    ->Arg(100)->Arg(5436)->Arg(65536);
BENCHMARK_CAPTURE(BM_GcmSeal, aesni, Kernel::kAesNi)
    ->Arg(100)->Arg(5436)->Arg(65536);
BENCHMARK_CAPTURE(BM_GcmSeal, vaes, Kernel::kVaes)->Arg(5436)->Arg(65536);

void BM_GcmOpen(benchmark::State& state, Kernel kernel) {
  if (skip_missing(state, kernel)) return;
  const Bytes key(16, 0x33);
  const Bytes iv(12, 0x44);
  const Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  const GcmCiphertext ct =
      gcm_kernels::encrypt(kernel, key, iv, ByteView(), data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm_kernels::decrypt(
        kernel, key, iv, ByteView(), ct.ciphertext,
        ByteView(ct.tag.data(), 16)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_GcmOpen, portable, Kernel::kPortable)
    ->Arg(5436)->Arg(65536);
BENCHMARK_CAPTURE(BM_GcmOpen, aesni, Kernel::kAesNi)->Arg(5436)->Arg(65536);
BENCHMARK_CAPTURE(BM_GcmOpen, vaes, Kernel::kVaes)->Arg(5436)->Arg(65536);

void BM_AesCmac(benchmark::State& state) {
  const Bytes key(16, 0x55);
  const Bytes data(512, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes_cmac(key, data));
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_AesCmac);

// The per-commit rows: every Table II commit draws a 12-byte IV from the
// enclave's DRBG and seals under a fresh AES-128 schedule, and every PSE
// op MACs the caller's 32-byte MRENCLAVE under the machine's session key,
// which a Cmac keys once.
void BM_AesKeySchedule(benchmark::State& state, Kernel kernel) {
  if (skip_missing(state, kernel)) return;
  Bytes key(16, 0x66);
  for (auto _ : state) {
    const Aes aes(key, kernel);
    key[0] = aes.round_keys()[160];
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK_CAPTURE(BM_AesKeySchedule, portable, Kernel::kPortable);
BENCHMARK_CAPTURE(BM_AesKeySchedule, aesni, Kernel::kAesNi);

void BM_DrbgDraw(benchmark::State& state) {
  CtrDrbg drbg(Bytes(48, 0x77));
  uint8_t out[64];
  const auto len = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    drbg.generate(out, len);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DrbgDraw)->Arg(12);

void BM_CmacKeyedOnce(benchmark::State& state) {
  const Cmac cmac(Bytes(16, 0x88));
  const Bytes measurement(32, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmac.mac(measurement));
  }
}
BENCHMARK(BM_CmacKeyedOnce);

// Table II as the library seals it on every counter op (5,436 B).
migration::LibraryState sample_table() {
  migration::LibraryState table;
  for (size_t i = 0; i < 18; ++i) {
    table.counters_active[i] = true;
    table.counter_uuids[i].counter_id = static_cast<uint32_t>(i + 1);
    table.counter_offsets[i] = static_cast<uint32_t>(i);
  }
  return table;
}

void BM_LibraryStateEncode(benchmark::State& state) {
  const migration::LibraryState table = sample_table();
  size_t bytes = 0;
  for (auto _ : state) {
    const Bytes wire = encode_record(table);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_LibraryStateEncode);

// One whole Table II commit as MigrationLibrary::persist runs it: the IV
// draw, Table II encoded straight into the blob, the key schedule and GCM
// in place.
void BM_TableIICommit(benchmark::State& state) {
  const migration::LibraryState table = sample_table();
  const sgx::SimCpu cpu(to_array<32>(Bytes(32, 0x99)));
  sgx::EnclaveIdentity self;
  self.mr_enclave[0] = 0xaa;
  CtrDrbg drbg(Bytes(48, 0xbb));
  sgx::SealContext context(cpu, self, drbg, sgx::KeyPolicy::kMrEnclave);
  const ByteView aad = text_bytes("SGXMIG-ML-STATE");
  for (auto _ : state) {
    const auto sealed = context.seal_record(aad, table);
    benchmark::DoNotOptimize(sealed.value().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encode_record(table).size()));
}
BENCHMARK(BM_TableIICommit);

void BM_X25519(benchmark::State& state) {
  X25519Key scalar{};
  scalar[0] = 0x42;
  X25519Key point{};
  point[0] = 9;
  for (auto _ : state) {
    point = x25519(scalar, point);
    benchmark::DoNotOptimize(point);
  }
}
BENCHMARK(BM_X25519);

// Fixed-base rows: the scalar changes every iteration, so no result can be
// folded or reused.
void BM_X25519Base(benchmark::State& state) {
  X25519Key scalar{};
  scalar[0] = 0x42;
  for (auto _ : state) {
    scalar = x25519_base(scalar);
    benchmark::DoNotOptimize(scalar);
  }
}
BENCHMARK(BM_X25519Base);

void BM_Ed25519KeyGen(benchmark::State& state) {
  Ed25519Seed seed{};
  for (auto _ : state) {
    const auto kp = Ed25519KeyPair::from_seed(seed);
    seed = kp.public_key();
    benchmark::DoNotOptimize(seed);
  }
}
BENCHMARK(BM_Ed25519KeyGen);

void BM_Ed25519Sign(benchmark::State& state) {
  const auto kp = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 0x66)));
  const Bytes msg(256, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.sign(msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  const auto kp = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 0x66)));
  const Bytes msg(256, 0xab);
  const auto sig = kp.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify(kp.public_key(), msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

}  // namespace
}  // namespace sgxmig::crypto

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "gcm_kernel", sgxmig::crypto::gcm_kernels::kernel_name(
                        sgxmig::crypto::gcm_kernels::selected()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
