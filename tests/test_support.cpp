// Unit tests for the support module: bytes/hex, serialization, virtual
// clock, deterministic RNG, and the statistics used by the bench harness.
#include <gtest/gtest.h>

#include <cmath>

#include "support/bytes.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/serde.h"
#include "support/sim_clock.h"
#include "support/stats.h"
#include "support/status.h"

namespace sgxmig {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xcd, 0xef, 0xff};
  const std::string hex = hex_encode(data);
  EXPECT_EQ(hex, "0001abcdefff");
  bool ok = false;
  EXPECT_EQ(hex_decode(hex, &ok), data);
  EXPECT_TRUE(ok);
}

TEST(Bytes, HexDecodeRejectsOddLength) {
  bool ok = true;
  hex_decode("abc", &ok);
  EXPECT_FALSE(ok);
}

TEST(Bytes, HexDecodeRejectsNonHex) {
  bool ok = true;
  hex_decode("zz", &ok);
  EXPECT_FALSE(ok);
}

TEST(Bytes, HexDecodeAcceptsUppercase) {
  bool ok = false;
  EXPECT_EQ(hex_decode("ABCD", &ok), (Bytes{0xab, 0xcd}));
  EXPECT_TRUE(ok);
}

TEST(Bytes, ConstantTimeEq) {
  const Bytes a = to_bytes(std::string_view("hello"));
  const Bytes b = to_bytes(std::string_view("hello"));
  const Bytes c = to_bytes(std::string_view("hellp"));
  EXPECT_TRUE(constant_time_eq(a, b));
  EXPECT_FALSE(constant_time_eq(a, c));
  EXPECT_FALSE(constant_time_eq(a, ByteView(a.data(), 4)));
}

TEST(Bytes, SecureWipeZeroes) {
  Bytes secret = to_bytes(std::string_view("supersecret"));
  secure_wipe(secret);
  for (uint8_t b : secret) EXPECT_EQ(b, 0);
}

TEST(Bytes, EndianLoadStore) {
  uint8_t buf[8];
  store_be64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(load_be64(buf), 0x0102030405060708ULL);
  store_le64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(load_le64(buf), 0x0102030405060708ULL);
  store_be32(buf, 0xdeadbeef);
  EXPECT_EQ(load_be32(buf), 0xdeadbeefu);
  store_le32(buf, 0xdeadbeef);
  EXPECT_EQ(load_le32(buf), 0xdeadbeefu);
}

TEST(Status, Names) {
  EXPECT_EQ(status_name(Status::kOk), "kOk");
  EXPECT_EQ(status_name(Status::kMacMismatch), "kMacMismatch");
  EXPECT_EQ(status_name(Status::kMigrationFrozen), "kMigrationFrozen");
}

TEST(Result, ValueAndError) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad(Status::kTampered);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status(), Status::kTampered);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Serde, WriteReadRoundTrip) {
  BinaryWriter w;
  w.u8(7);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.boolean(true);
  w.bytes(to_bytes(std::string_view("payload")));
  w.str("name");
  BinaryReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(to_string(r.bytes()), "payload");
  EXPECT_EQ(r.str(), "name");
  EXPECT_TRUE(r.done());
}

TEST(Serde, ReaderStickyFailureOnTruncation) {
  BinaryWriter w;
  w.u32(123);
  BinaryReader r(w.data());
  EXPECT_EQ(r.u32(), 123u);
  EXPECT_EQ(r.u32(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);   // stays failed
  EXPECT_FALSE(r.done());
}

TEST(Serde, ReaderRejectsOversizedLengthPrefix) {
  BinaryWriter w;
  w.u32(0xffffffffu);  // length prefix far larger than the buffer
  BinaryReader r(w.data());
  const Bytes b = r.bytes();
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serde, ReaderEnforcesCallerMaxLen) {
  BinaryWriter w;
  w.bytes(Bytes(100, 0xaa));
  BinaryReader r(w.data());
  r.bytes(/*max_len=*/50);
  EXPECT_FALSE(r.ok());
}

TEST(Serde, BooleanRefusesAnyByteButZeroAndOne) {
  for (const uint8_t byte : {0, 1, 2, 0x80, 0xff}) {
    const Bytes wire = {byte};
    BinaryReader r(wire);
    EXPECT_EQ(r.boolean(), byte == 1) << int{byte};
    EXPECT_EQ(r.ok(), byte <= 1) << int{byte};
  }
}

TEST(Serde, FixedArrays) {
  BinaryWriter w;
  std::array<uint8_t, 4> a = {1, 2, 3, 4};
  w.fixed(a);
  BinaryReader r(w.data());
  EXPECT_EQ(r.fixed<4>(), a);
  EXPECT_TRUE(r.done());
}

TEST(JsonWriter, WritesTheOneLayout) {
  JsonWriter w;
  w.begin_object();
  w.key("empty_object").begin_object().end_object();
  w.key("empty_array").begin_array().end_array();
  w.key("list").begin_array();
  w.integer(-3).integer(uint64_t{18446744073709551615ull}).boolean(false);
  w.begin_object().key("k").raw("[1]").end_object();
  w.end_array();
  w.key("tab\t").string("q\"").key("x").number(2.0 / 3.0, 3);
  w.end_object();
  EXPECT_EQ(w.str(),
            R"json({"empty_object": {}, "empty_array": [], )json"
            R"json("list": [-3, 18446744073709551615, false, {"k": [1]}], )json"
            R"json("tab\t": "q\"", "x": 0.667})json");
}

TEST(SimClock, AdvanceAccumulates) {
  VirtualClock clock;
  EXPECT_EQ(clock.now().count(), 0);
  clock.advance(milliseconds(5));
  clock.advance(microseconds(10));
  EXPECT_EQ(clock.now(), nanoseconds(5010000));
  EXPECT_DOUBLE_EQ(to_seconds(clock.now()), 0.00501);
}

TEST(SimClock, StopwatchMeasuresDelta) {
  VirtualClock clock;
  clock.advance(seconds(1.0));
  VirtualStopwatch sw(clock);
  clock.advance(milliseconds(250));
  EXPECT_NEAR(to_seconds(sw.elapsed()), 0.25, 1e-9);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(42);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Rng, JitterStaysPositive) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.jitter(0.5), 0.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(samples);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_GT(s.ci99_half, 0.0);
}

TEST(Stats, StudentTQuantileMatchesTables) {
  // Classic table values.
  EXPECT_NEAR(student_t_quantile(0.975, 10), 2.228, 2e-3);
  EXPECT_NEAR(student_t_quantile(0.995, 30), 2.750, 2e-3);
  // Large df converges to the normal quantile 2.576.
  EXPECT_NEAR(student_t_quantile(0.995, 999), 2.581, 2e-3);
}

TEST(Stats, StudentTCdfSymmetry) {
  EXPECT_NEAR(student_t_cdf(0.0, 7), 0.5, 1e-12);
  EXPECT_NEAR(student_t_cdf(1.5, 7) + student_t_cdf(-1.5, 7), 1.0, 1e-12);
}

TEST(Stats, IncompleteBetaEdges) {
  EXPECT_DOUBLE_EQ(regularized_incomplete_beta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_incomplete_beta(2, 3, 1.0), 1.0);
  // I_{0.5}(a, a) = 0.5 by symmetry.
  EXPECT_NEAR(regularized_incomplete_beta(4, 4, 0.5), 0.5, 1e-10);
}

TEST(Stats, WelchDetectsShiftedMeans) {
  Rng rng(11);
  std::vector<double> slow, fast;
  for (int i = 0; i < 500; ++i) {
    slow.push_back(1.10 + 0.05 * rng.gaussian());
    fast.push_back(1.00 + 0.05 * rng.gaussian());
  }
  // H1: slow > fast should be overwhelmingly supported.
  EXPECT_LT(welch_one_tailed_p(slow, fast), 1e-6);
  // And the reverse direction should be ~1.
  EXPECT_GT(welch_one_tailed_p(fast, slow), 0.999);
}

TEST(Stats, WelchNoDifference) {
  Rng rng(13);
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(1.0 + 0.05 * rng.gaussian());
    b.push_back(1.0 + 0.05 * rng.gaussian());
  }
  const double p = welch_one_tailed_p(a, b);
  EXPECT_GT(p, 0.01);
  EXPECT_LT(p, 0.99);
}

TEST(Stats, NearestRankPercentileSmallSamples) {
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({7.0}, 100.0), 7.0);
  // Nearest rank never interpolates: the p50 of two samples is the LOWER
  // one (rank ceil(0.5 * 2) = 1), and any p > 50 selects the upper.
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({3.0, 9.0}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({9.0, 3.0}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({3.0, 9.0}, 50.1), 9.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({3.0, 9.0}, 99.0), 9.0);
  // p clamps to [0, 100]; p = 0 is the minimum, p = 100 the maximum.
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({5.0, 1.0, 3.0}, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({5.0, 1.0, 3.0}, 400.0), 5.0);
}

TEST(Stats, NearestRankPercentileRanks) {
  const std::vector<double> samples = {10.0, 20.0, 30.0, 40.0, 50.0,
                                       60.0, 70.0, 80.0, 90.0, 100.0};
  // rank = ceil(p/100 * 10): exact decile boundaries land on the sample
  // covering at least p% of the set, one past the boundary steps up.
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(samples, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(samples, 10.5), 20.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(samples, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(samples, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(samples, 91.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(samples, 99.0), 100.0);
  // Monotone in p.
  double prev = 0.0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const double v = percentile_nearest_rank(samples, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace sgxmig
