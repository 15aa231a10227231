// Tests for the simulated network, secure channels, proxies, and untrusted
// storage (including the adversary APIs the attack harness relies on).
#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/network.h"
#include "net/proxy.h"
#include "obs/observability.h"
#include "platform/provider.h"
#include "platform/storage.h"
#include "support/cost_model.h"
#include "support/rng.h"

namespace sgxmig {
namespace {

using net::Network;
using net::SecureChannel;

class NetTest : public ::testing::Test {
 protected:
  VirtualClock clock_;
  Rng rng_{7};
  CostModel costs_;
  Network network_{clock_, rng_, costs_};
};

TEST_F(NetTest, RpcRoundTrip) {
  network_.register_endpoint("svc", [](ByteView req) -> Result<Bytes> {
    Bytes out = to_bytes(req);
    out.push_back('!');
    return out;
  });
  auto resp = network_.rpc("svc", to_bytes(std::string_view("ping")));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(to_string(resp.value()), "ping!");
  EXPECT_EQ(network_.rpcs_sent(), 1u);
}

TEST_F(NetTest, UnknownEndpointUnreachable) {
  EXPECT_EQ(network_.rpc("nope", ByteView()).status(),
            Status::kNetworkUnreachable);
}

TEST_F(NetTest, DownedEndpointUnreachableAndRecovers) {
  network_.register_endpoint("svc", [](ByteView) -> Result<Bytes> {
    return Bytes{1};
  });
  network_.set_endpoint_down("svc", true);
  EXPECT_EQ(network_.rpc("svc", ByteView()).status(),
            Status::kNetworkUnreachable);
  network_.set_endpoint_down("svc", false);
  EXPECT_TRUE(network_.rpc("svc", ByteView()).ok());
}

TEST_F(NetTest, RpcChargesLatencyAndBandwidth) {
  network_.register_endpoint("svc", [](ByteView) -> Result<Bytes> {
    return Bytes(1000000, 0);  // 1 MB response
  });
  const Duration t0 = clock_.now();
  network_.rpc("svc", Bytes(1000000, 0));
  const Duration elapsed = clock_.now() - t0;
  // 2 MB at 10 Gbit/s = 1.6 ms plus 2x 120 us latency.
  EXPECT_GT(elapsed, microseconds(1500));
  EXPECT_LT(elapsed, microseconds(3000));
}

TEST_F(NetTest, TamperHookCanModifyRequests) {
  network_.register_endpoint("svc", [](ByteView req) -> Result<Bytes> {
    return to_bytes(req);
  });
  network_.set_tamper_hook([](const std::string&, Bytes& req) {
    if (!req.empty()) req[0] ^= 0xff;
    return true;
  });
  auto resp = network_.rpc("svc", Bytes{0x00});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value()[0], 0xff);
  network_.clear_tamper_hook();
}

TEST_F(NetTest, TamperHookCanDropRequests) {
  network_.register_endpoint("svc", [](ByteView) -> Result<Bytes> {
    return Bytes{};
  });
  network_.set_tamper_hook([](const std::string&, Bytes&) { return false; });
  EXPECT_EQ(network_.rpc("svc", ByteView()).status(),
            Status::kNetworkUnreachable);
}

TEST_F(NetTest, ScheduledFlapWindowBoundsRpc) {
  network_.register_endpoint("svc", [](ByteView) -> Result<Bytes> {
    return Bytes{1};
  });
  network_.schedule_endpoint_flap("svc", seconds(1.0), seconds(1.0));
  EXPECT_TRUE(network_.rpc("svc", ByteView()).ok());  // before the window
  clock_.advance(seconds(1.0));                       // inside [1s, 2s)
  EXPECT_EQ(network_.rpc("svc", ByteView()).status(),
            Status::kNetworkUnreachable);
  clock_.advance(seconds(1.0));                       // past the window
  EXPECT_TRUE(network_.rpc("svc", ByteView()).ok());
}

TEST_F(NetTest, EndpointDownAtComposesFlapsAndAdminDown) {
  network_.schedule_endpoint_flap("svc", seconds(1.0), seconds(1.0));
  EXPECT_FALSE(network_.endpoint_down_at("svc", seconds(0.5)));
  EXPECT_TRUE(network_.endpoint_down_at("svc", seconds(1.0)));  // closed start
  EXPECT_TRUE(network_.endpoint_down_at("svc", seconds(1.999)));
  EXPECT_FALSE(network_.endpoint_down_at("svc", seconds(2.0)));  // open end
  // Administrative down is unconditional, outside any window too.
  network_.set_endpoint_down("svc", true);
  EXPECT_TRUE(network_.endpoint_down_at("svc", seconds(5.0)));
  network_.set_endpoint_down("svc", false);
  network_.clear_endpoint_flaps("svc");
  EXPECT_FALSE(network_.endpoint_down_at("svc", seconds(1.5)));
}

TEST_F(NetTest, DeferredPostEvaluatesFlapAtDeliveryInstant) {
  int hits = 0;
  network_.register_endpoint("svc", [&hits](ByteView) -> Result<Bytes> {
    ++hits;
    return Bytes{};
  });
  // A post now delivers after ~120 us of one-way latency; a window opening
  // 5 ms out never touches it.
  network_.schedule_endpoint_flap("svc", milliseconds(5), seconds(1.0));
  Status before = Status::kInvalidParameter;
  network_.post("svc", ByteView(), "tester",
                [&before](Result<Bytes> reply) { before = reply.status(); });
  network_.pump_all();
  EXPECT_EQ(before, Status::kOk);
  EXPECT_EQ(hits, 1);
  network_.clear_endpoint_flaps("svc");

  // A message already on the wire when the flap begins is lost exactly
  // when its delivery instant lands inside the window.
  Status inside = Status::kOk;
  network_.post("svc", ByteView(), "tester",
                [&inside](Result<Bytes> reply) { inside = reply.status(); });
  network_.schedule_endpoint_flap("svc", clock_.now(), seconds(1.0));
  network_.pump_all();
  EXPECT_EQ(inside, Status::kNetworkUnreachable);
  EXPECT_EQ(hits, 1);  // the handler never ran
  network_.clear_endpoint_flaps("svc");
}

TEST_F(NetTest, FlappedMessagesNeverReachTamperHooks) {
  network_.register_endpoint("svc", [](ByteView) -> Result<Bytes> {
    return Bytes{};
  });
  int tampered = 0;
  network_.set_tamper_hook([&tampered](const std::string&, Bytes&) {
    ++tampered;
    return true;
  });
  network_.schedule_endpoint_flap("svc", Duration{}, seconds(1.0));
  EXPECT_EQ(network_.rpc("svc", ByteView()).status(),
            Status::kNetworkUnreachable);
  EXPECT_EQ(tampered, 0);  // lost before the adversary sees it
  network_.clear_endpoint_flaps("svc");
  EXPECT_TRUE(network_.rpc("svc", ByteView()).ok());
  EXPECT_EQ(tampered, 1);
  network_.clear_tamper_hook();
}

// The "net.pending" counter track samples, per lane, the messages en route
// to it: requests count toward the destination's lane, replies toward the
// poster's.  Tracing switched on while messages are already in flight
// (or switched off and on again) must still sample the true depth.
TEST_F(NetTest, PendingTrackIsExactWhenTracingStartsMidFlight) {
  obs::Observability obs(clock_);
  network_.set_observability(&obs);
  const auto echo = [](ByteView req) -> Result<Bytes> {
    return to_bytes(req);
  };
  network_.register_endpoint("b/svc", echo);
  network_.register_endpoint("c/svc", echo);
  const auto post = [this](const std::string& to) {
    network_.post(to, Bytes(64, 1), "a/cli", [](Result<Bytes>) {});
  };
  post("b/svc");
  post("b/svc");
  post("c/svc");
  network_.pump_one();
  obs.set_enabled(true);
  post("b/svc");
  network_.pump_one();
  network_.pump_one();
  obs.set_enabled(false);
  post("c/svc");
  post("c/svc");
  network_.pump_one();
  obs.set_enabled(true);
  post("b/svc");
  network_.pump_all();

  std::vector<std::string> samples;
  for (const obs::TraceCounterSample& s : obs.trace.counter_samples()) {
    EXPECT_EQ(s.name, "net.pending");
    samples.push_back(s.lane + "=" +
                      std::to_string(static_cast<int>(s.value)));
  }
  // Traced from the fourth post on, with one request to b, one to c and
  // one reply to a already in flight; off again for two posts to c and a
  // delivery.
  const std::vector<std::string> expected = {
      "b=2", "c=0", "a=2", "b=1", "a=3", "b=2", "b=1", "a=3", "a=2", "c=1",
      "a=3", "a=2", "c=0", "a=3", "b=0", "a=4", "a=3", "a=2", "a=1", "a=0"};
  EXPECT_EQ(samples, expected);
}

TEST_F(NetTest, ProxyPairForwards) {
  int hits = 0;
  net::MgmtTcpProxy mgmt(network_, "m0/tcp", [&](ByteView req) -> Result<Bytes> {
    ++hits;
    return to_bytes(req);
  });
  net::GuestUdsProxy guest(network_, "m0/uds", "m0/tcp");
  auto resp = network_.rpc("m0/uds", to_bytes(std::string_view("op")));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(to_string(resp.value()), "op");
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(network_.rpcs_sent(), 2u);  // uds hop + tcp hop
}

TEST_F(NetTest, ProxyEndpointsUnregisterOnDestruction) {
  {
    net::MgmtTcpProxy mgmt(network_, "tmp/tcp",
                           [](ByteView) -> Result<Bytes> { return Bytes{}; });
    EXPECT_TRUE(network_.rpc("tmp/tcp", Bytes{}).ok());
  }
  EXPECT_EQ(network_.rpc("tmp/tcp", Bytes{}).status(),
            Status::kNetworkUnreachable);
}

// ---- secure channel ----

sgx::Key128 test_key() {
  sgx::Key128 k{};
  for (size_t i = 0; i < k.size(); ++i) k[i] = static_cast<uint8_t>(i + 1);
  return k;
}

TEST(SecureChannelTest, DuplexRoundTrip) {
  SecureChannel a(test_key(), SecureChannel::Role::kInitiator);
  SecureChannel b(test_key(), SecureChannel::Role::kResponder);
  const Bytes r1 = a.seal_record(to_bytes(std::string_view("hello")));
  EXPECT_EQ(to_string(b.open_record(r1).value()), "hello");
  const Bytes r2 = b.seal_record(to_bytes(std::string_view("world")));
  EXPECT_EQ(to_string(a.open_record(r2).value()), "world");
}

TEST(SecureChannelTest, SequenceEnforced) {
  SecureChannel a(test_key(), SecureChannel::Role::kInitiator);
  SecureChannel b(test_key(), SecureChannel::Role::kResponder);
  const Bytes r1 = a.seal_record(to_bytes(std::string_view("one")));
  const Bytes r2 = a.seal_record(to_bytes(std::string_view("two")));
  // Delivering r2 first fails (out of order), r1 then succeeds.
  EXPECT_EQ(b.open_record(r2).status(), Status::kReplayDetected);
  EXPECT_TRUE(b.open_record(r1).ok());
  // Replaying r1 fails.
  EXPECT_EQ(b.open_record(r1).status(), Status::kReplayDetected);
  EXPECT_TRUE(b.open_record(r2).ok());
}

TEST(SecureChannelTest, ReflectionRejected) {
  // A record sent by the initiator cannot be fed back to the initiator.
  SecureChannel a(test_key(), SecureChannel::Role::kInitiator);
  const Bytes r = a.seal_record(to_bytes(std::string_view("echo")));
  EXPECT_FALSE(a.open_record(r).ok());
}

TEST(SecureChannelTest, TamperedRecordRejected) {
  SecureChannel a(test_key(), SecureChannel::Role::kInitiator);
  SecureChannel b(test_key(), SecureChannel::Role::kResponder);
  Bytes r = a.seal_record(to_bytes(std::string_view("payload")));
  r[r.size() - 1] ^= 1;
  EXPECT_FALSE(b.open_record(r).ok());
}

TEST(SecureChannelTest, WrongKeyRejected) {
  SecureChannel a(test_key(), SecureChannel::Role::kInitiator);
  sgx::Key128 other = test_key();
  other[0] ^= 1;
  SecureChannel b(other, SecureChannel::Role::kResponder);
  const Bytes r = a.seal_record(to_bytes(std::string_view("x")));
  EXPECT_FALSE(b.open_record(r).ok());
}

TEST(SecureChannelTest, GarbageRecordRejected) {
  SecureChannel b(test_key(), SecureChannel::Role::kResponder);
  EXPECT_FALSE(b.open_record(Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(b.open_record(Bytes{}).ok());
}

// ---- untrusted storage ----

TEST(StorageTest, PutGetRemove) {
  VirtualClock clock;
  CostModel costs;
  platform::UntrustedStore store(clock, costs);
  store.put("blob", to_bytes(std::string_view("data")));
  EXPECT_TRUE(store.exists("blob"));
  EXPECT_EQ(to_string(store.get("blob").value()), "data");
  store.remove("blob");
  EXPECT_EQ(store.get("blob").status(), Status::kStorageMissing);
}

TEST(StorageTest, SnapshotRestoreEnablesReplay) {
  VirtualClock clock;
  CostModel costs;
  platform::UntrustedStore store(clock, costs);
  store.put("state", to_bytes(std::string_view("v1")));
  const auto old = store.snapshot();
  store.put("state", to_bytes(std::string_view("v2")));
  EXPECT_EQ(to_string(store.get("state").value()), "v2");
  store.restore(old);  // the OS replays the old disk image
  EXPECT_EQ(to_string(store.get("state").value()), "v1");
}

TEST(StorageTest, CorruptFlipsOneByte) {
  VirtualClock clock;
  CostModel costs;
  platform::UntrustedStore store(clock, costs);
  store.put("b", Bytes{0x00, 0x00});
  EXPECT_TRUE(store.corrupt("b", 1));
  EXPECT_EQ(store.get("b").value()[1], 0x80);
  EXPECT_FALSE(store.corrupt("missing", 0));
}

// Stored blobs are shared, immutable buffers: a snapshot holds the same
// allocation as the store, and no later write reaches it.
TEST(StorageTest, SnapshotKeepsItsBytesAcrossPutCorruptAndRemove) {
  VirtualClock clock;
  CostModel costs;
  platform::UntrustedStore store(clock, costs);
  const Bytes v1 = to_bytes(std::string_view("v1"));
  store.put("a", v1);
  store.put("b", v1);
  store.put("c", v1);
  const auto snap = store.snapshot();
  EXPECT_EQ(snap.at("a").data(), store.snapshot().at("a").data());

  store.put("a", to_bytes(std::string_view("v2")));
  ASSERT_TRUE(store.corrupt("b", 0));
  store.remove("c");

  EXPECT_EQ(snap.at("a"), v1);
  EXPECT_EQ(snap.at("b"), v1);
  EXPECT_EQ(snap.at("c"), v1);
  EXPECT_NE(store.get("b").value(), v1);
  EXPECT_FALSE(store.exists("c"));
}

TEST(StorageTest, RestoreThenCorruptLeavesTheSnapshotUnchanged) {
  VirtualClock clock;
  CostModel costs;
  platform::UntrustedStore store(clock, costs);
  const Bytes v1 = to_bytes(std::string_view("v1"));
  store.put("a", v1);
  const auto snap = store.snapshot();
  store.put("a", to_bytes(std::string_view("v2")));
  store.restore(snap);
  EXPECT_EQ(store.snapshot().at("a").data(), snap.at("a").data());
  ASSERT_TRUE(store.corrupt("a", 1));
  EXPECT_EQ(snap.at("a"), v1);
  EXPECT_NE(store.get("a").value(), v1);
  // The snapshot restores again, intact.
  store.restore(snap);
  EXPECT_EQ(store.get("a").value(), v1);
}

TEST(StorageTest, PutOfSharedBytesStoresNoCopy) {
  VirtualClock clock;
  CostModel costs;
  platform::UntrustedStore store(clock, costs);
  const SharedBytes blob(Bytes{1, 2, 3});
  store.put("shared", blob);
  store.put("copied", ByteView(blob));
  EXPECT_EQ(store.snapshot().at("shared").data(), blob.data());
  EXPECT_NE(store.snapshot().at("copied").data(), blob.data());
  EXPECT_EQ(store.snapshot().at("copied"), blob);
}

TEST(StorageTest, WritesChargeDiskLatency) {
  VirtualClock clock;
  CostModel costs;
  platform::UntrustedStore store(clock, costs);
  const Duration t0 = clock.now();
  store.put("b", Bytes(10, 1));
  EXPECT_EQ(clock.now() - t0, costs.disk_write);
}

// ---- provider CA ----

TEST(ProviderTest, IssueAndVerify) {
  platform::ProviderCa ca(1);
  const auto kp = crypto::Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 5)));
  const auto cred = ca.issue("m0", "eu-central", 16, kp.public_key());
  EXPECT_TRUE(platform::ProviderCa::verify(ca.public_key(), cred));
}

TEST(ProviderTest, RejectsForeignCa) {
  platform::ProviderCa ca(1);
  platform::ProviderCa other_ca(2);
  const auto kp = crypto::Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 5)));
  const auto cred = other_ca.issue("m0", "eu-central", 16, kp.public_key());
  EXPECT_FALSE(platform::ProviderCa::verify(ca.public_key(), cred));
}

TEST(ProviderTest, RejectsModifiedFields) {
  platform::ProviderCa ca(1);
  const auto kp = crypto::Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 5)));
  auto cred = ca.issue("m0", "eu-central", 16, kp.public_key());
  cred.address = "attacker-machine";
  EXPECT_FALSE(platform::ProviderCa::verify(ca.public_key(), cred));
  cred = ca.issue("m0", "eu-central", 16, kp.public_key());
  cred.region = "other-region";
  EXPECT_FALSE(platform::ProviderCa::verify(ca.public_key(), cred));
}

}  // namespace
}  // namespace sgxmig
