// Tests for the Platform Services monotonic counter model: the invariants
// the paper's fork/roll-back analysis depends on.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "platform/world.h"
#include "sgx/enclave.h"
#include "sgx/measurement.h"
#include "sgx/pse.h"
#include "sgx/pse_wire.h"
#include "support/rng.h"

namespace sgxmig {
namespace {

using platform::World;
using sgx::CounterUuid;
using sgx::EnclaveImage;
using sgx::MonotonicCounterService;

sgx::Measurement owner_a() {
  sgx::Measurement m{};
  m[0] = 0xaa;
  return m;
}

sgx::Measurement owner_b() {
  sgx::Measurement m{};
  m[0] = 0xbb;
  return m;
}

TEST(CounterService, CreateReadIncrementDestroy) {
  MonotonicCounterService svc;
  auto created = svc.create(owner_a(), Bytes(12, 0x01));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().value, 0u);
  const CounterUuid uuid = created.value().uuid;
  EXPECT_EQ(svc.read(owner_a(), uuid).value(), 0u);
  EXPECT_EQ(svc.increment(owner_a(), uuid).value(), 1u);
  EXPECT_EQ(svc.increment(owner_a(), uuid).value(), 2u);
  EXPECT_EQ(svc.read(owner_a(), uuid).value(), 2u);
  EXPECT_EQ(svc.destroy(owner_a(), uuid), Status::kOk);
  EXPECT_EQ(svc.read(owner_a(), uuid).status(), Status::kCounterNotFound);
}

TEST(CounterService, NonceGatesAccess) {
  MonotonicCounterService svc;
  const CounterUuid uuid = svc.create(owner_a(), Bytes(12, 0x01)).value().uuid;
  CounterUuid forged = uuid;
  forged.nonce[0] ^= 1;
  EXPECT_EQ(svc.read(owner_a(), forged).status(), Status::kCounterNotFound);
  EXPECT_EQ(svc.increment(owner_a(), forged).status(),
            Status::kCounterNotFound);
  EXPECT_EQ(svc.destroy(owner_a(), forged), Status::kCounterNotFound);
}

TEST(CounterService, OwnerGatesAccess) {
  MonotonicCounterService svc;
  const CounterUuid uuid = svc.create(owner_a(), Bytes(12, 0x01)).value().uuid;
  EXPECT_EQ(svc.read(owner_b(), uuid).status(), Status::kCounterNotFound);
}

TEST(CounterService, IdsNeverReused) {
  // "It is not possible to destroy a counter and create a new one with the
  // same identifier but lower value on the same physical machine" (§II-A5).
  MonotonicCounterService svc;
  const CounterUuid first = svc.create(owner_a(), Bytes(12, 1)).value().uuid;
  svc.increment(owner_a(), first);
  ASSERT_EQ(svc.destroy(owner_a(), first), Status::kOk);
  const CounterUuid second = svc.create(owner_a(), Bytes(12, 1)).value().uuid;
  EXPECT_NE(first.counter_id, second.counter_id);
  // The old UUID stays dead even though a new counter exists.
  EXPECT_EQ(svc.read(owner_a(), first).status(), Status::kCounterNotFound);
}

TEST(CounterService, QuotaIs256PerEnclave) {
  MonotonicCounterService svc;
  std::vector<CounterUuid> uuids;
  for (int i = 0; i < 256; ++i) {
    auto created = svc.create(owner_a(), Bytes(12, static_cast<uint8_t>(i)));
    ASSERT_TRUE(created.ok()) << i;
    uuids.push_back(created.value().uuid);
  }
  EXPECT_EQ(svc.create(owner_a(), Bytes(12, 9)).status(),
            Status::kCounterQuotaExceeded);
  // Another enclave still has its own quota.
  EXPECT_TRUE(svc.create(owner_b(), Bytes(12, 9)).ok());
  // Destroying one frees a slot.
  ASSERT_EQ(svc.destroy(owner_a(), uuids[0]), Status::kOk);
  EXPECT_TRUE(svc.create(owner_a(), Bytes(12, 9)).ok());
}

TEST(CounterService, ValuesNeverDecrease) {
  MonotonicCounterService svc;
  const CounterUuid uuid = svc.create(owner_a(), Bytes(12, 1)).value().uuid;
  uint32_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const uint32_t v = svc.increment(owner_a(), uuid).value();
    EXPECT_GT(v, last);
    last = v;
  }
}

TEST(CounterService, RetireIsLogicalDestroyUntilReclaim) {
  MonotonicCounterService svc;
  const CounterUuid ua = svc.create(owner_a(), Bytes(12, 1)).value().uuid;
  const CounterUuid ub = svc.create(owner_a(), Bytes(12, 2)).value().uuid;
  const CounterUuid other = svc.create(owner_b(), Bytes(12, 3)).value().uuid;
  const CounterUuid kept = svc.create(owner_a(), Bytes(12, 4)).value().uuid;
  svc.increment(owner_a(), ua);

  // One logical op kills the counters it names that the caller owns —
  // and ONLY those: another owner's uuid in the list is skipped, and the
  // caller's unnamed counter stays live.
  EXPECT_EQ(svc.retire(owner_a(), {ua, ub, other}), 2u);
  EXPECT_EQ(svc.read(owner_a(), ua).status(), Status::kCounterNotFound);
  EXPECT_EQ(svc.increment(owner_a(), ub).status(), Status::kCounterNotFound);
  EXPECT_EQ(svc.destroy(owner_a(), ua), Status::kCounterNotFound);
  EXPECT_TRUE(svc.read(owner_b(), other).ok());
  EXPECT_TRUE(svc.increment(owner_a(), kept).ok());

  // Irreversible and idempotent; the slots still hold quota until the
  // background sweep reclaims them.
  EXPECT_EQ(svc.retire(owner_a(), {ua, ub}), 0u);
  EXPECT_EQ(svc.retired_count(), 2u);
  EXPECT_EQ(svc.count_for(owner_a()), 3u);
  EXPECT_EQ(svc.reclaim_retired(), 2u);
  EXPECT_EQ(svc.retired_count(), 0u);
  EXPECT_EQ(svc.count_for(owner_a()), 1u);
  EXPECT_TRUE(svc.read(owner_b(), other).ok());
  EXPECT_EQ(svc.read(owner_a(), kept).value(), 1u);
}

TEST(CounterService, RetiredSlotsHoldQuotaUntilReclaimed) {
  MonotonicCounterService svc;
  std::vector<CounterUuid> uuids;
  for (int i = 0; i < 256; ++i) {
    auto created = svc.create(owner_a(), Bytes(12, static_cast<uint8_t>(i)));
    ASSERT_TRUE(created.ok()) << i;
    uuids.push_back(created.value().uuid);
  }
  EXPECT_EQ(svc.retire(owner_a(), uuids), 256u);
  EXPECT_EQ(svc.count_for(owner_a()), 256u);
  EXPECT_EQ(svc.create(owner_a(), Bytes(12, 1)).status(),
            Status::kCounterQuotaExceeded);
  EXPECT_EQ(svc.reclaim_retired(), 256u);
  EXPECT_EQ(svc.count_for(owner_a()), 0u);
  EXPECT_TRUE(svc.create(owner_a(), Bytes(12, 1)).ok());
}

TEST(CounterService, CountForMatchesAModelUnderRandomOps) {
  // Per owner, the model keeps the live counters and the number of
  // retired-but-unreclaimed slots; count_for must always be their sum.
  struct Model {
    sgx::Measurement owner{};
    std::vector<CounterUuid> live;
    size_t retired = 0;
  };
  std::array<Model, 3> models;
  for (size_t i = 0; i < models.size(); ++i) {
    models[i].owner[0] = static_cast<uint8_t>(0x10 + i);
  }
  MonotonicCounterService svc;
  Rng rng(0x9e5);
  size_t quota_refusals = 0;
  size_t reclaims = 0;
  for (int step = 0; step < 6000; ++step) {
    Model& m = models[rng.uniform(models.size())];
    // Creates outweigh destroys and reclaims are rare, so owners climb
    // to the quota between sweeps.
    const uint64_t op = rng.uniform(1000);
    if (op < 750) {
      auto created = svc.create(m.owner, rng.bytes(12));
      if (m.live.size() + m.retired >=
          MonotonicCounterService::kMaxCountersPerEnclave) {
        ASSERT_EQ(created.status(), Status::kCounterQuotaExceeded) << step;
        ++quota_refusals;
      } else {
        ASSERT_TRUE(created.ok()) << step;
        m.live.push_back(created.value().uuid);
      }
    } else if (op < 900) {
      if (m.live.empty()) continue;
      const size_t pick = rng.uniform(m.live.size());
      ASSERT_EQ(svc.destroy(m.owner, m.live[pick]), Status::kOk) << step;
      m.live.erase(m.live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (op < 998) {
      // Retire a prefix of the owner's live counters, plus every other
      // owner's first live counter, which must be skipped.
      const size_t n = rng.uniform(m.live.size() + 1);
      std::vector<CounterUuid> named(m.live.begin(),
                                     m.live.begin() +
                                         static_cast<std::ptrdiff_t>(n));
      for (const Model& each : models) {
        if (&each != &m && !each.live.empty()) {
          named.push_back(each.live.front());
        }
      }
      ASSERT_EQ(svc.retire(m.owner, named), n) << step;
      m.retired += n;
      m.live.erase(m.live.begin(),
                   m.live.begin() + static_cast<std::ptrdiff_t>(n));
    } else {
      size_t retired = 0;
      for (Model& each : models) {
        retired += each.retired;
        each.retired = 0;
      }
      ASSERT_EQ(svc.reclaim_retired(), retired) << step;
      ++reclaims;
    }
    size_t retired_total = 0;
    for (const Model& each : models) {
      ASSERT_EQ(svc.count_for(each.owner), each.live.size() + each.retired)
          << step;
      retired_total += each.retired;
    }
    ASSERT_EQ(svc.retired_count(), retired_total) << step;
  }
  // The sequence must actually reach the quota boundary and sweep.
  EXPECT_GT(quota_refusals, 0u);
  EXPECT_GT(reclaims, 0u);
}

TEST(PseWire, RetireListRoundTripsAndIsBounded) {
  sgx::PseRequest req;
  req.op = sgx::PseOp::kRetire;
  req.owner = owner_a();
  for (uint32_t i = 1; i <= 3; ++i) req.retire_uuids.push_back({i, {}});
  auto parsed = sgx::PseRequest::deserialize(req.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().retire_uuids, req.retire_uuids);

  // Other ops carry no list on the wire.
  sgx::PseRequest read = req;
  read.op = sgx::PseOp::kRead;
  auto parsed_read = sgx::PseRequest::deserialize(read.serialize());
  ASSERT_TRUE(parsed_read.ok());
  EXPECT_TRUE(parsed_read.value().retire_uuids.empty());

  // One caller never owns more than the per-enclave quota: a longer list
  // is refused before it is read.
  req.retire_uuids.assign(MonotonicCounterService::kMaxCountersPerEnclave + 1,
                          CounterUuid{});
  EXPECT_EQ(sgx::PseRequest::deserialize(req.serialize()).status(),
            Status::kTampered);
}

// ---- end-to-end through the enclave runtime + proxies ----

class CounterEnclave : public sgx::Enclave {
 public:
  CounterEnclave(sgx::PlatformIface& platform,
                 std::shared_ptr<const EnclaveImage> image)
      : Enclave(platform, std::move(image)) {}

  Result<sgx::CreatedCounter> ecall_create() {
    auto scope = enter_ecall();
    return counter_create();
  }
  Result<uint32_t> ecall_read(const CounterUuid& uuid) {
    auto scope = enter_ecall();
    return counter_read(uuid);
  }
  Result<uint32_t> ecall_increment(const CounterUuid& uuid) {
    auto scope = enter_ecall();
    return counter_increment(uuid);
  }
  Status ecall_destroy(const CounterUuid& uuid) {
    auto scope = enter_ecall();
    return counter_destroy(uuid);
  }
  Result<uint32_t> ecall_retire(const std::vector<CounterUuid>& uuids) {
    auto scope = enter_ecall();
    return counter_retire(uuids);
  }
};

class PseEndToEndTest : public ::testing::Test {
 protected:
  World world_{/*seed=*/99};
  platform::Machine& m0_ = world_.add_machine("m0");
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("counter-app", 1, "acme");
};

TEST_F(PseEndToEndTest, FullLifecycleThroughProxies) {
  CounterEnclave enclave(m0_, image_);
  auto created = enclave.ecall_create();
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(enclave.ecall_increment(created.value().uuid).value(), 1u);
  EXPECT_EQ(enclave.ecall_read(created.value().uuid).value(), 1u);
  EXPECT_EQ(enclave.ecall_destroy(created.value().uuid), Status::kOk);
  // The request really crossed the simulated network twice per op
  // (guest proxy -> mgmt proxy).
  EXPECT_GE(world_.network().rpcs_sent(), 8u);
}

TEST_F(PseEndToEndTest, CountersSurviveEnclaveRestart) {
  CounterUuid uuid;
  {
    CounterEnclave first(m0_, image_);
    uuid = first.ecall_create().value().uuid;
    first.ecall_increment(uuid);
    first.ecall_increment(uuid);
  }
  CounterEnclave second(m0_, image_);
  EXPECT_EQ(second.ecall_read(uuid).value(), 2u);
}

TEST_F(PseEndToEndTest, CountersAreMachineLocal) {
  auto& m1 = world_.add_machine("m1");
  CounterEnclave src(m0_, image_);
  CounterEnclave dst(m1, image_);
  const CounterUuid uuid = src.ecall_create().value().uuid;
  src.ecall_increment(uuid);
  // The same enclave identity on another machine cannot see the counter.
  EXPECT_EQ(dst.ecall_read(uuid).status(), Status::kCounterNotFound);
}

TEST_F(PseEndToEndTest, OtherEnclaveCannotTouchCounter) {
  CounterEnclave mine(m0_, image_);
  CounterEnclave other(m0_, EnclaveImage::create("other-app", 1, "acme"));
  const CounterUuid uuid = mine.ecall_create().value().uuid;
  EXPECT_EQ(other.ecall_read(uuid).status(), Status::kCounterNotFound);
  EXPECT_EQ(other.ecall_destroy(uuid), Status::kCounterNotFound);
}

TEST_F(PseEndToEndTest, ForgedSessionTokenRejected) {
  // The OS (adversary) tries to call Platform Services directly over the
  // proxy with a forged token: must be rejected.
  CounterEnclave mine(m0_, image_);
  const CounterUuid uuid = mine.ecall_create().value().uuid;

  sgx::PseRequest forged;
  forged.op = sgx::PseOp::kDestroy;
  forged.owner = image_->mr_enclave();
  forged.session_token = {};  // attacker does not know the machine secret
  forged.uuid = uuid;
  auto raw = world_.network().rpc(m0_.pse_uds_endpoint(), forged.serialize());
  ASSERT_TRUE(raw.ok());
  const auto resp = sgx::PseResponse::deserialize(raw.value());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, Status::kCounterNotOwned);
  // Counter untouched.
  EXPECT_TRUE(mine.ecall_read(uuid).ok());
}

TEST_F(PseEndToEndTest, CounterOpsChargeRealisticLatency) {
  CounterEnclave enclave(m0_, image_);
  const Duration t0 = world_.clock().now();
  const CounterUuid uuid = enclave.ecall_create().value().uuid;
  const Duration create_time = world_.clock().now() - t0;
  // Fig. 3 scale: creation costs on the order of 0.25 s.
  EXPECT_GT(create_time, milliseconds(150));
  EXPECT_LT(create_time, milliseconds(400));

  const Duration t1 = world_.clock().now();
  enclave.ecall_read(uuid);
  const Duration read_time = world_.clock().now() - t1;
  EXPECT_GT(read_time, milliseconds(30));
  EXPECT_LT(read_time, milliseconds(120));
}

TEST_F(PseEndToEndTest, RetireIsCheapAndReclaimPaysOffTheCriticalPath) {
  CounterEnclave enclave(m0_, image_);
  std::vector<CounterUuid> uuids(4);
  for (auto& uuid : uuids) uuid = enclave.ecall_create().value().uuid;
  // A second instance of the same enclave on the machine: its counter is
  // not named, so it survives the retire.
  CounterEnclave co_resident(m0_, image_);
  const CounterUuid other = co_resident.ecall_create().value().uuid;

  // One PSE round trip retires all four — far below even ONE foreground
  // destroy (~0.28 s), which is the whole point of deferring teardown.
  const Duration t0 = world_.clock().now();
  auto retired = enclave.ecall_retire(uuids);
  const Duration retire_time = world_.clock().now() - t0;
  ASSERT_TRUE(retired.ok());
  EXPECT_EQ(retired.value(), 4u);
  EXPECT_LT(retire_time, milliseconds(150));
  for (const auto& uuid : uuids) {
    EXPECT_EQ(enclave.ecall_read(uuid).status(), Status::kCounterNotFound);
  }
  EXPECT_EQ(co_resident.ecall_increment(other).value(), 1u);

  // The firmware sweep later pays the per-slot flash cost — off any
  // enclave's ecall path, but on the machine's clock.
  const Duration t1 = world_.clock().now();
  EXPECT_EQ(m0_.reclaim_retired_counters(), 4u);
  EXPECT_GT(world_.clock().now() - t1, milliseconds(800));
  EXPECT_EQ(m0_.counter_service().retired_count(), 0u);
}

TEST_F(PseEndToEndTest, ServiceUnavailableWhenProxyDown) {
  CounterEnclave enclave(m0_, image_);
  world_.network().set_endpoint_down(m0_.pse_tcp_endpoint(), true);
  auto created = enclave.ecall_create();
  EXPECT_FALSE(created.ok());
  EXPECT_EQ(created.status(), Status::kNetworkUnreachable);
  world_.network().set_endpoint_down(m0_.pse_tcp_endpoint(), false);
  EXPECT_TRUE(enclave.ecall_create().ok());
}

}  // namespace
}  // namespace sgxmig
