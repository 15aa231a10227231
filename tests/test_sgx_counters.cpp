// Tests for the Platform Services monotonic counter model: the invariants
// the paper's fork/roll-back analysis depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
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
using sgx::CreatedCounter;
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

// The premise that makes the chaos oracle's fork verdict final at a
// move's retirement: a counter once retired or destroyed never reads
// again, whatever is created, retired, destroyed or reclaimed later, and
// no uuid is issued twice.  Every counter gets the same nonce entropy, so
// a reissued id would bring a dead uuid back.
TEST(CounterService, DeadUuidsStayDeadAndUuidsAreNeverReissued) {
  MonotonicCounterService svc;
  const Bytes entropy(12, 7);
  std::set<uint32_t> issued;
  std::vector<CounterUuid> live;
  std::vector<CounterUuid> dead;
  for (int cycle = 0; cycle < 64; ++cycle) {
    for (int i = 0; i < 8; ++i) {
      auto created = svc.create(owner_a(), entropy);
      ASSERT_TRUE(created.ok()) << cycle;
      ASSERT_TRUE(issued.insert(created.value().uuid.counter_id).second)
          << "id " << created.value().uuid.counter_id << " issued twice";
      ASSERT_TRUE(svc.increment(owner_a(), created.value().uuid).ok());
      live.push_back(created.value().uuid);
    }
    // Retire the oldest four in one op, destroy the next two.
    const std::vector<CounterUuid> retired(live.begin(), live.begin() + 4);
    ASSERT_EQ(svc.retire(owner_a(), retired), 4u) << cycle;
    ASSERT_EQ(svc.destroy(owner_a(), live[4]), Status::kOk) << cycle;
    ASSERT_EQ(svc.destroy(owner_a(), live[5]), Status::kOk) << cycle;
    dead.insert(dead.end(), live.begin(), live.begin() + 6);
    live.erase(live.begin(), live.begin() + 6);
    if (cycle % 2 == 1) svc.reclaim_retired();
    for (const CounterUuid& uuid : dead) {
      ASSERT_EQ(svc.read(owner_a(), uuid).status(), Status::kCounterNotFound)
          << "cycle " << cycle << " id " << uuid.counter_id;
      ASSERT_EQ(svc.increment(owner_a(), uuid).status(),
                Status::kCounterNotFound);
      ASSERT_EQ(svc.destroy(owner_a(), uuid), Status::kCounterNotFound);
    }
    ASSERT_EQ(svc.retire(owner_a(), dead), 0u) << cycle;
    for (const CounterUuid& uuid : live) {
      ASSERT_EQ(svc.read(owner_a(), uuid).value(), 1u) << cycle;
    }
  }
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

// The flat table against the tree-shaped store it replaced: a std::map
// from id to (owner, nonce, value, retired) plus a quota count per owner.
// Every call of a seeded random sequence, over two owners, must return
// what the reference returns, foreign nonces and foreign owners included.
class ReferenceCounterStore {
 public:
  Result<CreatedCounter> create(const sgx::Measurement& owner,
                                ByteView entropy) {
    if (quota_[owner] >= MonotonicCounterService::kMaxCountersPerEnclave) {
      return Status::kCounterQuotaExceeded;
    }
    Entry entry{owner, {}, 0, false};
    std::copy_n(entropy.begin(), entry.nonce.size(), entry.nonce.begin());
    const uint32_t id = next_id_++;
    counters_[id] = entry;
    ++quota_[owner];
    return CreatedCounter{{id, entry.nonce}, 0};
  }
  Result<uint32_t> read(const sgx::Measurement& owner,
                        const CounterUuid& uuid) {
    Entry* entry = find(owner, uuid);
    if (entry == nullptr) return Status::kCounterNotFound;
    return entry->value;
  }
  Result<uint32_t> increment(const sgx::Measurement& owner,
                             const CounterUuid& uuid) {
    Entry* entry = find(owner, uuid);
    if (entry == nullptr) return Status::kCounterNotFound;
    return ++entry->value;
  }
  Status destroy(const sgx::Measurement& owner, const CounterUuid& uuid) {
    if (find(owner, uuid) == nullptr) return Status::kCounterNotFound;
    counters_.erase(uuid.counter_id);
    --quota_[owner];
    return Status::kOk;
  }
  size_t retire(const sgx::Measurement& owner,
                const std::vector<CounterUuid>& uuids) {
    size_t n = 0;
    for (const CounterUuid& uuid : uuids) {
      Entry* entry = find(owner, uuid);
      if (entry == nullptr) continue;
      entry->retired = true;
      ++n;
    }
    return n;
  }
  size_t reclaim_retired() {
    size_t n = 0;
    for (auto it = counters_.begin(); it != counters_.end();) {
      if (!it->second.retired) {
        ++it;
        continue;
      }
      --quota_[it->second.owner];
      it = counters_.erase(it);
      ++n;
    }
    return n;
  }
  size_t retired_count() const {
    return static_cast<size_t>(
        std::count_if(counters_.begin(), counters_.end(),
                      [](const auto& kv) { return kv.second.retired; }));
  }
  size_t count_for(const sgx::Measurement& owner) {
    return quota_[owner];
  }
  uint32_t ids_allocated() const { return next_id_; }

 private:
  struct Entry {
    sgx::Measurement owner{};
    std::array<uint8_t, 12> nonce{};
    uint32_t value = 0;
    bool retired = false;
  };
  Entry* find(const sgx::Measurement& owner, const CounterUuid& uuid) {
    const auto it = counters_.find(uuid.counter_id);
    if (it == counters_.end() || it->second.retired ||
        it->second.nonce != uuid.nonce || it->second.owner != owner) {
      return nullptr;
    }
    return &it->second;
  }

  std::map<uint32_t, Entry> counters_;
  std::map<sgx::Measurement, size_t> quota_;
  uint32_t next_id_ = 1;
};

TEST(CounterService, MatchesTheReferenceStoreUnderRandomOps) {
  MonotonicCounterService svc;
  ReferenceCounterStore ref;
  const std::array<sgx::Measurement, 2> owners{owner_a(), owner_b()};
  // Every uuid ever issued, live or not, plus ids never issued.
  std::vector<CounterUuid> issued;
  Rng rng(0xc0417e5);
  std::array<size_t, 6> ops{};
  size_t refusals = 0;
  const auto pick_uuid = [&]() {
    CounterUuid uuid;
    if (issued.empty() || rng.uniform(20) == 0) {
      uuid.counter_id =
          static_cast<uint32_t>(rng.uniform(ref.ids_allocated() + 2));
    } else {
      uuid = issued[rng.uniform(issued.size())];
    }
    // One call in eight presents a foreign nonce.
    if (rng.uniform(8) == 0) uuid.nonce[rng.uniform(12)] ^= 0x5a;
    return uuid;
  };
  for (int step = 0; step < 20000; ++step) {
    // The caller is either owner, so about half the calls on an issued
    // uuid come from the owner that did not create it.
    const sgx::Measurement& owner = owners[rng.uniform(2)];
    const uint64_t op = rng.uniform(100);
    if (op < 30) {
      const Bytes entropy = rng.bytes(12);
      auto got = svc.create(owner, entropy);
      auto want = ref.create(owner, entropy);
      ASSERT_EQ(got.status(), want.status()) << step;
      if (want.ok()) {
        ASSERT_EQ(got.value().uuid, want.value().uuid) << step;
        ASSERT_EQ(got.value().value, want.value().value) << step;
        issued.push_back(want.value().uuid);
      } else {
        ++refusals;
      }
      ++ops[0];
    } else if (op < 50) {
      const CounterUuid uuid = pick_uuid();
      auto got = svc.read(owner, uuid);
      auto want = ref.read(owner, uuid);
      ASSERT_EQ(got.status(), want.status()) << step;
      if (want.ok()) {
        ASSERT_EQ(got.value(), want.value()) << step;
      }
      ++ops[1];
    } else if (op < 75) {
      const CounterUuid uuid = pick_uuid();
      auto got = svc.increment(owner, uuid);
      auto want = ref.increment(owner, uuid);
      ASSERT_EQ(got.status(), want.status()) << step;
      if (want.ok()) {
        ASSERT_EQ(got.value(), want.value()) << step;
      }
      ++ops[2];
    } else if (op < 85) {
      const CounterUuid uuid = pick_uuid();
      ASSERT_EQ(svc.destroy(owner, uuid), ref.destroy(owner, uuid)) << step;
      ++ops[3];
    } else if (op < 97) {
      std::vector<CounterUuid> uuids(rng.uniform(24));
      for (CounterUuid& uuid : uuids) uuid = pick_uuid();
      ASSERT_EQ(svc.retire(owner, uuids), ref.retire(owner, uuids)) << step;
      ++ops[4];
    } else {
      ASSERT_EQ(svc.reclaim_retired(), ref.reclaim_retired()) << step;
      ++ops[5];
    }
    ASSERT_EQ(svc.retired_count(), ref.retired_count()) << step;
    ASSERT_EQ(svc.ids_allocated(), ref.ids_allocated()) << step;
    for (const sgx::Measurement& each : owners) {
      ASSERT_EQ(svc.count_for(each), ref.count_for(each)) << step;
    }
  }
  // Every kind of call ran, and the owners reached their quota.
  for (const size_t n : ops) EXPECT_GT(n, 100u);
  EXPECT_GT(refusals, 0u);
}

TEST(CounterService, TableSpansOnlyLiveAndRetiredIds) {
  MonotonicCounterService svc;
  uint32_t ids = svc.ids_allocated();
  for (int cycle = 0; cycle < 100; ++cycle) {
    std::vector<CounterUuid> uuids;
    for (int i = 0; i < 256; ++i) {
      auto created = svc.create(owner_a(), Bytes(12, static_cast<uint8_t>(i)));
      ASSERT_TRUE(created.ok()) << cycle;
      uuids.push_back(created.value().uuid);
    }
    ASSERT_LE(svc.table_span(), 256u) << cycle;
    ASSERT_EQ(svc.retire(owner_a(), uuids), 256u) << cycle;
    ASSERT_EQ(svc.table_span(), 256u) << cycle;  // retired ids hold quota
    ASSERT_EQ(svc.reclaim_retired(), 256u) << cycle;
    ASSERT_EQ(svc.table_span(), 0u) << cycle;
    // Ids keep rising; none is reused.
    ASSERT_EQ(svc.ids_allocated(), ids + 256) << cycle;
    ids = svc.ids_allocated();
    EXPECT_EQ(svc.read(owner_a(), uuids.back()).status(),
              Status::kCounterNotFound);
  }
  // A destroy in the middle leaves a tombstone; one at the front trims it
  // and every tombstone behind it.
  const CounterUuid first = svc.create(owner_a(), Bytes(12, 1)).value().uuid;
  const CounterUuid middle = svc.create(owner_a(), Bytes(12, 2)).value().uuid;
  const CounterUuid last = svc.create(owner_a(), Bytes(12, 3)).value().uuid;
  ASSERT_EQ(svc.destroy(owner_a(), middle), Status::kOk);
  EXPECT_EQ(svc.table_span(), 3u);
  ASSERT_EQ(svc.destroy(owner_a(), first), Status::kOk);
  EXPECT_EQ(svc.table_span(), 1u);
  EXPECT_EQ(svc.read(owner_a(), last).value(), 0u);
  EXPECT_EQ(svc.count_for(owner_a()), 1u);
}

TEST(PseWire, RetireListRoundTripsAndIsBounded) {
  sgx::PseRequest req;
  req.op = sgx::PseOp::kRetire;
  req.owner = owner_a();
  for (uint32_t i = 1; i <= 3; ++i) req.retire_uuids.push_back({i, {}});
  auto parsed = decode_record<sgx::PseRequest>(encode_record(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().retire_uuids, req.retire_uuids);

  // Other ops carry no list on the wire.
  sgx::PseRequest read = req;
  read.op = sgx::PseOp::kRead;
  auto parsed_read = decode_record<sgx::PseRequest>(encode_record(read));
  ASSERT_TRUE(parsed_read.ok());
  EXPECT_TRUE(parsed_read.value().retire_uuids.empty());

  // One caller never owns more than the per-enclave quota: a longer list
  // is refused before it is read.
  req.retire_uuids.assign(MonotonicCounterService::kMaxCountersPerEnclave + 1,
                          CounterUuid{});
  EXPECT_EQ(decode_record<sgx::PseRequest>(encode_record(req)).status(),
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
  auto raw =
      world_.network().rpc(m0_.pse_uds_endpoint(), encode_record(forged));
  ASSERT_TRUE(raw.ok());
  const auto resp = decode_record<sgx::PseResponse>(raw.value());
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
