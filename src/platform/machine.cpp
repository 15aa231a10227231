#include "platform/machine.h"

#include "obs/observability.h"
#include "platform/world.h"
#include "sgx/pse_wire.h"

namespace sgxmig::platform {

namespace {

const char* pse_op_name(sgx::PseOp op) {
  switch (op) {
    case sgx::PseOp::kCreate: return "create";
    case sgx::PseOp::kRead: return "read";
    case sgx::PseOp::kIncrement: return "increment";
    case sgx::PseOp::kDestroy: return "destroy";
    case sgx::PseOp::kRetire: return "retire";
  }
  return "unknown";
}

}  // namespace

Machine::Machine(World& world, std::string address, std::string region,
                 uint32_t cpu_cores, uint64_t seed)
    : world_(world),
      address_(std::move(address)),
      region_(std::move(region)),
      cpu_cores_(cpu_cores),
      rng_(seed),
      cpu_(to_array<32>(rng_.bytes(32))) {
  rng_.fill(pse_session_secret_.data(), pse_session_secret_.size());
  storage_ = std::make_unique<UntrustedStore>(world_.clock(), world_.costs());
  quoting_enclave_ = std::make_unique<sgx::QuotingEnclave>(
      *this, world_.epid_authority().provision_member());
  // §VI-C deployment: Platform Services live in the management VM; guest
  // enclaves reach them via the Unix-socket -> TCP proxy chain.
  pse_tcp_proxy_ = std::make_unique<net::MgmtTcpProxy>(
      world_.network(), pse_tcp_endpoint(),
      [this](ByteView request) { return pse_service_handler(request); });
  pse_uds_proxy_ = std::make_unique<net::GuestUdsProxy>(
      world_.network(), pse_uds_endpoint(), pse_tcp_endpoint());
}

Machine::~Machine() = default;

VirtualClock& Machine::clock() { return world_.clock(); }

const CostModel& Machine::costs() const { return world_.costs(); }

void Machine::charge(Duration base) {
  clock().advance(Duration(static_cast<int64_t>(
      static_cast<double>(base.count()) *
      rng_.jitter(world_.costs().jitter_sigma))));
}

Bytes Machine::draw_entropy(size_t len) { return rng_.bytes(len); }

net::Network* Machine::network() { return &world_.network(); }

obs::Observability* Machine::observability() { return &world_.observability(); }

sgx::IntelAttestationService& Machine::attestation_service() {
  return world_.ias();
}

Result<Bytes> Machine::pse_call(const sgx::Measurement& caller,
                                ByteView request) {
  // The trusted runtime attaches the session token before the request
  // leaves the enclave; the proxies in between only see ciphertext-like
  // opaque bytes they cannot mint themselves.
  auto parsed = sgx::PseRequest::deserialize(request);
  if (!parsed.ok()) return Status::kInvalidParameter;
  sgx::PseRequest req = std::move(parsed).value();
  req.owner = caller;
  req.session_token = sgx::pse_session_token(pse_session_secret_, caller);
  return world_.network().rpc(pse_uds_endpoint(), req.serialize());
}

Result<Bytes> Machine::pse_service_handler(ByteView request) {
  auto parsed = sgx::PseRequest::deserialize(request);
  sgx::PseResponse resp;
  if (!parsed.ok()) {
    resp.status = Status::kTampered;
    return resp.serialize();
  }
  const sgx::PseRequest& req = parsed.value();

  // Session check: only callers that obtained a token from this machine's
  // trusted path (i.e. genuine local enclaves) are served.
  const auto expected =
      sgx::pse_session_token(pse_session_secret_, req.owner);
  if (!constant_time_eq(ByteView(expected.data(), expected.size()),
                        ByteView(req.session_token.data(),
                                 req.session_token.size()))) {
    resp.status = Status::kCounterNotOwned;
    return resp.serialize();
  }

  obs::Observability& obs = world_.observability();
  if (obs.enabled()) {
    obs.metrics.add(std::string("pse.") + pse_op_name(req.op));
  }

  const CostModel& cm = world_.costs();
  switch (req.op) {
    case sgx::PseOp::kCreate: {
      charge(cm.counter_create);
      auto created = counters_.create(req.owner, req.nonce_entropy);
      if (!created.ok()) {
        resp.status = created.status();
      } else {
        resp.status = Status::kOk;
        resp.uuid = created.value().uuid;
        resp.value = created.value().value;
      }
      break;
    }
    case sgx::PseOp::kRead: {
      charge(cm.counter_read);
      auto value = counters_.read(req.owner, req.uuid);
      resp.status = value.ok() ? Status::kOk : value.status();
      resp.value = value.value_or(0);
      resp.uuid = req.uuid;
      break;
    }
    case sgx::PseOp::kIncrement: {
      charge(cm.counter_increment);
      auto value = counters_.increment(req.owner, req.uuid);
      resp.status = value.ok() ? Status::kOk : value.status();
      resp.value = value.value_or(0);
      resp.uuid = req.uuid;
      break;
    }
    case sgx::PseOp::kDestroy: {
      charge(cm.counter_destroy);
      resp.status = counters_.destroy(req.owner, req.uuid);
      resp.uuid = req.uuid;
      break;
    }
    case sgx::PseOp::kRetire: {
      charge(cm.counter_retire);
      resp.value =
          static_cast<uint32_t>(counters_.retire(req.owner, req.retire_uuids));
      resp.status = Status::kOk;
      break;
    }
  }
  return resp.serialize();
}

size_t Machine::reclaim_retired_counters() {
  obs::Observability& obs = world_.observability();
  const uint64_t sweep =
      obs.enabled() ? obs.trace.begin_span("pse.reclaim", address_) : 0;
  const size_t n = counters_.reclaim_retired();
  // The firmware sweep pays the same flash cost per slot a foreground
  // destroy would — it just never contends with an enclave's ecall path.
  for (size_t i = 0; i < n; ++i) charge(world_.costs().counter_destroy);
  if (sweep != 0) {
    obs.trace.span_arg(sweep, "slots", static_cast<uint64_t>(n));
    obs.trace.end_span(sweep);
  }
  if (obs.enabled()) {
    obs.metrics.add("pse.reclaimed", static_cast<uint64_t>(n));
  }
  return n;
}

void Machine::install_management_enclave(MgmtEnclaveFactory factory) {
  mgmt_factory_ = std::move(factory);
  mgmt_enclave_.reset();  // kill any previous instance before rebuilding
  if (mgmt_factory_) mgmt_enclave_ = mgmt_factory_(*this);
}

bool Machine::restart_management_enclave() {
  if (!mgmt_factory_) return false;
  mgmt_enclave_.reset();
  mgmt_enclave_ = mgmt_factory_(*this);
  return mgmt_enclave_ != nullptr;
}

}  // namespace sgxmig::platform
