// The simulated world: machines, the data-center network, Intel's services
// (EPID authority + IAS), the cloud provider CA, one virtual clock, and
// the cost model.  Everything is deterministic from the seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "obs/observability.h"
#include "platform/machine.h"
#include "platform/provider.h"
#include "sgx/epid.h"
#include "sgx/ias.h"
#include "support/cost_model.h"
#include "support/rng.h"
#include "support/sim_clock.h"

namespace sgxmig::platform {

class World {
 public:
  explicit World(uint64_t seed = 42, const CostModel& costs = CostModel{});

  /// Adds a machine; addresses must be unique ("m0", "m1", ...).
  Machine& add_machine(const std::string& address,
                       const std::string& region = "eu-central",
                       uint32_t cpu_cores = 16);

  /// Finds a machine by address; nullptr if unknown.
  Machine* machine(const std::string& address);

  /// All machines, in creation order (stable across a run, so schedulers
  /// iterating it stay deterministic per seed).
  std::vector<Machine*> machines();

  /// Machines whose provider-assigned region equals `region`.
  std::vector<Machine*> machines_in_region(const std::string& region);

  /// Installs `factory` as the management-enclave factory on every
  /// existing machine and remembers it for machines added later — the
  /// deployment model of the paper's §VI-A (one Migration Enclave in the
  /// management VM of every machine).  Individual machines can then be
  /// crash/restart-cycled via Machine::kill_management_enclave() /
  /// restart_management_enclave().
  void install_management_enclaves(Machine::MgmtEnclaveFactory factory);

  VirtualClock& clock() { return clock_; }
  Rng& rng() { return rng_; }
  const CostModel& costs() const { return costs_; }
  net::Network& network() { return *network_; }
  obs::Observability& observability() { return observability_; }
  sgx::EpidAuthority& epid_authority() { return *epid_; }
  sgx::IntelAttestationService& ias() { return *ias_; }
  ProviderCa& provider() { return *provider_; }

  size_t machine_count() const { return machines_.size(); }

 private:
  VirtualClock clock_;
  Rng rng_;
  CostModel costs_;
  obs::Observability observability_{clock_};
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<sgx::EpidAuthority> epid_;
  std::unique_ptr<sgx::IntelAttestationService> ias_;
  std::unique_ptr<ProviderCa> provider_;
  Machine::MgmtEnclaveFactory mgmt_factory_;
  std::vector<std::unique_ptr<Machine>> machines_;
};

}  // namespace sgxmig::platform
