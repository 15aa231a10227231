// A physical machine in the simulated data center.
//
// Owns everything that is machine-bound on real hardware: the CPU key
// hierarchy, the Management Engine's monotonic counter store, untrusted
// disk, the Quoting Enclave (provisioned with an EPID member key), and the
// Unix-socket/TCP proxy pair that lets guest-VM enclaves reach Platform
// Services in the management VM (paper §VI-C).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "crypto/cmac.h"
#include "net/proxy.h"
#include "platform/storage.h"
#include "sgx/enclave.h"
#include "sgx/platform_iface.h"
#include "sgx/pse.h"
#include "sgx/quote.h"
#include "support/rng.h"

namespace sgxmig::platform {

class World;

class Machine final : public sgx::PlatformIface {
 public:
  Machine(World& world, std::string address, std::string region,
          uint32_t cpu_cores, uint64_t seed);
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ----- sgx::PlatformIface -----
  sgx::SimCpu& cpu() override { return cpu_; }
  VirtualClock& clock() override;
  const CostModel& costs() const override;
  /// Advances this machine's clock by `base` times one jitter sample drawn
  /// from the machine RNG.  Every call draws, whatever `base` is, so adding
  /// or removing one charge (an ECALL/OCALL transition, a PSE op) shifts
  /// every later jittered cost on this machine: virtual-time anchors pin the
  /// count of enclave transitions, not only the priced work.  Real CPU spent
  /// inside a transition (crypto, codecs) is never charged and moves nothing.
  void charge(Duration base) override;
  Bytes draw_entropy(size_t len) override;
  Result<Bytes> pse_call(const sgx::Measurement& caller,
                         ByteView request) override;
  const std::string& address() const override { return address_; }
  const std::string& region() const override { return region_; }
  uint32_t cpu_cores() const override { return cpu_cores_; }
  net::Network* network() override;
  obs::Observability* observability() override;
  sgx::QuotingEnclave& quoting_enclave() override { return *quoting_enclave_; }
  sgx::IntelAttestationService& attestation_service() override;

  // ----- machine services -----
  World& world() { return world_; }
  UntrustedStore& storage() { return *storage_; }
  sgx::MonotonicCounterService& counter_service() { return counters_; }
  /// Runs the ME firmware's background GC over retired counter slots,
  /// charging the per-slot flash cost to the current timeline.  Returns
  /// how many slots were freed.  Drivers call this OUTSIDE latency-
  /// critical phases (it models work that never preempts an ecall).
  size_t reclaim_retired_counters();
  Rng& rng() { return rng_; }

  // ----- management-enclave slot (ME crash/restart simulation) -----
  //
  // Each machine's management VM hosts one long-lived service enclave (the
  // Migration Enclave).  The platform layer knows nothing about its
  // concrete type — higher layers install a FACTORY, and the machine owns
  // the instance so it can simulate the management VM crashing
  // (kill_management_enclave: the enclave object — i.e. its EPC contents —
  // is destroyed; anything not sealed to disk is gone) and restarting
  // (restart_management_enclave: the factory rebuilds the enclave, whose
  // constructor/restore path reloads whatever it sealed into storage()).
  using MgmtEnclaveFactory =
      std::function<std::unique_ptr<sgx::Enclave>(Machine&)>;

  /// Installs the factory and immediately builds the instance.
  void install_management_enclave(MgmtEnclaveFactory factory);
  sgx::Enclave* management_enclave() { return mgmt_enclave_.get(); }
  bool has_management_enclave() const { return mgmt_enclave_ != nullptr; }
  /// Simulated management-VM crash: destroys the enclave object only.
  /// Untrusted storage and counters survive; EPC contents do not.
  void kill_management_enclave() { mgmt_enclave_.reset(); }
  /// Rebuilds the enclave from the installed factory; false if none.
  bool restart_management_enclave();

  /// Endpoint name of the guest-side PSE Unix socket.
  std::string pse_uds_endpoint() const { return address_ + "/pse-uds"; }
  /// Endpoint name of the management-VM PSE TCP service.
  std::string pse_tcp_endpoint() const { return address_ + "/pse-tcp"; }
  /// Endpoint name of this machine's Migration Enclave service.
  std::string me_endpoint() const { return address_ + "/me"; }

 private:
  /// The management-VM side of Platform Services: validates the session
  /// token, charges the ME-flash latency, executes the counter op.
  Result<Bytes> pse_service_handler(ByteView request);

  World& world_;
  std::string address_;
  std::string region_;
  uint32_t cpu_cores_;
  Rng rng_;
  sgx::SimCpu cpu_;
  sgx::MonotonicCounterService counters_;
  // Keyed by the PSE session secret, drawn after the CPU's: both token
  // ends (pse_call, pse_service_handler) MAC with it, expanding no key.
  crypto::Cmac pse_session_mac_;
  MgmtEnclaveFactory mgmt_factory_;
  std::unique_ptr<UntrustedStore> storage_;
  std::unique_ptr<sgx::QuotingEnclave> quoting_enclave_;
  std::unique_ptr<net::MgmtTcpProxy> pse_tcp_proxy_;
  std::unique_ptr<net::GuestUdsProxy> pse_uds_proxy_;
  // Declared last: the management enclave uses every other machine
  // service, so it must be destroyed first.
  std::unique_ptr<sgx::Enclave> mgmt_enclave_;
};

}  // namespace sgxmig::platform
