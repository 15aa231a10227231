// Migration policies — the paper's §X future work, implemented.
//
//   "a migration policy could specify minimum computational requirements
//    of a destination machine, or ensure that a particular enclave is not
//    migrated outside a specified geographic region.  These policies
//    would be enforced by the Migration Enclave..."
//
// The enclave provider provisions a MigrationPolicy into the Migration
// Library; it travels with every migrate request over the attested
// channel and is evaluated by the source ME against the destination
// machine's provider-certified attributes (region, CPU cores) before any
// data leaves the machine.
#pragma once

#include <string>
#include <vector>

#include "platform/provider.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::migration {

struct MigrationPolicy {
  /// Allowed destination regions; empty = any region.
  std::vector<std::string> allowed_regions;
  /// Machines the enclave must never migrate to; empty = none.
  std::vector<std::string> denied_addresses;
  /// Minimum certified CPU cores of the destination; 0 = no requirement.
  uint32_t min_cpu_cores = 0;

  bool is_unrestricted() const {
    return allowed_regions.empty() && denied_addresses.empty() &&
           min_cpu_cores == 0;
  }

  /// Evaluates the policy against a destination machine's certified
  /// attributes.  Returns kOk or kPolicyViolation.
  Status evaluate(const platform::MachineCredential& destination) const;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    const auto address = [](auto& f, auto& s) { f.str(s, 256); };
    io.list(m.allowed_regions, 256, address);
    io.list(m.denied_addresses, 4096, address);
    io.u32(m.min_cpu_cores);
  }
};

}  // namespace sgxmig::migration
