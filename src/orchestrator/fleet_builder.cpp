#include "orchestrator/fleet_builder.h"

namespace sgxmig::orchestrator {

std::vector<std::string> add_machines(platform::World& world, int count,
                                      int regions) {
  std::vector<std::string> addresses;
  for (int i = 0; i < count; ++i) {
    const std::string& address =
        addresses.emplace_back(std::string("m").append(std::to_string(i)));
    if (regions > 0) {
      world.add_machine(address,
                        std::string("r").append(std::to_string(i % regions)),
                        /*cpu_cores=*/16u + 16u * (i % 2));
    } else {
      world.add_machine(address);
    }
  }
  return addresses;
}

Result<std::vector<uint64_t>> launch_apps(FleetRegistry& fleet,
                                          const AppSpec& spec) {
  if (spec.hosts.empty()) return Status::kInvalidParameter;
  std::vector<uint64_t> ids;
  for (int i = 0; i < spec.count; ++i) {
    const std::string name = spec.prefix + std::to_string(i);
    const auto launched = fleet.launch(
        spec.hosts[i % spec.hosts.size()], name,
        sgx::EnclaveImage::create(name, 1, spec.vendor), spec.options);
    if (!launched.ok()) return launched.status();
    ids.push_back(launched.value());
    migration::MigratableEnclave* enclave = fleet.enclave(ids.back());
    for (uint32_t c = 0; c < spec.counters; ++c) {
      const auto created = enclave->ecall_create_migratable_counter();
      if (!created.ok()) return created.status();
    }
    for (uint32_t n = spec.counters == 0 ? 0 : spec.increments(i); n > 0; --n) {
      const auto written = enclave->ecall_increment_migratable_counter(0);
      if (!written.ok()) return written.status();
    }
  }
  return ids;
}

}  // namespace sgxmig::orchestrator
