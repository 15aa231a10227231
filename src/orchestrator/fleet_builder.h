// Fleet builder: the machines and enclaves of an orchestrated drain, built
// one way for every bench and test.  Both steps draw from the world's
// per-machine randomness, so a fleet reproduces only when the same calls
// run in the same order; these two functions fix that order.  ME settings
// belong in durable_me_factory's `configure`, which every (re)started ME
// runs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "orchestrator/fleet_registry.h"
#include "platform/world.h"
#include "support/status.h"

namespace sgxmig::orchestrator {

/// Adds machines m0..m{count-1} in order and returns their addresses.
/// With `regions` > 0, machine i sits in region r{i % regions} with
/// 16 + 16 * (i % 2) certified cores; otherwise it takes
/// World::add_machine's defaults.
std::vector<std::string> add_machines(platform::World& world, int count,
                                      int regions = 0);

/// A batch of enclaves: enclave i is named prefix + i, runs image
/// EnclaveImage::create(name, 1, vendor), launches on hosts[i % n] and
/// gets `counters` migratable counters (ids 0..counters-1), counter 0
/// incremented increments(i) times.
struct AppSpec {
  int count = 0;
  std::string prefix = {};
  std::string vendor = "acme";
  std::vector<std::string> hosts = {"m0"};
  LaunchOptions options = {};
  uint32_t counters = 1;
  std::function<uint32_t(int)> increments = [](int) { return 1u; };
};

/// Launches the batch enclave by enclave (launch, counters, increments).
/// Returns the fleet ids in launch order, or the first failed call's
/// status (kInvalidParameter when `hosts` is empty).
Result<std::vector<uint64_t>> launch_apps(FleetRegistry& fleet,
                                          const AppSpec& spec);

}  // namespace sgxmig::orchestrator
