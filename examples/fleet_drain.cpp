// Fleet drain walkthrough: the control plane above the paper's protocol.
//
//   1. Build a five-machine data center across two regions, each machine
//      running a Migration Enclave.
//   2. Launch a small fleet of migratable enclaves on m0 through the
//      FleetRegistry and give each one counter state.
//   3. Take m1's Migration Enclave off the network — the failure the
//      orchestrator must route around.
//   4. Drain m0 with bounded parallelism: every enclave migrates off,
//      migrations aimed at the dead m1 retry onto an alternate machine.
//   5. Replay the orchestrator's transitions from the trace and verify
//      the counters survived.
//
// Run:  ./build/example_fleet_drain
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "migration/migration_enclave.h"
#include "orchestrator/orchestrator.h"

using namespace sgxmig;
using migration::MigrationEnclave;
using orchestrator::FleetRegistry;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::Plan;
using orchestrator::Scheduler;

int main() {
  // --- the data center: m0..m2 in eu-central, m3..m4 in eu-west ---
  platform::World world(/*seed=*/77);
  std::vector<std::unique_ptr<MigrationEnclave>> mes;
  for (int i = 0; i < 5; ++i) {
    auto& machine =
        world.add_machine(std::string("m").append(std::to_string(i)),
                          i < 3 ? "eu-central" : "eu-west");
    mes.push_back(std::make_unique<MigrationEnclave>(
        machine, MigrationEnclave::standard_image(), world.provider()));
  }

  // --- a fleet of six enclaves on m0, each with counter state ---
  FleetRegistry fleet(world);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "app-" + std::to_string(i);
    auto launched =
        fleet.launch("m0", name, sgx::EnclaveImage::create(name, 1, "acme"));
    ids.push_back(launched.value());
    auto* enclave = fleet.enclave(ids.back());
    const uint32_t counter =
        enclave->ecall_create_migratable_counter().value().counter_id;
    for (int j = 0; j <= i; ++j) {
      enclave->ecall_increment_migratable_counter(counter);
    }
  }
  std::printf("fleet: %zu enclaves on m0 (machine load %zu)\n", fleet.size(),
              fleet.count_on("m0"));

  // --- m1's ME goes dark: migrations routed there must re-select ---
  world.network().set_endpoint_down("m1/me", true);
  std::printf("fault injected: m1/me unreachable\n\n");

  // --- drain m0, at most 2 migrations in flight at a time ---
  Scheduler scheduler(fleet);  // least-loaded destinations first
  OrchestratorOptions options;
  options.max_inflight_per_machine = 2;
  Orchestrator orchestrator(fleet, scheduler, options);
  // Tracing on: every task transition becomes an orch.* instant.
  world.observability().set_enabled(true);
  const auto report = orchestrator.execute(Plan::drain("m0"));

  std::printf("orchestrator transitions:\n");
  for (const obs::TraceInstant& instant :
       world.observability().trace.instants()) {
    if (instant.name.rfind("orch.", 0) != 0) continue;
    std::printf("  [%8.3fs] enclave %s %-18s %s\n", to_seconds(instant.at),
                instant.args.at(0).second.c_str(), instant.name.c_str(),
                instant.args.at(1).second.c_str());
  }

  std::printf("\ndrain report: %zu/%zu succeeded, %u retries, "
              "peak inflight %u, %.3f s virtual wall\n",
              report.succeeded(), report.migrations.size(),
              report.total_retries(), report.peak_inflight_total,
              to_seconds(report.wall()));
  for (const auto& m : report.migrations) {
    std::printf("  %s: %s -> %s in %.3f s (%u attempt%s)\n", m.name.c_str(),
                m.source.c_str(), m.destination.c_str(),
                to_seconds(m.latency()), m.attempts,
                m.attempts == 1 ? "" : "s");
  }

  // --- the persistent state survived the move ---
  std::printf("\ncounter values after the drain:\n");
  bool all_ok = report.failed() == 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto* record = fleet.find(ids[i]);
    const auto value =
        fleet.enclave(ids[i])->ecall_read_migratable_counter(0);
    const uint32_t expected = static_cast<uint32_t>(i + 1);
    const bool ok = value.ok() && value.value() == expected &&
                    record->machine != "m0" && record->machine != "m1";
    all_ok = all_ok && ok;
    std::printf("  %s on %s: %u (expected %u) %s\n", record->name.c_str(),
                record->machine.c_str(), value.value_or(0), expected,
                ok ? "ok" : "WRONG");
  }
  std::printf("\nm0 load after drain: %zu; drained fleet intact: %s\n",
              fleet.count_on("m0"), all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}
