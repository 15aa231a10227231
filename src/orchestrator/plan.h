// Fleet migration plans — the datacenter scenarios a single
// migration_start cannot express.
//
//   * drain    — evacuate every enclave off one machine (maintenance,
//                decommission).
//   * evacuate — evacuate every enclave out of a region (regulatory move,
//                regional failure); no destination inside the region.
//   * move     — targeted migrations with fixed destinations.
//
// A Plan is pure data; the Orchestrator expands it into per-enclave
// migration tasks against the current FleetRegistry contents.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sgxmig::orchestrator {

enum class PlanKind : uint8_t {
  kDrainMachine = 0,
  kEvacuateRegion = 1,
  kTargetedMove = 2,
};

const char* plan_kind_name(PlanKind kind);

struct TargetedMove {
  uint64_t enclave_id = 0;
  std::string destination;
};

struct Plan {
  PlanKind kind = PlanKind::kDrainMachine;
  std::string machine;               // kDrainMachine
  std::string region;                // kEvacuateRegion
  std::vector<TargetedMove> moves;   // kTargetedMove

  static Plan drain(std::string machine_address) {
    Plan plan;
    plan.kind = PlanKind::kDrainMachine;
    plan.machine = std::move(machine_address);
    return plan;
  }

  static Plan evacuate(std::string region_name) {
    Plan plan;
    plan.kind = PlanKind::kEvacuateRegion;
    plan.region = std::move(region_name);
    return plan;
  }

  static Plan move(std::vector<TargetedMove> moves) {
    Plan plan;
    plan.kind = PlanKind::kTargetedMove;
    plan.moves = std::move(moves);
    return plan;
  }

  static Plan move_one(uint64_t enclave_id, std::string destination) {
    return move({TargetedMove{enclave_id, std::move(destination)}});
  }
};

}  // namespace sgxmig::orchestrator
