// Reproduces paper Table I (datastructure of the migrated data) and
// Table II (datastructure of the Migration Library internals): prints the
// fields, their types, sizes, and the serialized wire sizes, and checks
// them against the structures actually used by the implementation.
#include <cstdio>

#include "migration/library_state.h"
#include "migration/migration_data.h"

namespace sgxmig {
namespace {

void run() {
  using migration::kMaxCounters;

  std::printf("\n================================================================\n");
  std::printf("Table I — datastructure of the migrated data\n");
  std::printf("================================================================\n");
  std::printf("%-18s %-16s %-10s %s\n", "name", "type", "bytes",
              "description");
  std::printf("%-18s %-16s %-10zu %s\n", "counters active", "bool[256]",
              kMaxCounters * sizeof(bool), "Shows used counters");
  std::printf("%-18s %-16s %-10zu %s\n", "counter values", "uint32[256]",
              kMaxCounters * sizeof(uint32_t), "Used as next offset");
  std::printf("%-18s %-16s %-10zu %s\n", "MSK", "128-bit SGX key",
              sizeof(sgx::Key128), "Used by migratable seal");

  migration::MigrationData data;
  const Bytes wire = encode_record(data);
  std::printf("serialized size on the wire: %zu bytes (plus the secure-"
              "channel record framing)\n", wire.size());
  const auto round_trip = decode_record<migration::MigrationData>(wire);
  std::printf("serialization round-trip: %s\n",
              round_trip.ok() && round_trip.value() == data ? "OK" : "BROKEN");

  std::printf("\n================================================================\n");
  std::printf("Table II — datastructure of the Migration Library internals\n");
  std::printf("================================================================\n");
  std::printf("%-18s %-16s %-10s %s\n", "name", "type", "bytes",
              "description");
  std::printf("%-18s %-16s %-10zu %s\n", "frozen", "uint8", sizeof(uint8_t),
              "Freeze flag for migration");
  std::printf("%-18s %-16s %-10zu %s\n", "counters active", "bool[256]",
              kMaxCounters * sizeof(bool), "Shows used counters");
  std::printf("%-18s %-16s %-10zu %s\n", "counter uuids", "SGX counter[256]",
              kMaxCounters * sizeof(sgx::CounterUuid),
              "UUIDs of the SGX counters");
  std::printf("%-18s %-16s %-10zu %s\n", "counter offsets", "uint32[256]",
              kMaxCounters * sizeof(uint32_t), "Offsets of the counters");
  std::printf("%-18s %-16s %-10zu %s\n", "MSK", "128-bit SGX key",
              sizeof(sgx::Key128), "Used by migratable seal");

  migration::LibraryState state;
  const Bytes state_wire = encode_record(state);
  std::printf("serialized size (before sealing): %zu bytes\n",
              state_wire.size());
  const auto state_round_trip =
      decode_record<migration::LibraryState>(state_wire);
  std::printf("serialization round-trip: %s\n",
              state_round_trip.ok() ? "OK" : "BROKEN");
}

}  // namespace
}  // namespace sgxmig

int main() {
  sgxmig::run();
  return 0;
}
