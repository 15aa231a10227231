// The paper's §III versioned-state pattern (Teechan, TrInX), stated once
// for the apps: a state is sealed with the MSK under an AAD naming the
// app's label and the migratable-counter version it was sealed at, and a
// restore accepts it only at the counter's current value.  A state names
// its counter `version_counter`.
#pragma once

#include <string>
#include <string_view>

#include "migration/migration_library.h"
#include "support/serde.h"

namespace sgxmig::apps {

/// The AAD an app's state is sealed under.
struct StateVersion {
  std::string label;
  uint32_t version = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.str(m.label, 64);
    io.u32(m.version);
  }
};

/// Increments `state`'s version counter, then seals `state` under the
/// `label` AAD at the new value.
template <class State>
Result<Bytes> seal_versioned(migration::MigrationLibrary& library,
                             std::string_view label, const State& state) {
  auto version = library.increment_migratable_counter(state.version_counter);
  if (!version.ok()) return version.status();
  return library.seal_migratable_data(
      encode_record(StateVersion{std::string(label), version.value()}),
      encode_record(state));
}

/// Unseals a state of `label` (another label is kTampered) and accepts it
/// only when its stored version is the counter's current value
/// (kReplayDetected otherwise: a stale copy of the state).
template <class State>
Result<State> unseal_versioned(migration::MigrationLibrary& library,
                               std::string_view label, ByteView blob) {
  auto unsealed = library.unseal_migratable_data(blob);
  if (!unsealed.ok()) return unsealed.status();
  auto stored = decode_record<StateVersion>(unsealed.value().aad);
  if (!stored.ok() || stored.value().label != label) return Status::kTampered;
  auto state = decode_record<State>(unsealed.value().plaintext);
  if (!state.ok()) return state.status();
  auto current = library.read_migratable_counter(state.value().version_counter);
  if (!current.ok()) return current.status();
  if (current.value() != stored.value().version) {
    return Status::kReplayDetected;
  }
  return state;
}

}  // namespace sgxmig::apps
