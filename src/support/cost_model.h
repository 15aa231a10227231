// Central table of modeled latencies for the simulated world.
//
// Every latency the paper's evaluation depends on is a named constant here,
// calibrated once against the paper's *baseline* measurements (Fig. 3 / 4
// and §VII-B) and then left alone — the relative results of the benchmarks
// (who wins, by what factor) emerge from the structure of the code paths,
// not from per-experiment tuning.  See DESIGN.md §5.
#pragma once

#include <cstdint>

#include "support/sim_clock.h"

namespace sgxmig {

struct CostModel {
  // Enclave transition costs: EENTER/EEXIT plus the SDK edger8r
  // marshalling of parameter buffers (the paper measures whole ECALLs,
  // whose fixed cost dominates Fig. 4's sub-millisecond bars).
  Duration ecall = microseconds(120);
  Duration ocall = microseconds(15);

  // SGX microcode operations.
  Duration egetkey = microseconds(90);
  Duration ereport = microseconds(30);
  Duration report_verify = microseconds(12);

  // Crypto inside the enclave (AES-NI class throughput).
  double aes_gcm_ns_per_byte = 0.85;
  Duration aes_gcm_fixed = microseconds(2);
  Duration drbg_fixed = microseconds(3);

  // Platform Services monotonic counters (Management Engine flash).
  // Calibrated to the Fig. 3 baseline bars.
  Duration counter_create = milliseconds(250);
  Duration counter_increment = milliseconds(160);
  Duration counter_read = milliseconds(60);
  Duration counter_destroy = milliseconds(280);
  // Logical batch destroy: ONE firmware journal entry marks a list of
  // counters dead (irreversibly — reads fail immediately); the flash
  // slots are reclaimed by the ME firmware's background sweep at
  // counter_destroy cost each, off any enclave's critical path.
  Duration counter_retire = milliseconds(25);
  Duration pse_session = milliseconds(2);

  // Untrusted storage (OCALL + write + fsync for persisted library state).
  Duration disk_write = milliseconds(20);
  Duration disk_read = microseconds(150);

  // Network (LAN inside one data center).
  Duration net_latency = microseconds(120);     // one-way
  double net_bandwidth_gbps = 10.0;

  // Attestation services.
  Duration quote_generation = milliseconds(5);  // QE local attestation + sign
  Duration ias_round_trip = milliseconds(60);   // quote verification service

  // Relative jitter applied to each modeled latency (sigma of a
  // multiplicative gaussian factor); gives the benchmarks realistic
  // confidence intervals while staying reproducible per seed.
  double jitter_sigma = 0.04;

  /// Serialized-data transfer time at the modeled bandwidth.
  Duration transfer_time(uint64_t bytes) const {
    const double seconds_needed =
        static_cast<double>(bytes) * 8.0 / (net_bandwidth_gbps * 1e9);
    return seconds(seconds_needed);
  }

  /// GCM cost for a payload of `bytes`.
  Duration gcm_time(uint64_t bytes) const {
    return aes_gcm_fixed +
           nanoseconds(static_cast<uint64_t>(aes_gcm_ns_per_byte *
                                             static_cast<double>(bytes)));
  }
};

}  // namespace sgxmig
