// A minimal Hybster-style replicated state machine (Behl et al. [4]) on
// top of TrInX trusted counters.
//
// Hybster's key idea: with a trusted counter service, a leader can prove
// it assigned each request exactly one position in the order, so
// equivocation (telling different followers different things) becomes
// impossible and f faults need only 2f+1 replicas.  This harness
// implements the crash-free ordering path: the leader certifies each
// request with consecutive trusted-counter values, followers verify the
// certificate chain and apply requests in order, rejecting gaps, replays,
// and forged certificates.  The leader's enclave can migrate between
// machines mid-protocol via the migration framework without losing its
// certification identity or counter position.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/trinx.h"
#include "platform/world.h"

namespace sgxmig::apps {

/// A request certified into a position of the total order.
struct OrderedRequest {
  std::string request;
  TrinxCertificate certificate;
};

/// A (non-enclave) follower process: applies ordered requests.
class HybsterFollower {
 public:
  HybsterFollower(std::string name, crypto::Ed25519PublicKey leader_key)
      : name_(std::move(name)), leader_key_(leader_key) {}

  /// Applies the request if the certificate verifies, comes from the
  /// leader, and carries exactly the next order position.
  Status apply(const OrderedRequest& ordered);

  const std::vector<std::string>& log() const { return log_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  crypto::Ed25519PublicKey leader_key_;
  uint64_t next_expected_ = 1;
  std::vector<std::string> log_;
};

/// The leader's host process: owns the TrInX enclave and orders requests.
class HybsterLeader {
 public:
  /// Starts a fresh leader on `machine` (enclave + counter setup).
  HybsterLeader(platform::Machine& machine,
                std::shared_ptr<const sgx::EnclaveImage> image);

  /// Orders one client request (certifies it with the next counter value).
  Result<OrderedRequest> order(const std::string& request);

  /// Migrates the leader's enclave to another machine via the migration
  /// framework; ordering continues from the same counter position.
  Status migrate_to(platform::Machine& destination);

  crypto::Ed25519PublicKey public_key();
  uint64_t ordered_count();

 private:
  void wire_persistence(platform::Machine& machine);

  std::shared_ptr<const sgx::EnclaveImage> image_;
  std::unique_ptr<TrinxEnclave> enclave_;
  uint32_t ordering_counter_ = 0;
  Bytes last_snapshot_;  // retained for migration retries
};

/// Convenience cluster: one leader + N followers with a consistency check.
class HybsterCluster {
 public:
  HybsterCluster(platform::Machine& leader_machine, size_t follower_count,
                 std::shared_ptr<const sgx::EnclaveImage> image);

  /// Orders and replicates a request to every follower; returns kOk only
  /// if all followers applied it.
  Status submit(const std::string& request);

  Status migrate_leader(platform::Machine& destination) {
    return leader_.migrate_to(destination);
  }

  /// True iff every follower has the identical log.
  bool logs_consistent() const;
  size_t committed() const;
  HybsterLeader& leader() { return leader_; }
  std::vector<HybsterFollower>& followers() { return followers_; }

 private:
  HybsterLeader leader_;
  std::vector<HybsterFollower> followers_;
};

}  // namespace sgxmig::apps
