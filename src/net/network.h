// Simulated data-center network.
//
// Synchronous RPC between named endpoints, charging virtual time for
// latency and bandwidth.  The network is UNTRUSTED: the adversary hooks
// let tests and attack harnesses observe, tamper with, or drop any
// message, matching the paper's threat model ("the ability to monitor and
// manipulate all network traffic").  Security must come from the
// attestation-derived secure channels layered on top (net/channel.h).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/bytes.h"
#include "support/cost_model.h"
#include "support/rng.h"
#include "support/sim_clock.h"
#include "support/status.h"

namespace sgxmig::obs {
struct Observability;
class TraceRecorder;
class MetricsRegistry;
}  // namespace sgxmig::obs

namespace sgxmig::net {

using RpcHandler = std::function<Result<Bytes>(ByteView request)>;

/// Continuation of a deferred (post()ed) request: invoked from pump_one()
/// with the peer's reply, or with the transport failure.
using ReplyCallback = std::function<void(Result<Bytes> reply)>;

/// Inspect/modify a request in flight; return false to drop it.
using TamperHook =
    std::function<bool(const std::string& to, Bytes& request)>;

/// Inspect/modify a RESPONSE in flight; return false to drop it.  The
/// handler has already run when this fires, so dropping models the
/// "request processed but reply lost" failure mode that the Migration
/// Enclave's durable transfer queue must survive (§V-D error handling).
using ResponseTamperHook =
    std::function<bool(const std::string& to, Bytes& response)>;

class Network {
 public:
  Network(VirtualClock& clock, Rng& rng, const CostModel& costs);

  void register_endpoint(const std::string& address, RpcHandler handler);
  void unregister_endpoint(const std::string& address);
  bool has_endpoint(const std::string& address) const;

  /// Synchronous request/response.  Charges 2x one-way latency plus
  /// transfer time for both directions.  Returns kNetworkUnreachable for
  /// unknown or downed endpoints and for dropped messages.
  Result<Bytes> rpc(const std::string& to, ByteView request);

  // ----- deferred delivery (the pipelined-transfer pump) -----
  //
  // post() puts a request "on the wire" without blocking: delivery is
  // scheduled at now + one-way latency + transfer time, and the poster's
  // continuation runs when the reply lands.  pump_one() advances the
  // earliest scheduled event — delivering a request to its endpoint
  // handler, or a reply to its continuation — so N in-flight
  // conversations interleave instead of serializing.
  //
  // Time accounting: with a LaneSchedule installed (set_lane_schedule),
  // the endpoint handler runs on the DESTINATION machine's lane (lane =
  // endpoint address up to the first '/') starting at the delivery
  // instant, and the continuation runs on the POSTER's lane at the reply
  // instant — so wire latency and per-machine compute of independent
  // conversations genuinely overlap.  Without one, the clock simply jumps
  // forward to each event time (never backward) and everything stays
  // monotone and deterministic.
  //
  // Fault semantics mirror rpc(): unknown/down endpoints and
  // tamper-dropped requests surface as kNetworkUnreachable to the
  // continuation; a response-tamper drop models "processed but reply
  // lost" — the handler ran, the continuation sees a transport failure.

  /// Schedules `request` for delivery to `to`.  `from_endpoint` names the
  /// poster (its machine lane is the reply lane, and cancel_posts() keys
  /// on it).  Returns the event id.
  uint64_t post(const std::string& to, ByteView request,
                const std::string& from_endpoint, ReplyCallback on_reply);

  /// Delivers the earliest scheduled event; false when none are pending.
  bool pump_one();

  /// Drains every scheduled event (including ones scheduled while
  /// pumping); returns how many were processed.
  size_t pump_all();

  /// Disowns every continuation registered by `from_endpoint`: requests
  /// already on the wire are still delivered (the bytes left the machine),
  /// but their replies are dropped.  Posters with shorter lifetimes than
  /// the network (e.g. a Migration Enclave that can be crash-simulated)
  /// MUST call this before dying.
  void cancel_posts(const std::string& from_endpoint);

  /// Installs the lane ledger deferred deliveries are attributed to
  /// (nullptr restores plain monotone pumping).  The caller owns it and
  /// must uninstall it before it dies.
  void set_lane_schedule(LaneSchedule* lanes) { lanes_ = lanes; }

  /// Installs the world's trace/metrics bundle (nullptr disconnects).
  /// When tracing is enabled the network emits net.post / net.deliver /
  /// net.drop / net.reply instants (timestamped at the scheduled delivery
  /// instant, not the recording instant) and a per-destination-lane
  /// "net.pending" queue-depth counter track.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  // ----- fault & adversary injection -----
  void set_endpoint_down(const std::string& address, bool down);
  /// Schedules a down-up flap: the endpoint is unreachable during
  /// [down_at, down_at + down_for).  Reachability is evaluated at the
  /// QUERY instant — rpc() uses the current clock, a deferred post() uses
  /// its scheduled delivery instant — so a message already on the wire
  /// when the flap begins is lost exactly when its delivery lands inside
  /// the window.  Flaps compose with set_endpoint_down and with the
  /// tamper hooks (a flapped-away message never reaches the hooks, like
  /// any other unreachable destination).  Windows may overlap.
  void schedule_endpoint_flap(const std::string& address, Duration down_at,
                              Duration down_for);
  void clear_endpoint_flaps(const std::string& address);
  /// True when `address` is administratively down (set_endpoint_down) or
  /// inside a scheduled flap window at instant `at`.
  bool endpoint_down_at(const std::string& address, Duration at) const;
  void set_tamper_hook(TamperHook hook) { tamper_ = std::move(hook); }
  void clear_tamper_hook() { tamper_ = nullptr; }
  void set_response_tamper_hook(ResponseTamperHook hook) {
    response_tamper_ = std::move(hook);
  }
  void clear_response_tamper_hook() { response_tamper_ = nullptr; }

  // ----- accounting -----
  uint64_t rpcs_sent() const { return rpcs_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct DeferredEvent {
    bool is_reply = false;
    uint64_t id = 0;          // post() return value; replies inherit it
    std::string to;           // request: destination endpoint
    std::string from;         // poster endpoint (cancel key + reply lane)
    Bytes payload;            // request bytes, or the reply bytes
    Status failure = Status::kOk;  // reply events: transport verdict
    ReplyCallback on_reply;   // null once canceled
  };

  void charge(Duration base);
  /// One modeled one-way trip (latency + bandwidth), jittered.
  Duration wire_time(size_t bytes);
  static std::string lane_of(const std::string& endpoint);
  void deliver_request(Duration at, DeferredEvent event);
  void deliver_reply(Duration at, DeferredEvent& event);

  /// The trace recorder / metrics registry, or nullptr when observability
  /// is absent or disabled.
  obs::TraceRecorder* recorder() const;
  obs::MetricsRegistry* metrics() const;
  /// Adjusts the in-flight count of `lane` and samples "net.pending".
  void track_pending(Duration at, const std::string& lane, int delta);

  VirtualClock& clock_;
  Rng& rng_;
  const CostModel& costs_;
  std::map<std::string, RpcHandler> endpoints_;
  std::map<std::string, bool> down_;
  // Scheduled flap windows per endpoint: [down_at, down_at + down_for).
  std::map<std::string, std::vector<std::pair<Duration, Duration>>> flaps_;
  TamperHook tamper_;
  ResponseTamperHook response_tamper_;
  LaneSchedule* lanes_ = nullptr;
  obs::Observability* obs_ = nullptr;
  std::map<std::string, int> pending_per_lane_;  // deferred events en route
  // (event time, sequence) orders deliveries deterministically.
  std::map<std::pair<Duration, uint64_t>, DeferredEvent> events_;
  uint64_t next_event_seq_ = 1;
  uint64_t rpcs_sent_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace sgxmig::net
