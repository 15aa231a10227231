#include "net/network.h"

#include "obs/observability.h"

namespace sgxmig::net {

Network::Network(VirtualClock& clock, Rng& rng, const CostModel& costs)
    : clock_(clock), rng_(rng), costs_(costs) {}

void Network::register_endpoint(const std::string& address,
                                RpcHandler handler) {
  endpoints_[address] = std::move(handler);
}

void Network::unregister_endpoint(const std::string& address) {
  endpoints_.erase(address);
  down_.erase(address);
  flaps_.erase(address);
}

bool Network::has_endpoint(const std::string& address) const {
  return endpoints_.count(address) != 0;
}

void Network::charge(Duration base) {
  clock_.advance(Duration(static_cast<int64_t>(
      static_cast<double>(base.count()) * rng_.jitter(costs_.jitter_sigma))));
}

obs::TraceRecorder* Network::recorder() const {
  return obs_ != nullptr && obs_->enabled() ? &obs_->trace : nullptr;
}

obs::MetricsRegistry* Network::metrics() const {
  return obs_ != nullptr && obs_->enabled() ? &obs_->metrics : nullptr;
}

void Network::track_pending(Duration at, const std::string& lane, int delta) {
  const int depth = (pending_per_lane_[lane] += delta);
  if (obs::TraceRecorder* rec = recorder()) {
    rec->counter_at(at, "net.pending", lane, static_cast<double>(depth));
  }
}

Result<Bytes> Network::rpc(const std::string& to, ByteView request) {
  if (obs::MetricsRegistry* m = metrics()) m->add("net.rpcs");
  const auto it = endpoints_.find(to);
  if (it == endpoints_.end()) return Status::kNetworkUnreachable;
  if (endpoint_down_at(to, clock_.now())) return Status::kNetworkUnreachable;

  Bytes in_flight = to_bytes(request);
  if (tamper_ != nullptr && !tamper_(to, in_flight)) {
    // Dropped by the adversary; the caller observes a network failure.
    if (obs::MetricsRegistry* m = metrics()) m->add("net.rpc_drops.tamper");
    charge(costs_.net_latency);
    return Status::kNetworkUnreachable;
  }

  ++rpcs_sent_;
  bytes_sent_ += in_flight.size();
  charge(costs_.net_latency + costs_.transfer_time(in_flight.size()));

  Result<Bytes> response = it->second(in_flight);

  if (response.ok() && response_tamper_ != nullptr) {
    Bytes reply = std::move(response).value();
    if (!response_tamper_(to, reply)) {
      // Reply dropped AFTER the handler ran: the caller sees a network
      // failure but the remote side has already committed the request.
      if (obs::MetricsRegistry* m = metrics()) {
        m->add("net.rpc_drops.reply_lost");
      }
      charge(costs_.net_latency);
      return Status::kNetworkUnreachable;
    }
    response = std::move(reply);
  }

  if (response.ok()) {
    bytes_sent_ += response.value().size();
    charge(costs_.net_latency + costs_.transfer_time(response.value().size()));
  } else {
    charge(costs_.net_latency);
  }
  return response;
}

void Network::set_endpoint_down(const std::string& address, bool down) {
  down_[address] = down;
}

void Network::schedule_endpoint_flap(const std::string& address,
                                     Duration down_at, Duration down_for) {
  if (down_for <= Duration::zero()) return;
  flaps_[address].emplace_back(down_at, down_at + down_for);
}

void Network::clear_endpoint_flaps(const std::string& address) {
  flaps_.erase(address);
}

bool Network::endpoint_down_at(const std::string& address, Duration at) const {
  const auto down_it = down_.find(address);
  if (down_it != down_.end() && down_it->second) return true;
  const auto flap_it = flaps_.find(address);
  if (flap_it == flaps_.end()) return false;
  for (const auto& [from, until] : flap_it->second) {
    if (at >= from && at < until) return true;
  }
  return false;
}

// ----- deferred delivery -----

Duration Network::wire_time(size_t bytes) {
  const Duration base = costs_.net_latency + costs_.transfer_time(bytes);
  return Duration(static_cast<int64_t>(static_cast<double>(base.count()) *
                                       rng_.jitter(costs_.jitter_sigma)));
}

std::string Network::lane_of(const std::string& endpoint) {
  const size_t slash = endpoint.find('/');
  return slash == std::string::npos ? endpoint : endpoint.substr(0, slash);
}

uint64_t Network::post(const std::string& to, ByteView request,
                       const std::string& from_endpoint,
                       ReplyCallback on_reply) {
  DeferredEvent event;
  event.to = to;
  event.from = from_endpoint;
  event.payload = to_bytes(request);
  event.on_reply = std::move(on_reply);
  const uint64_t seq = next_event_seq_++;
  event.id = seq;
  const Duration deliver_at = clock_.now() + wire_time(request.size());
  if (obs::TraceRecorder* rec = recorder()) {
    rec->instant("net.post", lane_of(from_endpoint), 0,
                 {{"msg", std::to_string(seq)},
                  {"to", to},
                  {"bytes", std::to_string(request.size())}});
  }
  if (obs::MetricsRegistry* m = metrics()) m->add("net.posts");
  track_pending(clock_.now(), lane_of(to), +1);
  events_.emplace(std::make_pair(deliver_at, seq), std::move(event));
  return seq;
}

void Network::deliver_request(Duration at, DeferredEvent event) {
  Result<Bytes> response = Status::kNetworkUnreachable;
  Duration handler_end = at;

  track_pending(at, lane_of(event.to), -1);
  Bytes in_flight = std::move(event.payload);
  const auto it = endpoints_.find(event.to);
  const bool reachable =
      it != endpoints_.end() && !endpoint_down_at(event.to, at);
  const bool tamper_dropped =
      reachable && tamper_ != nullptr && !tamper_(event.to, in_flight);
  if (obs::TraceRecorder* rec = recorder()) {
    if (reachable && !tamper_dropped) {
      rec->instant_at(at, "net.deliver", lane_of(event.to), 0,
                      {{"msg", std::to_string(event.id)}, {"to", event.to}});
    } else {
      const char* reason = !reachable
                               ? (it == endpoints_.end() ? "unreachable"
                                                         : "down")
                               : "tamper";
      rec->instant_at(at, "net.drop", lane_of(event.to), 0,
                      {{"msg", std::to_string(event.id)},
                       {"to", event.to},
                       {"reason", reason}});
    }
  }
  if (obs::MetricsRegistry* m = metrics()) {
    if (reachable && !tamper_dropped) {
      m->add("net.delivered");
    } else {
      m->add(tamper_dropped ? "net.drops.tamper" : "net.drops.unreachable");
    }
  }
  if (reachable && !tamper_dropped) {
    ++rpcs_sent_;
    bytes_sent_ += in_flight.size();
    const auto run_handler = [&] { response = it->second(in_flight); };
    if (lanes_ != nullptr) {
      handler_end = lanes_->run(lane_of(event.to), at, run_handler);
    } else {
      if (at > clock_.now()) clock_.set_now(at);
      run_handler();
      handler_end = clock_.now();
    }
    if (response.ok() && response_tamper_ != nullptr) {
      Bytes reply = std::move(response).value();
      if (!response_tamper_(event.to, reply)) {
        // Reply dropped AFTER the handler ran ("processed but reply
        // lost"): the poster sees a transport failure.
        response = Status::kNetworkUnreachable;
      } else {
        response = std::move(reply);
      }
    }
    if (response.ok()) bytes_sent_ += response.value().size();
  }

  DeferredEvent reply;
  reply.is_reply = true;
  reply.id = event.id;
  reply.from = std::move(event.from);
  reply.on_reply = std::move(event.on_reply);
  if (response.ok()) {
    reply.payload = std::move(response).value();
  } else {
    reply.failure = response.status();
  }
  const Duration reply_at = handler_end + wire_time(reply.payload.size());
  track_pending(handler_end, lane_of(reply.from), +1);
  const uint64_t seq = next_event_seq_++;
  events_.emplace(std::make_pair(reply_at, seq), std::move(reply));
}

void Network::deliver_reply(Duration at, DeferredEvent& event) {
  track_pending(at, lane_of(event.from), -1);
  if (obs::TraceRecorder* rec = recorder()) {
    if (!event.on_reply) {
      rec->instant_at(at, "net.reply_drop", lane_of(event.from), 0,
                      {{"msg", std::to_string(event.id)},
                       {"reason", "canceled"}});
    } else {
      rec->instant_at(at, "net.reply", lane_of(event.from), 0,
                      {{"msg", std::to_string(event.id)},
                       {"status",
                        std::string(status_name(event.failure))}});
    }
  }
  if (!event.on_reply) return;  // poster canceled (e.g. crashed ME)
  const auto run_reply = [&] {
    if (event.failure == Status::kOk) {
      event.on_reply(Result<Bytes>(std::move(event.payload)));
    } else {
      event.on_reply(Result<Bytes>(event.failure));
    }
  };
  if (lanes_ != nullptr) {
    lanes_->run(lane_of(event.from), at, run_reply);
  } else {
    if (at > clock_.now()) clock_.set_now(at);
    run_reply();
  }
}

bool Network::pump_one() {
  if (events_.empty()) return false;
  const auto it = events_.begin();
  const Duration at = it->first.first;
  DeferredEvent event = std::move(it->second);
  events_.erase(it);
  if (event.is_reply) {
    deliver_reply(at, event);
  } else {
    deliver_request(at, std::move(event));
  }
  return true;
}

size_t Network::pump_all() {
  size_t processed = 0;
  while (pump_one()) ++processed;
  return processed;
}

void Network::cancel_posts(const std::string& from_endpoint) {
  for (auto& [key, event] : events_) {
    if (event.from == from_endpoint) event.on_reply = nullptr;
  }
}

}  // namespace sgxmig::net
