#include "migration/migration_enclave.h"

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>

#include "crypto/cmac.h"
#include "migration/durable_write.h"
#include "net/network.h"
#include "obs/observability.h"

namespace sgxmig::migration {

namespace {
constexpr char kAcceptedMarker[] = "SGXMIG-ACCEPTED";
constexpr char kPrecopyAckMarker[] = "SGXMIG-PC-ACK";
constexpr char kPrecopyFinMarker[] = "SGXMIG-PC-FIN";
constexpr char kQueueAad[] = "SGXMIG-ME-QUEUE";
// Freeze-aware arm pacing: at most this many armed payloads may be in
// flight before the poll stops reporting kSlotLive for parked (kAwaitArm)
// tasks.  Keeps the freeze window of each reserved task bounded by its
// OWN ship + accept, not the whole in-flight window's serialized
// source-lane work.
constexpr size_t kArmWindow = 2;
// Staging whose source stopped shipping for this long is presumed
// abandoned (no abort ever reached us).  Far above any live round gap; an
// ME restart RESUMES staging well inside the window.
constexpr Duration kPrecopyStagingMaxAge = seconds(600);
// Opportunistic DONE-relay retries are rate-limited on the virtual clock
// so a down source ME does not tax every unrelated request with one
// doomed rpc per backlog entry.
constexpr Duration kRelayRetryInterval = milliseconds(250);
// Same idea for reconcile sweeps against a still-live pending record
// (the common same-image serialization case).
constexpr Duration kReconcileRetryInterval = milliseconds(250);

MeResponse error_response(Status status) {
  MeResponse resp;
  resp.status = status;
  return resp;
}

// A library reply of `type` (status kOk) carrying `payload`.
LibMsg lib_reply(LibMsgType type, Bytes payload = {}) {
  return LibMsg{type, Status::kOk, std::move(payload)};
}

// ----- observability -----
//
// The ME never owns an Observability; it borrows the world's through its
// platform, and every hook below is a cheap no-op when tracing is off.

obs::Observability* enabled_obs(sgx::PlatformIface& platform) {
  obs::Observability* obs = platform.observability();
  return (obs != nullptr && obs->enabled()) ? obs : nullptr;
}

// TransferTask step transitions as trace instants on this ME's lane,
// keyed by the attempt nonce so they land inside the migration's tree.
void trace_task_step(sgx::PlatformIface& platform, uint64_t nonce,
                     const char* step) {
  obs::Observability* obs = enabled_obs(platform);
  if (obs == nullptr) return;
  obs->trace.instant("me.task.step", platform.address(), nonce,
                     {{"step", step}});
  obs->metrics.add(std::string("me.task.steps.") + step);
}

// ----- attestation-session resume transcripts -----
//
// All three values are CMACs under the cached master key over a
// domain-separated transcript that binds the conversation id, both
// parties' nonces and the responder epoch, so a resume message can be
// neither replayed into a different conversation nor spliced across
// epochs.

crypto::CmacTag resume_request_mac(const sgx::Key128& master, uint64_t id,
                                   const std::string& initiator_address,
                                   uint64_t responder_epoch,
                                   const std::array<uint8_t, 16>& nonce) {
  BinaryWriter w;
  w.str("SGXMIG-RESUME-REQ-v1");
  w.u64(id);
  w.str(initiator_address);
  w.u64(responder_epoch);
  w.fixed(nonce);
  const Bytes transcript = w.take();
  return crypto::aes_cmac(master, transcript);
}

crypto::CmacTag resume_reply_mac(const sgx::Key128& master, uint64_t id,
                                 const std::array<uint8_t, 16>& nonce_i,
                                 const std::array<uint8_t, 16>& nonce_r) {
  BinaryWriter w;
  w.str("SGXMIG-RESUME-REP-v1");
  w.u64(id);
  w.fixed(nonce_i);
  w.fixed(nonce_r);
  const Bytes transcript = w.take();
  return crypto::aes_cmac(master, transcript);
}

sgx::Key128 derive_resume_key(const sgx::Key128& master, uint64_t id,
                              const std::array<uint8_t, 16>& nonce_i,
                              const std::array<uint8_t, 16>& nonce_r) {
  BinaryWriter w;
  w.str("SGXMIG-RESUME-KEY-v1");
  w.u64(id);
  w.fixed(nonce_i);
  w.fixed(nonce_r);
  const Bytes transcript = w.take();
  return crypto::aes_cmac(master, transcript);
}
}  // namespace

MigrationEnclave::MigrationEnclave(sgx::PlatformIface& platform,
                                   std::shared_ptr<const sgx::EnclaveImage> image,
                                   platform::ProviderCa& provider)
    : Enclave(platform, std::move(image)),
      machine_key_(crypto::Ed25519KeyPair::from_seed(
          to_array<32>(rng().bytes(32)))),
      credential_(provider.issue(platform.address(), platform.region(),
                                 platform.cpu_cores(),
                                 machine_key_.public_key())),
      provider_ca_key_(provider.public_key()) {
  // Random per construction: a restarted ME presents a new epoch, so
  // initiators holding cached sessions for the old instance are refused
  // and fall back to the full handshake.
  instance_epoch_ = fresh_id();
  if (auto* net = this->platform().network()) {
    net->register_endpoint(this->platform().address() + "/me",
                           [this](ByteView raw) { return handle_request(raw); });
  }
}

MigrationEnclave::~MigrationEnclave() {
  if (auto* net = platform().network()) {
    net->unregister_endpoint(platform().address() + "/me");
    // Replies still in flight for this instance's TransferTask steps must
    // never resume into a destroyed enclave (the crash simulation kills
    // the object while conversations are live); the requests themselves
    // stay on the wire, which is exactly the real-world ambiguity the
    // nonce dedup exists for.
    net->cancel_posts(net_endpoint());
  }
}

std::string MigrationEnclave::net_endpoint() const {
  return platform().address() + "/me";
}

std::shared_ptr<const sgx::EnclaveImage> MigrationEnclave::standard_image() {
  static const std::shared_ptr<const sgx::EnclaveImage> image =
      sgx::EnclaveImage::create("migration-enclave", /*code_version=*/1,
                                /*signer_name=*/"cloud-provider",
                                /*isv_prod_id=*/0x00e0, /*isv_svn=*/1);
  return image;
}

uint64_t MigrationEnclave::fresh_id() {
  const Bytes b = rng().bytes(8);
  const uint64_t id = load_be64(b.data());
  return id == 0 ? 1 : id;
}

OutgoingState MigrationEnclave::outgoing_state(
    const sgx::Measurement& mr) const {
  // The per-identity index tracks the most recent transfer (the same
  // enclave may migrate away repeatedly over its lifetime), so this read
  // scans no transfer history.
  const auto it = latest_outgoing_.find(mr);
  return it == latest_outgoing_.end() ? OutgoingState::kNone
                                      : it->second.state;
}

OutgoingState MigrationEnclave::attempt_state(
    const sgx::Measurement& mr, uint64_t nonce,
    const std::string* destination) const {
  for (const auto& [id, transfer] : outgoing_) {
    if (transfer.source_mr == mr && transfer.request_nonce == nonce &&
        (destination == nullptr ||
         transfer.destination_address == *destination)) {
      return OutgoingState::kPending;
    }
  }
  for (const auto& [id, record] : completed_outgoing_) {
    if (record.source_mr == mr && record.request_nonce == nonce) {
      return OutgoingState::kCompleted;
    }
  }
  return OutgoingState::kNone;
}

void MigrationEnclave::record_completed(uint64_t transfer_id,
                                        const OutgoingTransfer& t) {
  CompletedOutgoing record;
  record.source_mr = t.source_mr;
  record.request_nonce = t.request_nonce;
  record.sequence = t.sequence;
  completed_outgoing_.put(transfer_id, record);
  completed_outgoing_.trim(completed_history_limit_);
}

void MigrationEnclave::set_completed_history_limit(size_t limit) {
  // The serialization format rejects restored queues claiming more than
  // kCompletedHistoryLimit entries (tamper check), so the override can
  // only shrink retention, never grow it past the format ceiling.
  completed_history_limit_ = (limit == 0 || limit >= kCompletedHistoryLimit)
                                 ? kCompletedHistoryLimit
                                 : limit;
  completed_outgoing_.trim(completed_history_limit_);
  confirmed_incoming_.trim(completed_history_limit_);
}

void MigrationEnclave::drop_sessions_for(const sgx::Measurement& mr) {
  for (auto it = la_sessions_.begin(); it != la_sessions_.end();) {
    // Never erase the session on_la_record is currently dispatching for:
    // a DONE can arrive reentrantly (over a nested rpc) for the same
    // MRENCLAVE while an instance of that image is mid-conversation.
    if (it->second.peer.mr_enclave == mr && it->first != active_la_session_) {
      it = la_sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<Bytes> MigrationEnclave::handle_request(ByteView raw) {
  auto scope = enter_ecall();
  // Opportunistic DONE-relay retry: any inbound traffic is evidence the
  // network is back; try to clear the backlog before serving the request.
  if (!done_relays_.empty() &&
      platform().clock().now() - last_relay_retry_ >= kRelayRetryInterval) {
    retry_done_relays();
  }
  // Same opportunism for abandoned pre-copy staging: inbound traffic is a
  // cheap moment to age out records whose source will never finalize.
  if (platform().clock().now() - last_staging_sweep_ >=
          kPrecopyStagingMaxAge &&
      (precopy_staging_count() != 0 || !transfer_tasks_.empty())) {
    sweep_stale_precopy_staging();
  }
  auto parsed = decode_record<MeRequest>(raw);
  if (!parsed.ok()) return encode_record(error_response(Status::kTampered));
  const MeRequest& req = parsed.value();

  MeResponse resp;
  switch (req.type) {
    case MeMsgType::kLaStart: resp = on_la_start(req); break;
    case MeMsgType::kLaMsg2: resp = on_la_msg2(req); break;
    case MeMsgType::kLaRecord: resp = on_la_record(req); break;
    case MeMsgType::kRaMsg1: resp = on_ra_msg1(req); break;
    case MeMsgType::kRaMsg3: resp = on_ra_msg3(req); break;
    case MeMsgType::kTransfer: resp = on_transfer(req); break;
    case MeMsgType::kDone: resp = on_done(req); break;
    case MeMsgType::kPrecopyChunk: resp = on_precopy_chunk(req); break;
    case MeMsgType::kPrecopyFinalize: resp = on_precopy_finalize(req); break;
    case MeMsgType::kReconcile: resp = on_reconcile(req); break;
    case MeMsgType::kAbort: resp = on_abort(req); break;
    case MeMsgType::kSessionResume: resp = on_session_resume(req); break;
  }
  return encode_record(resp);
}

// ----- local attestation service -----

MeResponse MigrationEnclave::on_la_start(const MeRequest& req) {
  // A replayed/colliding session id must not clobber a live session (its
  // channel — and any delivery pinned to it — would be silently lost).
  if (la_sessions_.count(req.id) != 0) {
    return error_response(Status::kAlreadyExists);
  }
  LaSessionState session;
  session.dh = std::make_unique<sgx::DhSession>(platform(), identity(),
                                                sgx::DhSession::Role::kResponder);
  session.last_used = platform().clock().now();
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = encode_record(session.dh->create_msg1());
  la_sessions_[req.id] = std::move(session);
  return resp;
}

MeResponse MigrationEnclave::on_la_msg2(const MeRequest& req) {
  const auto it = la_sessions_.find(req.id);
  if (it == la_sessions_.end()) return error_response(Status::kInvalidState);
  auto msg2 = decode_record<sgx::DhMsg2>(req.payload);
  if (!msg2.ok()) return error_response(Status::kTampered);
  auto msg3 = it->second.dh->handle_msg2(msg2.value());
  if (!msg3.ok()) {
    la_sessions_.erase(it);
    return error_response(msg3.status());
  }
  // Record the attested identity of the calling enclave: this MRENCLAVE is
  // what migration data is matched against (paper §VI-A).
  it->second.peer = it->second.dh->peer_identity();
  it->second.channel.emplace(it->second.dh->session_key(),
                             net::SecureChannel::Role::kResponder);
  it->second.last_used = platform().clock().now();
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = encode_record(msg3.value());
  return resp;
}

MeResponse MigrationEnclave::on_la_record(const MeRequest& req) {
  const auto it = la_sessions_.find(req.id);
  if (it == la_sessions_.end() || !it->second.channel.has_value()) {
    return error_response(Status::kInvalidState);
  }
  LaSessionState& session = it->second;
  session.last_used = platform().clock().now();
  auto plaintext = session.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  auto msg = decode_record<LibMsg>(plaintext.value());
  // A migrate or finalize request carries the MSK and counter values.
  secure_wipe(plaintext.value());
  if (!msg.ok()) return error_response(Status::kTampered);

  // Inner handlers can make nested rpcs whose peers re-enter
  // handle_request (DONE-relay retries): shield this session from
  // drop_sessions_for while it is being dispatched.
  const uint64_t previous_active = active_la_session_;
  active_la_session_ = req.id;
  const LibCaller from{req.id, session.peer.mr_enclave};
  const ByteView payload = msg.value().payload;
  LibReply served = Status::kInvalidParameter;
  switch (msg.value().type) {
    case LibMsgType::kMigrateRequest:
      served = serve(&MigrationEnclave::on_migrate_request, from, payload);
      break;
    case LibMsgType::kFetchIncoming:
      served = on_fetch_incoming(from);
      break;
    case LibMsgType::kWarmIncoming:
      served = on_warm_incoming(from);
      break;
    case LibMsgType::kConfirmMigration:
      served = serve(&MigrationEnclave::on_confirm_migration, from, payload);
      break;
    case LibMsgType::kQueryStatus:
      served = serve(&MigrationEnclave::on_query_status, from, payload);
      break;
    case LibMsgType::kPrecopyRound:
      served = serve(&MigrationEnclave::on_precopy_round, from, payload);
      break;
    case LibMsgType::kPrecopyFinalizeReq:
      served = serve(&MigrationEnclave::on_precopy_finalize_req, from, payload);
      break;
    case LibMsgType::kMigrateEnqueue:
      served = serve(&MigrationEnclave::on_migrate_enqueue, from, payload);
      break;
    case LibMsgType::kMigrateReserve:
      served = serve(&MigrationEnclave::on_migrate_reserve, from, payload);
      break;
    case LibMsgType::kMigrateArm:
      served = serve(&MigrationEnclave::on_migrate_arm, from, payload);
      break;
    case LibMsgType::kPollTransfer:
      served = serve(&MigrationEnclave::on_poll_transfer, from, payload);
      break;
    case LibMsgType::kAbortStale:
      served = serve(&MigrationEnclave::on_abort_stale, from, payload);
      break;
    default:
      break;
  }
  active_la_session_ = previous_active;
  secure_wipe(msg.value().payload);
  LibMsg reply = served.ok() ? std::move(served).value()
                             : LibMsg{LibMsgType::kError, served.status(), {}};
  // Re-resolve the session before touching the channel: belt over the
  // shield above, in case a reentrant path erased it after all.
  const auto after = la_sessions_.find(req.id);
  if (after == la_sessions_.end() || !after->second.channel.has_value()) {
    secure_wipe(reply.payload);
    return error_response(Status::kInvalidState);
  }
  MeResponse resp;
  resp.status = Status::kOk;
  Bytes reply_bytes = encode_record(reply);
  resp.payload = after->second.channel->seal_record(reply_bytes);
  // A fetched-data reply carries the MSK and counter values.
  secure_wipe(reply_bytes);
  secure_wipe(reply.payload);
  // A confirmed delivery ends the session's purpose: drop it so a long
  // drain does not accumulate one dead session per migrated enclave.  (A
  // library that outlives the confirm simply re-attests on its next call.)
  if (reply.type == LibMsgType::kConfirmAck) la_sessions_.erase(after);
  return resp;
}

// ----- inner LibMsg handlers -----

template <typename Payload>
MigrationEnclave::LibReply MigrationEnclave::serve(LibHandler<Payload> handler,
                                                   const LibCaller& from,
                                                   ByteView payload) {
  auto request = decode_record<Payload>(payload);
  if (!request.ok()) return request.status();
  return (this->*handler)(from, std::move(request).value());
}

MigrationEnclave::LibReply MigrationEnclave::on_migrate_request(
    const LibCaller& from, MigrateRequestPayload request) {
  const Status status = run_blocking_task(from.mr, std::move(request));
  if (status != Status::kOk) return status;
  return lib_reply(LibMsgType::kMigrateAccepted);
}

MigrationEnclave::LibReply MigrationEnclave::on_fetch_incoming(
    const LibCaller& from) {
  // Only assembled data is deliverable: staged rounds are no snapshot.
  const auto it = incoming_.find(from.mr);
  if (it == incoming_.end() || !it->second.assembled()) {
    return Status::kNoPendingMigration;
  }
  // Deliver to exactly one enclave instance: once handed to a session, no
  // other session may fetch it (prevents forking the migration data into
  // two concurrently-running destination enclaves).  The pin is released
  // only when the pinned session is GONE — erased, lost to an ME restart,
  // or idle past the takeover timeout (the destination instance died
  // before confirming) — so a replacement instance of the same attested
  // MRENCLAVE can re-fetch instead of the migration being stuck forever.
  if (it->second.delivering_session != 0 &&
      it->second.delivering_session != from.session_id) {
    const auto pinned = la_sessions_.find(it->second.delivering_session);
    const bool pinned_gone = pinned == la_sessions_.end();
    const bool pinned_idle =
        !pinned_gone && platform().clock().now() - pinned->second.last_used >=
                            delivery_takeover_timeout_;
    if (!pinned_gone && !pinned_idle) return Status::kMigrationInProgress;
    // Revoke the stale session so the presumed-dead instance cannot come
    // back and race the new one for the confirm.
    if (!pinned_gone) la_sessions_.erase(pinned);
  }
  it->second.delivering_session = from.session_id;
  // The token rides inside the sealed reply: possession later proves the
  // confirmer is the instance this very record reached.
  it->second.delivery_token = fresh_id();
  IncomingDataPayload incoming;
  incoming.data = encode_record(*it->second.data);
  incoming.delivery_token = it->second.delivery_token;
  incoming.request_nonce = it->second.request_nonce;
  if (obs::Observability* obs = enabled_obs(platform())) {
    obs->trace.instant("me.fetch", platform().address(),
                       it->second.request_nonce);
    obs->metrics.add("me.fetches");
  }
  Bytes payload = encode_record(incoming);
  // The data carries the MSK and every counter value; the reply's copy is
  // wiped by the front door once sealed.
  secure_wipe(incoming.data);
  return lib_reply(LibMsgType::kIncomingData, std::move(payload));
}

MigrationEnclave::LibReply MigrationEnclave::on_warm_incoming(
    const LibCaller& from) {
  // The binding names the attempt and which slots it holds, nothing
  // more: the counter values and the MSK are delivered only by the fetch.
  const auto it = incoming_.find(from.mr);
  if (it == incoming_.end()) return Status::kNoPendingMigration;
  WarmBindingPayload binding;
  binding.request_nonce = it->second.request_nonce;
  if (it->second.assembled()) {
    binding.active = it->second.data->counters_active;
  } else {
    for (const auto& [index, chunk] : it->second.chunks) {
      for (size_t s = 0; s < kPrecopyChunkSlots; ++s) {
        binding.active[index * kPrecopyChunkSlots + s] = chunk.active[s];
      }
    }
  }
  return lib_reply(LibMsgType::kWarmBinding, encode_record(binding));
}

MigrationEnclave::LibReply MigrationEnclave::on_confirm_migration(
    const LibCaller& from, ConfirmPayload confirm) {
  // Payload: the delivery token from the fetch reply.  An instance that
  // re-attested (channel desync, corrupted record forcing a fresh LA
  // session) confirms from a session that is NOT the pinned one; the
  // token — which only the fetch reply's recipient can hold —
  // re-establishes ownership.
  const uint64_t token = confirm.delivery_token;
  auto it = incoming_.find(from.mr);
  if (it != incoming_.end() && !it->second.assembled()) it = incoming_.end();
  const bool owner =
      it != incoming_.end() &&
      (it->second.delivering_session == from.session_id ||
       (token != 0 && token == it->second.delivery_token));
  if (owner && it->second.delivering_session != from.session_id) {
    // Token-based takeover: revoke the stale pinned session so the old
    // channel cannot race this one.
    la_sessions_.erase(it->second.delivering_session);
    it->second.delivering_session = from.session_id;
  }
  if (!owner) {
    // Idempotent re-confirm: if a migration for this identity was already
    // confirmed (the previous ConfirmAck reply was lost and the library
    // re-attested to retry), acknowledge again rather than failing the
    // fully restored destination instance.  No state changes; an enclave
    // that never fetched cannot reach its confirm step (its init fails at
    // the fetch), so this leaks nothing.
    if (it == incoming_.end() && confirmed_incoming_.count(from.mr) != 0) {
      return lib_reply(LibMsgType::kConfirmAck);
    }
    return Status::kInvalidState;
  }
  const uint64_t transfer_id = it->second.transfer_id;
  const std::string source_address = it->second.source_me_address;
  const uint64_t request_nonce = it->second.request_nonce;

  // Seal the DONE record for the source ME while the inbound channel is
  // still at hand, then retire both queue entries.  The record's erase
  // MUST be durable before the ConfirmAck leaves this enclave: if an ME
  // restart resurrected the record after the destination enclave
  // started running, a second instance could fetch it — the §III-B fork.
  const auto inbound_it = inbound_.find(transfer_id);
  std::optional<DoneRelay> relay;
  if (inbound_it != inbound_.end() && inbound_it->second.channel.has_value()) {
    DoneRelay r;
    r.source_me_address = source_address;
    r.sealed_record = inbound_it->second.channel->seal_record(
        encode_record(DoneRecord{transfer_id}));
    relay = std::move(r);
    inbound_.erase(inbound_it);
  }
  incoming_.erase(it);
  if (relay.has_value()) done_relays_[transfer_id] = std::move(*relay);
  confirmed_incoming_.put(from.mr, request_nonce);
  confirmed_incoming_.trim(completed_history_limit_);
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) return persisted;

  // Relay DONE to the source ME so it can delete its retained copy.  If
  // the source is unreachable the sealed record stays in the durable
  // relay backlog and is retried (§V-D's error handling: the source
  // simply keeps the data as "pending" until the DONE gets through).
  retry_done_relays();

  if (obs::Observability* obs = enabled_obs(platform())) {
    obs->trace.instant("me.confirm", platform().address(), request_nonce);
    obs->metrics.add("me.confirms");
  }
  return lib_reply(LibMsgType::kConfirmAck);
}

size_t MigrationEnclave::retry_done_relays() {
  auto* net = platform().network();
  if (net == nullptr) return done_relays_.size();
  // Reentrancy guard: a relay rpc makes the peer ME handle a request,
  // which opportunistically retries ITS backlog — two MEs with relays
  // pointed at each other would otherwise recurse without bound.
  if (retrying_relays_) return done_relays_.size();
  retrying_relays_ = true;
  last_relay_retry_ = platform().clock().now();
  std::vector<uint64_t> ids;
  ids.reserve(done_relays_.size());
  for (const auto& [id, relay] : done_relays_) ids.push_back(id);
  bool any_delivered = false;
  for (const uint64_t id : ids) {
    const DoneRelay& relay = done_relays_[id];
    MeRequest done_req;
    done_req.type = MeMsgType::kDone;
    done_req.id = id;
    done_req.payload = relay.sealed_record;
    auto raw =
        net->rpc(relay.source_me_address + "/me", encode_record(done_req));
    if (!raw.ok()) continue;
    auto resp = decode_record<MeResponse>(raw.value());
    if (!resp.ok()) continue;
    const Status status = resp.value().status;
    // kOk: the source acknowledged and deleted its copy.  kInvalidState:
    // the source does not know the transfer at all — the completion
    // record aged out of its bounded history, or it lost its queue —
    // so re-sending can never succeed; the entry is spent either way.
    // Anything else (transport loss, transient errors) keeps the entry
    // for another round.  (A network adversary forging an ack can at
    // worst make the source retain its copy forever — an availability
    // cost, never a fork.)
    if (status != Status::kOk && status != Status::kInvalidState) continue;
    done_relays_.erase(id);
    any_delivered = true;
  }
  retrying_relays_ = false;
  if (any_delivered) persist_queue();
  return done_relays_.size();
}

MigrationEnclave::LibReply MigrationEnclave::on_query_status(
    const LibCaller& from, NoncePayload query) {
  // A query asks the fate of exactly one migrate request, the resume path
  // a library uses when its ME exchange died mid-flight; nonce 0 names no
  // attempt.
  if (query.request_nonce == 0) return Status::kInvalidParameter;
  return lib_reply(LibMsgType::kStatusReport,
                   encode_record(StatusReportPayload{
                       attempt_state(from.mr, query.request_nonce)}));
}

// ----- ME<->ME attestation: one chain, four callers -----
//
// Paper Fig. 2 step 3: mutual RA + provider authentication, or a resume
// of the session a previous full handshake cached.

Status MigrationEnclave::attest_peer(bool inline_step,
                                     const std::string& destination,
                                     const MigrationPolicy& policy,
                                     AttestHooks hooks,
                                     AttestContinuation done) {
  return attest_begin(std::make_shared<AttestRun>(AttestRun{
      .inline_step = inline_step, .destination = destination,
      .policy = policy, .hooks = std::move(hooks), .done = std::move(done)}));
}

Status MigrationEnclave::attest_send(const AttestRunPtr& run,
                                     const MeRequest& req, const char* step,
                                     AttestStep next) {
  if (run->hooks.on_step) run->hooks.on_step(run->transfer_id, step);
  return send_step(run->inline_step, run->destination, req,
                   [this, run, next](Result<Bytes> raw) {
                     const auto& live = run->hooks.live;
                     if (live && !live(run->transfer_id)) {
                       return Status::kOk;  // superseded — the reply is stale
                     }
                     return (this->*next)(run, std::move(raw));
                   });
}

Status MigrationEnclave::attest_begin(const AttestRunPtr& run) {
  if (platform().network() == nullptr) {
    return run->done(0, Status::kNetworkUnreachable);
  }
  const uint64_t transfer_id = fresh_id();
  // An id collision must never clobber live conversation state; the
  // retryable-busy failure surfaces to the caller, whose retry draws a
  // fresh id.
  if (outgoing_.count(transfer_id) != 0 ||
      completed_outgoing_.count(transfer_id) != 0 ||
      inbound_.count(transfer_id) != 0) {
    return run->done(transfer_id, Status::kAlreadyExists);
  }
  run->transfer_id = transfer_id;
  const auto cached = peer_sessions_.find(run->destination);
  if (cached != peer_sessions_.end()) {
    // Migration policy against the CACHED provider-certified credential —
    // a denial here is as authoritative as one from a fresh handshake,
    // and no restart evidence, so the cache survives it.
    const Status policy = run->policy.evaluate(cached->second.credential);
    if (policy != Status::kOk) return run->done(transfer_id, policy);
    SessionResumeRequest resume;
    resume.initiator_address = platform().address();
    resume.responder_epoch = cached->second.peer_epoch;
    resume.nonce = to_array<16>(rng().bytes(16));
    resume.mac = resume_request_mac(cached->second.master_key, transfer_id,
                                    resume.initiator_address,
                                    resume.responder_epoch, resume.nonce);
    run->resume_nonce = resume.nonce;
    MeRequest rr;
    rr.type = MeMsgType::kSessionResume;
    rr.id = transfer_id;
    rr.payload = encode_record(resume);
    return attest_send(run, rr, "await-resume",
                       &MigrationEnclave::attest_on_resume);
  }
  run->ra = std::make_unique<sgx::RaSession>(platform(), identity(),
                                             sgx::RaSession::Role::kInitiator);
  MeRequest m1;
  m1.type = MeMsgType::kRaMsg1;
  m1.id = transfer_id;
  m1.payload = encode_record(run->ra->create_msg1());
  return attest_send(run, m1, "await-ra-msg2",
                     &MigrationEnclave::attest_on_ra_msg2);
}

Status MigrationEnclave::attest_on_resume(const AttestRunPtr& run,
                                          Result<Bytes> raw) {
  // Transport failure says nothing about the peer's session table: end
  // the run and keep the cache (a full handshake would hit the same dead
  // wire).
  if (!raw.ok()) return run->done(run->transfer_id, raw.status());
  auto fallback = [&] {
    // The peer answered but refused (restart, epoch bump, MAC rejection),
    // or the reply does not verify: retire the cache entry and restart
    // the run through the full handshake under a fresh transfer id.
    peer_sessions_.erase(run->destination);
    if (run->hooks.on_step) run->hooks.on_step(run->transfer_id, "requeued");
    return attest_begin(run);
  };
  auto resp = decode_record<MeResponse>(raw.value());
  if (!resp.ok() || resp.value().status != Status::kOk) return fallback();
  auto reply = decode_record<SessionResumeReply>(resp.value().payload);
  if (!reply.ok()) return fallback();
  const auto cached = peer_sessions_.find(run->destination);
  if (cached == peer_sessions_.end()) return fallback();
  const crypto::CmacTag expected =
      resume_reply_mac(cached->second.master_key, run->transfer_id,
                       run->resume_nonce, reply.value().nonce);
  if (!constant_time_eq(expected, reply.value().mac)) return fallback();
  const sgx::Key128 key =
      derive_resume_key(cached->second.master_key, run->transfer_id,
                        run->resume_nonce, reply.value().nonce);
  ++resumed_handshakes_;
  if (obs::Observability* obs = enabled_obs(platform())) {
    obs->metrics.add("me.handshake.resumed");
  }
  net::SecureChannel channel(key, net::SecureChannel::Role::kInitiator);
  return run->done(run->transfer_id, std::move(channel));
}

Status MigrationEnclave::attest_on_ra_msg2(const AttestRunPtr& run,
                                           Result<Bytes> raw) {
  const uint64_t id = run->transfer_id;
  auto reply = open_task_reply(raw);
  if (!reply.ok()) return run->done(id, reply.status());
  auto msg2 = decode_record<sgx::RaMsg2>(reply.value());
  if (!msg2.ok()) return run->done(id, Status::kTampered);
  auto msg3 = run->ra->handle_msg2(msg2.value());
  if (!msg3.ok()) return run->done(id, msg3.status());
  // The destination ME must run exactly this ME's code (paper §VI-A).
  if (!(run->ra->peer_identity().mr_enclave == identity().mr_enclave)) {
    return run->done(id, Status::kIdentityMismatch);
  }
  // Provider authentication (both directions).
  MeRequest m3;
  m3.type = MeMsgType::kRaMsg3;
  m3.id = id;
  m3.payload = encode_record(RaMsg3Payload{
      msg3.value(), make_provider_auth(run->ra->transcript_hash())});
  return attest_send(run, m3, "await-auth", &MigrationEnclave::attest_on_auth);
}

Status MigrationEnclave::attest_on_auth(const AttestRunPtr& run,
                                        Result<Bytes> raw) {
  const uint64_t id = run->transfer_id;
  auto reply = open_task_reply(raw);
  if (!reply.ok()) return run->done(id, reply.status());
  auto peer = decode_record<RaMsg3Reply>(reply.value());
  if (!peer.ok()) return run->done(id, Status::kTampered);
  const ProviderAuth& peer_auth = peer.value().auth;
  std::string peer_region;
  const Status auth_status =
      verify_provider_auth(peer_auth, run->ra->transcript_hash(),
                           run->destination, &peer_region);
  if (auth_status != Status::kOk) return run->done(id, auth_status);
  // Migration policy (paper §X extension): evaluated against the
  // destination's provider-CERTIFIED attributes, not self-claimed ones.
  const Status policy_status = run->policy.evaluate(peer_auth.credential);
  if (policy_status != Status::kOk) return run->done(id, policy_status);

  // Durability rides the caller's next persist_queue() — losing a cache
  // entry only costs a full handshake.
  peer_sessions_[run->destination] =
      PeerSession{run->ra->session_key(), peer.value().epoch,
                  peer_auth.credential, peer_region};
  ++full_handshakes_;
  if (obs::Observability* obs = enabled_obs(platform())) {
    obs->metrics.add("me.handshake.full");
  }
  net::SecureChannel channel(run->ra->session_key(),
                             net::SecureChannel::Role::kInitiator);
  return run->done(id, std::move(channel));
}

MeResponse MigrationEnclave::on_session_resume(const MeRequest& req) {
  auto parsed = decode_record<SessionResumeRequest>(req.payload);
  if (!parsed.ok()) return error_response(Status::kTampered);
  const SessionResumeRequest& resume = parsed.value();
  const auto it = resume_acceptors_.find(resume.initiator_address);
  if (it == resume_acceptors_.end()) {
    // Acceptors are memory-only BY DESIGN: a restarted ME cannot prove it
    // never forked the old session's state, so it forces the initiator
    // back through the full handshake.
    return error_response(Status::kInvalidState);
  }
  if (resume.responder_epoch != instance_epoch_) {
    resume_acceptors_.erase(it);
    return error_response(Status::kInvalidState);
  }
  const crypto::CmacTag expected = resume_request_mac(
      it->second.master_key, req.id, resume.initiator_address,
      resume.responder_epoch, resume.nonce);
  if (!constant_time_eq(expected, resume.mac)) {
    // A forged/tampered resume retires the acceptor: worst case the
    // legitimate initiator is downgraded to a full handshake.
    resume_acceptors_.erase(it);
    return error_response(Status::kMacMismatch);
  }
  // A colliding conversation id must not clobber a live inbound transfer.
  if (inbound_.count(req.id) != 0) {
    return error_response(Status::kAlreadyExists);
  }
  SessionResumeReply reply;
  reply.nonce = to_array<16>(rng().bytes(16));
  reply.mac = resume_reply_mac(it->second.master_key, req.id, resume.nonce,
                               reply.nonce);
  InboundTransfer inbound;
  inbound.authenticated = true;
  inbound.source_region = it->second.source_region;
  inbound.source_address = it->second.source_address;
  inbound.channel.emplace(
      derive_resume_key(it->second.master_key, req.id, resume.nonce,
                        reply.nonce),
      net::SecureChannel::Role::kResponder);
  inbound_[req.id] = std::move(inbound);
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = encode_record(reply);
  return resp;
}

Status MigrationEnclave::dedup_against_queue(
    const sgx::Measurement& source_mr, uint64_t nonce,
    const std::string& destination_address) {
  // Exactly-once dedup: a library whose previous attempt's REPLY was lost
  // re-sends the same request (same nonce, same destination — the library
  // draws a fresh nonce when it re-routes).  If that attempt already
  // retained (or even completed) a transfer, report success instead of
  // shipping the data a second time.
  if (nonce == 0) return Status::kNoPendingMigration;
  const OutgoingState state =
      attempt_state(source_mr, nonce, &destination_address);
  // Re-fence before acking a retained entry: if the original attempt's
  // persist failed, this success must not stand on a non-durable entry.
  if (state == OutgoingState::kPending) return persist_queue();
  if (state == OutgoingState::kCompleted) return Status::kOk;
  return Status::kNoPendingMigration;
}

Status MigrationEnclave::run_blocking_task(sgx::Measurement source_mr,
                                           MigrateRequestPayload request) {
  if (request.destination_address == platform().address()) {
    return Status::kInvalidParameter;
  }
  const uint64_t nonce = request.request_nonce;
  const Status dedup = dedup_against_queue(source_mr, nonce,
                                           request.destination_address);
  if (dedup != Status::kNoPendingMigration) return dedup;
  const auto queued = transfer_tasks_.find(nonce);
  const bool takeover = queued != transfer_tasks_.end();
  if (takeover && !(queued->second.source_mr == source_mr)) {
    return Status::kAlreadyExists;  // foreign nonce collision
  }
  TransferTask task;
  task.source_mr = source_mr;
  task.request = std::move(request);
  task.blocking = true;
  transfer_tasks_[nonce] = std::move(task);
  if (takeover) {
    // A live task for this nonce (caller mixed the non-blocking and
    // blocking APIs) is superseded: left alive, both would retain the
    // transfer once each.  Fence its durable form away before the first
    // send (a blocking task is never serialized).  Any record the queued
    // task already put on the wire re-ships the same nonce, which the
    // destination supersedes idempotently — never a fork.
    const Status persisted = persist_queue();
    if (persisted != Status::kOk) {
      transfer_tasks_.erase(nonce);
      return persisted;
    }
  }
  // Every step runs inline, so this returns with the task retained (and
  // erased) or kFailed.
  kick_task(nonce);
  const auto done = transfer_tasks_.find(nonce);
  if (done == transfer_tasks_.end()) return Status::kOk;
  const Status failure = done->second.failure;
  transfer_tasks_.erase(done);
  return failure;
}

// ----- outgoing step machine (TransferTask + pre-copy ships) -----
//
// The source-side protocol decomposed at its network round trips: each
// step parses the previous reply, advances the task, and sends the next
// message through send_step.  Queued tasks post through the
// deferred-delivery pump, so N tasks interleave over independent RA
// channels; the source ME's compute still serializes (one enclave), but
// wire latency and the destination MEs' work genuinely overlap — which
// is what turns the orchestrator's in-flight cap into a throughput lever.
// A blocking start runs the same steps over rpc, priced like one call.

Status MigrationEnclave::send_step(bool inline_step,
                                   const std::string& destination,
                                   const MeRequest& req,
                                   StepContinuation next) {
  net::Network* net = platform().network();
  const Bytes wire = encode_record(req);
  if (inline_step) return next(net->rpc(destination + "/me", wire));
  net->post(destination + "/me", wire, net_endpoint(),
            [this, next = std::move(next)](Result<Bytes> raw) {
              // The reply lands in an ecall of its own.
              auto scope = enter_ecall();
              (void)next(std::move(raw));
            });
  return Status::kOk;
}

MigrationEnclave::LibReply MigrationEnclave::on_migrate_enqueue(
    const LibCaller& from, MigrateRequestPayload request) {
  return queue_task(from.mr, std::move(request), /*armed=*/true);
}

MigrationEnclave::LibReply MigrationEnclave::on_migrate_reserve(
    const LibCaller& from, MigrateReservePayload reservation) {
  // Enqueue-without-freeze: the library reserves a transfer slot while the
  // enclave keeps running.  The task attests ahead of time and then parks
  // at kAwaitArm; the poll reports kSlotLive and only then does the
  // library freeze, collect, and arm the payload.
  // A reservation is a migrate request with its data still to come.
  MigrateRequestPayload request;
  static_cast<MigrateReservePayload&>(request) = std::move(reservation);
  return queue_task(from.mr, std::move(request), /*armed=*/false);
}

MigrationEnclave::LibReply MigrationEnclave::queue_task(
    const sgx::Measurement& mr, MigrateRequestPayload request, bool armed) {
  const uint64_t nonce = request.request_nonce;
  // Already retained/completed (re-sent enqueue after a lost reply):
  // idempotent queue — the poll will observe kAccepted.
  const Status dedup =
      dedup_against_queue(mr, nonce, request.destination_address);
  if (dedup == Status::kOk) return lib_reply(LibMsgType::kMigrateQueued);
  if (dedup != Status::kNoPendingMigration) return dedup;
  bool created = false;
  auto slot = find_or_create_task(mr, nonce, request.destination_address,
                                  /*precopy=*/false, &created);
  if (!slot.ok()) return slot.status();
  TransferTask& task = *slot.value();
  if (!created) {
    if (task.step == TransferTask::Step::kFailed) {
      // An unpolled stale failure superseded by a retry of the same
      // attempt: restart it.  The durable form (nonce, mr, request) is
      // unchanged — tasks persist as kQueued — so no re-fence is needed
      // before the ack.
      task.step = TransferTask::Step::kQueued;
      task.failure = Status::kOk;
      task.channel.reset();
      kick_task(nonce);
    }
    // Mid-flight: idempotent re-queue.
    return lib_reply(LibMsgType::kMigrateQueued);
  }
  task.request = std::move(request);
  task.armed = armed;
  // Durable BEFORE the queued ack: a restarted ME must resume this
  // pipeline — the library holds no copy of the conversation, only the
  // right to poll its fate.
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) {
    transfer_tasks_.erase(nonce);
    return persisted;
  }
  kick_task(nonce);
  return lib_reply(LibMsgType::kMigrateQueued);
}

Result<MigrationEnclave::TransferTask*> MigrationEnclave::find_task(
    const sgx::Measurement& mr, uint64_t nonce, const std::string& destination,
    bool precopy) {
  // The queue is built on nonce-scoped exactly-once semantics (a restarted
  // ME resumes its tasks by nonce); a nonce-less request can only run as a
  // blocking start.
  if (nonce == 0) return Status::kInvalidParameter;
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) return nullptr;
  TransferTask& task = it->second;
  if (!(task.source_mr == mr)) return Status::kAlreadyExists;  // foreign
  // One nonce binds one (attempt, destination, mode): the library draws a
  // fresh nonce on every re-route and mode switch, so a mismatch is a
  // broken client.  Honoring it would also desync the durable task (which
  // resurrects with the OLD destination after a restart).
  if (task.request.destination_address != destination ||
      task.precopy != precopy) {
    return Status::kInvalidParameter;
  }
  return &task;
}

Result<MigrationEnclave::TransferTask*> MigrationEnclave::find_or_create_task(
    const sgx::Measurement& mr, uint64_t nonce, const std::string& destination,
    bool precopy, bool* created) {
  if (destination == platform().address()) return Status::kInvalidParameter;
  auto found = find_task(mr, nonce, destination, precopy);
  const bool fresh = found.ok() && found.value() == nullptr;
  if (created != nullptr) *created = fresh;
  if (!fresh) return found;
  TransferTask& task = transfer_tasks_[nonce];
  task.source_mr = mr;
  task.request.destination_address = destination;
  task.request.request_nonce = nonce;
  task.precopy = precopy;
  return &task;
}

MigrationEnclave::LibReply MigrationEnclave::on_migrate_arm(
    const LibCaller& from, MigrateRequestPayload request) {
  const uint64_t nonce = request.request_nonce;
  auto found = find_task(from.mr, nonce, request.destination_address,
                         /*precopy=*/false);
  if (!found.ok()) return found.status();
  if (found.value() == nullptr) {
    // An arm re-sent after a lost ack may find the task already dissolved
    // into a retained/completed transfer: idempotent success.
    const Status dedup =
        dedup_against_queue(from.mr, nonce, request.destination_address);
    if (dedup != Status::kOk) return dedup;
    return lib_reply(LibMsgType::kArmAck);
  }
  TransferTask& task = *found.value();
  if (task.armed && task.step == TransferTask::Step::kAwaitAccept) {
    // Duplicate arm while the payload is already on the wire.
    return lib_reply(LibMsgType::kArmAck);
  }
  MigrationData previous = std::move(task.request.data);
  const bool was_armed = task.armed;
  task.request.data = std::move(request.data);
  task.armed = true;
  // Durable BEFORE the ack: the armed payload is the state the library
  // just destroyed its live instance for.
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) {
    task.request.data = std::move(previous);
    task.armed = was_armed;
    return persisted;
  }
  if (task.step == TransferTask::Step::kAwaitArm) {
    ship_task_payload(nonce, task);
  }
  // Still attesting (e.g. after an ME restart collapsed the task to
  // kQueued): task_attested ships the armed payload when the channel is
  // ready.  A kFailed task keeps its failure for the next poll.
  return lib_reply(LibMsgType::kArmAck);
}

void MigrationEnclave::pump() {
  auto scope = enter_ecall();
  // Queued full-snapshot tasks re-attest; idle async pre-copy tasks get
  // their next hop (re)posted — a round record, or the staged finalize
  // once the library committed one.  Full-snapshot kicks post first.
  std::vector<uint64_t> attests;
  std::vector<uint64_t> hops;
  for (const auto& [nonce, task] : transfer_tasks_) {
    if (task.step != TransferTask::Step::kQueued) continue;
    if (!task.precopy) {
      attests.push_back(nonce);
    } else if (async_precopy_) {
      hops.push_back(nonce);
    }
  }
  for (const uint64_t nonce : attests) kick_task(nonce);
  for (const uint64_t nonce : hops) kick_precopy_ship(nonce);
}

Status MigrationEnclave::kick_task(uint64_t nonce) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end() ||
      it->second.step != TransferTask::Step::kQueued) {
    return Status::kOk;
  }
  TransferTask& task = it->second;
  task.step = TransferTask::Step::kAttesting;
  AttestHooks hooks;
  hooks.on_step = [this, nonce](uint64_t transfer_id, const char* step) {
    transfer_tasks_.at(nonce).transfer_id = transfer_id;
    trace_task_step(platform(), nonce, step);
  };
  hooks.live = [this, nonce](uint64_t transfer_id) {
    const auto live = transfer_tasks_.find(nonce);
    return live != transfer_tasks_.end() &&
           live->second.step == TransferTask::Step::kAttesting &&
           live->second.transfer_id == transfer_id;
  };
  return attest_peer(
      task.blocking, task.request.destination_address, task.request.policy,
      std::move(hooks),
      [this, nonce](uint64_t transfer_id, Result<net::SecureChannel> channel) {
        const auto landed = transfer_tasks_.find(nonce);
        if (landed == transfer_tasks_.end() ||
            landed->second.step != TransferTask::Step::kAttesting) {
          return Status::kOk;
        }
        if (!channel.ok()) return fail_task(nonce, channel.status());
        landed->second.transfer_id = transfer_id;
        landed->second.channel.emplace(std::move(channel).value());
        return task_attested(nonce, landed->second);
      });
}

Result<Bytes> MigrationEnclave::open_task_reply(const Result<Bytes>& raw) {
  if (!raw.ok()) return raw.status();
  auto resp = decode_record<MeResponse>(raw.value());
  if (!resp.ok()) return Status::kTampered;
  if (resp.value().status != Status::kOk) return resp.value().status;
  return resp.value().payload;
}

Status MigrationEnclave::open_sealed_ack(
    const Result<Bytes>& raw, std::optional<net::SecureChannel>& channel,
    std::string_view marker) {
  auto reply = open_task_reply(raw);
  if (!reply.ok()) return reply.status();
  if (!channel.has_value()) return Status::kInvalidState;
  auto ack = channel->open_record(reply.value());
  if (!ack.ok()) return ack.status();
  return to_string(ack.value()) == marker ? Status::kOk : Status::kTampered;
}

Status MigrationEnclave::task_attested(uint64_t nonce, TransferTask& task) {
  if (!task.armed) {
    // Enqueue-without-freeze: hold the attested channel and let the next
    // poll report kSlotLive.  The library freezes, collects, and arms —
    // only then does the payload ship.
    task.step = TransferTask::Step::kAwaitArm;
    trace_task_step(platform(), nonce, "await-arm");
    return Status::kOk;
  }
  return ship_task_payload(nonce, task);
}

Status MigrationEnclave::ship_task_payload(uint64_t nonce,
                                           TransferTask& task) {
  TransferPayload payload;
  payload.source_mr_enclave = task.source_mr;
  payload.source_me_address = platform().address();
  payload.request_nonce = nonce;
  payload.data = task.request.data;
  Bytes payload_bytes = encode_record(payload);
  charge_gcm(payload_bytes.size());
  MeRequest t;
  t.type = MeMsgType::kTransfer;
  t.id = task.transfer_id;
  t.payload = task.channel->seal_record(payload_bytes);
  // Both plaintexts carry the MSK and every counter value.
  wipe(payload.data);
  secure_wipe(payload_bytes);
  task.step = TransferTask::Step::kAwaitAccept;
  trace_task_step(platform(), nonce, "await-accept");
  return send_step(task.blocking, task.request.destination_address, t,
                   [this, nonce](Result<Bytes> raw2) {
                     return task_on_accept(nonce, std::move(raw2));
                   });
}

Status MigrationEnclave::task_on_accept(uint64_t nonce, Result<Bytes> raw) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end() ||
      it->second.step != TransferTask::Step::kAwaitAccept) {
    return Status::kOk;
  }
  TransferTask& task = it->second;
  const Status accepted = open_sealed_ack(raw, task.channel, kAcceptedMarker);
  if (accepted != Status::kOk) return fail_task(nonce, accepted);
  // A failed persist surfaces through a terminal task that still carries
  // the real request — a restart resurrects it as a well-formed kQueued
  // retry, not an empty husk.
  const Status retained = retain_task(nonce, encode_record(task.request.data));
  if (retained != Status::kOk) return fail_task(nonce, retained);
  return Status::kOk;
}

Status MigrationEnclave::retain_task(uint64_t nonce, Bytes retained_data,
                                     bool persist) {
  // Retained durably — the copy and the channel that will authenticate
  // the DONE must both survive an ME restart (without `persist`, the
  // record persisted at an async finalize's ship covers a restart until
  // the next queue commit writes the entry).  The task dissolves into
  // the retained transfer BEFORE the snapshot is cut, so a restore never
  // resurrects both (a resumed task would re-ship a nonce that is already
  // retained).
  const auto it = transfer_tasks_.find(nonce);
  TransferTask task = std::move(it->second);
  transfer_tasks_.erase(it);
  OutgoingTransfer transfer;
  transfer.source_mr = task.source_mr;
  transfer.destination_address = task.request.destination_address;
  transfer.request_nonce = nonce;
  transfer.retained_data = std::move(retained_data);
  transfer.channel = std::exchange(task.channel, std::nullopt);
  transfer.sequence = next_outgoing_sequence_++;
  latest_outgoing_[task.source_mr] = {transfer.sequence,
                                      OutgoingState::kPending};
  outgoing_[task.transfer_id] = std::move(transfer);
  // Pre-copy ship steps are not traced, so neither is their end.
  if (!task.precopy) trace_task_step(platform(), nonce, "retained");
  if (!persist) return Status::kOk;
  const Status persisted = persist_queue(nonce);
  if (persisted != Status::kOk) {
    // The retained entry must not stand non-durable: unwind it with the
    // index entry it brought, and hand the task back to its mode's
    // failure rule.
    drop_outgoing(outgoing_.find(task.transfer_id));
    transfer_tasks_[nonce] = std::move(task);
  }
  return persisted;
}

MigrationEnclave::OutgoingMap::iterator MigrationEnclave::drop_outgoing(
    OutgoingMap::iterator it) {
  secure_wipe(it->second.retained_data);
  const auto latest = latest_outgoing_.find(it->second.source_mr);
  if (latest != latest_outgoing_.end() &&
      latest->second.sequence == it->second.sequence) {
    latest_outgoing_.erase(latest);
  }
  return outgoing_.erase(it);
}

Status MigrationEnclave::fail_task(uint64_t nonce, Status status) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) return status;
  it->second.step = TransferTask::Step::kFailed;
  it->second.failure = status;
  trace_task_step(platform(), nonce, "failed");
  it->second.channel.reset();
  return status;
}

MigrationEnclave::LibReply MigrationEnclave::on_poll_transfer(
    const LibCaller& from, NoncePayload poll) {
  const uint64_t nonce = poll.request_nonce;
  const sgx::Measurement& mr = from.mr;
  TransferProgressPayload progress;
  const auto it = transfer_tasks_.find(nonce);
  // A pre-copy task WITHOUT a staged finalize falls through to the queue
  // state (kNone): the ME restarted before the finalize shipped, or the
  // finalize spent its ship budget, and the frozen library must re-send
  // it.
  if (it != transfer_tasks_.end() && it->second.source_mr == mr &&
      (!it->second.precopy || it->second.staged_finalize.has_value())) {
    if (it->second.step == TransferTask::Step::kFailed) {
      progress.progress = TransferProgress::kFailed;
      progress.failure = it->second.failure;
      // The failure is consumed by this report: the library owns the
      // retry decision from here (possibly re-enqueueing under the same
      // nonce, or re-routing under a fresh one).  The consumption must
      // be durable like every other queue transition — a snapshot still
      // carrying the task would resurrect the abandoned attempt as
      // kQueued after a restart and re-ship it to a destination the
      // library may have left behind.
      TransferTask failed = std::move(it->second);
      transfer_tasks_.erase(it);
      const Status persisted = persist_queue();
      if (persisted != Status::kOk) {
        // Reinstate the WHOLE task (request included): a restart must
        // resurrect a well-formed kQueued retry, not an empty husk
        // whose re-kick would mask the original failure.
        transfer_tasks_[nonce] = std::move(failed);
        return persisted;
      }
    } else if (it->second.step == TransferTask::Step::kAwaitArm) {
      // Attested and parked: the enclave may freeze+collect+arm — but only
      // while the armed ship window has room.  Unpaced, every parked task
      // would freeze at once and then wait through the whole in-flight
      // window's serialized source-lane seals; paced, each freeze covers
      // little more than its own ship + accept.
      size_t armed_in_flight = 0;
      for (const auto& [n, t] : transfer_tasks_) {
        if (t.armed && t.step == TransferTask::Step::kAwaitAccept) {
          ++armed_in_flight;
        }
      }
      progress.progress = armed_in_flight < kArmWindow
                              ? TransferProgress::kSlotLive
                              : TransferProgress::kInFlight;
    } else {
      // Shipping, or an async finalize awaiting its next kick: the
      // library keeps polling.
      progress.progress = TransferProgress::kInFlight;
    }
  } else {
    progress.progress = attempt_state(mr, nonce) != OutgoingState::kNone
                            ? TransferProgress::kAccepted
                            : TransferProgress::kNone;
  }
  return lib_reply(LibMsgType::kTransferProgress, encode_record(progress));
}

// ----- proactive abort on re-route -----

Status MigrationEnclave::abort_remote_pending(
    const sgx::Measurement& source_mr, uint64_t nonce,
    const std::string& destination_address) {
  if (nonce == 0 || destination_address.empty() ||
      destination_address == platform().address()) {
    return Status::kInvalidParameter;
  }
  // The abort authorizes the destination to delete migration state, so it
  // must arrive over a mutually attested, provider-authenticated channel
  // — the destination additionally checks the entry really originated
  // from THIS machine.
  AttemptRef request;
  request.source_mr_enclave = source_mr;
  request.request_nonce = nonce;
  const auto reply = attested_query<AbortReply>(
      destination_address, MeMsgType::kAbort, encode_record(request));
  if (!reply.ok()) return reply.status();
  // Not forgettable: the destination holds a DELIVERED entry for this
  // nonce — an instance may still confirm it, so nothing may be forgotten
  // here.
  return reply.value().forgettable ? Status::kOk
                                   : Status::kMigrationInProgress;
}

template <typename Reply>
Result<Reply> MigrationEnclave::attested_query(const std::string& peer,
                                               MeMsgType type,
                                               const Bytes& request) {
  Reply verdict;
  const Status status = attest_peer(
      /*inline_step=*/true, peer, MigrationPolicy{}, AttestHooks{},
      [&](uint64_t transfer_id, Result<net::SecureChannel> channel) {
        if (!channel.ok()) return channel.status();
        MeRequest req;
        req.type = type;
        req.id = transfer_id;
        req.payload = channel.value().seal_record(request);
        return send_step(true, peer, req, [&](Result<Bytes> raw) {
          auto reply = open_task_reply(raw);
          if (!reply.ok()) return reply.status();
          auto record = channel.value().open_record(reply.value());
          if (!record.ok()) return record.status();
          auto parsed = decode_record<Reply>(record.value());
          if (!parsed.ok()) return parsed.status();
          verdict = parsed.value();
          return Status::kOk;
        });
      });
  if (status != Status::kOk) return status;
  return verdict;
}

MigrationEnclave::LibReply MigrationEnclave::on_abort_stale(
    const LibCaller& from, AbortStalePayload abort) {
  const uint64_t nonce = abort.request_nonce;
  const sgx::Measurement& mr = from.mr;
  // The re-routed attempt's own source-side task is orphaned too: an
  // abandoned pre-copy attempt or an unpolled/unfinished transfer for
  // this nonce will never finalize — drop it before telling the
  // destination.
  const auto task = transfer_tasks_.find(nonce);
  if (task != transfer_tasks_.end() && task->second.source_mr == mr) {
    transfer_tasks_.erase(task);
    // Fence BEFORE the remote abort: if the local drop cannot be made
    // durable, do not expire the destination's copy either — a restart
    // would resurrect the dropped task and re-ship the abandoned
    // attempt, recreating the very orphan this path exists to prevent.
    const Status persisted = persist_queue();
    if (persisted != Status::kOk) return persisted;
  }
  // Best-effort remote expiry: a failure leaves the pull-based reconcile
  // sweep as the backstop, exactly as before.
  const Status remote =
      abort_remote_pending(mr, nonce, abort.destination_address);
  bool wiped = false;
  if (remote == Status::kOk) {
    // The destination vouches it holds nothing undelivered for this
    // nonce: a retained copy of the abandoned attempt (its ACCEPTED
    // landed but the library never learned) has no one left to serve —
    // wipe it so a re-routed migration does not leak one retained
    // snapshot per abandoned destination.
    // The aborted attempt reads as kNone (like a fresh ME); the
    // re-routed attempt re-populates the index with its own sequence.
    for (auto it = outgoing_.begin(); it != outgoing_.end();) {
      if (it->second.source_mr == mr && it->second.request_nonce == nonce) {
        it = drop_outgoing(it);
        wiped = true;
      } else {
        ++it;
      }
    }
  }
  LibMsg reply = lib_reply(LibMsgType::kAbortAck);
  reply.status = remote;
  if (wiped) {
    // Fenced like every queue transition; on failure surface the persist
    // status instead of the remote verdict (the wiped entry resurrects
    // from the stale snapshot after a restart — the caller must not
    // read that as a clean abort).
    const Status persisted = persist_queue();
    if (persisted != Status::kOk) reply.status = persisted;
  }
  return reply;
}

// ----- live pre-copy (source side) -----

namespace {
// Chunks merge by generation: replayed or re-shipped chunks are
// idempotent, later generations win.
void merge_by_generation(std::map<uint32_t, CounterChunk>& merged,
                         const std::vector<CounterChunk>& chunks) {
  for (const CounterChunk& chunk : chunks) {
    const auto it = merged.find(chunk.index);
    if (it == merged.end() || it->second.generation <= chunk.generation) {
      merged[chunk.index] = chunk;
    }
  }
}

// Whether `chunks` holds exactly the generation of every chunk the
// manifest lists: the one completeness test of a finalize, at both ends.
bool covers_manifest(const std::map<uint32_t, CounterChunk>& chunks,
                     const std::vector<ChunkManifestEntry>& manifest) {
  return std::all_of(manifest.begin(), manifest.end(),
                     [&](const ChunkManifestEntry& expected) {
                       const auto chunk = chunks.find(expected.index);
                       return chunk != chunks.end() &&
                              chunk->second.generation == expected.generation;
                     });
}

// The snapshot a finalize manifest names: each listed chunk's slots
// (a chunk missing from `chunks` is all inactive) plus the MSK.  Both
// ends assemble it — the destination as the incoming record, the source as
// the copy it retains until DONE.
MigrationData assemble_snapshot(const std::map<uint32_t, CounterChunk>& chunks,
                                const std::vector<ChunkManifestEntry>& manifest,
                                const sgx::Key128& msk) {
  MigrationData assembled;
  assembled.msk = msk;
  for (const ChunkManifestEntry& entry : manifest) {
    const auto chunk = chunks.find(entry.index);
    if (chunk == chunks.end()) continue;
    for (size_t s = 0; s < kPrecopyChunkSlots; ++s) {
      const size_t slot = entry.index * kPrecopyChunkSlots + s;
      assembled.counters_active[slot] = chunk->second.active[s];
      assembled.counter_values[slot] =
          chunk->second.active[s] ? chunk->second.values[s] : 0;
    }
  }
  return assembled;
}
}  // namespace

Result<MigrationEnclave::TransferTask*> MigrationEnclave::precopy_attempt(
    const sgx::Measurement& source_mr, const std::string& destination,
    uint64_t nonce, const MigrationPolicy& policy) {
  auto slot =
      find_or_create_task(source_mr, nonce, destination, /*precopy=*/true);
  if (!slot.ok()) return slot.status();
  TransferTask& task = *slot.value();
  task.last_update = platform().clock().now();
  if (!task.channel.has_value()) {
    // First contact, or the previous channel was dropped after a failed
    // send: attest afresh under a new transfer id and re-ship everything
    // merged so far (the destination converges by chunk generation no
    // matter which records were lost).
    const Status attested = attest_peer(
        /*inline_step=*/true, destination, policy, AttestHooks{},
        [&](uint64_t transfer_id, Result<net::SecureChannel> channel) {
          if (!channel.ok()) return channel.status();
          task.transfer_id = transfer_id;
          task.channel.emplace(std::move(channel).value());
          task.resync = task.rounds > 0;
          return Status::kOk;
        });
    if (attested != Status::kOk) return attested;
  }
  return &task;
}

MigrationEnclave::LibReply MigrationEnclave::on_precopy_round(
    const LibCaller& from, PrecopyRoundPayload round) {
  auto attempt = precopy_attempt(from.mr, round.destination_address,
                                 round.request_nonce, round.policy);
  if (!attempt.ok()) return attempt.status();
  // Merge, then ship; no queue write.  The merged set is soft state: the
  // live library still holds every staged chunk and the destination its
  // durable staging, so a restart that loses rounds is caught at the
  // finalize, which refuses a merged set that does not cover its manifest
  // (kPrecopyIncomplete) and gets the library's whole staged set.  The
  // async transport acks before the hop and ships behind the pump (rounds
  // of different enclaves overlap on the source lane).  The sync transport
  // ships inline and replies with the hop's outcome — one attempt (plus
  // the re-attest below when the destination forgot us); a failure drops
  // the channel, and the next round re-attests and resyncs.
  merge_by_generation(attempt.value()->merged, round.chunks);
  Status status = kick_precopy_ship(round.request_nonce);
  if (status == Status::kInvalidState && !async_precopy_) {
    // The destination no longer knows this conversation (its staging was
    // aged out or superseded): the failed hop dropped the channel, so one
    // fresh attempt re-attests and re-ships the whole merged set.
    attempt = precopy_attempt(from.mr, round.destination_address,
                              round.request_nonce, round.policy);
    status = attempt.ok() ? kick_precopy_ship(round.request_nonce)
                          : attempt.status();
  }
  if (status != Status::kOk) return status;
  return lib_reply(LibMsgType::kPrecopyAck);
}

size_t DurableQueue::memory_bytes() const {
  const auto entries = [](const auto& map) {
    return map.size() *
           sizeof(typename std::decay_t<decltype(map)>::value_type);
  };
  const auto history = [](const auto& fifo) {
    return fifo.size() * (sizeof(*fifo.begin()) + sizeof(fifo.fifo()[0]));
  };
  size_t bytes = entries(inbound_) + entries(outgoing_) +
                 entries(transfer_tasks_) + entries(incoming_) +
                 entries(latest_outgoing_) + entries(done_relays_) +
                 entries(peer_sessions_) + history(completed_outgoing_) +
                 history(confirmed_incoming_);
  for (const auto& [id, transfer] : outgoing_) {
    bytes += transfer.retained_data.capacity();
  }
  for (const auto& [nonce, task] : transfer_tasks_) {
    bytes += entries(task.merged) + entries(task.acked);
    if (task.staged_finalize.has_value()) {
      bytes += task.staged_finalize->chunks.capacity() * sizeof(CounterChunk) +
               task.staged_finalize->manifest.capacity() *
                   sizeof(ChunkManifestEntry);
    }
  }
  for (const auto& [mr, record] : incoming_) bytes += entries(record.chunks);
  for (const auto& [id, relay] : done_relays_) {
    bytes += relay.sealed_record.capacity();
  }
  return bytes;
}

std::vector<CounterChunk> DurableQueue::TransferTask::unacked_chunks()
    const {
  std::vector<CounterChunk> chunks;
  for (const auto& [index, chunk] : merged) {
    const auto front = acked.find(index);
    if (resync || front == acked.end() || front->second < chunk.generation) {
      chunks.push_back(chunk);
    }
  }
  return chunks;
}

namespace {
// How often a failed finalize is re-shipped (re-attesting each time)
// before the attempt is handed back to the library, which re-sends it.
constexpr uint32_t kFinalizeShipAttempts = 3;
}  // namespace

Status DurableQueue::TransferTask::spend_finalize_try(Status status) {
  // Past the budget, hand back to the library: its poll observes kNone
  // (or the sync reply carries the failure) and the still frozen enclave
  // re-sends the finalize (dedup'd by nonce).  A resumed finalize's
  // library may be gone, so it keeps re-shipping (re-attesting each pump)
  // until the destination answers; its refusal to start a record of an
  // unknown migration is the one answer that hands it back.
  const bool hand_back = resumed
                             ? status == Status::kNoPendingMigration
                             : ++finalize_attempts >= kFinalizeShipAttempts;
  if (hand_back) staged_finalize.reset();
  return status;
}

Status MigrationEnclave::kick_precopy_ship(uint64_t nonce) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) return Status::kOk;
  TransferTask& task = it->second;
  if (task.step != TransferTask::Step::kQueued) return Status::kOk;
  if (task.staged_finalize.has_value()) {
    // The library already committed the finalize: further round hops are
    // moot — everything unacked rides inside the finalize record.
    return kick_precopy_finalize(nonce);
  }
  // No channel means the last ship failed (or the ME restarted): the next
  // library round or the finalize re-attests synchronously and resyncs.
  if (!task.channel.has_value()) return Status::kOk;
  if (platform().network() == nullptr) return Status::kNetworkUnreachable;
  // One record per attempt in flight at a time (the channel's record
  // sequence demands ordering); ship everything merged beyond what the
  // destination has acked.
  std::vector<CounterChunk> to_send = task.unacked_chunks();
  if (to_send.empty()) return Status::kOk;
  std::vector<ChunkManifestEntry> shipped;
  shipped.reserve(to_send.size());
  for (const CounterChunk& chunk : to_send) {
    shipped.push_back({chunk.index, chunk.generation});
  }
  PrecopyChunkRecord record;
  record.source_mr_enclave = task.source_mr;
  record.source_me_address = platform().address();
  record.request_nonce = nonce;
  record.round = task.rounds;
  record.chunks = std::move(to_send);
  Bytes record_bytes = encode_record(record);
  charge_gcm(record_bytes.size());
  MeRequest req;
  req.type = MeMsgType::kPrecopyChunk;
  req.id = task.transfer_id;
  req.payload = task.channel->seal_record(record_bytes);
  secure_wipe(record_bytes);  // counter values
  task.step = TransferTask::Step::kAwaitRoundAck;
  const uint64_t transfer_id = task.transfer_id;
  return send_step(!async_precopy_, task.request.destination_address, req,
                   [this, nonce, transfer_id,
                    shipped = std::move(shipped)](Result<Bytes> raw) {
                     return precopy_on_round_ack(nonce, transfer_id, shipped,
                                                 std::move(raw));
                   });
}

Status MigrationEnclave::precopy_on_round_ack(
    uint64_t nonce, uint64_t transfer_id,
    const std::vector<ChunkManifestEntry>& shipped, Result<Bytes> raw) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) {
    return Status::kOk;  // finalized/aborted meanwhile
  }
  TransferTask& task = it->second;
  if (task.step != TransferTask::Step::kAwaitRoundAck ||
      task.transfer_id != transfer_id) {
    return Status::kOk;  // superseded by a re-attest — stale ack
  }
  task.step = TransferTask::Step::kQueued;
  const Status failure = open_sealed_ack(raw, task.channel, kPrecopyAckMarker);
  if (failure != Status::kOk) {
    // The merged set stays; the next round or the finalize resyncs.
    return precopy_ship_failed(task, failure, /*finalize=*/false);
  }
  task.resync = false;
  ++task.rounds;
  for (const ChunkManifestEntry& entry : shipped) {
    auto acked = task.acked.find(entry.index);
    if (acked == task.acked.end() || acked->second < entry.generation) {
      task.acked[entry.index] = entry.generation;
    }
  }
  // No re-seal here: rounds and the acked front are reconstruction state,
  // like the merged set itself.  A restored task re-attests and resyncs
  // whatever it holds, and the finalize's coverage check fetches anything
  // a restart lost from the library.
  // Rounds merged while this one was on the wire ship immediately — or
  // the finalize, if the library committed one meanwhile.
  return kick_precopy_ship(nonce);
}

Status MigrationEnclave::precopy_ship_failed(TransferTask& task,
                                             Status failure, bool finalize) {
  // The channel may have desynced (our seal advanced the send sequence,
  // or the peer's ack advanced its own): drop it and resync over a fresh
  // attestation on the next kick.
  task.channel.reset();
  task.resync = true;
  if (finalize) {
    // A hand back drops the staged finalize, which the finalize record
    // may hold.  A failed round changes nothing durable.
    task.spend_finalize_try(failure);
    persist_queue();
  }
  return failure;
}

Status MigrationEnclave::kick_precopy_finalize(uint64_t nonce) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) return Status::kOk;
  TransferTask& task = it->second;
  if (!task.staged_finalize.has_value() ||
      task.step != TransferTask::Step::kQueued) {
    return Status::kOk;
  }
  // Every failed try spends one unit of the ship budget.
  if (platform().network() == nullptr) {
    return task.spend_finalize_try(Status::kNetworkUnreachable);
  }
  if (!task.channel.has_value()) {
    // The previous ship failed (or a round desynced the channel): one
    // synchronous re-attest — precopy_attempt flips resync on, so the
    // re-post carries the whole merged set.
    auto fresh =
        precopy_attempt(task.source_mr, task.request.destination_address,
                        nonce, task.staged_finalize->policy);
    if (!fresh.ok()) return task.spend_finalize_try(fresh.status());
  }
  // Everything merged beyond the destination's acked front rides inside
  // the finalize record (on resync: the whole merged set); the manifest
  // check at the destination proves completeness either way.
  PrecopyFinalizeRecord record;
  record.source_mr_enclave = task.source_mr;
  record.source_me_address = platform().address();
  record.request_nonce = nonce;
  record.round = task.staged_finalize->round;
  record.chunks = task.unacked_chunks();
  record.manifest = task.staged_finalize->manifest;
  record.msk = task.staged_finalize->msk;
  record.resumed = task.resumed;
  Bytes record_bytes = encode_record(record);
  charge_gcm(record_bytes.size());
  MeRequest req;
  req.type = MeMsgType::kPrecopyFinalize;
  req.id = task.transfer_id;
  req.payload = task.channel->seal_record(record_bytes);
  // The MSK and counter values.
  secure_wipe(record_bytes);
  secure_wipe(record.msk.data(), record.msk.size());
  task.step = TransferTask::Step::kAwaitFinalizeAck;
  const uint64_t transfer_id = task.transfer_id;
  const Status sent =
      send_step(!async_precopy_, task.request.destination_address, req,
                [this, nonce, transfer_id](Result<Bytes> raw) {
                  return precopy_on_finalize_ack(nonce, transfer_id,
                                                 std::move(raw));
                });
  if (!async_precopy_ || sent != Status::kOk) return sent;
  // The record is on the wire.  The resumable finalize record — this task
  // with its staged finalize, and the channel past the record's seal — is
  // written now, on this lane, while the record travels and the
  // destination writes its own fence, so the ack needs no write of its
  // own.  If it cannot be made durable, this ship fails like a failed hop:
  // the dropped channel makes its ack stale, and the next kick re-ships.
  const Status persisted = persist_queue(nonce);
  if (persisted == Status::kOk) return Status::kOk;
  task.step = TransferTask::Step::kQueued;
  return precopy_ship_failed(task, persisted, /*finalize=*/true);
}

Status MigrationEnclave::precopy_on_finalize_ack(uint64_t nonce,
                                                 uint64_t transfer_id,
                                                 Result<Bytes> raw) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) return Status::kOk;  // aborted
  TransferTask& task = it->second;
  if (task.step != TransferTask::Step::kAwaitFinalizeAck ||
      task.transfer_id != transfer_id) {
    return Status::kOk;  // superseded by a resync re-attest — stale ack
  }
  task.step = TransferTask::Step::kQueued;
  if (!task.staged_finalize.has_value()) return Status::kOk;
  // kPrecopyIncomplete included: a failure resyncs the full merged set
  // under a fresh attestation on the next kick.
  Status failure = open_sealed_ack(raw, task.channel, kPrecopyFinMarker);
  if (failure == Status::kOk) {
    // The destination assembled the authoritative snapshot: retain the
    // equivalent full copy until DONE, exactly like a full-snapshot
    // transfer; the library's poll then observes kAccepted.  Async: in
    // memory only — the record persisted at the ship backs it (a restart
    // re-ships it) until the next queue commit makes the entry durable.
    const PrecopyFinalizePayload& fin = *task.staged_finalize;
    failure = retain_task(
        nonce,
        encode_record(assemble_snapshot(task.merged, fin.manifest, fin.msk)),
        /*persist=*/!async_precopy_);
    if (failure == Status::kOk) return Status::kOk;
  }
  // After a failed retain the task was reinstated: find it again.
  return precopy_ship_failed(transfer_tasks_.at(nonce), failure,
                             /*finalize=*/true);
}

MigrationEnclave::LibReply MigrationEnclave::on_precopy_finalize_req(
    const LibCaller& from, PrecopyFinalizePayload fin) {
  const uint64_t nonce = fin.request_nonce;
  // Idempotent re-finalize: if this attempt already became a retained (or
  // completed) transfer — the previous reply was lost — acknowledge
  // without shipping again.
  const Status dedup =
      dedup_against_queue(from.mr, nonce, fin.destination_address);
  if (dedup == Status::kOk) return lib_reply(LibMsgType::kFinalizeAccepted);
  if (dedup != Status::kNoPendingMigration) return dedup;
  auto attempt =
      precopy_attempt(from.mr, fin.destination_address, nonce, fin.policy);
  if (!attempt.ok()) return attempt.status();
  TransferTask& live = *attempt.value();
  merge_by_generation(live.merged, fin.chunks);
  fin.chunks.clear();  // merged: the task holds each chunk once
  // The merged set is soft state: a task created after the library's
  // first round, or restored from a queue written before its last ones,
  // may miss chunks.  Such a finalize is refused once, from memory; the
  // library re-sends it with its whole staged set, which covers the
  // manifest, so the copy retained below is exact.
  if (!covers_manifest(live.merged, fin.manifest)) {
    return Status::kPrecopyIncomplete;
  }
  live.staged_finalize = std::move(fin);
  live.finalize_attempts = 0;
  live.resumed = false;
  // No persist here: the frozen library still holds the finalize, and a
  // restart before the ship makes it re-send the whole finalize (poll
  // sees kNone; dedup'd by nonce).  Async: the record ships now, or
  // behind a round hop still in flight on this channel, and its ship
  // persists the resumable finalize record; the ack then retains in
  // memory.  Sync: the ship runs inline, and a failed one re-attests and
  // re-ships the merged set until the ship budget drops the staged
  // finalize; its one queue seal is the retained-transfer persist.
  Status shipped = kick_precopy_ship(nonce);
  const auto staged = [&] {
    const auto it = transfer_tasks_.find(nonce);
    return it != transfer_tasks_.end() &&
           it->second.staged_finalize.has_value();
  };
  while (!async_precopy_ && shipped != Status::kOk && staged()) {
    shipped = kick_precopy_finalize(nonce);
  }
  if (shipped != Status::kOk) return shipped;
  // Still staged: the record is in flight (the frozen library polls its
  // fate); otherwise the destination accepted and the copy is retained.
  return lib_reply(staged() ? LibMsgType::kMigrateQueued
                            : LibMsgType::kFinalizeAccepted);
}

// ----- incoming migration (destination side) -----

MeResponse MigrationEnclave::on_ra_msg1(const MeRequest& req) {
  // A colliding transfer id must not clobber a live inbound transfer.
  if (inbound_.count(req.id) != 0) {
    return error_response(Status::kAlreadyExists);
  }
  auto msg1 = decode_record<sgx::RaMsg1>(req.payload);
  if (!msg1.ok()) return error_response(Status::kTampered);
  InboundTransfer inbound;
  inbound.ra = std::make_unique<sgx::RaSession>(
      platform(), identity(), sgx::RaSession::Role::kResponder);
  auto msg2 = inbound.ra->handle_msg1(msg1.value());
  if (!msg2.ok()) return error_response(msg2.status());
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = encode_record(msg2.value());
  inbound_[req.id] = std::move(inbound);
  return resp;
}

MeResponse MigrationEnclave::on_ra_msg3(const MeRequest& req) {
  const auto it = inbound_.find(req.id);
  if (it == inbound_.end() || it->second.ra == nullptr) {
    // Unknown id, or an entry restored from the durable queue (its RA
    // handshake finished in a previous ME lifetime).
    return error_response(Status::kInvalidState);
  }
  InboundTransfer& inbound = it->second;

  auto payload = decode_record<RaMsg3Payload>(req.payload);
  if (!payload.ok()) return error_response(Status::kTampered);
  const ProviderAuth& auth = payload.value().auth;
  const Status ra_status = inbound.ra->handle_msg3(payload.value().msg3);
  if (ra_status != Status::kOk) {
    inbound_.erase(it);
    return error_response(ra_status);
  }
  // Peer ME identity check (mirror of the outgoing side).
  if (!(inbound.ra->peer_identity().mr_enclave == identity().mr_enclave)) {
    inbound_.erase(it);
    return error_response(Status::kIdentityMismatch);
  }
  // Source provider authentication.
  std::string source_region;
  const Status auth_status = verify_provider_auth(
      auth, inbound.ra->transcript_hash(),
      /*expected_address=*/auth.credential.address, &source_region);
  if (auth_status != Status::kOk) {
    inbound_.erase(it);
    return error_response(auth_status);
  }
  inbound.source_region = source_region;
  inbound.source_address = auth.credential.address;
  inbound.authenticated = true;
  inbound.channel.emplace(inbound.ra->session_key(),
                          net::SecureChannel::Role::kResponder);

  // Register the resume acceptor for this (verified) peer: a later
  // kSessionResume from the same certified address can re-key without the
  // full handshake.  Memory-only — a restart forgets it deliberately.
  ResumeAcceptor acceptor;
  acceptor.master_key = inbound.ra->session_key();
  acceptor.source_region = source_region;
  acceptor.source_address = inbound.source_address;
  resume_acceptors_[inbound.source_address] = std::move(acceptor);

  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = encode_record(RaMsg3Reply{
      make_provider_auth(inbound.ra->transcript_hash()), instance_epoch_});
  return resp;
}

// ----- incoming records: one per identity, staged then assembled -----

void DurableQueue::IncomingRecord::assemble(MigrationData assembled) {
  data = std::move(assembled);
  rounds = 0;
  chunks.clear();
  last_update = {};
}

size_t MigrationEnclave::pending_incoming_count() const {
  return static_cast<size_t>(
      std::count_if(incoming_.begin(), incoming_.end(),
                    [](const auto& e) { return e.second.assembled(); }));
}

size_t MigrationEnclave::precopy_staging_count() const {
  return incoming_.size() - pending_incoming_count();
}

template <typename Record>
Result<MigrationEnclave::OpenedRecord<Record>>
MigrationEnclave::open_inbound_record(const MeRequest& req, bool charge) {
  const auto it = inbound_.find(req.id);
  if (it == inbound_.end() || !it->second.authenticated) {
    return Status::kInvalidState;
  }
  auto plaintext = it->second.channel->open_record(req.payload);
  if (!plaintext.ok()) return plaintext.status();
  if (charge) charge_gcm(plaintext.value().size());
  auto record = decode_record<Record>(plaintext.value());
  // A data-carrying record holds the MSK and counter values.
  secure_wipe(plaintext.value());
  if (!record.ok()) return Status::kTampered;
  return OpenedRecord<Record>{&it->second, std::move(record).value()};
}

bool MigrationEnclave::expire_incoming(IncomingMap::iterator it,
                                       uint64_t live_transfer_id) {
  // Delivered (or delivering) data is protected by the pin, never expired.
  if (it->second.delivering_session != 0) return false;
  if (it->second.transfer_id != live_transfer_id) {
    inbound_.erase(it->second.transfer_id);
  }
  incoming_.erase(it);
  return true;
}

Result<MigrationEnclave::IncomingRecord*> MigrationEnclave::claim_incoming(
    const sgx::Measurement& mr, uint64_t nonce,
    const std::string& source_me_address, uint64_t transfer_id) {
  // A record must be identifiable to its source ME (abort, reconcile).
  if (nonce == 0) return Status::kInvalidParameter;
  const auto held = incoming_.find(mr);
  if (held != incoming_.end()) {
    IncomingRecord& record = held->second;
    if (record.request_nonce == nonce &&
        record.source_me_address == source_me_address) {
      // The same logical migration: a lost ack, a channel desync or a
      // source ME restart made the source re-attest, so the previous
      // conversation is dead.  Its data stays until a passing assembly
      // replaces it with the same data (one nonce, one snapshot).
      if (record.transfer_id != transfer_id) {
        inbound_.erase(record.transfer_id);
        record.transfer_id = transfer_id;
      }
      return &record;
    }
    // Once a session has fetched the data, nothing replaces it: the
    // delivery pin's fork prevention outranks any newer attempt.
    if (record.delivering_session != 0) return Status::kAlreadyExists;
    if (!record.assembled()) {
      // A fresh nonce is a NEW attempt: the staged one was abandoned
      // (re-route, restarted pre-copy).  Staging is never handed to an
      // enclave, so dropping it cannot fork.
      expire_incoming(held, transfer_id);
    } else if (reconcile_pending(mr) != Status::kOk) {
      // An undelivered assembled record of another migration blocks unless
      // its source ME vouches the identity completed elsewhere (the
      // lost-ACCEPTED re-route orphan); reconcile_pending expires it then.
      return Status::kAlreadyExists;
    }
  }
  IncomingRecord fresh;
  fresh.transfer_id = transfer_id;
  fresh.source_me_address = source_me_address;
  fresh.request_nonce = nonce;
  return &(incoming_[mr] = std::move(fresh));
}

template <typename Record, typename Apply>
MeResponse MigrationEnclave::accept_record(const MeRequest& req,
                                           std::string_view ack,
                                           Apply apply) {
  auto opened = open_inbound_record<Record>(req, /*charge=*/true);
  if (!opened.ok()) return error_response(opened.status());
  Record& record = opened.value().record;
  net::SecureChannel& channel = *opened.value().inbound->channel;
  // A source ME that restarted (or was rolled back) to before this ME
  // confirmed the migration re-ships it under the same nonce.  A second
  // record would let a second instance fetch it — the §III-B fork — so
  // the repeat gets the ack and, at once, the DONE it is owed.
  constexpr bool kAssembles = !std::is_same_v<Record, PrecopyChunkRecord>;
  const auto held = incoming_.find(record.source_mr_enclave);
  const bool holds_it = held != incoming_.end() &&
                        held->second.request_nonce == record.request_nonce &&
                        held->second.source_me_address ==
                            record.source_me_address;
  const auto confirmed = confirmed_incoming_.find(record.source_mr_enclave);
  const bool repeat = kAssembles && held == incoming_.end() &&
                      confirmed != confirmed_incoming_.end() &&
                      confirmed->second == record.request_nonce;
  bool resumed = false;
  if constexpr (std::is_same_v<Record, PrecopyFinalizeRecord>) {
    resumed = record.resumed;
  }
  if (!repeat) {
    // The confirm history is bounded (and a later migration of the
    // identity replaces its entry), so a resumed finalize may repeat a
    // confirm this ME no longer remembers: it only completes a record of
    // its own migration.
    if (resumed && !holds_it) {
      return error_response(Status::kNoPendingMigration);
    }
    auto claimed =
        claim_incoming(record.source_mr_enclave, record.request_nonce,
                       record.source_me_address, req.id);
    if (!claimed.ok()) return error_response(claimed.status());
    const Status applied = apply(record, *claimed.value());
    if (applied != Status::kOk) return error_response(applied);
  }

  MeResponse resp;
  resp.status = Status::kOk;
  // Seal the ack BEFORE snapshotting: the snapshot must capture the
  // channel's post-ack sequence numbers, or a DONE sealed after a
  // restart would fail the source's replay check.  The record (and the
  // inbound channel that will seal the DONE) are then made durable
  // before the ack leaves this enclave and releases the source side.
  resp.payload = channel.seal_record(to_bytes(ack));
  if (repeat) {
    // The DONE follows the ack on the channel, so the source opens it
    // once it has retained; the relay retries until then.
    done_relays_[req.id] = DoneRelay{
        record.source_me_address,
        channel.seal_record(encode_record(DoneRecord{req.id}))};
    inbound_.erase(req.id);
  }
  const Status persisted = persist_queue(record.request_nonce);
  if (persisted != Status::kOk) return error_response(persisted);
  return resp;
}

MeResponse MigrationEnclave::on_transfer(const MeRequest& req) {
  return accept_record<TransferPayload>(
      req, kAcceptedMarker,
      [](TransferPayload& payload, IncomingRecord& entry) {
        entry.assemble(std::move(payload.data));
        return Status::kOk;
      });
}

MeResponse MigrationEnclave::on_precopy_chunk(const MeRequest& req) {
  return accept_record<PrecopyChunkRecord>(
      req, kPrecopyAckMarker,
      [this](const PrecopyChunkRecord& record, IncomingRecord& entry) {
        merge_by_generation(entry.chunks, record.chunks);
        entry.last_update = platform().clock().now();
        if (record.round + 1 > entry.rounds) entry.rounds = record.round + 1;
        return Status::kOk;
      });
}

MeResponse MigrationEnclave::on_precopy_finalize(const MeRequest& req) {
  return accept_record<PrecopyFinalizeRecord>(
      req, kPrecopyFinMarker,
      [this](const PrecopyFinalizeRecord& record, IncomingRecord& entry) {
        // Fold the final delta into the staged rounds.
        merge_by_generation(entry.chunks, record.chunks);
        entry.last_update = platform().clock().now();
        // Manifest check: the staged set must cover EXACTLY what the
        // library shipped.  A lost round (or a wiped queue) must fail
        // loudly here — a silently truncated Table II would restore
        // counters at stale values, breaking the very replay protection
        // the counters exist for.  The source answers kPrecopyIncomplete
        // by re-shipping the full set.
        if (!covers_manifest(entry.chunks, record.manifest)) {
          return Status::kPrecopyIncomplete;
        }
        // The authoritative snapshot: manifest chunks + MSK.
        entry.assemble(
            assemble_snapshot(entry.chunks, record.manifest, record.msk));
        return Status::kOk;
      });
}

template <typename Answer>
MeResponse MigrationEnclave::answer_query(const MeRequest& req,
                                          Answer answer) {
  auto opened = open_inbound_record<AttemptRef>(req, /*charge=*/false);
  if (!opened.ok()) return error_response(opened.status());
  InboundTransfer& inbound = *opened.value().inbound;
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = inbound.channel->seal_record(
      encode_record(answer(opened.value().record, inbound)));
  // One-shot conversation: it ends with its answer.
  inbound_.erase(req.id);
  return resp;
}

MeResponse MigrationEnclave::on_abort(const MeRequest& req) {
  bool expired = false;
  MeResponse resp = answer_query(
      req, [&](const AttemptRef& abort, const InboundTransfer& inbound) {
        // Only the ORIGINATING source ME may expire its own attempt, and
        // never once the data was handed to an enclave instance (the
        // delivery pin's fork prevention outranks everything).
        const auto it = incoming_.find(abort.source_mr_enclave);
        if (it != incoming_.end() &&
            it->second.request_nonce == abort.request_nonce &&
            it->second.source_me_address == inbound.source_address) {
          expired = expire_incoming(it, req.id);
          return AbortReply{.forgettable = expired};
        }
        return AbortReply{.forgettable = true};
      });
  if (expired) {
    const Status persisted = persist_queue();
    if (persisted != Status::kOk) return error_response(persisted);
  }
  return resp;
}

size_t MigrationEnclave::sweep_stale_precopy_staging() {
  const Duration now_ = platform().clock().now();
  last_staging_sweep_ = now_;
  size_t swept = 0;
  for (auto it = incoming_.begin(); it != incoming_.end();) {
    const auto next = std::next(it);
    // Staging is never handed to an enclave, so expiring it cannot fork; a
    // source that does come back re-ships the full set after
    // kPrecopyIncomplete.
    if (!it->second.assembled() &&
        now_ - it->second.last_update >= kPrecopyStagingMaxAge &&
        expire_incoming(it)) {
      ++swept;
    }
    it = next;
  }
  for (auto it = transfer_tasks_.begin(); it != transfer_tasks_.end();) {
    // Nothing staged or in flight, so no ship or ack refers to the task;
    // its merged chunks are never handed to an enclave without a finalize.
    // A library that does come back starts a fresh task under its nonce,
    // and its finalize's coverage check fetches the whole staged set.
    const TransferTask& task = it->second;
    if (task.precopy && !task.staged_finalize.has_value() &&
        task.step == TransferTask::Step::kQueued &&
        now_ - task.last_update >= kPrecopyStagingMaxAge) {
      it = transfer_tasks_.erase(it);
      ++swept;
    } else {
      ++it;
    }
  }
  if (swept > 0) persist_queue();
  return swept;
}

// ----- incoming-record reconciliation (lost-ACCEPTED or lost-abort orphans) --

Status MigrationEnclave::reconcile_pending(const sgx::Measurement& mr) {
  if (platform().network() == nullptr) return Status::kNetworkUnreachable;
  const auto it = incoming_.find(mr);
  if (it == incoming_.end()) return Status::kNoPendingMigration;
  // Delivered (or delivering) data is protected by the pin, never swept.
  if (it->second.delivering_session != 0) return Status::kMigrationInProgress;
  const std::string source_address = it->second.source_me_address;
  const uint64_t nonce = it->second.request_nonce;
  if (source_address == platform().address()) return Status::kInvalidState;
  // Rate limit: a LIVE record blocking a busy-retrying peer (the common
  // same-image serialization) must not cost one RA handshake per retry
  // just to re-learn it is live.
  const Duration now_ = platform().clock().now();
  if (it->second.last_reconcile != Duration{} &&
      now_ - it->second.last_reconcile < kReconcileRetryInterval) {
    return Status::kMigrationInProgress;
  }
  it->second.last_reconcile = now_;

  // Fresh mutually attested channel to the originating source ME: the
  // verdict authorizes deleting migration state, so it must come from a
  // genuine peer ME, not from whoever owns the network.
  AttemptRef query;
  query.source_mr_enclave = mr;
  query.request_nonce = nonce;
  const auto reply = attested_query<ReconcileReply>(
      source_address, MeMsgType::kReconcile, encode_record(query));
  if (!reply.ok()) return reply.status();
  if (reply.value().verdict != ReconcileVerdict::kSuperseded) {
    return Status::kMigrationInProgress;
  }
  // The source ME vouches the identity completed a NEWER transfer and
  // knows nothing live about this nonce: the record is stale state (an
  // abandoned staging, or pre-migration data a future instance must never
  // fetch).  Expire it.  (Re-find after the nested rpc; reentrant traffic
  // may have advanced this queue in the meantime.)
  const auto stale = incoming_.find(mr);
  if (stale == incoming_.end() || stale->second.request_nonce != nonce ||
      !expire_incoming(stale)) {
    return Status::kMigrationInProgress;
  }
  return persist_queue();
}

size_t MigrationEnclave::reconcile_all_pending() {
  std::vector<sgx::Measurement> mrs;
  mrs.reserve(incoming_.size());
  for (const auto& [mr, record] : incoming_) mrs.push_back(mr);
  for (const sgx::Measurement& mr : mrs) reconcile_pending(mr);
  return incoming_.size();
}

bool MigrationEnclave::superseded_by_completion(const sgx::Measurement& mr,
                                                uint64_t nonce,
                                                uint64_t sequence) const {
  bool other_completed = false;
  for (const auto& [id, record] : completed_outgoing_) {
    if (!(record.source_mr == mr)) continue;
    if (record.request_nonce == nonce) return false;  // this attempt won
    other_completed = true;
  }
  // The index outlives the capped history.  Its completed transfer counts
  // only when newer than the attempt's retained transfer.
  const auto latest = latest_outgoing_.find(mr);
  if (latest != latest_outgoing_.end() &&
      latest->second.state == OutgoingState::kCompleted &&
      latest->second.completed_nonce != 0 &&
      latest->second.sequence > sequence) {
    if (latest->second.completed_nonce == nonce) return false;
    other_completed = true;
  }
  return other_completed;
}

size_t MigrationEnclave::sweep_superseded_outgoing() {
  // Same supersede criterion as on_reconcile's verdict, applied to this
  // ME's OWN source-side queues: positive evidence the identity moved on
  // (a completed transfer under another nonce), none that this attempt
  // won.  A restarted ME re-ships retained entries, so leaving a
  // superseded one behind would re-create the orphan at its destination.
  // Tasks of both modes are newer than any retained transfer
  // (UINT64_MAX), so only the completion history can supersede them.
  size_t expired = 0;
  for (auto it = outgoing_.begin(); it != outgoing_.end();) {
    if (superseded_by_completion(it->second.source_mr,
                                 it->second.request_nonce,
                                 it->second.sequence)) {
      it = drop_outgoing(it);
      ++expired;
    } else {
      ++it;
    }
  }
  for (auto it = transfer_tasks_.begin(); it != transfer_tasks_.end();) {
    if (superseded_by_completion(it->second.source_mr, it->first,
                                 UINT64_MAX)) {
      it = transfer_tasks_.erase(it);
      ++expired;
    } else {
      ++it;
    }
  }
  if (expired != 0) persist_queue();
  return expired;
}

MeResponse MigrationEnclave::on_reconcile(const MeRequest& req) {
  return answer_query(req, [this](const AttemptRef& query,
                                  const InboundTransfer& /*inbound*/) {
    const sgx::Measurement& mr = query.source_mr_enclave;
    const uint64_t nonce = query.request_nonce;
    // Retained, or a task of either mode (the index's completed transfer
    // is older than a task).
    const auto task = transfer_tasks_.find(nonce);
    const bool nonce_live =
        attempt_state(mr, nonce) == OutgoingState::kPending ||
        (task != transfer_tasks_.end() && task->second.source_mr == mr);
    // Superseded = this ME has POSITIVE evidence the identity moved on (a
    // completed transfer under another nonce) and no live or completed
    // record of the queried attempt.  Anything ambiguous — including a
    // wiped history, where the pending copy might be the only one left —
    // keeps the entry.  The queried attempt is not retained here, so the
    // index's completed transfer counts whatever its sequence.
    const bool superseded =
        !nonce_live && superseded_by_completion(mr, nonce, 0);
    return ReconcileReply{superseded ? ReconcileVerdict::kSuperseded
                                     : ReconcileVerdict::kStillLive};
  });
}

MeResponse MigrationEnclave::on_done(const MeRequest& req) {
  // Duplicate DONE for a transfer already confirmed (the destination
  // retries its relay until acknowledged): idempotent success.  The
  // channel was wiped with the entry, so the record cannot be re-checked;
  // acknowledging reveals nothing and changes no state.
  if (completed_outgoing_.count(req.id) != 0) {
    MeResponse resp;
    resp.status = Status::kOk;
    return resp;
  }
  const auto it = outgoing_.find(req.id);
  if (it == outgoing_.end()) {
    // The DONE of a conversation a task still holds outran its ack (the
    // ack is still on its way, or a restarted ME has yet to re-ship):
    // the destination keeps the relay until it can be opened.
    for (const auto& [nonce, task] : transfer_tasks_) {
      if (task.transfer_id == req.id) {
        return error_response(Status::kMigrationInProgress);
      }
    }
    return error_response(Status::kInvalidState);
  }
  OutgoingTransfer& transfer = it->second;
  auto plaintext = transfer.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  const auto done = decode_record<DoneRecord>(plaintext.value());
  if (!done.ok() || done.value().transfer_id != req.id) {
    return error_response(Status::kTampered);
  }
  // Destination confirmed: wipe the retained migration data and retire
  // the queue entry, keeping only the compact completion record (status
  // queries + duplicate-DONE idempotency).  Erasing terminal transfers is
  // what keeps the queue bounded over a long drain.
  secure_wipe(transfer.retained_data);
  const auto latest = latest_outgoing_.find(transfer.source_mr);
  if (latest != latest_outgoing_.end() &&
      latest->second.sequence == transfer.sequence) {
    latest->second.state = OutgoingState::kCompleted;
    latest->second.completed_nonce = transfer.request_nonce;
  }
  // Bound the per-identity index: once it overflows, forget the
  // longest-completed identity (outgoing_state then reports kNone — the
  // same answer a freshly deployed ME would give).  Pending identities
  // are never evicted; they still hold retained data.
  constexpr size_t kLatestOutgoingLimit = 4096;
  if (latest_outgoing_.size() > kLatestOutgoingLimit) {
    auto oldest = latest_outgoing_.end();
    for (auto it2 = latest_outgoing_.begin(); it2 != latest_outgoing_.end();
         ++it2) {
      if (it2->second.state != OutgoingState::kCompleted) continue;
      if (oldest == latest_outgoing_.end() ||
          it2->second.sequence < oldest->second.sequence) {
        oldest = it2;
      }
    }
    if (oldest != latest_outgoing_.end()) latest_outgoing_.erase(oldest);
  }
  record_completed(req.id, transfer);
  // The migrated-away instance behind this transfer is frozen for good;
  // its LA sessions would otherwise linger until process exit.
  drop_sessions_for(transfer.source_mr);
  outgoing_.erase(it);
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) return error_response(persisted);
  MeResponse resp;
  resp.status = Status::kOk;
  return resp;
}

// ----- durable transfer queue -----

Status MigrationEnclave::commit_state() {
  if (!queue_seal_ctx_.has_value()) {
    queue_seal_ctx_.emplace(make_seal_context(sgx::KeyPolicy::kMrEnclave));
  }
  // The snapshot embeds every live channel's raw session key: it is
  // encoded straight into the blob and encrypted there, so no plaintext
  // copy of it reaches the heap.
  auto sealed = seal_record_with(*queue_seal_ctx_, text_bytes(kQueueAad),
                                 static_cast<const DurableQueue&>(*this));
  if (!sealed.ok()) return sealed.status();
  if (queue_persist_callback_) {
    // OCALL to the untrusted host, which writes the blob to disk.
    platform().charge(platform().costs().ocall);
    const Status written = queue_persist_callback_(sealed.value());
    if (written != Status::kOk) return written;
  }
  sealed_queue_state_ = std::move(sealed).value();
  return Status::kOk;
}

Status MigrationEnclave::persist_queue(uint64_t nonce) {
  // Every queue transition guards either retained migration data or a
  // fork-preventing erase, so each one is durable before it completes
  // (mirrors persist_mutation_durable in the ML).
  obs::Observability* obs = enabled_obs(platform());
  return traced_durable_write(obs != nullptr ? &obs->trace : nullptr,
                              platform().address(), nonce, "transfer-queue",
                              [this] { return commit_state(); });
}

Status MigrationEnclave::restore_queue(ByteView sealed_queue) {
  auto scope = enter_ecall();
  auto unsealed = unseal(sealed_queue);
  if (!unsealed.ok()) return unsealed.status();
  if (to_string(unsealed.value().aad) != kQueueAad) return Status::kTampered;
  auto restored = decode_record<DurableQueue>(unsealed.value().plaintext);
  // The unsealed snapshot embeds raw channel session keys.
  secure_wipe(unsealed.value().plaintext);
  if (!restored.ok()) return restored.status();
  DurableQueue& queue = *this;
  queue = std::move(restored).value();
  // A restored pre-copy task ages from its restore: the queue keeps no
  // time of its library's last call.
  for (auto& [nonce, task] : transfer_tasks_) {
    task.last_update = platform().clock().now();
  }
  // Re-derive the index's completed nonces from the retained records.
  for (const auto& [id, record] : completed_outgoing_) {
    const auto entry = latest_outgoing_.find(record.source_mr);
    if (entry != latest_outgoing_.end() &&
        entry->second.state == OutgoingState::kCompleted &&
        entry->second.sequence == record.sequence) {
      entry->second.completed_nonce = record.request_nonce;
    }
  }
  return Status::kOk;
}

// ----- provider authentication helpers -----

ProviderAuth MigrationEnclave::make_provider_auth(
    const std::array<uint8_t, 32>& transcript) {
  ProviderAuth auth;
  auth.credential = credential_;
  auth.transcript_signature =
      machine_key_.sign(provider_auth_message(transcript));
  return auth;
}

Status MigrationEnclave::verify_provider_auth(
    const ProviderAuth& auth, const std::array<uint8_t, 32>& transcript,
    const std::string& expected_address, std::string* region_out) {
  // 1. The credential must be issued by our cloud provider's CA.
  if (!platform::ProviderCa::verify(provider_ca_key_, auth.credential)) {
    return Status::kProviderAuthFailure;
  }
  // 2. It must be bound to the machine we think we are talking to.
  if (auth.credential.address != expected_address) {
    return Status::kProviderAuthFailure;
  }
  // 3. The certified machine key must have signed THIS session transcript
  //    (freshness: no replaying certificates from other sessions).
  if (!crypto::ed25519_verify(auth.credential.machine_public_key,
                              provider_auth_message(transcript),
                              auth.transcript_signature)) {
    return Status::kProviderAuthFailure;
  }
  if (region_out != nullptr) *region_out = auth.credential.region;
  return Status::kOk;
}

// ----- durable-ME deployment helpers -----

namespace {
std::string me_queue_key(const platform::Machine& machine) {
  return machine.address() + ".me-queue";
}
}  // namespace

platform::Machine::MgmtEnclaveFactory durable_me_factory(
    platform::ProviderCa& provider,
    std::function<void(MigrationEnclave&)> configure) {
  return [&provider, configure = std::move(configure)](
             platform::Machine& machine)
             -> std::unique_ptr<sgx::Enclave> {
    auto me = std::make_unique<MigrationEnclave>(
        machine, MigrationEnclave::standard_image(), provider);
    const std::string key = me_queue_key(machine);
    me->set_queue_persist_callback([&machine, key](ByteView blob) {
      // Versioned two-slot write: a crash mid-persist leaves the previous
      // intact snapshot recoverable.
      machine.storage().put_versioned(key, blob);
      return Status::kOk;
    });
    auto stored = machine.storage().get_versioned(key);
    if (stored.ok()) {
      // A snapshot that fails to unseal/parse leaves the ME with an empty
      // queue (availability): retained copies at the peer MEs still hold
      // every in-flight migration's data.
      (void)me->restore_queue(stored.value());
    }
    if (configure) configure(*me);
    return me;
  };
}

MigrationEnclave* me_on(platform::Machine& machine) {
  return dynamic_cast<MigrationEnclave*>(machine.management_enclave());
}

}  // namespace sgxmig::migration
