#include "migration/migration_library.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "crypto/gcm.h"
#include "migration/durable_write.h"
#include "migration/migration_enclave.h"
#include "net/network.h"
#include "obs/observability.h"
#include "support/serde.h"

namespace sgxmig::migration {

MigrationLibrary::MigrationLibrary(sgx::Enclave& host,
                                   bool live_transfer_capable)
    : host_(host),
      expected_me_mr_(MigrationEnclave::standard_image()->mr_enclave()),
      live_transfer_capable_(live_transfer_capable) {}

Status MigrationLibrary::check_operational() const {
  if (!initialized_) return Status::kNotInitialized;
  if (runtime_frozen_) return Status::kMigrationFrozen;
  return Status::kOk;
}

// ----- persistence -----

Status MigrationLibrary::persist(bool invoke_callback) {
  if (!seal_ctx_.has_value()) {
    seal_ctx_.emplace(host_.make_seal_context(sgx::KeyPolicy::kMrEnclave));
  }
  // Table II (the MSK and every counter UUID) is encoded straight into the
  // blob and encrypted there, so no plaintext copy of it reaches the heap.
  auto sealed = host_.seal_record_with(
      *seal_ctx_, text_bytes(kLibraryStateAad), state_.to_wire());
  if (!sealed.ok()) return sealed.status();
  sealed_state_ = SharedBytes(std::move(sealed).value());
  if (invoke_callback && persist_callback_) {
    // OCALL to the untrusted application, which writes the buffer to disk.
    host_.platform().charge(host_.platform().costs().ocall);
    persist_callback_(sealed_state_);
  }
  return Status::kOk;
}

Status MigrationLibrary::commit_state() {
  const Status status = persist(/*invoke_callback=*/true);
  if (status != Status::kOk) return status;
  if (obs::Observability* obs = observability();
      obs != nullptr && obs->enabled()) {
    obs->metrics.add("persist.commits");
  }
  return status;
}

Duration MigrationLibrary::now() const {
  return host_.platform().clock().now();
}

// ----- observability -----

obs::Observability* MigrationLibrary::observability() const {
  return host_.platform().observability();
}

obs::TraceRecorder* MigrationLibrary::recorder() const {
  obs::Observability* obs = host_.platform().observability();
  return obs != nullptr && obs->enabled() ? &obs->trace : nullptr;
}

const std::string& MigrationLibrary::lane() const {
  return host_.platform().address();
}

void MigrationLibrary::trace_attempt_root(uint64_t nonce) {
  obs::TraceRecorder* rec = recorder();
  if (rec == nullptr) return;
  const obs::TraceSpan* root = rec->find_span(root_span_);
  if (root == nullptr || !root->open) {
    root_span_ = rec->begin_span("migration", lane());
    rec->span_arg(root_span_, "enclave", host_.image().name());
  }
  if (nonce == 0) return;
  rec->assign_trace(root_span_, nonce);
  if (freeze_span_ != 0) rec->assign_trace(freeze_span_, nonce);
}

void MigrationLibrary::trace_freeze_begin() {
  obs::TraceRecorder* rec = recorder();
  if (rec == nullptr) return;
  if (freeze_span_ != 0) {
    const obs::TraceSpan* span = rec->find_span(freeze_span_);
    if (span != nullptr && span->open) return;  // retry: freeze still open
  }
  trace_attempt_root(0);  // ensure a root exists to nest under
  freeze_span_ = rec->begin_span("freeze", lane(), 0, root_span_);
  rec->span_arg(freeze_span_, "enclave", host_.image().name());
}

void MigrationLibrary::trace_freeze_end() {
  obs::TraceRecorder* rec = recorder();
  if (rec != nullptr && freeze_span_ != 0) {
    rec->span_arg(freeze_span_, "window_ns",
                  static_cast<uint64_t>(last_freeze_window_.count()));
    rec->end_span(freeze_span_);
  }
  freeze_span_ = 0;
}

void MigrationLibrary::trace_attempt_done(uint64_t nonce,
                                          uint64_t payload_bytes) {
  obs::Observability* obs = observability();
  if (obs == nullptr || !obs->enabled()) {
    root_span_ = 0;
    freeze_span_ = 0;
    enqueue_span_ = 0;
    return;
  }
  obs::TraceRecorder& rec = obs->trace;
  if (enqueue_span_ != 0) {
    rec.end_span(enqueue_span_);
    enqueue_span_ = 0;
  }
  trace_freeze_end();  // normally already closed where the window landed
  if (root_span_ != 0) {
    rec.span_arg(root_span_, "bytes", payload_bytes);
    rec.end_span(root_span_);
    root_span_ = 0;
  }
  if (nonce != 0) rec.end_trace_root(nonce);
  rec.instant("migration.source_done", lane(), nonce,
              {{"enclave", host_.image().name()}});
  obs->metrics.add("migration.accepted");
}

void MigrationLibrary::close_span(uint64_t span, const char* outcome) {
  obs::TraceRecorder* rec = recorder();
  if (rec == nullptr || span == 0) return;
  rec->span_arg(span, "outcome", outcome);
  rec->end_span(span);
}

Status MigrationLibrary::persist_mutation_durable(const char* kind) {
  if (obs::Observability* obs = observability();
      obs != nullptr && obs->enabled()) {
    obs->metrics.add("persist.flush_fences");
  }
  return traced_durable_write(recorder(), lane(),
                              attempt_ != nullptr ? attempt_->nonce : 0, kind,
                              [this] { return commit_state(); });
}

// ----- initialization (paper Fig. 1 / §VI-B "Persistent data") -----

Status MigrationLibrary::migration_init(ByteView state_buffer,
                                        InitState init_state,
                                        const std::string& me_address) {
  if (initialized_) return Status::kInvalidState;
  // A warm instance exists only to take its attempt's incoming data.
  if (warm_nonce_ != 0 && init_state != InitState::kMigrate) {
    return Status::kInvalidState;
  }
  me_address_ = me_address;

  switch (init_state) {
    case InitState::kNew: {
      state_ = ResidentState{};
      host_.platform().charge(host_.platform().costs().drbg_fixed);
      host_.rng().generate(state_.msk.data(), state_.msk.size());
      if (live_transfer_capable_) {
        const Status guard = create_epoch_guard();
        if (guard != Status::kOk) return guard;
      }
      // The fresh buffer is sealed and handed back via sealed_state();
      // there is nothing irrecoverable in it yet, so storing it is left
      // to the application (keeps init fast, Fig. 4).
      const Status status = persist(/*invoke_callback=*/false);
      if (status != Status::kOk) return status;
      initialized_ = true;
      return Status::kOk;
    }
    case InitState::kRestore: {
      auto unsealed = host_.unseal(state_buffer);
      if (!unsealed.ok()) return unsealed.status();
      auto state = restorable_state(
          unsealed.value(),
          [this](const sgx::CounterUuid& uuid) {
            return host_.counter_read(uuid);
          });
      if (!state.ok()) return state.status();
      state_ = ResidentState::from_wire(state.value());
      const Status status = persist(/*invoke_callback=*/false);
      if (status != Status::kOk) return status;
      initialized_ = true;
      return Status::kOk;
    }
    case InitState::kMigrate: {
      const Status channel_status = ensure_me_channel();
      if (channel_status != Status::kOk) return channel_status;
      LibMsg fetch;
      fetch.type = LibMsgType::kFetchIncoming;
      // A warm instance's session dates from its warm-up, and the ME may
      // have restarted since.
      auto reply = warm_nonce_ != 0 ? me_exchange_reattest(fetch)
                                    : me_exchange(fetch);
      if (!reply.ok()) return reply.status();
      if (reply.value().type != LibMsgType::kIncomingData) {
        return reply.value().status == Status::kOk ? Status::kUnexpected
                                                   : reply.value().status;
      }
      auto fetched = decode_record<IncomingDataPayload>(reply.value().payload);
      secure_wipe(reply.value().payload);  // the MSK, every counter value
      if (!fetched.ok()) return fetched.status();
      const uint64_t delivery_token = fetched.value().delivery_token;
      const uint64_t request_nonce = fetched.value().request_nonce;
      uint64_t restore_span = 0;
      if (obs::TraceRecorder* rec = recorder()) {
        restore_span = rec->begin_span("restore", lane(), request_nonce);
        rec->span_arg(restore_span, "enclave", host_.image().name());
      }
      auto data = decode_record<MigrationData>(fetched.value().data);
      secure_wipe(fetched.value().data);
      if (!data.ok()) {
        close_span(restore_span, "deserialize-failed");
        return data.status();
      }
      const Status apply_status = apply_incoming(data.value(), request_nonce);
      wipe(data.value());
      if (apply_status != Status::kOk) {
        close_span(restore_span, "apply-failed");
        return apply_status;
      }
      initialized_ = true;
      // Confirm so the source ME can delete its retained copy.  The
      // confirm must tolerate a lost reply: the ME may have processed it
      // (pending erased, DONE queued) while we saw a transport failure —
      // failing here would discard a fully restored instance.  One extra
      // attempt suffices: the retry either heals a dropped request, or
      // desyncs the channel (reply was lost after processing), which
      // me_exchange_reattest turns into a fresh session whose confirm the
      // ME answers idempotently from its confirmed-incoming history.
      LibMsg confirm;
      confirm.type = LibMsgType::kConfirmMigration;
      confirm.payload = encode_record(ConfirmPayload{delivery_token});
      auto ack = me_exchange_reattest(confirm);
      if (!ack.ok() || ack.value().type != LibMsgType::kConfirmAck) {
        ack = me_exchange_reattest(confirm);
      }
      if (!ack.ok()) {
        close_span(restore_span, "confirm-failed");
        return ack.status();
      }
      if (ack.value().type != LibMsgType::kConfirmAck) {
        close_span(restore_span, "confirm-failed");
        return Status::kUnexpected;
      }
      close_span(restore_span, "ok");
      if (obs::Observability* obs = observability();
          obs != nullptr && obs->enabled()) {
        obs->trace.instant("migration.done", lane(), request_nonce,
                           {{"enclave", host_.image().name()}});
        if (request_nonce != 0) obs->trace.end_trace_root(request_nonce);
        obs->metrics.add("migration.restored");
      }
      return Status::kOk;
    }
  }
  return Status::kInvalidParameter;
}

Status MigrationLibrary::apply_incoming(const MigrationData& data,
                                        uint64_t request_nonce) {
  // A warm set belongs to one attempt: the data of any other (a replayed
  // finalize, or a set an abandoned attempt left behind) never lands on it.
  if (warm_nonce_ != 0 && warm_nonce_ != request_nonce) {
    return Status::kReplayDetected;
  }
  const ResidentState warm = std::exchange(state_, ResidentState{});
  warm_nonce_ = 0;
  state_.msk = data.msk;
  state_.slots.reserve(static_cast<size_t>(std::count(
      data.counters_active.begin(), data.counters_active.end(), true)));
  std::vector<sgx::CounterUuid> unused;
  auto held = warm.slots.begin();  // ascending index, like the loop
  for (uint32_t i = 0; i < kMaxCounters; ++i) {
    const bool warm_slot = held != warm.slots.end() && held->index == i;
    if (!data.counters_active[i]) {
      if (warm_slot) unused.push_back((held++)->uuid);
      continue;
    }
    // Effective value of the source becomes the offset over a fresh
    // hardware counter starting at zero (§VI-B): constant-time per
    // counter, regardless of its value.  The warm set's counters are that
    // fresh counter; a slot it lacks gets one now.
    if (warm_slot) {
      state_.slots.push_back(
          {i, held->uuid, data.counter_values[i], held->hw_value});
      ++held;
    } else if (const Status created = add_fresh_slot(i, data.counter_values[i]);
               created != Status::kOk) {
      return created;
    }
    note_slot_dirty(i);
  }
  if (warm.epoch_active != 0) {
    state_.epoch_active = 1;
    state_.epoch_uuid = warm.epoch_uuid;
    state_.epoch_value = warm.epoch_value;
  } else if (live_transfer_capable_) {
    const Status guard = create_epoch_guard();
    if (guard != Status::kOk) return guard;
  }
  // Slots the source destroyed after the warm-up: one PSE retire.
  if (!unused.empty()) {
    const auto retired = host_.counter_retire(unused);
    if (!retired.ok()) return retired.status();
  }
  // UUIDs of the fresh counters are irrecoverable.
  return persist_mutation_durable("restore-apply");
}

Status MigrationLibrary::migration_warm_up(const std::string& me_address) {
  if (initialized_ || warm_nonce_ != 0) return Status::kInvalidState;
  me_address_ = me_address;
  const Status channel_status = ensure_me_channel();
  if (channel_status != Status::kOk) return channel_status;
  LibMsg query;
  query.type = LibMsgType::kWarmIncoming;
  auto reply = me_exchange(query);
  if (!reply.ok()) return reply.status();
  if (reply.value().type != LibMsgType::kWarmBinding) {
    return reply.value().status == Status::kOk ? Status::kUnexpected
                                               : reply.value().status;
  }
  auto binding = decode_record<WarmBindingPayload>(reply.value().payload);
  if (!binding.ok()) return binding.status();
  if (binding.value().request_nonce == 0) return Status::kTampered;
  uint64_t span = 0;
  if (obs::TraceRecorder* rec = recorder()) {
    span = rec->begin_span("warm_up", lane(), binding.value().request_nonce);
    rec->span_arg(span, "enclave", host_.image().name());
  }
  // The freeze flag keeps the sealed set from ever restoring: it holds
  // no MSK, and its counters are not the enclave's until the data lands.
  state_ = ResidentState{};
  state_.frozen = 1;
  warm_nonce_ = binding.value().request_nonce;
  Status status = Status::kOk;
  for (uint32_t i = 0; i < kMaxCounters && status == Status::kOk; ++i) {
    if (binding.value().active[i]) status = add_fresh_slot(i, 0);
  }
  if (status == Status::kOk && live_transfer_capable_) {
    status = create_epoch_guard();
  }
  // Like any fresh counter UUID, the set is durable before it is relied on.
  if (status == Status::kOk) status = persist_mutation_durable("warm-up");
  if (status != Status::kOk) retire_warm_set();
  close_span(span, status == Status::kOk ? "ok" : "failed");
  return status;
}

Status MigrationLibrary::add_fresh_slot(uint32_t index, uint32_t offset) {
  auto created = host_.counter_create();
  if (!created.ok()) return created.status();
  state_.slots.push_back(
      {index, created.value().uuid, offset, created.value().value});
  return Status::kOk;
}

Status MigrationLibrary::retire_warm_set() {
  if (warm_nonce_ == 0) return Status::kOk;
  warm_nonce_ = 0;
  const Status status = retire_active_counters();
  state_ = ResidentState{};
  return status;
}

// ----- epoch guard + dirty tracking (live-transfer capability) -----

void MigrationLibrary::note_slot_dirty(size_t slot) {
  chunk_generation_[slot / kPrecopyChunkSlots] = ++mutation_generation_;
}

Status MigrationLibrary::create_epoch_guard() {
  auto created = host_.counter_create();
  if (!created.ok()) return created.status();
  state_.epoch_active = 1;
  state_.epoch_uuid = created.value().uuid;
  state_.epoch_value = created.value().value;
  return Status::kOk;
}

// ----- migratable sealing (§VI-B "Sealing") -----

Result<Bytes> MigrationLibrary::seal_migratable_data(
    ByteView additional_mac_text, ByteView text_to_encrypt) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  // No EGETKEY here — the MSK is already in enclave memory, which is why
  // migratable sealing is marginally FASTER than standard sealing (Fig. 4).
  host_.charge_gcm(text_to_encrypt.size() + additional_mac_text.size());
  Bytes iv(crypto::kGcmIvSize);
  host_.rng().generate(iv.data(), iv.size());
  auto ct = crypto::gcm_encrypt(
      ByteView(state_.msk.data(), state_.msk.size()), iv, additional_mac_text,
      text_to_encrypt);
  return encode_record(MskSealedBlob{ct.iv, ct.tag,
                                     to_bytes(additional_mac_text),
                                     std::move(ct.ciphertext)});
}

Result<sgx::UnsealedData> MigrationLibrary::unseal_migratable_data(
    ByteView sealed_blob) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  auto blob = decode_record<MskSealedBlob>(sealed_blob);
  if (!blob.ok()) return Status::kTampered;
  MskSealedBlob& b = blob.value();
  host_.charge_gcm(b.ciphertext.size() + b.aad.size());
  auto plaintext = crypto::gcm_decrypt(
      ByteView(state_.msk.data(), state_.msk.size()),
      ByteView(b.iv.data(), b.iv.size()), b.aad, b.ciphertext,
      ByteView(b.tag.data(), b.tag.size()));
  if (!plaintext.ok()) return plaintext.status();
  sgx::UnsealedData out;
  out.plaintext = std::move(plaintext).value();
  out.aad = std::move(b.aad);
  return out;
}

// ----- migratable counters (§VI-B "Monotonic counters") -----

Result<uint32_t> MigrationLibrary::cached_hw_value(ActiveSlot& slot) {
  if (slot.hw_value.has_value()) return *slot.hw_value;
  auto value = host_.counter_read(slot.uuid);
  if (value.ok()) slot.hw_value = value.value();
  return value;
}

Result<CreatedMigratableCounter> MigrationLibrary::create_migratable_counter() {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  const size_t index = state_.free_slot();
  if (index == kMaxCounters) return Status::kCounterQuotaExceeded;
  auto created = host_.counter_create();
  if (!created.ok()) return created.status();
  ActiveSlot& slot = state_.activate(static_cast<uint32_t>(index));
  slot.uuid = created.value().uuid;
  slot.hw_value = created.value().value;
  note_slot_dirty(index);
  const Status status = commit_state();
  if (status != Status::kOk) return status;
  CreatedMigratableCounter out;
  out.counter_id = static_cast<uint32_t>(index);
  out.value = created.value().value;  // 0 + offset 0
  return out;
}

Status MigrationLibrary::destroy_migratable_counter(uint32_t counter_id) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  const ActiveSlot* slot = state_.find(counter_id);
  if (slot == nullptr) return Status::kCounterNotFound;
  const sgx::CounterUuid uuid = slot->uuid;
  const Status status = host_.counter_destroy(uuid);
  // kCounterNotFound: the hardware counter is already gone (crash between
  // a destroy and its persist) — clearing the orphaned slot IS the
  // recovery, so fall through and persist it.
  if (status != Status::kOk && status != Status::kCounterNotFound) {
    return status;
  }
  state_.deactivate(counter_id);
  note_slot_dirty(counter_id);
  // The destroy record is durable before returning: a stored Table II
  // that still referenced the dead counter would wedge collect_values()
  // on any later migration.
  return persist_mutation_durable("counter-destroy");
}

Result<uint32_t> MigrationLibrary::increment_migratable_counter(
    uint32_t counter_id) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  ActiveSlot* slot = state_.find(counter_id);
  if (slot == nullptr) return Status::kCounterNotFound;
  // Overflow check: the offset plus the post-increment hardware value must
  // stay within uint32 (§VI-B).  Uses the cached hardware value when
  // available; after a restore the first increment refreshes the cache
  // with one read.
  const auto current = cached_hw_value(*slot);
  if (!current.ok()) return current.status();
  const uint64_t next_effective = static_cast<uint64_t>(slot->offset) +
                                  static_cast<uint64_t>(current.value()) + 1;
  if (next_effective > std::numeric_limits<uint32_t>::max()) {
    return Status::kCounterOverflow;
  }
  auto incremented = host_.counter_increment(slot->uuid);
  if (!incremented.ok()) return incremented.status();
  slot->hw_value = incremented.value();
  const uint32_t effective = slot->offset + incremented.value();
  note_slot_dirty(counter_id);
  const Status status = commit_state();
  if (status != Status::kOk) return status;
  return effective;
}

Result<uint32_t> MigrationLibrary::read_migratable_counter(uint32_t counter_id) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  ActiveSlot* slot = state_.find(counter_id);
  if (slot == nullptr) return Status::kCounterNotFound;
  auto value = host_.counter_read(slot->uuid);
  if (!value.ok()) return value.status();
  slot->hw_value = value.value();
  const uint64_t effective = static_cast<uint64_t>(slot->offset) +
                             static_cast<uint64_t>(value.value());
  if (effective > std::numeric_limits<uint32_t>::max()) {
    return Status::kCounterOverflow;
  }
  return static_cast<uint32_t>(effective);
}

// ----- ME communication -----

Status MigrationLibrary::ensure_me_channel() {
  if (me_channel_.has_value()) return Status::kOk;
  auto* net = host_.platform().network();
  if (net == nullptr) return Status::kNetworkUnreachable;
  if (me_address_.empty()) return Status::kInvalidParameter;

  const Bytes id_bytes = host_.rng().bytes(8);
  la_session_id_ = load_be64(id_bytes.data());

  sgx::DhSession session(host_.platform(), host_.identity(),
                         sgx::DhSession::Role::kInitiator);
  // msg1
  MeRequest start;
  start.type = MeMsgType::kLaStart;
  start.id = la_session_id_;
  auto raw1 = net->rpc(me_address_ + "/me", encode_record(start));
  if (!raw1.ok()) return raw1.status();
  auto resp1 = decode_record<MeResponse>(raw1.value());
  if (!resp1.ok()) return Status::kTampered;
  if (resp1.value().status != Status::kOk) return resp1.value().status;
  auto msg1 = decode_record<sgx::DhMsg1>(resp1.value().payload);
  if (!msg1.ok()) return Status::kTampered;
  // msg2
  auto msg2 = session.handle_msg1(msg1.value());
  if (!msg2.ok()) return msg2.status();
  MeRequest m2;
  m2.type = MeMsgType::kLaMsg2;
  m2.id = la_session_id_;
  m2.payload = encode_record(msg2.value());
  auto raw3 = net->rpc(me_address_ + "/me", encode_record(m2));
  if (!raw3.ok()) return raw3.status();
  auto resp3 = decode_record<MeResponse>(raw3.value());
  if (!resp3.ok()) return Status::kTampered;
  if (resp3.value().status != Status::kOk) return resp3.value().status;
  auto msg3 = decode_record<sgx::DhMsg3>(resp3.value().payload);
  if (!msg3.ok()) return Status::kTampered;
  const Status status = session.handle_msg3(msg3.value());
  if (status != Status::kOk) return status;

  // Verify we attested the genuine Migration Enclave (paper §V-C: the
  // library "performs local attestation of the Migration Enclave").
  if (!(session.peer_identity().mr_enclave == expected_me_mr_)) {
    return Status::kIdentityMismatch;
  }
  me_channel_.emplace(session.session_key(),
                      net::SecureChannel::Role::kInitiator);
  return Status::kOk;
}

Result<LibMsg> MigrationLibrary::me_exchange(const LibMsg& request) {
  auto* net = host_.platform().network();
  if (net == nullptr || !me_channel_.has_value()) {
    return Status::kInvalidState;
  }
  MeRequest req;
  req.type = MeMsgType::kLaRecord;
  req.id = la_session_id_;
  // Requests and replies can carry migration data (the MSK, counter
  // values): each plaintext is wiped once sealed or decoded.
  Bytes plaintext = encode_record(request);
  req.payload = me_channel_->seal_record(plaintext);
  secure_wipe(plaintext);
  auto raw = net->rpc(me_address_ + "/me", encode_record(req));
  if (!raw.ok()) return raw.status();
  auto resp = decode_record<MeResponse>(raw.value());
  if (!resp.ok()) return Status::kTampered;
  if (resp.value().status != Status::kOk) return resp.value().status;
  auto record = me_channel_->open_record(resp.value().payload);
  if (!record.ok()) return record.status();
  auto msg = decode_record<LibMsg>(record.value());
  secure_wipe(record.value());
  if (!msg.ok()) return Status::kTampered;
  return msg;
}

Result<LibMsg> MigrationLibrary::me_exchange_reattest(const LibMsg& request) {
  auto reply = me_exchange(request);
  const Status status = reply.ok() ? Status::kOk : reply.status();
  if (status == Status::kInvalidState || status == Status::kChannelError ||
      status == Status::kReplayDetected || status == Status::kMacMismatch) {
    // The ME lost our LA session (management VM restart): attest afresh
    // and retry once.
    me_channel_.reset();
    const Status channel_status = ensure_me_channel();
    if (channel_status != Status::kOk) return channel_status;
    return me_exchange(request);
  }
  return reply;
}

// ----- outgoing migration (paper §V-D) -----

Result<MigrationData> MigrationLibrary::collect_values() {
  MigrationData data;
  data.msk = state_.msk;
  for (const ActiveSlot& slot : state_.slots) {
    auto value = host_.counter_read(slot.uuid);
    if (!value.ok()) return value.status();
    const uint64_t effective = static_cast<uint64_t>(slot.offset) +
                               static_cast<uint64_t>(value.value());
    if (effective > std::numeric_limits<uint32_t>::max()) {
      return Status::kCounterOverflow;
    }
    data.counters_active[slot.index] = true;
    data.counter_values[slot.index] = static_cast<uint32_t>(effective);
  }
  return data;
}

Status MigrationLibrary::destroy_active_counters() {
  for (const ActiveSlot& slot : state_.slots) {
    const Status status = host_.counter_destroy(slot.uuid);
    // kCounterNotFound on a retry pass means this one is already gone.
    if (status != Status::kOk && status != Status::kCounterNotFound) {
      return status;
    }
  }
  // The epoch guard goes with them: a rolled-back buffer then fails its
  // epoch read with kCounterNotFound and refuses to operate.
  if (state_.epoch_active != 0) {
    const Status status = host_.counter_destroy(state_.epoch_uuid);
    if (status != Status::kOk && status != Status::kCounterNotFound) {
      return status;
    }
  }
  return Status::kOk;
}

Status MigrationLibrary::retire_active_counters() {
  std::vector<sgx::CounterUuid> uuids;
  for (const ActiveSlot& slot : state_.slots) uuids.push_back(slot.uuid);
  uuids.push_back(state_.epoch_uuid);
  return host_.counter_retire(uuids).status();
}

const char* migration_failure_class_name(MigrationFailureClass cls) {
  switch (cls) {
    case MigrationFailureClass::kNone: return "none";
    case MigrationFailureClass::kRetryableNetwork: return "retryable-network";
    case MigrationFailureClass::kRetryableBusy: return "retryable-busy";
    case MigrationFailureClass::kFatalPolicy: return "fatal-policy";
    case MigrationFailureClass::kFatalState: return "fatal-state";
    case MigrationFailureClass::kFatalInternal: return "fatal-internal";
  }
  return "unknown";
}

bool migration_failure_is_retryable(MigrationFailureClass cls) {
  return cls == MigrationFailureClass::kRetryableNetwork ||
         cls == MigrationFailureClass::kRetryableBusy;
}

MigrationFailureClass classify_migration_failure(Status status) {
  switch (status) {
    case Status::kOk:
      return MigrationFailureClass::kNone;
    // Transport loss or in-flight corruption: the paper's threat model
    // concedes availability to a network adversary, so these clear up when
    // the interference stops — retry.
    case Status::kNetworkUnreachable:
    case Status::kChannelError:
    case Status::kReplayDetected:
    case Status::kMacMismatch:
    case Status::kTampered:
      return MigrationFailureClass::kRetryableNetwork;
    // A service (PSE proxy, ME) exists but cannot take the work right now;
    // kAlreadyExists is the destination ME refusing a second concurrent
    // migration for the same MRENCLAVE (§V-D: one pending per identity).
    case Status::kServiceUnavailable:
    case Status::kMigrationInProgress:
    case Status::kAlreadyExists:
      return MigrationFailureClass::kRetryableBusy;
    case Status::kPolicyViolation:
      return MigrationFailureClass::kFatalPolicy;
    case Status::kMigrationFrozen:
    case Status::kNotInitialized:
    case Status::kInvalidState:
    case Status::kInvalidParameter:
      return MigrationFailureClass::kFatalState;
    default:
      return MigrationFailureClass::kFatalInternal;
  }
}

namespace {
MigrationStartResult start_failure(Status status, const char* step) {
  MigrationStartResult result;
  result.status = status;
  result.failure_class = classify_migration_failure(status);
  result.message =
      std::string(step) + ": " + std::string(status_name(status));
  return result;
}

/// Still in flight at the local ME (status kMigrationInProgress, failure
/// class kNone): the caller polls again after pumping.
MigrationStartResult in_progress(const char* message) {
  MigrationStartResult result;
  result.status = Status::kMigrationInProgress;
  result.message = message;
  return result;
}

/// A well-formed reply of the wrong type is a DEFINITIVE rejection:
/// classified by the ME's status (kMigrationAborted if it sent none).
MigrationStartResult rejected(const LibMsg& reply, const char* step) {
  return start_failure(reply.status != Status::kOk ? reply.status
                                                   : Status::kMigrationAborted,
                       step);
}
}  // namespace

Status MigrationLibrary::migration_start(
    const std::string& destination_address, MigrationPolicy policy) {
  return migration_start_detailed(destination_address, std::move(policy))
      .status;
}

// ----- the outgoing attempt: steps shared by every entry point -----

MigrationStartResult MigrationLibrary::open_attempt(
    const std::string& destination_address, bool precopy) {
  if (!initialized_) {
    return start_failure(Status::kNotInitialized, "library init check");
  }
  if (runtime_frozen_ && !holds_frozen(precopy)) {
    // Already migrated away, or frozen by an attempt of the other mode:
    // there is nothing for THIS protocol to ship.
    return start_failure(Status::kMigrationFrozen, "freeze check");
  }
  const Status channel_status = ensure_me_channel();
  if (channel_status != Status::kOk) {
    return start_failure(channel_status, "local ME attestation");
  }
  if (attempt_ == nullptr) {
    attempt_ = std::make_unique<OutgoingAttempt>();
    attempt_->precopy = precopy;
  } else if (!attempt_->collected &&
             (attempt_->precopy != precopy ||
              attempt_->destination != destination_address)) {
    // A full snapshot supersedes a half-done pre-copy (and vice versa),
    // and a pre-freeze re-route starts over: the superseded attempt's
    // entries (staged rounds, a reserved slot) are orphans — expire them
    // proactively instead of waiting for the sweeps.
    notify_abort_stale(attempt_->nonce, attempt_->destination);
    attempt_ = std::make_unique<OutgoingAttempt>();
    attempt_->precopy = precopy;
  }
  return MigrationStartResult{};
}

void MigrationLibrary::claim_nonce(const std::string& destination_address) {
  if (attempt_->nonce != 0 && attempt_->destination == destination_address) {
    return;
  }
  notify_abort_stale(attempt_->nonce, attempt_->destination);
  const Bytes nonce_bytes = host_.rng().bytes(8);
  attempt_->nonce = load_be64(nonce_bytes.data());
  if (attempt_->nonce == 0) attempt_->nonce = 1;
  attempt_->destination = destination_address;
  attempt_->queued = false;  // an old queued attempt is superseded
}

MigrationStartResult MigrationLibrary::freeze_and_collect(
    const std::function<Status()>& collect, const char* step) {
  // Freeze first: no further operations may mutate persistent state
  // while (or after) the migration is in flight (§V-A step 2).
  freeze_started_ = now();
  runtime_frozen_ = true;
  trace_freeze_begin();
  const Status collected = collect();
  if (collected != Status::kOk) {
    // Nothing destructive happened yet: the enclave may resume normal
    // operation and retry the migration later.
    runtime_frozen_ = false;
    close_span(freeze_span_, "collect-failed");
    freeze_span_ = 0;
    return start_failure(collected, step);
  }
  attempt_->collected = true;
  return MigrationStartResult{};
}

MigrationStartResult MigrationLibrary::persist_freeze_flag() {
  // Persist the freeze flag so a restarted instance refuses to operate
  // (§VI-B, Table II), durably — unless a pre-copy retire already killed
  // the epoch guard, which refuses every sealed buffer, the latest
  // included.  Guarded apart from the teardown: a retry after a failed
  // persist redoes it without repeating the teardown.
  const bool guard_retired = attempt_->precopy && counters_destroyed_;
  if (freeze_persisted_ || guard_retired) return MigrationStartResult{};
  state_.frozen = 1;
  const Status persist_status = persist_mutation_durable("freeze");
  if (persist_status != Status::kOk) {
    return start_failure(persist_status, "persisting freeze flag");
  }
  freeze_persisted_ = true;
  return MigrationStartResult{};
}

bool MigrationLibrary::attempt_landed() {
  // Resume check (§V-D hardening): an exchange that died mid-flight — the
  // reply dropped by the network, or the ME restarting between accepting
  // the request and answering — looks like a failure even though the
  // transfer may already sit, durably retained, in the ME's queue.  Ask
  // the ME (re-attesting if needed) for the fate of exactly THIS attempt;
  // kPending/kCompleted means the source side is done.  A well-formed
  // kError reply is DEFINITIVE (retained paths reply success, dedup'd
  // re-sends included), so only transport failures take this round trip.
  auto attempt = query_status_internal(attempt_->nonce);
  return attempt.ok() && (attempt.value() == OutgoingState::kPending ||
                          attempt.value() == OutgoingState::kCompleted);
}

void MigrationLibrary::finish_outgoing() {
  const uint64_t nonce = attempt_->nonce;
  const uint64_t payload_bytes =
      attempt_->round_bytes + attempt_->payload_bytes;
  last_freeze_window_ = now() - freeze_started_;
  trace_freeze_end();
  last_transfer_bytes_ = payload_bytes;
  last_precopy_rounds_ = attempt_->rounds;
  attempt_.reset();
  trace_attempt_done(nonce, payload_bytes);
}

void MigrationLibrary::notify_abort_stale(uint64_t nonce,
                                          const std::string& old_destination) {
  if (nonce == 0 || old_destination.empty()) return;
  if (ensure_me_channel() != Status::kOk) return;
  AbortStalePayload payload;
  payload.request_nonce = nonce;
  payload.destination_address = old_destination;
  LibMsg request;
  request.type = LibMsgType::kAbortStale;
  request.payload = encode_record(payload);
  // Best-effort: a failed abort merely leaves the orphan for the
  // pull-based reconcile sweep, the pre-abort status quo.
  (void)me_exchange_reattest(request);
}

// ----- full-snapshot migration (blocking start, enqueue, reserve + arm) -----

MigrationStartResult MigrationLibrary::stage_for_migration(
    const std::string& destination_address, MigrationPolicy policy) {
  const MigrationStartResult opened =
      open_attempt(destination_address, /*precopy=*/false);
  if (!opened.ok()) return opened;
  if (!attempt_->collected) {
    const MigrationStartResult frozen = freeze_and_collect(
        [this] {
          auto collected = collect_values();
          if (collected.ok()) {
            attempt_->snapshot = std::make_unique<const MigrationData>(
                std::move(collected).value());
          }
          return collected.status();
        },
        "collecting counter values");
    if (!frozen.ok()) return frozen;
  }
  claim_nonce(destination_address);
  attempt_->policy = std::move(policy);
  trace_attempt_root(attempt_->nonce);
  if (!counters_destroyed_) {
    // Destroy the hardware counters BEFORE any data leaves the machine
    // (§VI-B): whatever happens later, the source's counters are gone, so
    // stale persistent state cannot be replayed into a working fork.  If
    // this pass fails half-way the library stays frozen and a retry
    // resumes it (already-destroyed counters report kCounterNotFound).
    // Once this guard flips, no retry path may reach counter_destroy
    // again: the service recycles nothing today, but a double destroy
    // against a recycled id would hit someone else's counter.
    const Status destroyed = destroy_active_counters();
    if (destroyed != Status::kOk) {
      return start_failure(destroyed, "destroying source counters");
    }
    counters_destroyed_ = true;
  }
  return persist_freeze_flag();
}

LibMsg MigrationLibrary::snapshot_request(LibMsgType type) {
  MigrateRequestPayload payload;
  payload.destination_address = attempt_->destination;
  payload.request_nonce = attempt_->nonce;
  payload.policy = attempt_->policy;
  payload.data = *attempt_->snapshot;
  LibMsg request;
  request.type = type;
  request.payload = encode_record(payload);
  attempt_->payload_bytes = request.payload.size();
  return request;
}

MigrationStartResult MigrationLibrary::migration_start_detailed(
    const std::string& destination_address, MigrationPolicy policy) {
  const MigrationStartResult staged =
      stage_for_migration(destination_address, std::move(policy));
  if (!staged.ok()) return staged;
  auto reply =
      me_exchange_reattest(snapshot_request(LibMsgType::kMigrateRequest));
  if (!reply.ok()) {
    if (!attempt_landed()) return start_failure(reply.status(), "ME exchange");
  } else if (reply.value().type != LibMsgType::kMigrateAccepted) {
    // Keep the staged data: the application may retry, possibly with a
    // different destination (§V-D error handling).
    return rejected(reply.value(),
                    "destination rejected by source ME protocol");
  }
  finish_outgoing();
  return MigrationStartResult{};
}

MigrationStartResult MigrationLibrary::migration_enqueue_detailed(
    const std::string& destination_address, MigrationPolicy policy) {
  const MigrationStartResult staged =
      stage_for_migration(destination_address, std::move(policy));
  if (!staged.ok()) return staged;
  auto reply =
      me_exchange_reattest(snapshot_request(LibMsgType::kMigrateEnqueue));
  if (!reply.ok()) {
    // The enqueue reply was lost: the task may or may not be queued.  This
    // always reports the classified transport failure; the caller's retry
    // re-sends under the same nonce, which the ME dedups (an idempotent
    // re-queue whose poll reports kAccepted if the transfer landed).
    return start_failure(reply.status(), "ME enqueue exchange");
  }
  if (reply.value().type != LibMsgType::kMigrateQueued) {
    return rejected(reply.value(), "ME refused to queue the transfer");
  }
  attempt_->queued = true;
  if (obs::TraceRecorder* rec = recorder()) {
    rec->instant("migration.queued", lane(), attempt_->nonce,
                 {{"destination", destination_address}});
  }
  return MigrationStartResult{};
}

MigrationStartResult MigrationLibrary::migration_reserve_detailed(
    const std::string& destination_address, MigrationPolicy policy) {
  if (holds_frozen(/*precopy=*/false)) {
    // A previous attempt already froze and collected: nothing left to
    // defer, so queue the armed snapshot directly (retries and re-routes
    // after a post-freeze failure land here).
    return migration_enqueue_detailed(destination_address, std::move(policy));
  }
  const MigrationStartResult opened =
      open_attempt(destination_address, /*precopy=*/false);
  if (!opened.ok()) return opened;
  // The nonce is drawn WITHOUT freezing; the later freeze+arm reuses it.
  claim_nonce(destination_address);
  attempt_->policy = policy;
  MigrateReservePayload payload;
  payload.destination_address = destination_address;
  payload.request_nonce = attempt_->nonce;
  payload.policy = std::move(policy);
  LibMsg request;
  request.type = LibMsgType::kMigrateReserve;
  request.payload = encode_record(payload);
  auto reply = me_exchange_reattest(request);
  if (!reply.ok()) {
    // Nothing destructive happened (no freeze, no destroys): a classified
    // transport failure lets the caller's retry machinery re-drive us.
    return start_failure(reply.status(), "ME reserve exchange");
  }
  if (reply.value().type != LibMsgType::kMigrateQueued) {
    return rejected(reply.value(), "ME refused to reserve the transfer");
  }
  attempt_->queued = true;
  enqueue_started_ = now();
  last_enqueue_wait_ = Duration{};
  trace_attempt_root(attempt_->nonce);
  if (obs::TraceRecorder* rec = recorder()) {
    if (enqueue_span_ != 0) rec->end_span(enqueue_span_);
    enqueue_span_ =
        rec->begin_span("enqueue_wait", lane(), attempt_->nonce, root_span_);
    rec->span_arg(enqueue_span_, "destination", destination_address);
  }
  return MigrationStartResult{};
}

MigrationStartResult MigrationLibrary::arm_reserved_slot() {
  if (!attempt_->collected) {
    // First arm of this attempt: the live queue wait ends here — the
    // freeze clock starts inside stage_for_migration.
    last_enqueue_wait_ = now() - enqueue_started_;
    if (obs::TraceRecorder* rec = recorder();
        rec != nullptr && enqueue_span_ != 0) {
      rec->span_arg(enqueue_span_, "wait_ns",
                    static_cast<uint64_t>(last_enqueue_wait_.count()));
      rec->end_span(enqueue_span_);
      enqueue_span_ = 0;
    }
  }
  // Staging toward the reserved destination keeps the reserved nonce the
  // ME queued.  A copy, because staging rewrites the attempt it names.
  const std::string destination = attempt_->destination;
  const MigrationStartResult staged =
      stage_for_migration(destination, attempt_->policy);
  if (!staged.ok()) return staged;
  auto reply = me_exchange_reattest(snapshot_request(LibMsgType::kMigrateArm));
  if (!reply.ok()) {
    // The arm reply was lost: the parked task may or may not hold the
    // payload.  The next poll disambiguates — a re-observed kSlotLive
    // re-arms idempotently, kInFlight/kAccepted proceed normally.
    return start_failure(reply.status(), "ME arm exchange");
  }
  if (reply.value().type != LibMsgType::kArmAck) {
    return rejected(reply.value(), "ME refused the armed payload");
  }
  return in_progress("armed; transfer in flight");
}

MigrationStartResult MigrationLibrary::migration_poll_transfer() {
  if (!initialized_) {
    return start_failure(Status::kNotInitialized, "library init check");
  }
  if (attempt_ == nullptr || !attempt_->queued || attempt_->nonce == 0) {
    return start_failure(Status::kNoPendingMigration,
                         "no queued transfer to poll");
  }
  const Status channel_status = ensure_me_channel();
  if (channel_status != Status::kOk) {
    return start_failure(channel_status, "local ME attestation");
  }
  NoncePayload query;
  query.request_nonce = attempt_->nonce;
  LibMsg request;
  request.type = LibMsgType::kPollTransfer;
  request.payload = encode_record(query);
  auto reply = me_exchange_reattest(request);
  if (!reply.ok()) {
    // A lost poll reply must not be mistaken for a lost transfer.
    if (!attempt_landed()) {
      return start_failure(reply.status(), "ME poll exchange");
    }
    finish_outgoing();
    return MigrationStartResult{};
  }
  if (reply.value().type != LibMsgType::kTransferProgress) {
    return start_failure(reply.value().status != Status::kOk
                             ? reply.value().status
                             : Status::kUnexpected,
                         "ME poll reply");
  }
  auto progress = decode_record<TransferProgressPayload>(reply.value().payload);
  if (!progress.ok()) {
    return start_failure(progress.status(), "ME poll reply");
  }
  switch (progress.value().progress) {
    case TransferProgress::kAccepted:
      finish_outgoing();
      return MigrationStartResult{};
    case TransferProgress::kSlotLive:
      // The ME attested the destination and parked the slot: NOW run the
      // destructive freeze+collect and arm the payload.
      return arm_reserved_slot();
    case TransferProgress::kInFlight:
      return in_progress("transfer in flight");
    case TransferProgress::kFailed:
      // Terminal for THIS attempt; the staged data stays for a retry or
      // re-route, exactly like a blocking-start failure.
      return start_failure(progress.value().failure, "pipelined ME transfer");
    case TransferProgress::kNone:
      break;
  }
  // The ME does not know the nonce (it restarted before the task was
  // queued, or lost its storage).
  attempt_->queued = false;
  if (attempt_->precopy) {
    // The ME lost the queued finalize (restart drops the memory-only
    // staged record, or the ship budget ran out): surface a retryable
    // failure — the caller re-drives migration_finalize_detailed, which
    // the ME dedups by nonce if the record actually landed.
    return start_failure(Status::kServiceUnavailable,
                         "ME lost the queued finalize");
  }
  // Re-enqueue from the staged data — or re-reserve if this freeze-aware
  // attempt never froze.
  const std::string destination = attempt_->destination;
  const MigrationStartResult requeued =
      attempt_->collected
          ? migration_enqueue_detailed(destination, attempt_->policy)
          : migration_reserve_detailed(destination, attempt_->policy);
  if (!requeued.ok()) return requeued;
  return in_progress("transfer re-queued");
}

// ----- live pre-copy migration (iterative rounds + finalize) -----

Result<std::vector<CounterChunk>> MigrationLibrary::collect_dirty_chunks(
    bool include_all_populated) {
  std::vector<CounterChunk> out;
  // The active slots are in index order, so each chunk's slots are the
  // run [first, last) of them that falls in the chunk.
  auto first = state_.slots.begin();
  for (size_t c = 0; c < kPrecopyChunkCount; ++c) {
    auto last = first;
    while (last != state_.slots.end() &&
           last->index / kPrecopyChunkSlots == c) {
      ++last;
    }
    const bool collect =
        chunk_generation_[c] > attempt_->shipped_generation[c] ||
        (include_all_populated && first != last);
    if (collect) {
      CounterChunk chunk;
      chunk.index = static_cast<uint32_t>(c);
      chunk.generation = chunk_generation_[c];
      for (auto slot = first; slot != last; ++slot) {
        const size_t s = slot->index % kPrecopyChunkSlots;
        chunk.active[s] = true;
        // Effective value from the hardware-value cache when warm (this
        // library is the counter's only user, so the cache is exact);
        // otherwise one read refills it.  This is why pre-copy rounds do
        // not pay one Platform Services round trip per live counter the
        // way the full-snapshot collect does.
        const auto value = cached_hw_value(*slot);
        if (!value.ok()) return value.status();
        const uint64_t effective = static_cast<uint64_t>(slot->offset) +
                                   static_cast<uint64_t>(value.value());
        if (effective > std::numeric_limits<uint32_t>::max()) {
          return Status::kCounterOverflow;
        }
        chunk.values[s] = static_cast<uint32_t>(effective);
      }
      out.push_back(std::move(chunk));
    }
    first = last;
  }
  return out;
}

void MigrationLibrary::stage_chunks(const std::vector<CounterChunk>& chunks) {
  for (const CounterChunk& chunk : chunks) {
    attempt_->shipped_generation[chunk.index] = chunk.generation;
    attempt_->staged_chunks[chunk.index] = chunk;
  }
}

std::vector<ChunkManifestEntry> MigrationLibrary::staged_manifest() const {
  std::vector<ChunkManifestEntry> manifest;
  manifest.reserve(attempt_->staged_chunks.size());
  for (const auto& [index, chunk] : attempt_->staged_chunks) {
    manifest.push_back({index, chunk.generation});
  }
  return manifest;
}

std::vector<CounterChunk> MigrationLibrary::all_staged_chunks() const {
  std::vector<CounterChunk> chunks;
  chunks.reserve(attempt_->staged_chunks.size());
  for (const auto& [index, chunk] : attempt_->staged_chunks) {
    chunks.push_back(chunk);
  }
  return chunks;
}

Result<PrecopyRoundReport> MigrationLibrary::migration_precopy_round(
    const std::string& destination_address, MigrationPolicy policy) {
  if (!initialized_) return Status::kNotInitialized;
  if (runtime_frozen_) return Status::kMigrationFrozen;
  if (state_.epoch_active == 0) return Status::kInvalidState;
  if (destination_address.empty()) return Status::kInvalidParameter;
  const MigrationStartResult opened =
      open_attempt(destination_address, /*precopy=*/true);
  if (!opened.ok()) return opened.status;
  claim_nonce(destination_address);

  trace_attempt_root(attempt_->nonce);
  uint64_t round_span = 0;
  if (obs::TraceRecorder* rec = recorder()) {
    round_span =
        rec->begin_span("precopy_round", lane(), attempt_->nonce, root_span_);
    rec->span_arg(round_span, "round", static_cast<uint64_t>(attempt_->rounds));
  }

  auto chunks = collect_dirty_chunks(/*include_all_populated=*/
                                     attempt_->rounds == 0);
  if (!chunks.ok()) {
    close_span(round_span, "collect-failed");
    return chunks.status();
  }

  PrecopyRoundPayload payload;
  payload.destination_address = destination_address;
  payload.request_nonce = attempt_->nonce;
  payload.round = attempt_->rounds;
  payload.policy = std::move(policy);
  payload.chunks = chunks.value();
  LibMsg request;
  request.type = LibMsgType::kPrecopyRound;
  request.payload = encode_record(payload);
  auto reply = me_exchange_reattest(request);
  if (!reply.ok()) {
    close_span(round_span, "exchange-failed");
    return reply.status();
  }
  if (reply.value().type != LibMsgType::kPrecopyAck) {
    close_span(round_span, "rejected");
    return reply.value().status != Status::kOk ? reply.value().status
                                               : Status::kUnexpected;
  }
  // Commit only after the ME acknowledged: a failed round re-collects and
  // re-ships the same chunks (the destination merges idempotently by
  // generation).
  stage_chunks(chunks.value());
  PrecopyRoundReport report;
  report.round = attempt_->rounds;
  report.chunks_shipped = static_cast<uint32_t>(chunks.value().size());
  report.bytes_shipped = request.payload.size();
  attempt_->round_bytes += request.payload.size();
  ++attempt_->rounds;
  if (obs::Observability* obs = observability();
      obs != nullptr && obs->enabled()) {
    if (round_span != 0) {
      obs->trace.span_arg(round_span, "chunks",
                          static_cast<uint64_t>(report.chunks_shipped));
      obs->trace.span_arg(round_span, "bytes", report.bytes_shipped);
    }
    obs->metrics.add("migration.precopy_rounds");
  }
  close_span(round_span, "ok");
  return report;
}

MigrationStartResult MigrationLibrary::migration_finalize_detailed(
    const std::string& destination_address, MigrationPolicy policy) {
  if (!initialized_) {
    return start_failure(Status::kNotInitialized, "library init check");
  }
  if (state_.epoch_active == 0) {
    return start_failure(Status::kInvalidState,
                         "live-transfer capability check");
  }
  // A pure stop-and-copy (no prior rounds) or a pre-freeze re-route opens
  // a fresh attempt: everything ships inside the finalize.
  const MigrationStartResult opened =
      open_attempt(destination_address, /*precopy=*/true);
  if (!opened.ok()) return opened;
  const bool rerouted_after_freeze =
      attempt_->collected && attempt_->destination != destination_address;
  claim_nonce(destination_address);
  if (rerouted_after_freeze) {
    // The new destination has no staged rounds, so the finalize carries
    // the full staged set under the fresh nonce.
    attempt_->final_chunks = all_staged_chunks();
  } else if (!attempt_->collected) {
    const MigrationStartResult frozen = freeze_and_collect(
        [this] {
          auto delta = collect_dirty_chunks(/*include_all_populated=*/
                                            attempt_->rounds == 0);
          if (!delta.ok()) return delta.status();
          attempt_->final_chunks = std::move(delta).value();
          stage_chunks(attempt_->final_chunks);
          return Status::kOk;
        },
        "collecting final delta");
    if (!frozen.ok()) return frozen;
  }
  trace_attempt_root(attempt_->nonce);

  if (!counters_destroyed_ && !chaos_epoch_guard_disabled_) {
    // The source's counters die before the data leaves (§VI-B), as on
    // the full-snapshot path, but in ONE logical PSE op over this
    // instance's counters and its epoch guard instead of a destroy per
    // counter.  A stale sealed buffer then reads the retired guard as
    // kCounterNotFound and refuses to operate.  The final delta was
    // collected above, so retries and re-routes resend that cache and
    // never read hardware again.  Physical slot reclaim is the platform's
    // background sweep, off the freeze window.
    const Status retired = retire_active_counters();
    if (retired != Status::kOk) {
      return start_failure(retired, "retiring source counters");
    }
    counters_destroyed_ = true;
  }
  const MigrationStartResult persisted = persist_freeze_flag();
  if (!persisted.ok()) return persisted;

  uint64_t finalize_span = 0;
  if (obs::TraceRecorder* rec = recorder()) {
    finalize_span =
        rec->begin_span("finalize", lane(), attempt_->nonce, root_span_);
    rec->span_arg(finalize_span, "rounds",
                  static_cast<uint64_t>(attempt_->rounds));
  }

  PrecopyFinalizePayload payload;
  payload.destination_address = destination_address;
  payload.request_nonce = attempt_->nonce;
  payload.round = attempt_->rounds;
  payload.policy = std::move(policy);
  payload.chunks = attempt_->final_chunks;
  payload.manifest = staged_manifest();
  payload.msk = state_.msk;
  LibMsg request;
  request.type = LibMsgType::kPrecopyFinalizeReq;
  request.payload = encode_record(payload);
  auto reply = me_exchange_reattest(request);

  if (reply.ok() && reply.value().type == LibMsgType::kError &&
      reply.value().status == Status::kPrecopyIncomplete) {
    // The rounds merged at the source ME (a restart lost them) or staged
    // at the destination (it lost its queue, or a superseded attempt left
    // partial staging) do not cover the manifest: re-ship the complete
    // staged set once.
    payload.chunks = all_staged_chunks();
    request.payload = encode_record(payload);
    if (obs::Observability* obs = observability();
        obs != nullptr && obs->enabled()) {
      obs->metrics.add("migration.precopy_reships");
    }
    reply = me_exchange_reattest(request);
  }
  attempt_->payload_bytes = request.payload.size();

  if (!reply.ok()) {
    if (!attempt_landed()) {
      close_span(finalize_span, "exchange-failed");
      return start_failure(reply.status(), "ME finalize exchange");
    }
    close_span(finalize_span, "resumed");
  } else if (reply.value().type == LibMsgType::kMigrateQueued) {
    // Async source ME: the sealed finalize record ships through the
    // deferred pump — the enqueue-then-poll contract of the pipelined
    // full-snapshot path.  The enclave stays frozen; the freeze ends only
    // when the poll observes the destination's accept, in the same
    // success tail.
    attempt_->queued = true;
    close_span(finalize_span, "queued");
    return in_progress("finalize queued at source ME");
  } else if (reply.value().type != LibMsgType::kFinalizeAccepted) {
    close_span(finalize_span, "rejected");
    return rejected(reply.value(),
                    "destination rejected by source ME protocol");
  } else {
    close_span(finalize_span, "ok");
  }
  // The destination ME holds the authoritative snapshot: the freeze
  // window ends here.
  finish_outgoing();
  return MigrationStartResult{};
}

size_t MigrationLibrary::memory_bytes() const {
  size_t bytes = state_.memory_bytes();
  if (attempt_ != nullptr) {
    bytes += sizeof(OutgoingAttempt) +
             attempt_->staged_chunks.size() *
                 sizeof(decltype(attempt_->staged_chunks)::value_type) +
             attempt_->final_chunks.capacity() * sizeof(CounterChunk);
    if (attempt_->snapshot != nullptr) bytes += sizeof(MigrationData);
  }
  return bytes;
}

Result<OutgoingState> MigrationLibrary::query_status_internal(uint64_t nonce) {
  if (!initialized_) return Status::kNotInitialized;
  const Status channel_status = ensure_me_channel();
  if (channel_status != Status::kOk) return channel_status;
  LibMsg request;
  request.type = LibMsgType::kQueryStatus;
  NoncePayload query;
  query.request_nonce = nonce;
  request.payload = encode_record(query);
  auto reply = me_exchange_reattest(request);
  if (!reply.ok()) return reply.status();
  if (reply.value().type != LibMsgType::kStatusReport) {
    return Status::kUnexpected;
  }
  auto report = decode_record<StatusReportPayload>(reply.value().payload);
  if (!report.ok()) return Status::kTampered;
  return report.value().state;
}

}  // namespace sgxmig::migration
