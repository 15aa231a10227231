// Observability subsystem tests: TraceRecorder stitching semantics
// (auto-rooting by trace id, late trace binding, ancestor re-extension
// for out-of-order lane completion), MetricsRegistry counters, the
// Chrome trace-event export round-tripped through the strict JSON
// parser and pinned byte for byte, OrchestratorReport::to_json
// (include_events) surviving hostile event strings, one span tree per
// migration stitched ACROSS a source-ME crash/restart, and a traced
// orchestrated drain whose virtual wall time is bit-identical to its
// untraced twin (the zero-overhead-when-off property).  The drain test also writes TRACE_obs_drain.json +
// TRACE_REPORT_obs_drain.json so CI jobs without the bench binaries can
// still gate on scripts/trace_check.py.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "obs/observability.h"
#include "orchestrator/fleet_builder.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"
#include "support/json_parse.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationStartResult;
using obs::TraceRecorder;
using obs::TraceSpan;
using platform::World;
using sgx::EnclaveImage;

// ----- TraceRecorder semantics -----

class TraceRecorderTest : public ::testing::Test {
 protected:
  TraceRecorderTest() { rec_.set_enabled(true); }

  VirtualClock clock_;
  TraceRecorder rec_{clock_};
};

TEST_F(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder off(clock_);
  EXPECT_EQ(off.begin_span("migration", "m0", 7), 0u);
  off.end_span(0);
  off.instant("migration.done", "m0", 7);
  off.counter("net.pending", "m0", 1.0);
  EXPECT_TRUE(off.spans().empty());
  EXPECT_TRUE(off.instants().empty());
  EXPECT_TRUE(off.counter_samples().empty());
}

TEST_F(TraceRecorderTest, FirstSpanOfATraceBecomesItsRoot) {
  const uint64_t root = rec_.begin_span("migration", "m0", /*trace_id=*/42);
  const uint64_t child = rec_.begin_span("restore", "m1", /*trace_id=*/42);
  const uint64_t named =
      rec_.begin_span("freeze", "m0", /*trace_id=*/42, /*parent_id=*/root);
  ASSERT_NE(root, 0u);
  EXPECT_EQ(rec_.trace_root(42), root);
  EXPECT_EQ(rec_.find_span(root)->parent_id, 0u);
  EXPECT_EQ(rec_.find_span(child)->parent_id, root);
  EXPECT_EQ(rec_.find_span(named)->parent_id, root);
  // A different trace id grows its own tree.
  const uint64_t other = rec_.begin_span("migration", "m2", /*trace_id=*/43);
  EXPECT_EQ(rec_.find_span(other)->parent_id, 0u);
  EXPECT_EQ(rec_.trace_root(43), other);
}

TEST_F(TraceRecorderTest, LateTraceAssignmentResolvesRootThenChild) {
  // The library's order of operations: the freeze span opens BEFORE the
  // attempt nonce exists, the root is opened explicitly, and both are
  // bound to the nonce once it is drawn.
  const uint64_t freeze = rec_.begin_span("freeze", "m0");
  const uint64_t root = rec_.begin_span("migration", "m0");
  rec_.assign_trace(root, 99);
  rec_.assign_trace(freeze, 99);
  EXPECT_EQ(rec_.trace_root(99), root);
  EXPECT_EQ(rec_.find_span(root)->parent_id, 0u);
  EXPECT_EQ(rec_.find_span(freeze)->parent_id, root);
  EXPECT_EQ(rec_.find_span(freeze)->trace_id, 99u);
}

TEST_F(TraceRecorderTest, LateChildClosureReextendsClosedAncestors) {
  const uint64_t root = rec_.begin_span("migration", "m0", 5);
  const uint64_t child = rec_.begin_span("restore", "m1", 5);
  clock_.advance(milliseconds(100));
  rec_.end_span(root);
  EXPECT_EQ(rec_.find_span(root)->end, milliseconds(100));
  // The destination lane completes later in virtual time than the root's
  // close (lanes finish out of order): the closed root re-extends.
  clock_.advance(milliseconds(50));
  rec_.end_span(child);
  EXPECT_FALSE(rec_.find_span(root)->open);
  EXPECT_EQ(rec_.find_span(root)->end, milliseconds(150));
  EXPECT_EQ(rec_.find_span(child)->end, milliseconds(150));
}

TEST_F(TraceRecorderTest, EndTraceRootCoversClosedChildren) {
  const uint64_t root = rec_.begin_span("migration", "m0", 11);
  const uint64_t child = rec_.begin_span("restore", "m1", 11);
  clock_.advance(milliseconds(20));
  rec_.end_span(child);
  rec_.end_trace_root(11);
  EXPECT_FALSE(rec_.find_span(root)->open);
  EXPECT_EQ(rec_.find_span(root)->end, milliseconds(20));
  // A second completion stamp (destination confirm after the source
  // already closed the root) only ever extends, never shrinks.
  clock_.advance(milliseconds(5));
  rec_.end_trace_root(11);
  EXPECT_EQ(rec_.find_span(root)->end, milliseconds(25));
  EXPECT_EQ(rec_.open_span_count(), 0u);
}

TEST_F(TraceRecorderTest, ChromeExportRoundTripsThroughStrictParser) {
  const uint64_t root = rec_.begin_span("migration", "m0", 77);
  rec_.span_arg(root, "enclave", "app \"7\" \\ two\nlines\t");
  clock_.advance(milliseconds(3));
  const uint64_t child = rec_.begin_span("freeze", "m0", 77);
  clock_.advance(milliseconds(4));
  rec_.end_span(child);
  rec_.end_trace_root(77);
  rec_.instant("net.post", "m1", 0, {{"msg", "1"}, {"to", "m0/me"}});
  rec_.counter("net.pending", "m1", 2.0);
  // A span deliberately left open: the export must close it at the
  // horizon and tag it.
  rec_.begin_span("pse.reclaim", "m2");

  auto parsed = parse_json(rec_.to_chrome_json());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* events = parsed.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  size_t begins = 0, ends = 0, instants = 0, counters = 0;
  bool open_tagged = false;
  std::string exported_enclave;
  for (const JsonValue& e : events->items()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "b") {
      ++begins;
      const JsonValue* args = e.find("args");
      if (args->find("open") != nullptr) open_tagged = true;
      if (e.find("name")->as_string() == "migration") {
        exported_enclave = args->find("enclave")->as_string();
      }
    } else if (ph == "e") {
      ++ends;
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "C") {
      ++counters;
    }
  }
  EXPECT_EQ(begins, 3u);
  EXPECT_EQ(ends, begins);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(counters, 1u);
  EXPECT_TRUE(open_tagged);
  // The hostile arg string survived escaping + strict parsing intact.
  EXPECT_EQ(exported_enclave, "app \"7\" \\ two\nlines\t");
}

// Exact export bytes: one event of every Chrome phase the recorder
// writes, an arg-carrying span, an open span closed at the horizon, and
// a lane name that needs escaping.
TEST_F(TraceRecorderTest, ChromeExportBytesArePinned) {
  const uint64_t root = rec_.begin_span("migration", "m0", /*trace_id=*/42);
  rec_.span_arg(root, "enclave", "app");
  rec_.span_arg(root, "bytes", uint64_t{5436});
  clock_.advance(nanoseconds(1500123));
  rec_.end_span(root);
  rec_.instant("net.post", "m\"1\\", 0, {{"msg", "1"}, {"to", "m0/me"}});
  rec_.counter("net.pending", "m\"1\\", 2.0);
  clock_.advance(microseconds(7));
  rec_.begin_span("pse.reclaim", "m2");
  EXPECT_EQ(rec_.to_chrome_json(),
    R"json({"traceEvents": [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {"name": "control"}}, )json"
    R"json({"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "control"}}, )json"
    R"json({"ph": "M", "name": "process_name", "pid": 4, "tid": 0, "args": {"name": "m\"1\\"}}, )json"
    R"json({"ph": "M", "name": "thread_name", "pid": 4, "tid": 1, "args": {"name": "m\"1\\ lane"}}, )json"
    R"json({"ph": "M", "name": "process_name", "pid": 2, "tid": 0, "args": {"name": "m0"}}, )json"
    R"json({"ph": "M", "name": "thread_name", "pid": 2, "tid": 1, "args": {"name": "m0 lane"}}, )json"
    R"json({"ph": "M", "name": "process_name", "pid": 3, "tid": 0, "args": {"name": "m2"}}, )json"
    R"json({"ph": "M", "name": "thread_name", "pid": 3, "tid": 1, "args": {"name": "m2 lane"}}, )json"
    R"json({"ph": "b", "cat": "span", "id": "0x2a", "pid": 2, "tid": 1, "name": "migration", "ts": 0.000, "args": {"enclave": "app", "bytes": "5436", "span": "1", "parent": "0", "trace": "42", "lane": "m0"}}, )json"
    R"json({"ph": "e", "cat": "span", "id": "0x2a", "pid": 2, "tid": 1, "name": "migration", "ts": 1500.123, "args": {"span": "1"}}, )json"
    R"json({"ph": "b", "cat": "span", "id": "0x2", "pid": 3, "tid": 1, "name": "pse.reclaim", "ts": 1507.123, "args": {"span": "2", "parent": "0", "trace": "0", "lane": "m2", "open": "1"}}, )json"
    R"json({"ph": "e", "cat": "span", "id": "0x2", "pid": 3, "tid": 1, "name": "pse.reclaim", "ts": 1507.123, "args": {"span": "2"}}, )json"
    R"json({"ph": "i", "s": "t", "pid": 4, "tid": 1, "name": "net.post", "ts": 1500.123, "args": {"msg": "1", "to": "m0/me", "trace": "0"}}, )json"
    R"json({"ph": "C", "pid": 4, "tid": 1, "name": "net.pending", "ts": 1500.123, "args": {"value": 2.000}}]})json");
}

// ----- MetricsRegistry -----

TEST(MetricsRegistry, CounterJsonBytesArePinned) {
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  EXPECT_EQ(metrics.to_json(),
    R"json({"counters": {}})json");
  metrics.add("net.posts", 3);
  metrics.add("migration.accepted");
  metrics.add("net.\"odd\"");
  EXPECT_EQ(metrics.to_json(),
    R"json({"counters": {"migration.accepted": 1, "net.\"odd\"": 1, "net.posts": 3}})json");
}

TEST(MetricsRegistry, DisabledByDefaultThenAggregates) {
  obs::MetricsRegistry metrics;
  metrics.add("net.posts");
  EXPECT_EQ(metrics.counter("net.posts"), 0u);

  metrics.set_enabled(true);
  metrics.add("net.posts");
  metrics.add("net.posts", 5);
  EXPECT_EQ(metrics.counter("net.posts"), 6u);

  auto parsed = parse_json(metrics.to_json());
  ASSERT_TRUE(parsed.ok());
  const JsonValue& top = parsed.value();
  ASSERT_TRUE(top.has("counters"));
  EXPECT_EQ(top.find("counters")->find("net.posts")->as_number(), 6.0);
}

// ----- OrchestratorReport round trip (include_events) -----

TEST(ReportJson, EventfulReportRoundTripsThroughStrictParser) {
  orchestrator::OrchestratorReport report;
  report.plan = orchestrator::PlanKind::kDrainMachine;
  report.started_at = milliseconds(10);
  report.finished_at = milliseconds(2500);

  orchestrator::MigrationRecord ok;
  ok.enclave_id = 1;
  ok.name = "app with \"quotes\" and \\backslash\\";
  ok.source = "m0";
  ok.destination = "m1";
  ok.attempts = 2;
  ok.success = true;
  ok.planned_at = milliseconds(10);
  ok.finished_at = milliseconds(900);
  ok.freeze_window = microseconds(1500);
  report.migrations.push_back(ok);

  orchestrator::MigrationRecord bad;
  bad.enclave_id = 2;
  bad.name = "doomed";
  bad.success = false;
  bad.final_status = Status::kTampered;
  bad.failure_message = "tab\there, newline\nthere, ctrl\x01&\x1f, utf8 σπαν";
  report.migrations.push_back(bad);

  report.events.push_back({milliseconds(10), 1, orchestrator::EventKind::kPlanned,
                           "detail with \"every\\nasty\"\r\nthing"});
  report.events.push_back(
      {milliseconds(900), 1, orchestrator::EventKind::kDone, "plain"});

  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  metrics.add("migration.accepted", 2);
  report.metrics_json = metrics.to_json();

  auto parsed = parse_json(report.to_json(/*include_events=*/true));
  ASSERT_TRUE(parsed.ok());
  const JsonValue& top = parsed.value();
  EXPECT_EQ(top.find("plan")->as_string(), "drain-machine");
  ASSERT_TRUE(top.has("migrations"));
  const auto& migrations = top.find("migrations")->items();
  ASSERT_EQ(migrations.size(), 2u);
  EXPECT_EQ(migrations[0].find("name")->as_string(), ok.name);
  EXPECT_FALSE(migrations[0].has("message"));  // success row omits failure
  EXPECT_EQ(migrations[1].find("message")->as_string(), bad.failure_message);
  ASSERT_TRUE(top.has("events"));
  const auto& events = top.find("events")->items();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("detail")->as_string(),
            report.events[0].detail);
  EXPECT_EQ(events[0].find("kind")->as_string(), "planned");
  // The metrics block merged as structured JSON, not as a quoted string.
  ASSERT_TRUE(top.has("metrics"));
  EXPECT_EQ(top.find("metrics")->find("counters")->find("migration.accepted")
                ->as_number(),
            2.0);
  // Without events (and without metrics) the document still parses and
  // omits both keys.
  orchestrator::OrchestratorReport bare;
  auto parsed_bare = parse_json(bare.to_json());
  ASSERT_TRUE(parsed_bare.ok());
  EXPECT_FALSE(parsed_bare.value().has("events"));
  EXPECT_FALSE(parsed_bare.value().has("metrics"));
}

// ----- span trees across faults -----

bool transfer_in_flight(const MigrationStartResult& r) {
  return r.status == Status::kMigrationInProgress &&
         r.failure_class == migration::MigrationFailureClass::kNone;
}

// Mirrors test_pipeline's SourceMeRestartMidPipelineResumesFromDurableQueue
// with the recorder on: the source ME dies mid-attestation, the revived
// ME resumes both pipelines from the durable queue under the SAME attempt
// nonces, and each migration must still render as exactly ONE span tree —
// root, freeze, and restore all bound to one trace id, nothing orphaned.
TEST(ObsFaults, SpanTreeStitchedAcrossSourceMeRestart) {
  World world{/*seed=*/6060};
  world.install_management_enclaves(
      migration::durable_me_factory(world.provider()));
  platform::Machine& m0 = world.add_machine("m0");
  platform::Machine& m1 = world.add_machine("m1");
  platform::Machine& m2 = world.add_machine("m2");
  world.observability().set_enabled(true);

  const auto image_a = EnclaveImage::create("obs-pipe-a", 1, "acme");
  const auto image_b = EnclaveImage::create("obs-pipe-b", 1, "acme");
  const auto start_app = [&](platform::Machine& m,
                             std::shared_ptr<const EnclaveImage> image) {
    auto enclave = std::make_unique<MigratableEnclave>(
        m, std::move(image), /*live_transfer=*/false);
    enclave->set_persist_callback(
        [&m](ByteView s) { m.storage().put("ml", s); });
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    return enclave;
  };
  auto a = start_app(m0, image_a);
  auto b = start_app(m0, image_b);
  a->ecall_increment_migratable_counter(
      a->ecall_create_migratable_counter().value().counter_id);
  b->ecall_increment_migratable_counter(
      b->ecall_create_migratable_counter().value().counter_id);
  ASSERT_TRUE(a->ecall_migration_enqueue_detailed("m1").ok());
  ASSERT_TRUE(b->ecall_migration_enqueue_detailed("m2").ok());

  // Crash the source ME mid-attestation, then revive it: the durable
  // queue re-kicks both tasks under their original nonces.
  world.network().pump_one();
  world.network().pump_one();
  world.network().pump_one();
  m0.kill_management_enclave();
  ASSERT_TRUE(m0.restart_management_enclave());

  const auto pump_until_resolved = [&](MigratableEnclave& enclave) {
    for (int i = 0; i < 16; ++i) {
      migration::me_on(m0)->pump();
      world.network().pump_all();
      const MigrationStartResult r = enclave.ecall_migration_poll_transfer();
      if (!transfer_in_flight(r)) return r;
    }
    MigrationStartResult stuck;
    stuck.status = Status::kMigrationInProgress;
    return stuck;
  };
  ASSERT_TRUE(pump_until_resolved(*a).ok());
  ASSERT_TRUE(pump_until_resolved(*b).ok());
  a.reset();
  b.reset();

  // Restore both at their destinations (fetch + confirm close the trees).
  const auto restore_app = [&](platform::Machine& m,
                               std::shared_ptr<const EnclaveImage> image) {
    auto enclave = std::make_unique<MigratableEnclave>(
        m, std::move(image), /*live_transfer=*/false);
    enclave->set_persist_callback(
        [&m](ByteView s) { m.storage().put("ml", s); });
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                            m.address()),
              Status::kOk);
    EXPECT_EQ(enclave->ecall_read_migratable_counter(0).value(), 1u);
    return enclave;
  };
  auto moved_a = restore_app(m1, image_a);
  auto moved_b = restore_app(m2, image_b);

  const TraceRecorder& rec = world.observability().trace;
  std::vector<const TraceSpan*> roots;
  for (const TraceSpan& span : rec.spans()) {
    if (span.name == "migration" && span.parent_id == 0) {
      roots.push_back(&span);
    }
  }
  ASSERT_EQ(roots.size(), 2u);  // one tree per migration, restart or not
  EXPECT_NE(roots[0]->trace_id, 0u);
  EXPECT_NE(roots[1]->trace_id, 0u);
  EXPECT_NE(roots[0]->trace_id, roots[1]->trace_id);
  EXPECT_EQ(rec.open_span_count(), 0u);  // no orphans
  for (const TraceSpan* root : roots) {
    bool has_freeze = false, has_restore = false;
    for (const TraceSpan& span : rec.spans()) {
      if (span.trace_id != root->trace_id || span.span_id == root->span_id) {
        continue;
      }
      // Every non-root span of the trace hangs off the one root and
      // nests inside it.
      EXPECT_EQ(span.parent_id, root->span_id);
      EXPECT_GE(span.start, root->start);
      EXPECT_LE(span.end, root->end);
      has_freeze = has_freeze || span.name == "freeze";
      has_restore = has_restore || span.name == "restore";
    }
    EXPECT_TRUE(has_freeze);
    EXPECT_TRUE(has_restore);
  }
  // Both trees were stamped done by the destination confirm.
  size_t done = 0;
  for (const auto& instant : rec.instants()) {
    if (instant.name == "migration.done") {
      ++done;
      EXPECT_TRUE(instant.trace_id == roots[0]->trace_id ||
                  instant.trace_id == roots[1]->trace_id);
    }
  }
  EXPECT_EQ(done, 2u);
}

// ----- traced orchestrated drain: zero overhead + CI artifacts -----

struct DrainOutcome {
  orchestrator::OrchestratorReport report;
  Duration wall{};
  std::string trace_json;
};

DrainOutcome small_drain(bool traced) {
  World world(/*seed=*/4242);
  world.install_management_enclaves(migration::durable_me_factory(
      world.provider(),
      [](migration::MigrationEnclave& me) { me.set_async_precopy(true); }));
  orchestrator::add_machines(world, 3);
  if (traced) world.observability().set_enabled(true);

  orchestrator::FleetRegistry fleet(world);
  orchestrator::AppSpec apps{
      .count = 6, .prefix = "obs-drain-", .vendor = "obs"};
  apps.options.live_transfer = true;
  EXPECT_TRUE(orchestrator::launch_apps(fleet, apps).ok());
  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 6;
  options.transfer_mode = orchestrator::TransferMode::kPrecopy;
  options.pipelined = true;

  orchestrator::Orchestrator orch(fleet, scheduler, options);
  const Duration t0 = world.clock().now();
  DrainOutcome outcome;
  outcome.report = orch.execute(orchestrator::Plan::drain("m0"));
  outcome.wall = world.clock().now() - t0;
  if (traced) {
    outcome.report.metrics_json = world.observability().metrics.to_json();
    outcome.trace_json = world.observability().trace.to_chrome_json();
  }
  return outcome;
}

bool write_text_file(const char* path, const std::string& body) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  return std::fclose(f) == 0 && written == body.size();
}

TEST(ObsDrain, TracedDrainIsVirtualTimeIdenticalAndEmitsArtifacts) {
  const DrainOutcome untraced = small_drain(/*traced=*/false);
  const DrainOutcome traced = small_drain(/*traced=*/true);
  ASSERT_EQ(traced.report.failed(), 0u);
  ASSERT_EQ(traced.report.succeeded(), 6u);
  // Zero overhead where it counts: the recorder only READS the virtual
  // clock, so the traced drain reproduces the untraced wall bit-exactly.
  EXPECT_EQ(traced.wall, untraced.wall);
  EXPECT_TRUE(untraced.report.metrics_json.empty());

  // The export parses strictly and carries one migration root per task.
  auto parsed = parse_json(traced.trace_json);
  ASSERT_TRUE(parsed.ok());
  size_t roots = 0;
  for (const JsonValue& e : parsed.value().find("traceEvents")->items()) {
    roots += e.find("ph")->as_string() == "b" &&
                     e.find("name")->as_string() == "migration" &&
                     e.find("args")->find("parent")->as_string() == "0"
                 ? 1
                 : 0;
  }
  EXPECT_EQ(roots, 6u);

  // CI artifacts for scripts/trace_check.py in bench-less builds (ASan).
  ASSERT_TRUE(write_text_file("TRACE_obs_drain.json", traced.trace_json));
  ASSERT_TRUE(write_text_file("TRACE_REPORT_obs_drain.json",
                              traced.report.to_json(/*include_events=*/true)));
}

}  // namespace
}  // namespace sgxmig
