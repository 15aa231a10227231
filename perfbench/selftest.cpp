// Self-test of perfbench's derivations against a hand-built trace fixture
// whose answers are worked out by hand in the comments below.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "derive.h"
#include "support/stats.h"

namespace sgxmig::perfbench {

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  const bool ok = std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want));
  std::printf("  %-44s %s (got %.9g, want %.9g)\n", what, ok ? "ok" : "FAILED", got,
              want);
  if (!ok) ++failures;
}

void expect_true(const char* what, bool ok) {
  std::printf("  %-44s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++failures;
}

void step(obs::TraceRecorder& rec, Duration at, uint64_t trace, const char* name) {
  rec.instant_at(at, "me.task.step", "m0", trace, {{"step", name}});
}

}  // namespace

int run_self_test() {
  std::printf("perfbench self-test\n");

  // Nearest rank: the p99 of 1..1000 is the 990th sample, with ten
  // samples beyond it; one sample fewer leaves nine, below the rule.
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  const Quantile q = quantile(ramp, 99);
  expect_near("p99 of 1..1000", q.value, 990);
  expect_true("1000 samples: ten beyond p99", q.beyond == 10 && tail_resolved(1000, 99));
  expect_true("999 samples: p99 unresolved", !tail_resolved(999, 99));
  expect_near("p50 of {2, 1} is the lower sample", quantile({2.0, 1.0}, 50).value, 1);

  // Blocked time: enclave 1 served its last op at 2 s and was restored at
  // 3.5 s; enclave 2 never restored and enclave 3 never served an op.
  const std::vector<double> blocked =
      blocked_seconds({{1, milliseconds(2000)}, {2, milliseconds(5000)}},
                      {{1, milliseconds(3500)}, {3, milliseconds(9000)}});
  expect_true("blocked: one sample", blocked.size() == 1);
  expect_near("blocked: 3.5 s - 2 s", blocked.empty() ? -1 : blocked[0], 1.5);

  VirtualClock clock;
  obs::TraceRecorder rec(clock);
  rec.set_enabled(true);

  // ME task steps, recorded out of order.  Nonce 7 (full handshake):
  // await-ra-msg2 @0, await-auth @10, await-arm @30, await-accept @100,
  // retained @150 ms -> attestation 30 ms, arm 70 ms, accept 50 ms.
  // Nonce 8 (resumed): await-resume @200, await-accept @205, retained
  // @260 ms -> attestation 5 ms, accept 55 ms.
  step(rec, milliseconds(100), 7, "await-accept");
  step(rec, milliseconds(0), 7, "await-ra-msg2");
  step(rec, milliseconds(200), 8, "await-resume");
  step(rec, milliseconds(30), 7, "await-arm");
  step(rec, milliseconds(10), 7, "await-auth");
  step(rec, milliseconds(150), 7, "retained");
  step(rec, milliseconds(205), 8, "await-accept");
  step(rec, milliseconds(260), 8, "retained");
  const std::vector<double> attest =
      dwell_sum(rec, {"await-ra-msg2", "await-auth", "await-resume"});
  expect_true("attestation: one sample per nonce", attest.size() == 2);
  if (attest.size() == 2) {
    expect_near("attestation, full handshake", attest[0], 0.030);
    expect_near("attestation, resumed", attest[1], 0.005);
  }
  const std::vector<double> arm = dwell_sum(rec, {"await-arm"});
  expect_true("await-arm: nonce 7 only", arm.size() == 1);
  expect_near("await-arm dwell", arm.empty() ? -1 : arm[0], 0.070);
  expect_near("await-accept p99", percentile_nearest_rank(dwell_sum(rec, {"await-accept"}), 99),
              0.055);
  expect_true("one retained step per nonce", step_count(rec, "retained") == 2);

  // Root self time: root [0, 100] ms with children freeze [10, 30],
  // restore [20, 50] and finalize [60, 70]; their union covers 50 ms, so
  // half the root is self time.
  const uint64_t root = rec.begin_span("migration", "m0", 9);
  clock.advance(milliseconds(10));
  const uint64_t freeze = rec.begin_span("freeze", "m0", 9);
  clock.advance(milliseconds(10));
  const uint64_t restore = rec.begin_span("restore", "m1", 9);
  clock.advance(milliseconds(10));
  rec.end_span(freeze);
  clock.advance(milliseconds(20));
  rec.end_span(restore);
  clock.advance(milliseconds(10));
  const uint64_t finalize = rec.begin_span("finalize", "m0", 9);
  clock.advance(milliseconds(10));
  rec.end_span(finalize);
  clock.advance(milliseconds(30));
  rec.end_span(root);
  expect_near("root self share", root_self_share(rec), 0.5);
  expect_near("restore span", span_seconds(rec, "restore").at(0), 0.030);

  // Wire transit: message 1 posted at 1 s, delivered at 1.003 s.
  rec.instant_at(milliseconds(1000), "net.post", "m0", 0, {{"msg", "1"}});
  rec.instant_at(milliseconds(1003), "net.deliver", "m1", 0, {{"msg", "1"}});
  const std::vector<double> transit = transit_seconds(rec);
  expect_near("transit of message 1", transit.empty() ? -1 : transit[0], 0.003);

  // Fault recovery: a fault at 2 s; the first later evidence is a
  // delivery at 2.25 s (the heal at 2.5 s comes after it).
  rec.instant_at(milliseconds(2000), "chaos.fault", "m0", 0, {{"kind", "drop"}});
  rec.instant_at(milliseconds(2500), "chaos.heal", "m0", 0, {});
  rec.instant_at(milliseconds(2250), "net.deliver", "m1", 0, {{"msg", "2"}});
  const std::vector<double> recovery = recovery_seconds(rec);
  expect_near("recovery after the fault", recovery.empty() ? -1 : recovery[0], 0.25);

  rec.counter_at(milliseconds(5), "net.pending", "m1", 3);
  rec.counter_at(milliseconds(6), "net.pending", "m2", 5);
  expect_near("net.pending max", counter_max(rec, "net.pending"), 5);

  std::printf("perfbench self-test: %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace sgxmig::perfbench
