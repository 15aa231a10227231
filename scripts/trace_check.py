#!/usr/bin/env python3
"""Trace-derived correctness oracles over a fleet-drain trace artifact.

Reconstructs per-migration span trees from the Chrome trace-event JSON
emitted by obs::TraceRecorder and cross-checks them against the
orchestrator report serialized next to it.  Invariants:

  1. structure — every 'b' event has exactly one matching 'e' (paired by
     the span id stamped into args), parents exist in the same trace,
     children nest inside their parents, and no span is left open.
  2. one-freeze — freeze intervals for the same enclave never overlap:
     at most one live freeze per enclave at any virtual instant.
  3. window — the trace-derived duration of each enclave's last freeze
     span matches the report's freeze_window_seconds within 1 ms.
  4. delivery — every net.post msg id has a matching net.deliver or
     net.drop instant: nothing vanishes in flight.
  5. trees — every successful migration in the report maps to one
     complete span tree: a 'migration' root for its enclave whose trace
     carries freeze and restore spans and a migration.done instant,
     with every span of that trace closed (no orphans).
  7. ledger — every report migration has exactly as many orch.admitted
     instants (matched by args.enclave_id) as its attempts, and exactly
     one terminal instant: orch.done if it succeeded, orch.failed if not.

Usage: trace_check.py TRACE.json TRACE_REPORT.json
       trace_check.py --chaos TRACE.json TRACE_REPORT.json
Prints each violation and exits non-zero if any invariant failed.

--chaos mode verifies a chaos-storm trace (bench_chaos_storm artifacts)
instead.  Storms retry migrations through injected faults, and retried
attempts reuse cached pre-copy sessions across migration traces, so the
strict parent-trace and complete-tree invariants do not apply; the
structure, one-freeze, delivery and ledger checks still run, plus:

  6. accounting — the trace's chaos.fault count equals the report's
     chaos["injected.total"], and chaos["forks"] is zero.

Fault recovery (every injected fault is followed by recovery activity,
no silent stall) has one oracle, chaos::check_fault_recovery, which
bench_chaos_storm runs on every storm and whose findings fail its
traced rerun; this script does not repeat it.

Chaos-mode failures print the storm seed from the report so the run
replays exactly (bench_chaos_storm <seed>).
"""
import json
import sys

# Timestamps are microseconds printed with three decimals (exact ns);
# the epsilon only absorbs float parsing, not real slack.
TS_EPS = 1e-6
FREEZE_WINDOW_TOLERANCE_US = 1000.0  # 1 ms

def load_spans(events, errors):
    """span_id -> {name, lane, trace, parent, start, end, args}."""
    spans = {}
    for e in events:
        ph = e.get("ph")
        if ph not in ("b", "e"):
            continue
        args = e.get("args", {})
        if "span" not in args:
            errors.append(f"{ph!r} event {e.get('name')} lacks args.span")
            continue
        sid = int(args["span"])
        if ph == "b":
            if sid in spans:
                errors.append(f"span {sid} has two 'b' events")
                continue
            spans[sid] = {
                "name": e["name"],
                "lane": args.get("lane", ""),
                "trace": int(args.get("trace", "0")),
                "parent": int(args.get("parent", "0")),
                "start": float(e["ts"]),
                "end": None,
                "left_open": args.get("open") == "1",
                "args": args,
            }
        else:
            span = spans.get(sid)
            if span is None:
                errors.append(f"'e' event for span {sid} precedes its 'b'")
            elif span["end"] is not None:
                errors.append(f"span {sid} ({span['name']}) has two 'e' events")
            else:
                span["end"] = float(e["ts"])
    return spans


def check_structure(spans, errors, check_parents=True):
    for sid, s in sorted(spans.items()):
        label = f"span {sid} ({s['name']}, lane {s['lane'] or 'control'})"
        if s["end"] is None:
            errors.append(f"{label}: no 'e' event")
            s["end"] = s["start"]
        if s["left_open"]:
            errors.append(f"{label}: still open at export (orphan)")
        if s["end"] < s["start"] - TS_EPS:
            errors.append(f"{label}: ends before it starts")
        parent = s["parent"]
        if parent == 0 or not check_parents:
            continue
        p = spans.get(parent)
        if p is None:
            errors.append(f"{label}: parent span {parent} not in trace file")
            continue
        if p["trace"] != s["trace"]:
            errors.append(
                f"{label}: parent {parent} is in trace {p['trace']}, "
                f"not {s['trace']}")
        if p["end"] is None:
            continue  # already reported above
        if s["start"] < p["start"] - TS_EPS or s["end"] > p["end"] + TS_EPS:
            errors.append(
                f"{label}: [{s['start']:.3f}, {s['end']:.3f}] escapes "
                f"parent {parent} ({p['name']}) "
                f"[{p['start']:.3f}, {p['end']:.3f}]")


def freezes_by_enclave(spans):
    by_enclave = {}
    for s in spans.values():
        if s["name"] == "freeze" and s["end"] is not None:
            by_enclave.setdefault(s["args"].get("enclave", "?"), []).append(s)
    for freezes in by_enclave.values():
        freezes.sort(key=lambda s: s["start"])
    return by_enclave


def check_one_live_freeze(by_enclave, errors):
    for enclave, freezes in sorted(by_enclave.items()):
        for prev, cur in zip(freezes, freezes[1:]):
            if cur["start"] < prev["end"] - TS_EPS:
                errors.append(
                    f"enclave {enclave}: overlapping freezes — "
                    f"[{prev['start']:.3f}, {prev['end']:.3f}] and "
                    f"[{cur['start']:.3f}, {cur['end']:.3f}]")


def check_freeze_windows(by_enclave, report, errors):
    for m in report.get("migrations", []):
        if not m.get("success"):
            continue
        name = m.get("name", "?")
        reported_us = float(m.get("freeze_window_seconds", 0.0)) * 1e6
        freezes = by_enclave.get(name)
        if not freezes:
            if reported_us > FREEZE_WINDOW_TOLERANCE_US:
                errors.append(
                    f"enclave {name}: report says freeze_window "
                    f"{reported_us / 1e6:.6f}s but the trace has no freeze "
                    "span")
            continue
        # The last freeze belongs to the attempt that succeeded; earlier
        # ones are aborted/retried attempts with their own windows.
        last = freezes[-1]
        derived_us = last["end"] - last["start"]
        if abs(derived_us - reported_us) > FREEZE_WINDOW_TOLERANCE_US:
            errors.append(
                f"enclave {name}: trace-derived freeze window "
                f"{derived_us / 1e6:.6f}s vs reported "
                f"{reported_us / 1e6:.6f}s (> 1 ms apart)")


def check_delivery(events, errors):
    posted = {}
    resolved = set()
    for e in events:
        if e.get("ph") != "i":
            continue
        msg = e.get("args", {}).get("msg")
        if msg is None:
            continue
        if e["name"] == "net.post":
            posted.setdefault(msg, e)
        elif e["name"] in ("net.deliver", "net.drop"):
            resolved.add(msg)
    for msg, e in sorted(posted.items(), key=lambda kv: int(kv[0])):
        if msg not in resolved:
            errors.append(
                f"net.post msg {msg} (to {e['args'].get('to', '?')}) was "
                "never delivered or dropped")


def check_span_trees(spans, events, report, errors):
    roots_by_enclave = {}
    for s in spans.values():
        if s["name"] == "migration" and s["parent"] == 0:
            roots_by_enclave.setdefault(
                s["args"].get("enclave", "?"), []).append(s)
    names_by_trace = {}
    for s in spans.values():
        names_by_trace.setdefault(s["trace"], set()).add(s["name"])
    done_traces = {
        int(e["args"]["trace"])
        for e in events
        if e.get("ph") == "i" and e["name"] == "migration.done"
    }
    for m in report.get("migrations", []):
        if not m.get("success"):
            continue
        name = m.get("name", "?")
        roots = roots_by_enclave.get(name, [])
        if not roots:
            errors.append(f"enclave {name}: no migration root span")
            continue
        done_roots = [r for r in roots if r["trace"] in done_traces]
        if len(done_roots) != 1:
            errors.append(
                f"enclave {name}: {len(done_roots)} migration trees carry a "
                "migration.done instant (want exactly 1)")
            continue
        trace = done_roots[0]["trace"]
        missing = {"freeze", "restore"} - names_by_trace.get(trace, set())
        if missing:
            errors.append(
                f"enclave {name}: completed tree (trace {trace}) lacks "
                f"{sorted(missing)} spans")


def check_ledger(events, report, errors):
    """Invariant 7: the orchestrator's transition instants account for
    every attempt and exactly one outcome of each report migration."""
    admitted, done, failed = {}, {}, {}
    tallies = {"orch.admitted": admitted, "orch.done": done,
               "orch.failed": failed}
    for e in events:
        tally = tallies.get(e.get("name")) if e.get("ph") == "i" else None
        if tally is not None:
            enclave = e.get("args", {}).get("enclave_id", "?")
            tally[enclave] = tally.get(enclave, 0) + 1
    for m in report.get("migrations", []):
        enclave = str(m.get("enclave_id", "?"))
        label = f"enclave {m.get('name', '?')} (id {enclave})"
        attempts = int(m.get("attempts", 0))
        if admitted.get(enclave, 0) != attempts:
            errors.append(
                f"{label}: {admitted.get(enclave, 0)} orch.admitted instants "
                f"but the report counts {attempts} attempts")
        terminal = (done.get(enclave, 0), failed.get(enclave, 0))
        want = (1, 0) if m.get("success") else (0, 1)
        if terminal != want:
            errors.append(
                f"{label}: {terminal[0]} orch.done and {terminal[1]} "
                f"orch.failed instants (want {want[0]} and {want[1]})")


def check_chaos(events, report, errors):
    """Chaos-storm invariant 6: fault accounting and zero forks."""
    chaos = report.get("chaos")
    if not isinstance(chaos, dict):
        errors.append("report has no chaos block (not a chaos-storm report?)")
        return
    faults = [e for e in events
              if e.get("ph") == "i" and e["name"] == "chaos.fault"]
    injected = int(chaos.get("injected.total", -1))
    if len(faults) != injected:
        errors.append(
            f"trace carries {len(faults)} chaos.fault instants but the "
            f"report counted injected.total={injected}")
    forks = int(chaos.get("forks", -1))
    if forks != 0:
        errors.append(f"report counted {forks} forked enclaves (want 0)")


def main(argv):
    args = list(argv[1:])
    chaos_mode = bool(args) and args[0] == "--chaos"
    if chaos_mode:
        args = args[1:]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(args[0]) as f:
        trace = json.load(f)
    with open(args[1]) as f:
        report = json.load(f)
    events = trace.get("traceEvents", [])
    errors = []
    spans = load_spans(events, errors)
    # Chaos storms retry through faults and reuse cached pre-copy sessions
    # across migration traces, so parent-trace containment and complete
    # per-migration trees are not invariants there; pairing, one-freeze,
    # and delivery still are.
    check_structure(spans, errors, check_parents=not chaos_mode)
    by_enclave = freezes_by_enclave(spans)
    check_one_live_freeze(by_enclave, errors)
    check_delivery(events, errors)
    check_ledger(events, report, errors)
    if chaos_mode:
        check_chaos(events, report, errors)
    else:
        check_freeze_windows(by_enclave, report, errors)
        check_span_trees(spans, events, report, errors)
    if errors:
        for err in errors:
            print(f"trace_check: VIOLATION: {err}")
        if chaos_mode:
            seed = report.get("chaos", {}).get("seed", "?")
            print(f"trace_check: replay with: bench_chaos_storm {seed}")
        print(f"trace_check: FAILED ({len(errors)} violations, "
              f"{len(spans)} spans)")
        return 1
    if chaos_mode:
        chaos = report.get("chaos", {})
        faults = sum(1 for e in events
                     if e.get("ph") == "i" and e["name"] == "chaos.fault")
        print(f"trace_check: OK (chaos: {faults} injected faults "
              f"accounted, forks=0, seed {chaos.get('seed', '?')}, "
              f"{len(spans)} spans)")
        return 0
    migrations = sum(1 for m in report.get("migrations", [])
                     if m.get("success"))
    print(f"trace_check: OK ({len(spans)} spans, "
          f"{len(by_enclave)} frozen enclaves, "
          f"{migrations} successful migrations verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
