#!/usr/bin/env python3
"""Self-test for scripts/trace_check.py over two small fixture pairs.

fixtures/consistent holds a one-migration trace and its report that pass
every invariant; fixtures/missing_terminal is the same pair with the
trace's orch.done instant removed, which the ledger invariant (7) must
refuse.  A third case writes a report whose attempts the trace's
orch.admitted instants do not match.  Runnable with a bare python3 like
the bench_diff self-test: one PASS/FAIL line per test, exit status
non-zero on any failure, which is how ctest consumes it.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[2]
TRACE_CHECK = REPO / "scripts" / "trace_check.py"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def run(pair: pathlib.Path, report: pathlib.Path | None = None,
        chaos: bool = False) -> subprocess.CompletedProcess[str]:
    args = [sys.executable, str(TRACE_CHECK)]
    if chaos:
        args.append("--chaos")
    args += [str(pair / "trace.json"), str(report or pair / "report.json")]
    return subprocess.run(args, capture_output=True, text=True, check=False)


def test_consistent_pair_passes():
    result = run(FIXTURES / "consistent")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("trace_check: OK"), result.stdout


def test_missing_terminal_instant_fails_the_ledger():
    result = run(FIXTURES / "missing_terminal")
    assert result.returncode == 1, result.stdout + result.stderr
    assert ("VIOLATION: enclave app-0 (id 1): 0 orch.done and 0 orch.failed "
            "instants (want 1 and 0)") in result.stdout, result.stdout
    assert "(1 violations," in result.stdout, result.stdout


def test_admitted_count_must_match_attempts_in_both_modes():
    report = json.loads((FIXTURES / "consistent" / "report.json").read_text())
    report["migrations"][0]["attempts"] = 2
    report["chaos"] = {"seed": 1, "injected.total": 0, "forks": 0}
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "report.json"
        path.write_text(json.dumps(report))
        for chaos in (False, True):
            result = run(FIXTURES / "consistent", path, chaos=chaos)
            assert result.returncode == 1, result.stdout + result.stderr
            assert ("1 orch.admitted instants but the report counts 2 "
                    "attempts") in result.stdout, result.stdout


def main() -> int:
    failures = 0
    for name, test in sorted(globals().items()):
        if not name.startswith("test_") or not callable(test):
            continue
        try:
            test()
        except AssertionError as err:
            failures += 1
            print(f"FAIL {name}: {err}")
        else:
            print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
