#!/usr/bin/env python3
"""Self-test for scripts/traffic_map.py over a small fixture of gcov JSON.

fixtures/tests is one ctest run's gcov tree: src/me/enclave.cpp, the
header src/me/util.h, and one library header and one test file, which
lie outside ROOT/src and are skipped.  fixtures/workloads runs serve()
but not its line 12, never test_hook(), and the header's line 5 in only
one of its two files.  ROOT is /repo throughout.  Runnable with a bare
python3 like the bench_diff self-test: one PASS/FAIL line per test, exit
status non-zero on any failure, which is how ctest consumes it.
"""

from __future__ import annotations

import gzip
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[2]
TRAFFIC_MAP = REPO / "scripts" / "traffic_map.py"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def run(tests: pathlib.Path,
        workloads: pathlib.Path) -> subprocess.CompletedProcess[str]:
    return subprocess.run([sys.executable, str(TRAFFIC_MAP), str(tests),
                           str(workloads), "--root", "/repo"],
                          capture_output=True, text=True, check=False)


def test_lines_only_tests_reach_are_listed_per_file_and_function():
    result = run(FIXTURES / "tests", FIXTURES / "workloads")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "src/me/enclave.cpp: 4",
        "  demo::Enclave::serve(): 1 [12]",
        "  demo::Enclave::test_hook(): 3 [20-21,23]",
        "src/me/util.h: 1",
        "  demo::left(): 1 [6]",
        "total: 5 lines only tests reach, in 2 files",
    ], result.stdout


def test_a_tree_against_itself_lists_nothing():
    result = run(FIXTURES / "tests", FIXTURES / "tests")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "total: 0 lines only tests reach, in 0 files\n", \
        result.stdout


def test_gzipped_json_reads_like_plain_json():
    with tempfile.TemporaryDirectory() as tmp:
        tests = pathlib.Path(tmp) / "tests"
        tests.mkdir()
        for path in (FIXTURES / "tests").iterdir():
            with gzip.open(tests / (path.name + ".gz"), "wt",
                           encoding="utf-8") as out:
                out.write(path.read_text())
        zipped = run(tests, FIXTURES / "workloads")
    plain = run(FIXTURES / "tests", FIXTURES / "workloads")
    assert zipped.returncode == 0, zipped.stdout + zipped.stderr
    assert zipped.stdout == plain.stdout, zipped.stdout


def test_a_tree_without_gcov_json_exits_2():
    with tempfile.TemporaryDirectory() as tmp:
        empty = pathlib.Path(tmp) / "empty"
        empty.mkdir()
        result = run(FIXTURES / "tests", empty)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "no *.gcov.json" in result.stderr, result.stderr


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as err:
            failures += 1
            print(f"FAIL {test.__name__}: {err}")
        else:
            print(f"PASS {test.__name__}")
    print(f"{len(tests) - failures}/{len(tests)} traffic_map self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
