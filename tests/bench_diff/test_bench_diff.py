#!/usr/bin/env python3
"""Self-test for scripts/bench_diff.py over two small fixture directories.

fixtures/base and fixtures/changed hold one BENCH_demo.json each.  The
changed copy moves every row's cpu_seconds and peak_rss_bytes and one
cpu_ratio_10k_over_1k (skipped), one wall time and one nested gate, and
appends a row; a code_lines case writes its own pair of BENCH_tcb.json
files.  Runnable with a bare python3 like the simlint self-test:
one PASS/FAIL line per test, exit status non-zero on any failure, which
is how ctest consumes it.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCH_DIFF = REPO / "scripts" / "bench_diff.py"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def run(base: pathlib.Path, new: pathlib.Path) -> subprocess.CompletedProcess[str]:
    return subprocess.run([sys.executable, str(BENCH_DIFF), str(base), str(new)],
                          capture_output=True, text=True, check=False)


def test_identical_directories_pass_silently():
    result = run(FIXTURES / "base", FIXTURES / "base")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "", result.stdout


def test_each_differing_field_is_printed_with_both_values():
    result = run(FIXTURES / "base", FIXTURES / "changed")
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "BENCH_demo.json:rows[1].gates.forks: 0 -> 1",
        "BENCH_demo.json:rows[1].wall_seconds: 12.97 -> 12.44",
        'BENCH_demo.json:rows[2]: "<absent>" -> '
        '{"seed": 3, "wall_seconds": 13.0}',
    ], result.stdout


def test_cpu_and_rss_are_the_only_skipped_keys():
    result = run(FIXTURES / "base", FIXTURES / "changed")
    assert "cpu_seconds" not in result.stdout, result.stdout
    assert "peak_rss_bytes" not in result.stdout, result.stdout
    assert "cpu_ratio" not in result.stdout, result.stdout
    with tempfile.TemporaryDirectory() as tmp:
        new = pathlib.Path(tmp)
        text = (FIXTURES / "base" / "BENCH_demo.json").read_text()
        (new / "BENCH_demo.json").write_text(
            text.replace('"cpu_seconds": 0.91', '"cpu_seconds": 9.5')
                .replace('"peak_rss_bytes": 1048576', '"peak_rss_bytes": 7')
                .replace('"cpu_ratio_10k_over_1k": 12.6',
                         '"cpu_ratio_10k_over_1k": 2'))
        assert run(FIXTURES / "base", new).returncode == 0
        (new / "BENCH_demo.json").write_text(
            text.replace('"retries": 34', '"retries": 35'))
        result = run(FIXTURES / "base", new)
        assert result.returncode == 1, result.stdout
        assert result.stdout == \
            "BENCH_demo.json:rows[0].retries: 34 -> 35\n", result.stdout


def test_code_lines_print_their_signed_delta():
    with tempfile.TemporaryDirectory() as tmp:
        base, new = pathlib.Path(tmp) / "base", pathlib.Path(tmp) / "new"
        base.mkdir()
        new.mkdir()
        rows = ('{{"rows": [{{"component": "src/net", "code_lines": {}, '
                '"comment_lines": {}}}]}}')
        (base / "BENCH_tcb.json").write_text(rows.format(480, 128))
        (new / "BENCH_tcb.json").write_text(rows.format(456, 130))
        result = run(base, new)
        assert result.returncode == 1, result.stdout
        assert result.stdout.splitlines() == [
            "BENCH_tcb.json:rows[0].code_lines: 480 -> 456 (-24)",
            "BENCH_tcb.json:rows[0].comment_lines: 128 -> 130",
        ], result.stdout
        (new / "BENCH_tcb.json").write_text(rows.format(491, 128))
        assert run(base, new).stdout == \
            "BENCH_tcb.json:rows[0].code_lines: 480 -> 491 (+11)\n"


def test_a_file_on_one_side_only_is_a_difference():
    with tempfile.TemporaryDirectory() as tmp:
        new = pathlib.Path(tmp)
        shutil.copy(FIXTURES / "base" / "BENCH_demo.json", new)
        (new / "BENCH_extra.json").write_text('{"rows": []}')
        result = run(FIXTURES / "base", new)
        assert result.returncode == 1, result.stdout
        assert result.stdout == \
            "BENCH_extra.json: <absent> -> present\n", result.stdout


def test_unreadable_input_exits_2():
    with tempfile.TemporaryDirectory() as tmp:
        new = pathlib.Path(tmp)
        (new / "BENCH_demo.json").write_text("{not json")
        assert run(FIXTURES / "base", new).returncode == 2
        assert run(FIXTURES / "base", new / "missing").returncode == 2


# ----- driver -----

def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as err:
            failures += 1
            detail = str(err).strip().splitlines()
            print(f"FAIL {name}: {detail[0] if detail else 'assertion'}")
            for line in detail[1:12]:
                print(f"     {line}")
    print(f"{len(tests) - failures}/{len(tests)} bench_diff self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
