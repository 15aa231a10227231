#!/usr/bin/env python3
"""Self-test for scripts/simlint: every seeded fixture violation must be
caught, every `// simlint: allow(...)` suppression must hold, and the
real tree must stay clean.

pytest-style test_* functions, but runnable with a bare python3 (the CI
image has no pytest): the __main__ driver collects and runs them, prints
one PASS/FAIL line each, and exits non-zero on any failure — which is
how ctest consumes it.
"""

from __future__ import annotations

import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[2]
SIMLINT = REPO / "scripts" / "simlint"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run([sys.executable, str(SIMLINT), *args],
                          capture_output=True, text=True, check=False)


# ----- determinism -----

def test_determinism_catches_each_seeded_rule():
    result = run("--root", str(FIXTURES / "determinism"), "determinism")
    assert result.returncode == 1, result.stdout + result.stderr
    expectations = {
        "wall-clock": "bad_wall_clock.cpp",
        "ambient-randomness": "bad_random.cpp",
        "unordered-container": "bad_unordered.cpp",
        "pointer-keyed-ordered": "bad_pointer_key.cpp",
    }
    for rule, path in expectations.items():
        pattern = re.compile(rf"{re.escape(path)}:\d+: \[{re.escape(rule)}\]")
        assert pattern.search(result.stdout), \
            f"expected a [{rule}] finding in {path}:\n{result.stdout}"


def test_determinism_allow_comment_suppresses():
    result = run("--root", str(FIXTURES / "determinism"), "determinism")
    assert "suppressed.cpp" not in result.stdout, result.stdout


def test_determinism_clean_file_and_whitelist_stay_quiet():
    result = run("--root", str(FIXTURES / "determinism"), "determinism")
    assert "clean.cpp" not in result.stdout, result.stdout
    assert "sim_clock.h" not in result.stdout, result.stdout


def test_determinism_flags_wall_clock_variants():
    result = run("--root", str(FIXTURES / "determinism"), "determinism")
    assert "steady_clock" in result.stdout
    assert "system_clock" in result.stdout
    assert re.search(r"bad_wall_clock\.cpp:1[45]: \[wall-clock\].*time",
                     result.stdout), result.stdout


# ----- protocol -----

def _protocol_args(tree: pathlib.Path) -> list[str]:
    return [
        "--root", str(tree), "protocol",
        "--protocol-header", str(tree / "src/migration/protocol.h"),
        "--enclave", str(tree / "src/migration/migration_enclave.cpp"),
        "--library", str(tree / "src/migration/migration_library.cpp"),
        "--tests-dir", str(tree / "tests"),
    ]


def test_protocol_catches_each_seeded_rule():
    result = run(*_protocol_args(FIXTURES / "protocol" / "bad"))
    assert result.returncode == 1, result.stdout + result.stderr
    for rule, needle in [
        ("protocol-missing-handler", "kOrphan"),
        ("protocol-duplicate-case", "kTransfer"),
        ("protocol-stale-case", "kGone"),
        ("protocol-consume", "kIgnored"),
        ("protocol-untested", "kSecret"),
    ]:
        pattern = re.compile(rf"\[{re.escape(rule)}\].*{needle}")
        assert pattern.search(result.stdout), \
            f"expected [{rule}] naming {needle}:\n{result.stdout}"


def test_protocol_allow_comments_suppress():
    result = run(*_protocol_args(FIXTURES / "protocol" / "ok"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_protocol_real_tree_is_clean():
    result = run("--root", str(REPO), "protocol")
    assert result.returncode == 0, result.stdout + result.stderr


def _real_protocol_tree(tmp: pathlib.Path) -> pathlib.Path:
    """Copy the real protocol sources into tmp for mutation tests."""
    dst = tmp / "src" / "migration"
    dst.mkdir(parents=True)
    for name in ("protocol.h", "migration_enclave.cpp",
                 "migration_library.cpp"):
        shutil.copy(REPO / "src" / "migration" / name, dst / name)
    return tmp


def _mutated_args(tree: pathlib.Path) -> list[str]:
    # tests-dir stays the REAL tests tree: the mutations below must be
    # caught by the handler checks, not masked by a missing-mention.
    return [
        "--root", str(tree), "protocol",
        "--protocol-header", str(tree / "src/migration/protocol.h"),
        "--enclave", str(tree / "src/migration/migration_enclave.cpp"),
        "--library", str(tree / "src/migration/migration_library.cpp"),
        "--tests-dir", str(REPO / "tests"),
    ]


def test_deleting_a_libmsg_handler_case_fails():
    with tempfile.TemporaryDirectory() as tmp_name:
        tree = _real_protocol_tree(pathlib.Path(tmp_name))
        enclave = tree / "src/migration/migration_enclave.cpp"
        text = enclave.read_text()
        mutated = text.replace(
            "    case LibMsgType::kPollTransfer:\n"
            "      reply = on_poll_transfer(session, msg.value());\n"
            "      break;\n", "", 1)
        assert mutated != text, "handler case to delete not found"
        enclave.write_text(mutated)
        result = run(*_mutated_args(tree))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "protocol-missing-handler" in result.stdout
        assert "kPollTransfer" in result.stdout


def test_adding_an_unhandled_enum_value_fails():
    with tempfile.TemporaryDirectory() as tmp_name:
        tree = _real_protocol_tree(pathlib.Path(tmp_name))
        header = tree / "src/migration/protocol.h"
        text = header.read_text()
        mutated = text.replace(
            "  kArmAck = 22,",
            "  kArmAck = 22,\n  kFuzzProbe = 23,  // request: new, unhandled",
            1)
        assert mutated != text, "anchor enumerator not found"
        header.write_text(mutated)
        result = run(*_mutated_args(tree))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "protocol-missing-handler" in result.stdout
        assert "kFuzzProbe" in result.stdout
        # The new value is also untested: both gates must trip.
        assert "protocol-untested" in result.stdout


# ----- layering -----

def test_layering_catches_cross_layer_include():
    result = run("--root", str(FIXTURES / "layering" / "bad"), "layering")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "LAYERING VIOLATION: src/core must not include engine/:" \
        in result.stdout, result.stdout
    assert "check_layering: FAILED" in result.stdout


def test_layering_allows_declared_dependencies():
    result = run("--root", str(FIXTURES / "layering" / "ok"), "layering")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "check_layering: OK" in result.stdout


def test_layering_real_tree_is_clean():
    result = run("--root", str(REPO), "layering")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "check_layering: OK" in result.stdout


# ----- hand-codec -----

def test_hand_codec_catches_reader_construction():
    result = run("--root", str(FIXTURES / "codec"), "hand-codec")
    assert result.returncode == 1, result.stdout + result.stderr
    assert re.search(r"bad_reader\.cpp:5: \[hand-codec\]", result.stdout), \
        result.stdout


def test_hand_codec_allow_param_and_whitelist_stay_quiet():
    result = run("--root", str(FIXTURES / "codec"), "hand-codec")
    for quiet in ("suppressed.cpp", "clean.cpp", "serde.cpp"):
        assert quiet not in result.stdout, result.stdout
    assert "FAILED (1 finding)" in result.stdout, result.stdout


def test_hand_codec_real_tree_is_clean():
    result = run("--root", str(REPO), "hand-codec")
    assert result.returncode == 0, result.stdout + result.stderr


# ----- pycheck -----

def test_pycheck_catches_seeded_violations():
    result = run("--root", str(REPO), "pycheck",
                 str(FIXTURES / "pycheck" / "bad_script.py"))
    assert result.returncode == 1, result.stdout + result.stderr
    for rule in ("py-unused-import", "py-duplicate-def", "py-assert-tuple"):
        assert f"[{rule}]" in result.stdout, result.stdout


def test_pycheck_allow_comments_suppress():
    result = run("--root", str(REPO), "pycheck",
                 str(FIXTURES / "pycheck" / "suppressed.py"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_pycheck_real_tree_is_clean():
    result = run("--root", str(REPO), "pycheck")
    assert result.returncode == 0, result.stdout + result.stderr


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
    print(f"{len(tests) - failures}/{len(tests)} simlint self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
