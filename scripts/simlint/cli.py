"""simlint command-line interface.

    python3 scripts/simlint <command> [options]

Commands:
    determinism   wall-clock / randomness / iteration-order hazards in
                  src/ and bench/ (file list from compile_commands.json
                  when available, glob fallback otherwise)
    protocol      message-type enums vs. dispatch switches vs. tests
    layering      include graph derived from CMakeLists.txt link edges
    hand-codec    BinaryReader constructed in src/ outside support/serde.*
    pycheck       byte-compile + AST lint for scripts/ Python
    all           every checker above; exit non-zero if any finds

Exit status: 0 = clean, 1 = findings, 2 = usage/configuration error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import codec
import determinism
import layering
import protocol
import pycheck
from util import Finding


def _path(value: str) -> pathlib.Path:
    return pathlib.Path(value).resolve()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="Project-specific static analysis for the sgxmig "
                    "simulator (determinism, protocol exhaustiveness, "
                    "CMake-derived layering, hand-written codecs, Python "
                    "hygiene).")
    parser.add_argument("--root", type=_path, default=pathlib.Path.cwd(),
                        help="repository root (default: cwd)")
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("determinism", help="determinism lint")
    det.add_argument("--compile-commands", type=_path, default=None,
                     help="compile_commands.json for the file list")

    proto = sub.add_parser("protocol", help="protocol exhaustiveness")
    proto.add_argument("--protocol-header", type=_path, default=None)
    proto.add_argument("--enclave", type=_path, default=None,
                       help="dispatch-switch source (migration_enclave.cpp)")
    proto.add_argument("--library", type=_path, default=None,
                       help="response-consumer source "
                            "(migration_library.cpp)")
    proto.add_argument("--tests-dir", type=_path, default=None)

    sub.add_parser("layering", help="CMake-derived include-graph check")
    sub.add_parser("hand-codec", help="hand-written binary readers")

    pyc = sub.add_parser("pycheck", help="Python byte-compile + AST lint")
    pyc.add_argument("paths", nargs="*", type=_path,
                     help="files to check (default: scripts/**/*.py and "
                          "tests/simlint/**/*.py)")

    allp = sub.add_parser("all", help="run every checker")
    allp.add_argument("--compile-commands", type=_path, default=None)
    return parser


def run_determinism(args: argparse.Namespace) -> list[Finding]:
    return determinism.check(args.root,
                             getattr(args, "compile_commands", None))


def run_protocol(args: argparse.Namespace) -> list[Finding]:
    return protocol.check(
        args.root,
        header=getattr(args, "protocol_header", None),
        enclave=getattr(args, "enclave", None),
        library=getattr(args, "library", None),
        tests_dir=getattr(args, "tests_dir", None))


def run_layering(args: argparse.Namespace) -> int:
    findings = layering.check(args.root)
    cmake_text = (args.root / "CMakeLists.txt").read_text(
        encoding="utf-8", errors="replace") \
        if (args.root / "CMakeLists.txt").is_file() else ""
    layer_count = len(layering.parse_layers(cmake_text))
    print(layering.render_legacy(findings, layer_count))
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.root.is_dir():
        print(f"simlint: root {args.root} is not a directory",
              file=sys.stderr)
        return 2

    if args.command == "layering":
        return run_layering(args)

    checkers: list[tuple[str, list[Finding]]] = []
    if args.command in ("determinism", "all"):
        checkers.append(("determinism", run_determinism(args)))
    if args.command in ("protocol", "all"):
        checkers.append(("protocol", run_protocol(args)))
    if args.command in ("hand-codec", "all"):
        checkers.append(("hand-codec", codec.check(args.root)))
    if args.command in ("pycheck", "all"):
        checkers.append(("pycheck", pycheck.check(
            args.root, getattr(args, "paths", None))))

    failed = False
    for name, findings in checkers:
        for finding in findings:
            print(finding.render())
        if findings:
            failed = True
            print(f"simlint {name}: FAILED ({len(findings)} finding"
                  f"{'s' if len(findings) != 1 else ''})")
        else:
            print(f"simlint {name}: OK")

    if args.command == "all":
        layering_rc = run_layering(args)
        failed = failed or layering_rc != 0
    return 1 if failed else 0
