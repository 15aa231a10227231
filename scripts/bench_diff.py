#!/usr/bin/env python3
"""Compares two directories of BENCH_*.json artifacts field by field.

    python3 scripts/bench_diff.py BASE_DIR NEW_DIR

Every BENCH_*.json file in either directory is loaded and walked in
parallel with its namesake; each leaf whose value differs is printed as

    BENCH_chaos.json:rows[3].wall_seconds: 14.88 -> 12.44

A file or key present on one side only prints `<absent>` for the other.
A differing integer `code_lines` (BENCH_tcb.json's code lines per TCB
component and per source tree) also prints its signed delta:

    BENCH_tcb.json:rows[15].code_lines: 15284 -> 15260 (-24)

Keys named cpu_seconds, peak_rss_bytes and cpu_ratio_10k_over_1k (the
ratio of two cpu_seconds) are skipped wherever they appear: they measure
the host that ran the bench, not the simulation.
Every other field is a deterministic function of the code and the seed,
so two builds of the same behaviour print nothing.

Exits 0 when nothing but the skipped keys differs, 1 on any other
difference, 2 when a directory or a file cannot be read.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SKIPPED_KEYS = frozenset({"cpu_seconds", "peak_rss_bytes",
                          "cpu_ratio_10k_over_1k"})
ABSENT = "<absent>"


def diff_values(path: str, base: object, new: object, out: list[str]) -> None:
    """Appends one line per differing leaf under `path` to `out`."""
    if isinstance(base, dict) and isinstance(new, dict):
        for key in sorted(set(base) | set(new)):
            if key in SKIPPED_KEYS:
                continue
            child = f"{path}.{key}" if path else key
            diff_values(child, base.get(key, ABSENT), new.get(key, ABSENT),
                        out)
        return
    if isinstance(base, list) and isinstance(new, list):
        for i in range(max(len(base), len(new))):
            diff_values(f"{path}[{i}]", base[i] if i < len(base) else ABSENT,
                        new[i] if i < len(new) else ABSENT, out)
        return
    if base != new or type(base) is not type(new):
        line = f"{path}: {json.dumps(base)} -> {json.dumps(new)}"
        if (path.endswith(".code_lines") and type(base) is int
                and type(new) is int):
            line += f" ({new - base:+d})"
        out.append(line)


def load(directory: pathlib.Path, name: str) -> object:
    path = directory / name
    if not path.exists():
        return ABSENT
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args()
    for directory in (args.base, args.new):
        if not directory.is_dir():
            print(f"bench_diff: {directory} is not a directory",
                  file=sys.stderr)
            return 2

    names = sorted({p.name for d in (args.base, args.new)
                    for p in d.glob("BENCH_*.json")})
    lines: list[str] = []
    for name in names:
        try:
            base, new = load(args.base, name), load(args.new, name)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_diff: {name}: {err}", file=sys.stderr)
            return 2
        if base is ABSENT or new is ABSENT:
            lines.append(f"{name}: {ABSENT if base is ABSENT else 'present'} "
                         f"-> {ABSENT if new is ABSENT else 'present'}")
            continue
        found: list[str] = []
        diff_values("", base, new, found)
        lines.extend(f"{name}:{line}" for line in found)
    for line in lines:
        print(line)
    print(f"bench_diff: {len(names)} files, {len(lines)} differing fields",
          file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
