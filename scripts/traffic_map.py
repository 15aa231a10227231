#!/usr/bin/env python3
"""Prints the src/ lines that only the tests reach, per file and function.

    python3 scripts/traffic_map.py TESTS_DIR WORKLOADS_DIR [--root ROOT]

Each directory is a gcov tree: the `gcov --json-format` output
(*.gcov.json.gz or *.gcov.json) of one coverage build's .gcda files.
TESTS_DIR holds the full ctest run; WORKLOADS_DIR holds what the product
runs: perfbench's workloads and the bench and example smoke runs.  The
counts of one source line are summed over every file of a tree (a header
is counted once per translation unit that includes it).  A line is
printed when some test runs it and no workload does; lines under ROOT/src
only (ROOT defaults to this repository).  Prints nothing but the total
when no such line exists; exits 2 when a tree holds no gcov JSON.

To make the trees: build the repository and perfbench with `--coverage
-O0`, run the workloads, and run `gcov --json-format --demangled-names`
on every .gcda into WORKLOADS_DIR; then delete the .gcda files, run
ctest, and collect again into TESTS_DIR.

The map is a lead, not a verdict: an inline function in a header can
count zero in a tree whose binaries ran it (the linker kept another
translation unit's copy), so confirm each hit with a reference scan.
"""

from __future__ import annotations

import argparse
import collections
import gzip
import json
import pathlib
import sys

# (file relative to ROOT, line number)
LineKey = tuple[str, int]


def load_tree(tree: pathlib.Path, root: pathlib.Path
              ) -> tuple[dict[LineKey, int], dict[LineKey, set[str]]]:
    """Summed execution count and enclosing functions of each src/ line."""
    counts: dict[LineKey, int] = collections.defaultdict(int)
    functions: dict[LineKey, set[str]] = collections.defaultdict(set)
    paths = sorted(tree.rglob("*.gcov.json.gz")) + sorted(
        tree.rglob("*.gcov.json"))
    if not paths:
        raise ValueError(f"{tree}: no *.gcov.json(.gz) files")
    for path in paths:
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rt", encoding="utf-8") as handle:
            report = json.load(handle)
        cwd = pathlib.Path(report.get("current_working_directory", "/"))
        for entry in report["files"]:
            source = (cwd / entry["file"]).resolve()
            try:
                rel = source.relative_to(root).as_posix()
            except ValueError:
                continue
            if not rel.startswith("src/"):
                continue
            names = {f["name"]: f.get("demangled_name", f["name"])
                     for f in entry.get("functions", [])}
            for line in entry["lines"]:
                key = (rel, line["line_number"])
                counts[key] += line["count"]
                name = line.get("function_name")
                if name:
                    functions[key].add(names.get(name, name))
    return counts, functions


def ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 -> '1-3,7'."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def test_only_lines(tests: dict[LineKey, int],
                    workloads: dict[LineKey, int]) -> list[LineKey]:
    return sorted(key for key, count in tests.items()
                  if count > 0 and workloads.get(key, 0) == 0)


def render(keys: list[LineKey], functions: dict[LineKey, set[str]]) -> str:
    by_file: dict[str, dict[str, list[int]]] = {}
    for rel, line in keys:
        names = sorted(functions.get((rel, line), ())) or ["<no function>"]
        by_file.setdefault(rel, {}).setdefault(names[0], []).append(line)
    out = []
    for rel, by_function in sorted(by_file.items()):
        total = sum(len(lines) for lines in by_function.values())
        out.append(f"{rel}: {total}")
        for name, lines in sorted(by_function.items(),
                                  key=lambda item: item[1][0]):
            out.append(f"  {name}: {len(lines)} [{ranges(lines)}]")
    out.append(f"total: {len(keys)} lines only tests reach, "
               f"in {len(by_file)} files")
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", type=pathlib.Path)
    parser.add_argument("workloads", type=pathlib.Path)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    root = args.root.resolve()
    try:
        tests, functions = load_tree(args.tests, root)
        workloads, _ = load_tree(args.workloads, root)
    except (OSError, ValueError, KeyError) as err:
        print(f"traffic_map: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(render(test_only_lines(tests, workloads), functions))
    return 0


if __name__ == "__main__":
    sys.exit(main())
