"""Python hygiene for the repo's CI oracles and tooling.

scripts/trace_check.py gates CI on trace invariants; a syntax error or
stale import there would only surface when the oracle is already
needed.  This checker byte-compiles every script and runs a small AST
lint: unused imports, duplicate top-level definitions, and `assert`
over a non-empty tuple (always true — a classic silent-test bug).

Suppress with `# simlint: allow(<rule>)` on the offending line.
"""

from __future__ import annotations

import ast
import os
import pathlib
import py_compile
import tempfile

from util import Finding, parse_allows


def _line_allows(text: str) -> dict[int, set[str]]:
    allows: dict[int, set[str]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            rules = parse_allows(line.split("#", 1)[1])
            if rules:
                allows[line_no] = rules
    return allows


def _used_names(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # Record the root of dotted access (os.path.join -> os).
            inner = node
            while isinstance(inner, ast.Attribute):
                inner = inner.value
            if isinstance(inner, ast.Name):
                used.add(inner.id)
    return used


def check_file(path: pathlib.Path, root: pathlib.Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix() if path.is_relative_to(root) \
        else path.as_posix()
    findings: list[Finding] = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            py_compile.compile(str(path), doraise=True,
                               cfile=os.path.join(tmp, "check.pyc"))
    except py_compile.PyCompileError as err:
        return [Finding(rel, getattr(err.exc_value, "lineno", 0) or 0,
                        "py-syntax", str(err.exc_value))]
    text = path.read_text(encoding="utf-8", errors="replace")
    allows = _line_allows(text)

    def allowed(line: int, rule: str) -> bool:
        rules = allows.get(line, set())
        return rule in rules or "all" in rules

    tree = ast.parse(text)
    used = _used_names(tree)

    imported: list[tuple[str, str, int]] = []  # (bound name, shown, line)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((bound, alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue  # compiler directive, not a binding
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imported.append((bound, alias.name, node.lineno))
    for bound, shown, line in imported:
        if bound not in used and not allowed(line, "py-unused-import"):
            findings.append(Finding(rel, line, "py-unused-import",
                                    f"import `{shown}` is never used"))

    seen_defs: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name in seen_defs and not allowed(node.lineno,
                                                      "py-duplicate-def"):
                findings.append(Finding(
                    rel, node.lineno, "py-duplicate-def",
                    f"`{node.name}` redefines the declaration at line "
                    f"{seen_defs[node.name]} (the first is dead)"))
            seen_defs.setdefault(node.name, node.lineno)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assert) and isinstance(node.test, ast.Tuple) \
                and node.test.elts and not allowed(node.lineno, "py-assert-tuple"):
            findings.append(Finding(
                rel, node.lineno, "py-assert-tuple",
                "assert over a non-empty tuple is always true "
                "(drop the parentheses)"))
    return findings


def check(root: pathlib.Path,
          paths: list[pathlib.Path] | None = None) -> list[Finding]:
    if not paths:
        # Default scope: repo tooling plus its self-tests — but not the
        # fixture trees, whose violations are seeded on purpose.
        paths = []
        for d in (root / "scripts", root / "tests" / "simlint",
                  root / "tests" / "bench_diff"):
            if d.is_dir():
                paths.extend(p for p in sorted(d.rglob("*.py"))
                             if "fixtures" not in p.parts)
    findings: list[Finding] = []
    for path in paths:
        findings.extend(check_file(path, root))
    return findings
