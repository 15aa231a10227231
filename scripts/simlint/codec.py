"""Hand-codec lint: every decoder of host-supplied bytes in src/ states
its format once, as a field list that support/serde.h's generic writer
and reader both run.

A `BinaryReader` constructed anywhere else is a hand-kept reader: its
writer lives somewhere else and the two drift apart.  Rule:

  hand-codec   a BinaryReader constructed in src/ outside support/serde.*

Suppress a deliberate one with `// simlint: allow(hand-codec)` and the
reason on the same line.
"""

from __future__ import annotations

import pathlib
import re

from util import Finding, SourceFile, cxx_files_under

# The generic reader itself.
WHITELIST = {
    "src/support/serde.h",
    "src/support/serde.cpp",
}

# `BinaryReader r(...)`, `BinaryReader r{...}` or a temporary
# `BinaryReader(...)`; not a `BinaryReader&` parameter or a
# `BinaryReader::` member.
CONSTRUCTION = re.compile(r"(?<!\w)BinaryReader(?:\s+\w+)?\s*[({]")


def check(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in cxx_files_under(root / "src"):
        src = SourceFile(path, root)
        if src.rel in WHITELIST:
            continue
        for line_no, code in enumerate(src.code_lines, start=1):
            m = CONSTRUCTION.search(code)
            if m is None or src.allowed(line_no, "hand-codec"):
                continue
            findings.append(Finding(
                src.rel, line_no, "hand-codec",
                "hand-written reader (give the format a field list and "
                f"use decode_record): `{m.group(0).strip()}`"))
    return findings
