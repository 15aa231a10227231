"""Hand-codec lint: every decoder of host-supplied bytes in src/ states
its format once, as a field list that support/serde.h's generic writer
and reader both run, and every record has one codec entry:
`encode_record(r)` and `decode_record<R>(bytes)`.

A `BinaryReader` constructed anywhere else is a hand-kept reader: its
writer lives somewhere else and the two drift apart.  A `serialize()` or
`deserialize(ByteView)` member is a second spelling of the codec entry
that only forwards to it.  Rules:

  hand-codec     a BinaryReader constructed in src/ outside support/serde.*
  codec-member   a `serialize()` or `deserialize(ByteView)` member declared
                 in src/ (call encode_record/decode_record instead)

Suppress a deliberate one with `// simlint: allow(<rule>)` and the reason
on the same line.
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

# A declaration `serialize()` / `deserialize(ByteView ...)`; not a call
# through `.` or `->` (those no longer compile once the member is gone).
MEMBER = re.compile(
    r"(?<![\w.>])(?:serialize\s*\(\s*\)"
    r"|deserialize\s*\(\s*(?:const\s+)?(?:sgxmig::)?ByteView\b)")


def check(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in cxx_files_under(root / "src"):
        src = SourceFile(path, root)
        if src.rel in WHITELIST:
            continue
        for line_no, code in enumerate(src.code_lines, start=1):
            m = CONSTRUCTION.search(code)
            if m is not None and not src.allowed(line_no, "hand-codec"):
                findings.append(Finding(
                    src.rel, line_no, "hand-codec",
                    "hand-written reader (give the format a field list and "
                    f"use decode_record): `{m.group(0).strip()}`"))
            m = MEMBER.search(code)
            if m is not None and not src.allowed(line_no, "codec-member"):
                findings.append(Finding(
                    src.rel, line_no, "codec-member",
                    "forwarding codec member (call encode_record / "
                    f"decode_record directly): `{m.group(0).strip()}`"))
    return findings
