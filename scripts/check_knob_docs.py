#!/usr/bin/env python3
"""Checks that README's "Environment knobs" table and the knob table in
src/util/knobs.hpp list the same GPSA_* names, in the same order.

Usage: check_knob_docs.py [--root DIR]   (exit 1 on a mismatch)
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# A table row opens with its name: {"GPSA_THREADS", KnobKind::kUnsigned,
SOURCE_ROW_RE = re.compile(r'^\s*\{"(GPSA_\w+)",\s*KnobKind::',
                           re.MULTILINE)
README_ROW_RE = re.compile(r"^\| `(GPSA_\w+)` \|", re.MULTILINE)
README_SECTION = "## Environment knobs"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    root = parser.parse_args(argv).root
    source = (root / "src/util/knobs.hpp").read_text(encoding="utf-8")
    readme = (root / "README.md").read_text(encoding="utf-8")
    start = readme.find(README_SECTION)
    if start < 0:
        print(f"check_knob_docs: README.md has no '{README_SECTION}'")
        return 1
    end = readme.find("\n## ", start + len(README_SECTION))
    section = readme[start:end if end >= 0 else len(readme)]

    in_source = SOURCE_ROW_RE.findall(source)
    in_readme = README_ROW_RE.findall(section)
    if not in_source:
        print("check_knob_docs: no table rows found in src/util/knobs.hpp")
        return 1
    if in_source == in_readme:
        print(f"check_knob_docs: {len(in_source)} knobs documented")
        return 0
    for name in sorted(set(in_source) - set(in_readme)):
        print(f"check_knob_docs: {name} is in knobs.hpp but not README.md")
    for name in sorted(set(in_readme) - set(in_source)):
        print(f"check_knob_docs: {name} is in README.md but not knobs.hpp")
    if set(in_source) == set(in_readme):
        print("check_knob_docs: same names, different order")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
