#!/usr/bin/env python3
"""Self-test for gpsa_lint.py against the fixtures in tests/lint_fixtures/.

Each bad_<rule>.cpp fixture must produce exactly one finding of its rule at
a known line; clean.cpp (which contains a suppressed violation of every
suppressible rule) must produce none. Run directly or via ctest
(gpsa_lint_selftest).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINTER = ROOT / "scripts" / "gpsa_lint.py"
FIXTURES = ROOT / "tests" / "lint_fixtures"

# fixture name -> (rule, line) of its single expected finding
EXPECTED = {
    "bad_memory_order.cpp": ("memory-order", 7),
    "bad_slot_atomic_ref.cpp": ("slot-atomic-ref", 9),
    "bad_bitmap_atomic_ref.cpp": ("bitmap-atomic-ref", 9),
    "bad_locked_notify.cpp": ("locked-notify", 22),
    "bad_locked_notify_separator.cpp": ("locked-notify", 16),
    "bad_assert.cpp": ("check-macro", 7),
    "bad_raw_io.cpp": ("raw-io", 6),
    "bad_raw_socket.cpp": ("raw-socket", 7),
    "bad_raw_getenv.cpp": ("raw-getenv", 7),
    "bad_msg_buffer_alloc.cpp": ("msg-buffer-alloc", 11),
}

failures = []


def run_lint(*files: Path) -> tuple[int, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--json", "--root", str(ROOT),
         *map(str, files)],
        capture_output=True, text=True)
    try:
        findings = json.loads(proc.stdout)["findings"]
    except (ValueError, KeyError):
        failures.append(f"unparseable linter output: {proc.stdout!r} "
                        f"stderr: {proc.stderr!r}")
        return proc.returncode, []
    return proc.returncode, findings


def expect(condition: bool, message: str):
    if not condition:
        failures.append(message)


def main() -> int:
    for name, (rule, line) in sorted(EXPECTED.items()):
        fixture = FIXTURES / name
        expect(fixture.exists(), f"{name}: fixture missing")
        code, findings = run_lint(fixture)
        expect(code == 1, f"{name}: exit {code}, want 1")
        expect(len(findings) == 1,
               f"{name}: {len(findings)} finding(s), want exactly 1: "
               f"{findings}")
        if len(findings) == 1:
            f = findings[0]
            expect(f["rule"] == rule,
                   f"{name}: rule {f['rule']!r}, want {rule!r}")
            expect(f["line"] == line,
                   f"{name}: line {f['line']}, want {line}")
            expect(f["file"].endswith(name),
                   f"{name}: file {f['file']!r} should end with fixture name")
            expect(bool(f["message"]), f"{name}: empty message")

    # clean.cpp: zero findings and exit 0 — this also proves the
    # `// gpsa-lint: allow(<rule>)` escapes suppress, since the file
    # contains a real memory-order violation behind one.
    clean = FIXTURES / "clean.cpp"
    code, findings = run_lint(clean)
    expect(code == 0, f"clean.cpp: exit {code}, want 0")
    expect(findings == [], f"clean.cpp: unexpected findings: {findings}")

    # An allow() for the WRONG rule must not suppress: lint the
    # memory-order fixture pretending its escape targeted another rule by
    # checking the suppressed line in bad_slot_atomic_ref.cpp only
    # silences memory-order there, while slot-atomic-ref still fires.
    code, findings = run_lint(FIXTURES / "bad_slot_atomic_ref.cpp")
    rules = sorted(f["rule"] for f in findings)
    expect(rules == ["slot-atomic-ref"],
           f"allow(memory-order) must not silence slot-atomic-ref: {rules}")

    # Whole-batch run: all fixtures at once, findings keyed per file.
    code, findings = run_lint(*(FIXTURES / n for n in EXPECTED), clean)
    expect(len(findings) == len(EXPECTED),
           f"batch run: {len(findings)} findings, want {len(EXPECTED)}")

    # Path-based locked-notify opt-in: the same unlocked notify fires
    # under src/service/ with no per-file marker, and stays quiet under a
    # directory that is not in the protocol.
    notify_src = ("#include <condition_variable>\n"
                  "std::condition_variable cv;\n"
                  "void kick() { cv.notify_one(); }\n")
    with tempfile.TemporaryDirectory() as tmp:
        for sub, want_rules in (("service", ["locked-notify"]),
                                ("core", [])):
            d = Path(tmp) / "src" / sub
            d.mkdir(parents=True)
            (d / "kick.cpp").write_text(notify_src)
            proc = subprocess.run(
                [sys.executable, str(LINTER), "--json", "--root", tmp],
                capture_output=True, text=True)
            rules = sorted(f["rule"]
                           for f in json.loads(proc.stdout)["findings"])
            expect(rules == want_rules,
                   f"path opt-in under src/{sub}/: rules {rules}, "
                   f"want {want_rules}")
            (d / "kick.cpp").unlink()

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"gpsa_lint self-test: {len(EXPECTED) + 5} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
