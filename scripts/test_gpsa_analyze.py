#!/usr/bin/env python3
"""Self-test for gpsa_analyze.py against tests/analyze_fixtures/.

Each bad_* fixture must produce exactly its expected (rule, line)
findings — true positives pinned to exact lines; each good_* fixture
must produce none — true negatives, including the deferred-lambda and
inline-escape cases that would be false positives under a naive checker.
A final check exercises the `coverage` rule against a synthetic
compilation database. Run directly or via ctest
(gpsa_analyze_selftest).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANALYZER = ROOT / "scripts" / "gpsa_analyze.py"
FIXTURES = ROOT / "tests" / "analyze_fixtures"

# fixture name -> exact sorted [(rule, line), ...] it must produce.
# Fixtures are analyzed one at a time: each is a self-contained program
# as far as the whole-program model is concerned.
EXPECTED = {
    "bad_lock_order.cpp": [("lock-order", 14)],
    "bad_lock_order_interproc.cpp": [("lock-order", 26)],
    "good_lock_order.cpp": [],
    "bad_actor_blocking.cpp": [("actor-blocking", 14),
                               ("actor-blocking", 22)],
    "good_actor_blocking.cpp": [],
    "bad_lease.cpp": [("lease-balance", 10), ("lease-balance", 14),
                      ("lease-balance", 20)],
    "good_lease.cpp": [],
    # The function model: a call passing a trailing lambda is no
    # definition of its callee, same-named definitions stay apart, and
    # control-flow and conversion heads define nothing.
    "bad_shadowed_callee.cpp": [("actor-blocking", 11)],
    "bad_same_name.cpp": [("actor-blocking", 9)],
    "good_function_heads.cpp": [],
    "bad_lock_order_attributed.cpp": [("lock-order", 35)],
}

failures: list[str] = []


def expect(condition: bool, message: str):
    if not condition:
        failures.append(message)


def run_report(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(ANALYZER), "--json", "--root", str(ROOT),
         *args],
        capture_output=True, text=True)
    try:
        report = json.loads(proc.stdout)
        report["findings"]
    except (ValueError, KeyError):
        failures.append(f"unparseable analyzer output: {proc.stdout!r} "
                        f"stderr: {proc.stderr!r}")
        return proc.returncode, {"findings": []}
    return proc.returncode, report


def run_analyze(*args: str) -> tuple[int, list[dict]]:
    code, report = run_report(*args)
    return code, report["findings"]


def main() -> int:
    checks = 0
    for name, want in sorted(EXPECTED.items()):
        fixture = FIXTURES / name
        expect(fixture.exists(), f"{name}: fixture missing")
        code, findings = run_analyze(str(fixture))
        got = sorted((f["rule"], f["line"]) for f in findings)
        expect(got == sorted(want),
               f"{name}: findings {got}, want {sorted(want)}")
        expect(code == (1 if want else 0),
               f"{name}: exit {code}, want {1 if want else 0}")
        for f in findings:
            expect(f["file"].endswith(name),
                   f"{name}: finding file {f['file']!r} should end with "
                   "the fixture name")
            expect(bool(f["message"]), f"{name}: empty message")
            expect(bool(f["path"]),
                   f"{name}: finding without a witness path")
        checks += 1

    # Every lock-order finding must carry a witness chain whose steps are
    # file:line-prefixed (the "offending path" contract).
    code, findings = run_analyze(str(FIXTURES / "bad_lock_order_interproc.cpp"))
    if findings:
        steps = [s.strip() for s in findings[0]["path"]
                 if not s.strip().startswith("--")]
        expect(all(":" in s and s.split(":")[1].split(":")[0].isdigit()
                   for s in steps),
               f"witness steps must be file:line chains: {steps}")
        joined = "\n".join(findings[0]["path"])
        expect("Registry::rebuild" in joined and "Shard::evict" in joined,
               f"interprocedural witness must name both holders: {joined}")
    checks += 1

    # Only real definitions enter the model: good_function_heads.cpp
    # defines four functions, not `constexpr` or `bool` besides.
    _, report = run_report(str(FIXTURES / "good_function_heads.cpp"))
    expect(report.get("functions") == 4,
           f"good_function_heads.cpp: {report.get('functions')} functions, "
           "want 4")
    checks += 1

    # Two files' file-local read_fully stay two entries: the call in
    # pair_file_local_a.cpp reaches its own, blocking one.
    code, findings = run_analyze(str(FIXTURES / "pair_file_local_a.cpp"),
                                 str(FIXTURES / "pair_file_local_b.cpp"))
    got = [(f["rule"], Path(f["file"]).name, f["line"]) for f in findings]
    want = [("actor-blocking", "pair_file_local_a.cpp", 12)]
    expect(code == 1 and got == want,
           f"pair_file_local: exit {code}, findings {got}, want {want}")
    checks += 1

    # The coverage rule: a database covering only a.cpp satisfies
    # --require-covered for it and fails for an absent directory.
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "compile_commands.json"
        covered = ROOT / "tests" / "analyze_fixtures" / "good_lease.cpp"
        db.write_text(json.dumps([{
            "directory": str(ROOT),
            "file": str(covered),
            "command": "c++ -c " + str(covered),
        }]))
        code, findings = run_analyze(
            str(covered), "--compile-commands", str(db),
            "--require-covered", "tests/analyze_fixtures/good_lease.cpp")
        expect(code == 0 and findings == [],
               f"covered path must pass: exit {code}, {findings}")
        code, findings = run_analyze(
            str(covered), "--compile-commands", str(db),
            "--require-covered", "src/service")
        rules = [f["rule"] for f in findings]
        expect(code == 1 and rules == ["coverage"],
               f"uncovered dir must fail with coverage: exit {code}, "
               f"{rules}")
    checks += 2

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"gpsa_analyze self-test: {checks} fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
