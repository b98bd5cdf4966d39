#!/usr/bin/env python3
"""Self-test for the bench-JSON gates (gpsa_gate.py + check_*.py).

Each gate runs as a subprocess against generated JSON fixtures: one
report shaped to pass and, for each gated property, a mutation that must
fail with exit 1 and a FAIL: line on stderr. Arity errors must exit 2
with the usage text. Run directly or via ctest (gpsa_gate_selftest).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def run_gate(script: str, report: dict | None, *args: str,
             tmp: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(SCRIPTS / script)]
    if report is not None:
        path = tmp / f"{script}.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        argv.append(str(path))
    argv.extend(args)
    return subprocess.run(argv, capture_output=True, text=True)


def check_gate(name: str, script: str, passing: dict, pass_args: list[str],
               mutations: dict, tmp: Path) -> None:
    """Runs the pass case, each failing mutation, and the usage error."""
    proc = run_gate(script, passing, *pass_args, tmp=tmp)
    expect(proc.returncode == 0,
           f"{name}: pass case exited {proc.returncode}: {proc.stderr!r}")

    for label, mutate in sorted(mutations.items()):
        report = copy.deepcopy(passing)
        args = mutate(report) or pass_args
        proc = run_gate(script, report, *args, tmp=tmp)
        expect(proc.returncode == 1,
               f"{name}/{label}: exited {proc.returncode}, want 1 "
               f"(stdout: {proc.stdout!r})")
        expect("FAIL" in proc.stderr or proc.stderr.strip() != "",
               f"{name}/{label}: nothing on stderr")

    proc = run_gate(script, None, tmp=tmp)  # no report path, no args
    expect(proc.returncode == 2,
           f"{name}: usage error exited {proc.returncode}, want 2")
    expect("Usage:" in proc.stderr, f"{name}: usage text missing on stderr")


def io_report() -> dict:
    def cell(readahead, rate):
        return {"dataset": "google", "backend": "mmap",
                "readahead": readahead, "dispatch_mb_per_sec": rate}
    return {"cells": [cell("off", 100.0), cell("on", 200.0)]}


def service_report() -> dict:
    return {"bench": "service_qps", "clients": 4, "queries": 400,
            "failures": 0, "wall_seconds": 2.5, "qps": 160.0,
            "p50_ms": 24.0, "p99_ms": 36.0, "queue_p99_ms": 1.0,
            "admission_retries": 0, "background_supersteps": 1000,
            "resident_cancelled_cleanly": True, "samples_checked": 8,
            "results_identical": True}


def csr_v2_report() -> dict:
    def cell(dataset, fmt, order, bytes_read, throughput):
        return {"dataset": dataset, "format": fmt, "order": order,
                "bytes_read": bytes_read, "csr_file_bytes": bytes_read,
                "edges_per_busy_sec": throughput,
                "cc_checksum": f"{dataset}-checksum"}
    cells = []
    for dataset in ("google", "pokec"):
        cells.append(cell(dataset, "v1", "none", 3_000_000, 1.0e6))
        cells.append(cell(dataset, "v2", "none", 1_000_000, 1.1e6))
        cells.append(cell(dataset, "v2", "degree", 900_000, 1.2e6))
    return {"bench": "ablation_csr_v2", "cells": cells}


def cluster_net_report() -> dict:
    return {"bench": "cluster_scaleout",
            "net": {"ranks": 3, "children_ok": True, "bit_identity": True,
                    "supersteps": 5, "total_messages": 190928,
                    "bytes_on_wire": 1052584, "frames": 110,
                    "in_process_supersteps": 5,
                    "in_process_total_messages": 190928,
                    "in_process_bytes_on_wire": 1052584,
                    "in_process_frames": 110,
                    "elapsed_seconds": 0.012,
                    "superstep_wire_bytes": [211604, 210236, 210220, 210220,
                                             210220]}}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="gpsa_gate_test") as tmpdir:
        tmp = Path(tmpdir)

        check_gate(
            "io", "check_io_ratio.py", io_report(), ["1.5"],
            {
                "below-threshold": lambda r: ["3.0"],
                "missing-dataset": lambda r: ["1.5", "twitter"],
            }, tmp)

        check_gate(
            "service_slo", "check_service_slo.py", service_report(),
            ["500", "20"],
            {
                "p99-over-slo": lambda r: ["10", "20"],
                "qps-under-slo": lambda r: ["500", "100000"],
                "query-failures": lambda r: (
                    r.update(failures=3), ["500", "20"])[1],
                "results-diverged": lambda r: (
                    r.update(results_identical=False), ["500", "20"])[1],
                "resident-starved": lambda r: (
                    r.update(background_supersteps=0),
                    ["500", "20", "1"])[1],
                "unclean-cancel": lambda r: (
                    r.update(resident_cancelled_cleanly=False),
                    ["500", "20"])[1],
            }, tmp)

        check_gate(
            "csr_v2", "check_csr_v2.py", csr_v2_report(), ["1.5", "0.9"],
            {
                "bytes-ratio-below-threshold": lambda r: ["5.0", "0.9"],
                "throughput-regressed": lambda r: ["1.5", "2.0"],
                "checksum-diverged": lambda r: (
                    r["cells"][2].update(cc_checksum="oops"),
                    ["1.5", "0.9"])[1],
                "missing-v2-cell": lambda r: (
                    r["cells"].pop(1), ["1.5", "0.9"])[1],
            }, tmp)

        check_gate(
            "cluster_net", "check_cluster_net.py", cluster_net_report(), [],
            {
                "values-diverged": lambda r: r["net"].update(
                    bit_identity=False),
                "dead-rank": lambda r: r["net"].update(children_ok=False),
                "superstep-mismatch": lambda r: r["net"].update(
                    in_process_supersteps=4),
                "message-mismatch": lambda r: r["net"].update(
                    in_process_total_messages=1),
                "bytes-mismatch": lambda r: r["net"].update(
                    in_process_bytes_on_wire=1052583),
                "frames-mismatch": lambda r: r["net"].update(
                    in_process_frames=111),
                "no-traffic": lambda r: r["net"].update(
                    bytes_on_wire=0, in_process_bytes_on_wire=0),
                "short-series": lambda r: r["net"][
                    "superstep_wire_bytes"].pop() and None,
            }, tmp)

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("gpsa_gate self-test: all gate pass/fail/usage checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
