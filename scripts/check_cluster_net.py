#!/usr/bin/env python3
"""Gate on the real network data plane (bench_cluster_scaleout's `net`
section): a 3-process localhost cluster run over TCP must reproduce the
in-process run (the same rank loop, its ranks threads linked by
socketpairs) exactly. Both runs measure their wire traffic, so the gate
compares two measurements, not a measurement with a model.

Checks, in order:
  - every rank process exited cleanly and rank 0 produced a report;
  - the multi-process value vector is bit-identical to the in-process
    run's (the protocol's central correctness claim);
  - supersteps and cluster-wide message totals match the in-process run
    (the barrier counted the same messages);
  - bytes on wire and frames sent are non-zero and equal to the
    in-process run's (the same frames crossed either link);
  - the per-superstep wire series covers every superstep and its sum
    never exceeds the total.

Usage: check_cluster_net.py <bench_cluster_scaleout.json>
"""
import sys

from gpsa_gate import Gate, gate_main


def check(report: dict, args: list, gate: Gate) -> None:
    net = report.get("net")
    if not net:
        gate.fatal("report has no `net` section — the multi-process run "
                   "never happened")

    gate.note(f"{net['ranks']} ranks, {net['supersteps']} supersteps, "
              f"{net['total_messages']} messages, "
              f"{net['bytes_on_wire']} bytes in {net['frames']} frames on "
              f"wire in {net['elapsed_seconds']:.3f}s")

    gate.require(net.get("children_ok", False),
                 "a rank process exited abnormally")
    gate.require(net.get("bit_identity", False),
                 "multi-process values diverged from the in-process run")
    gate.require(net["bytes_on_wire"] > 0, "no bytes were measured on the wire")
    gate.require(net["frames"] > 0, "no frames were measured")
    for key in ("supersteps", "total_messages", "bytes_on_wire", "frames"):
        gate.require(net[key] == net[f"in_process_{key}"],
                     f"{key} diverged: multi-process {net[key]} vs "
                     f"in-process {net[f'in_process_{key}']}")

    series = net.get("superstep_wire_bytes", [])
    gate.require(len(series) == net["supersteps"],
                 f"per-superstep wire series has {len(series)} entries for "
                 f"{net['supersteps']} supersteps")
    gate.require(sum(series) <= net["bytes_on_wire"],
                 "per-superstep wire series sums past the total")


if __name__ == "__main__":
    sys.exit(gate_main(__doc__, check, min_args=1))
