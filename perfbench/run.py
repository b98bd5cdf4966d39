#!/usr/bin/env python3
"""Builds and runs the GPSA benchmark for one workload.

    python3 perfbench/run.py --workload pagerank-google --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. gpsa_perfbench is built from source with CMake
into .bench_build/ (or $CARGO_TARGET_DIR when set), then run with a
private work directory under it that is removed afterwards. Everything
before the last line of standard output is a readable report; the last
line is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
With --trace 1 a Chrome trace-event file is also written under
.bench_build/traces/.

Any GPSA_* environment variable is cleared first: the benchmark measures
the default configuration only.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import summarize  # noqa: E402

WORKLOADS = ("pagerank-google", "bfs-twitter", "service-pokec",
             "cluster2-pokec")
# Set-up plus the measured stream take well under a minute; these only stop
# a hung build or measurement, and together stay under 15 minutes.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code=1):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "gpsa_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=max(1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out; see %s" % log_path)
            if done.returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build step failed: %s" % " ".join(step))
    os.sync()  # the build's writes must not flush during the measurement
    return os.path.join(build_dir, "gpsa_perfbench")


def run_measurement(binary, argv, env):
    """Runs gpsa_perfbench in its own process group so a timeout can stop
    it and any rank process it forked."""
    proc = subprocess.Popen([binary] + argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("gpsa_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, output


def self_test():
    import unittest
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the summarizer's unit tests and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no GPSA sources next to %s; run from a full checkout" % HERE, 2)
    problems = summarize.check_metric_tables()
    if problems:
        fail("; ".join(problems))

    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("GPSA_"))
    for key in cleared:
        del env[key]
    if cleared:
        print("cleared environment: %s" % ", ".join(cleared))

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    binary = build(build_dir)

    work = os.path.join(build_dir, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env["TMPDIR"] = work
    raw_path = os.path.join(work, "raw.json")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--work-dir", os.path.join(work, "run"), "--out", raw_path]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (
            args.workload, args.seed))
        argv += ["--trace-file", trace_path]
    try:
        code, output = run_measurement(binary, argv, env)
        sys.stdout.write(output)
        if code != 0:
            fail("gpsa_perfbench exited with code %d" % code)
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines, result = summarize.summarize(raw)
    for line in lines:
        print(line)
    if trace_path:
        print("trace events: %s" % os.path.relpath(trace_path, ROOT))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
