"""Turns one raw gpsa_perfbench report into the benchmark's metrics.

gpsa_perfbench (perfbench/gpsa_perfbench.cpp) measures and writes per-job
records;
everything statistical happens here so it can be tested on its own
(perfbench/test_summarize.py):

- the tail rule: the tail of n samples is the highest percentile that
  still has at least 10 samples beyond it, i.e. the 11th-largest sample,
  reported with its percentile 100 * (n - 10) / n and n. Below 21
  samples that would not lie above the median, so the maximum is
  reported instead and flagged;
- failure accounting: fail_frac = (rejected + errored + wrong) / attempted;
- open-loop checks: whether the service backlog stayed bounded, and how
  late the load generator ran;
- the end-to-end metrics (``--trace 0``) and per-layer metrics
  (``--trace 1``) named in BENCHMARK.json.
"""

import math
import re
import statistics

TAIL_BEYOND = 10

# name, unit, better. Every workload reports every one of these; see
# perfbench/README.md for how the service-only names read on the
# closed-loop workloads.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("job_p50_ms", "ms", "lower"),
    ("job_tail_ms", "ms", "lower"),
    ("mteps", "MTEPS", "higher"),
    ("lat_p50_ms", "ms", "lower"),
    ("lat_tail_ms", "ms", "lower"),
    ("lat_tail_ms_hi", "ms", "lower"),
    ("resident_ss_per_s", "1/s", "higher"),
    ("rss_mb", "MB", "lower"),
]

# fail_frac is printed with the end-to-end metrics but travels in the
# result line as "failed"/"attempted": it is 0 on a healthy run, and a
# metric that reads 0 has no relative spread to bound.
REPORTED_ONLY = [("fail_frac", "1", "lower")]

PER_LAYER = [
    ("graph.preprocess_s", "s", "lower"),
    ("graph.open_ms", "ms", "lower"),
    ("graph.csr_mb", "MB", "lower"),
    ("io.scan_mb_s", "MB/s", "higher"),
    ("io.bytes_read_mb", "MB", "lower"),
    ("io.stall_ms", "ms", "lower"),
    ("io.readahead_hit_rate", "fraction", "higher"),
    ("storage.value_create_ms", "ms", "lower"),
    ("core.job_overhead_ms", "ms", "lower"),
    ("core.superstep_p50_ms", "ms", "lower"),
    ("core.superstep_residual_frac", "fraction", "lower"),
    ("core.superstep_residual_ms", "ms", "lower"),
    ("core.supersteps", "count", "lower"),
    ("core.messages", "count", "lower"),
    ("core.edges_touched", "count", "lower"),
    ("core.dispatch_busy_frac", "fraction", "lower"),
    ("core.compute_busy_frac", "fraction", "lower"),
    ("core.pool_hit_rate", "fraction", "higher"),
    ("core.pool_steady_misses", "count", "lower"),
    ("actor.cpu_ms_per_job", "ms", "lower"),
    ("actor.parallelism", "cores", "higher"),
    ("apps.ref_ms", "ms", "lower"),
    ("apps.cost_x", "ratio", "higher"),
    ("baselines.psw_x", "ratio", "higher"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.queue_wait_tail_ms", "ms", "lower"),
    ("service.run_p50_ms", "ms", "lower"),
    ("service.submit_us", "us", "lower"),
    ("service.backlog_max", "count", "lower"),
    ("service.gen_lag_ms", "ms", "lower"),
    ("cluster.rendezvous_ms", "ms", "lower"),
    ("cluster.remote_msg_frac", "fraction", "lower"),
    ("cluster.send_imbalance", "ratio", "lower"),
    ("net.wire_mb", "MB", "lower"),
    ("net.frames", "count", "lower"),
    ("net.bytes_per_msg", "B", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SERVICE = "service-pokec"
CLUSTER = "cluster2-pokec"

# A backlog counts as bounded when, over the last quarter of a phase's
# arrivals, the queue came back down to at most this many jobs.
BACKLOG_DRAINED = 2


def check_metric_tables():
    """Returns a list of problems with the metric names and units."""
    problems = []
    seen = set()
    for name, unit, better in END_TO_END + REPORTED_ONLY + PER_LAYER:
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        if not UNIT_RE.match(unit):
            problems.append("bad unit %r for %s" % (unit, name))
        if better not in ("lower", "higher"):
            problems.append("bad direction %r for %s" % (better, name))
        if name in seen:
            problems.append("duplicate metric %s" % name)
        seen.add(name)
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile, n) for the highest percentile that has at least
    TAIL_BEYOND samples beyond it. With too few samples for that
    percentile to lie above the median, the maximum is returned and the
    percentile is None."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, None, 0
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], None, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def tail_label(values):
    value, pct, n = tail(values)
    if pct is None:
        return "max of n=%d (too few samples for the tail rule)" % n
    return "p%.1f of n=%d" % (math.floor(pct * 10) / 10, n)


def fail_counts(raw):
    """Failure accounting over the measured operations."""
    kinds = {"rejected": 0, "error": 0, "wrong": 0}
    for failure in raw.get("failures", []):
        kinds[failure["kind"]] = kinds.get(failure["kind"], 0) + 1
    attempted = int(raw.get("attempted", 0))
    failed = kinds["rejected"] + kinds["error"] + kinds["wrong"]
    return {
        "attempted": attempted,
        "rejected": kinds["rejected"],
        "errored": kinds["error"],
        "wrong": kinds["wrong"],
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
    }


def open_loop_check(backlog, lags_s):
    """Backlog and generator-lag checks for one open-loop phase."""
    if not backlog:
        return {"bounded": True, "backlog_max": 0, "gen_lag_ms": 0.0,
                "gen_lag_label": "no arrivals"}
    last_quarter = backlog[-max(1, len(backlog) // 4):]
    lag_ms = [lag * 1e3 for lag in lags_s]
    return {
        "bounded": min(last_quarter) <= BACKLOG_DRAINED,
        "backlog_max": max(backlog),
        "gen_lag_ms": tail(lag_ms)[0],
        "gen_lag_label": tail_label(lag_ms),
    }


def _ms(values_s):
    return [v * 1e3 for v in values_s]


def _measured_jobs(raw):
    """Jobs that feed the end-to-end metrics: all of them in an untraced
    run, the untraced half in a traced run."""
    jobs = raw["jobs"]
    if raw.get("trace"):
        return [j for j in jobs if not j["traced"]]
    return jobs


def end_to_end(raw):
    """name -> value for every END_TO_END metric, plus printable notes."""
    jobs = _measured_jobs(raw)
    notes = {}
    if raw["workload"] == SERVICE:
        nominal = [j for j in jobs if j["phase"] == "nominal"]
        high = [j for j in jobs if j["phase"] == "high"]
        wall = _ms([j["e2e_s"] for j in nominal])
        lat = _ms([j["lat_s"] for j in nominal])
        lat_hi = _ms([j["lat_s"] for j in high])
        mteps = [_frac(j["messages"], j["e2e_s"]) / 1e6 for j in nominal]
        resident = _frac(raw["resident_supersteps"], raw["stream_s"])
        rss = raw["rss_windows"]
    else:
        wall = _ms([j["wall_s"] for j in jobs])
        lat = _ms([j["lat_s"] for j in jobs])
        lat_hi = lat
        mteps = [_frac(j["messages"], j["wall_s"]) / 1e6 for j in jobs]
        # A ratio of sums: per-job rates split into modes when jobs differ
        # in superstep count (BFS roots at depth 7 or 8).
        resident = _frac(sum(j["supersteps"] for j in jobs),
                         sum(j["wall_s"] for j in jobs))
        rss = [j["rss_mb"] for j in jobs]
    values = {
        "setup_s": median(raw["setup_s"]),
        "job_p50_ms": median(wall),
        "job_tail_ms": tail(wall)[0],
        "mteps": median(mteps),
        "lat_p50_ms": median(lat),
        "lat_tail_ms": tail(lat)[0],
        "lat_tail_ms_hi": tail(lat_hi)[0],
        "resident_ss_per_s": resident,
        "rss_mb": median(rss),
    }
    notes["job_tail_ms"] = tail_label(wall)
    notes["lat_tail_ms"] = tail_label(lat)
    notes["lat_tail_ms_hi"] = tail_label(lat_hi)
    notes["setup_s"] = "median of %d set-ups" % len(raw["setup_s"])
    return values, notes


def _frac(part, whole):
    return part / whole if whole > 0 else 0.0


def per_layer(raw):
    """name -> value for every PER_LAYER metric, and the names that do not
    apply to this workload (reported as 0)."""
    workload = raw["workload"]
    jobs = raw["jobs"]
    traced = [j for j in jobs if j["traced"]] or jobs
    untraced = [j for j in jobs if not j["traced"]] or jobs
    probes = raw.get("probes", {})
    service = workload == SERVICE
    cluster = workload == CLUSTER
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    not_applicable = set()

    def wall_of(j):
        return j["e2e_s"] if service else j["wall_s"]

    job_p50_ms = median(_ms([wall_of(j) for j in untraced]))
    for name in ("graph.preprocess_s", "graph.open_ms", "io.scan_mb_s",
                 "storage.value_create_ms", "apps.ref_ms"):
        values[name] = probes.get(name, 0.0)
    values["graph.csr_mb"] = raw.get("csr_file_bytes", 0) / 1e6
    values["apps.cost_x"] = _frac(probes.get("apps.ref_ms", 0.0), job_p50_ms)
    values["baselines.psw_x"] = _frac(probes.get("baselines.psw_s", 0.0) * 1e3,
                                      job_p50_ms)

    values["core.supersteps"] = median([j["supersteps"] for j in jobs])
    values["core.messages"] = median([j["messages"] for j in jobs])
    overhead = []
    for j in jobs:
        run_s = j["e2e_s"] - j["queue_s"] if service else j["wall_s"]
        overhead.append((run_s - j["elapsed_s"]) * 1e3)
    values["core.job_overhead_ms"] = median(overhead)

    if cluster:
        not_applicable.update([
            "io.bytes_read_mb", "io.stall_ms", "io.readahead_hit_rate",
            "core.superstep_p50_ms", "core.superstep_residual_frac",
            "core.superstep_residual_ms", "core.edges_touched",
            "core.dispatch_busy_frac", "core.compute_busy_frac",
            "core.pool_hit_rate", "core.pool_steady_misses"])
        messages = sum(j["messages"] for j in jobs)
        remote = sum(j["remote_messages"] for j in jobs)
        values["cluster.rendezvous_ms"] = probes.get("cluster.rendezvous_ms",
                                                     0.0)
        values["cluster.remote_msg_frac"] = _frac(remote, messages)
        values["cluster.send_imbalance"] = median(
            [j["send_imbalance"] for j in jobs])
        values["net.wire_mb"] = median([j["wire_bytes"] / 1e6 for j in jobs])
        values["net.frames"] = median([j["frames"] for j in jobs])
        values["net.bytes_per_msg"] = _frac(
            sum(j["wire_bytes"] for j in jobs), remote)
    else:
        not_applicable.update(["cluster.rendezvous_ms",
                               "cluster.remote_msg_frac",
                               "cluster.send_imbalance", "net.wire_mb",
                               "net.frames", "net.bytes_per_msg"])
        values["io.bytes_read_mb"] = median(
            [j["io_read_bytes"] / 1e6 for j in jobs])
        values["io.stall_ms"] = median([j["stall_s"] * 1e3 for j in jobs])
        values["io.readahead_hit_rate"] = median(
            [j["readahead_hit_rate"] for j in jobs])
        values["core.superstep_p50_ms"] = median(
            [s * 1e3 for j in jobs for s in j["superstep_s"]])
        residual_ms = [(j["elapsed_s"] - sum(j["superstep_s"])) * 1e3
                       for j in jobs]
        values["core.superstep_residual_ms"] = median(residual_ms)
        values["core.superstep_residual_frac"] = median(
            [_frac(j["elapsed_s"] - sum(j["superstep_s"]), j["elapsed_s"])
             for j in jobs])
        values["core.edges_touched"] = median(
            [j["edges_touched"] for j in jobs])
        values["core.dispatch_busy_frac"] = median(
            [_frac(j["dispatch_busy_s"], j["elapsed_s"]) for j in jobs])
        values["core.compute_busy_frac"] = median(
            [_frac(j["compute_busy_s"], j["elapsed_s"]) for j in jobs])
        values["core.pool_hit_rate"] = _frac(
            sum(j["pool_hits"] for j in jobs),
            sum(j["pool_leases"] for j in jobs))
        values["core.pool_steady_misses"] = (
            sum(j["pool_steady_misses"] for j in jobs) / len(jobs)
            if jobs else 0.0)

    if service:
        # Queries overlap, so CPU is attributed from the stream as a whole.
        values["actor.cpu_ms_per_job"] = _frac(raw["stream_cpu_s"] * 1e3,
                                               len(jobs))
        values["actor.parallelism"] = _frac(raw["stream_cpu_s"],
                                            raw["stream_s"])
        queue_ms = _ms([j["queue_s"] for j in jobs])
        values["service.queue_wait_p50_ms"] = median(queue_ms)
        values["service.queue_wait_tail_ms"] = tail(queue_ms)[0]
        values["service.run_p50_ms"] = median(
            [(j["e2e_s"] - j["queue_s"]) * 1e3 for j in jobs])
        values["service.submit_us"] = median(
            [j["submit_s"] * 1e6 for j in jobs])
        check = open_loop_check(
            raw["backlog_nominal"] + raw["backlog_high"],
            [j["lag_s"] for j in jobs])
        values["service.backlog_max"] = check["backlog_max"]
        values["service.gen_lag_ms"] = check["gen_lag_ms"]
    else:
        not_applicable.update([
            "service.queue_wait_p50_ms", "service.queue_wait_tail_ms",
            "service.run_p50_ms", "service.submit_us", "service.backlog_max",
            "service.gen_lag_ms"])
        measured = [j for j in traced if j["cpu_s"] >= 0]
        values["actor.cpu_ms_per_job"] = median(
            [j["cpu_s"] * 1e3 for j in measured])
        values["actor.parallelism"] = median(
            [_frac(j["cpu_s"], j["wall_s"]) for j in measured])

    traced_p50 = median([wall_of(j) for j in jobs if j["traced"]])
    untraced_p50 = median([wall_of(j) for j in jobs if not j["traced"]])
    values["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0
                                     if untraced_p50 > 0 and traced_p50 > 0
                                     else 0.0)
    return values, not_applicable


def reconciliation(raw):
    """Per-job split of caller wall time: overhead + supersteps + residual.
    Returns medians in ms and the largest residual share, or None when the
    workload's results carry no superstep times."""
    rows = []
    for j in raw["jobs"]:
        if not j["traced"] or not j["superstep_s"]:
            continue
        wall = j["e2e_s"] - j["queue_s"] if raw["workload"] == SERVICE \
            else j["wall_s"]
        steps = sum(j["superstep_s"])
        rows.append((wall, wall - j["elapsed_s"], steps,
                     j["elapsed_s"] - steps))
    if not rows:
        return None
    return {
        "jobs": len(rows),
        "wall_ms": median([r[0] * 1e3 for r in rows]),
        "overhead_ms": median([r[1] * 1e3 for r in rows]),
        "supersteps_ms": median([r[2] * 1e3 for r in rows]),
        "residual_ms": median([r[3] * 1e3 for r in rows]),
        "max_residual_share": max(_frac(r[3], r[0]) for r in rows),
    }


def _fmt(value):
    return "%.6g" % value


def summarize(raw):
    """Returns (printable lines, result object for the last line)."""
    lines = []
    host = raw["host"]
    counts = fail_counts(raw)
    workload = raw["workload"]
    lines.append("workload %s  seed %d  seconds %g  trace %d" % (
        workload, raw["seed"], raw["seconds"], 1 if raw["trace"] else 0))
    lines.append("host: nproc %d, compiler %s, build %s, L2 %d KiB, L3 %d KiB"
                 % (host["nproc"], host["compiler"], host["build_type"],
                    host["l2_bytes"] >> 10, host["l3_bytes"] >> 10))
    inputs = raw["inputs"]
    lines.append("inputs (from the seed): %d vertices, %d edges, generated "
                 "in %.2f s (not timed)%s" % (
                     inputs["vertices"], inputs["edges"], inputs["gen_s"],
                     ", roots %s" % inputs["roots"] if inputs["roots"] else ""))
    ws = raw["working_set_bytes"] or raw["csr_file_bytes"]
    if ws and host["l2_bytes"] and host["l3_bytes"]:
        lines.append("working set %.1f MB = %.2fx L2, %.3fx L3" % (
            ws / 1e6, ws / host["l2_bytes"], ws / host["l3_bytes"]))
    modes = raw["modes"]
    lines.append("modes used: exec %s, routing %s, io %s, csr %s/%s, pool %s"
                 % (modes["exec"], modes["routing"], modes["io_backend"],
                    modes["csr_format"], modes["csr_order"], modes["pool"]))
    cfg = raw["config"]
    lines.append("config: %d dispatchers x %d computers, engine workers %d, "
                 "service workers %d, cluster %d ranks x %d workers; "
                 "PageRank checked within relative tolerance %g (the float "
                 "sum fold follows the schedule at these actor counts)" % (
                     cfg["dispatchers"], cfg["computers"],
                     cfg["engine_workers"], cfg["service_workers"],
                     cfg["cluster_ranks"], cfg["cluster_workers_per_rank"],
                     cfg["pagerank_rel_tol"]))
    lines.append("set-up samples (s): %s" % ", ".join(
        _fmt(s) for s in raw["setup_s"]))
    lines.append("peak RSS over the whole stream: %.1f MB" % raw["rss_mb"])
    if workload == SERVICE:
        segments = cfg["service_segments"]
        lines.append("open loop: seeded Poisson arrivals in %d segments, "
                     "each on a fresh service: nominal %g/s then high %g/s, "
                     "%g s each" % (segments, raw["nominal_rate"],
                                    raw["high_rate"],
                                    raw["seconds"] / segments / 2))
        for phase, key in (("nominal", "backlog_nominal"),
                           ("high", "backlog_high")):
            lags = [j["lag_s"] for j in raw["jobs"] if j["phase"] == phase]
            check = open_loop_check(raw[key], lags)
            lines.append("  %s: backlog max %d, %s; generator lag %.3f ms (%s)"
                         % (phase, check["backlog_max"],
                            "bounded" if check["bounded"]
                            else "NOT BOUNDED (queue never drained)",
                            check["gen_lag_ms"], check["gen_lag_label"]))
    else:
        lines.append("closed loop: 1 client, %d jobs in %.2f s" % (
            len(raw["jobs"]), raw["stream_s"]))

    metrics = {}
    if raw["trace"]:
        values, not_applicable = per_layer(raw)
        lines.append("per-layer metrics (traced run):")
        for name, unit, _ in PER_LAYER:
            note = "  n/a: layer not run by this workload" \
                if name in not_applicable else ""
            lines.append("  %-30s %12s %s%s" % (name, _fmt(values[name]),
                                                 unit, note))
            metrics[name] = {"value": values[name], "unit": unit}
        rec = reconciliation(raw)
        if rec is None:
            lines.append("reconciliation: n/a (no per-superstep times)")
        else:
            lines.append(
                "reconciliation over %d traced jobs (medians): wall %.3f ms "
                "= overhead %.3f + supersteps %.3f + residual %.3f ms; "
                "largest residual share %.3f" % (
                    rec["jobs"], rec["wall_ms"], rec["overhead_ms"],
                    rec["supersteps_ms"], rec["residual_ms"],
                    rec["max_residual_share"]))
    e2e, notes = end_to_end(raw)
    lines.append("end-to-end metrics%s:" % (
        " (untraced jobs of this run)" if raw["trace"] else ""))
    for name, unit, _ in END_TO_END:
        lines.append("  %-20s %12s %-6s %s" % (name, _fmt(e2e[name]), unit,
                                               notes.get(name, "")))
        if not raw["trace"]:
            metrics[name] = {"value": e2e[name], "unit": unit}
    lines.append("  %-20s %12s %-6s (rejected %d + errored %d + wrong %d) / "
                 "attempted %d" % ("fail_frac", _fmt(counts["fail_frac"]), "1",
                                   counts["rejected"], counts["errored"],
                                   counts["wrong"], counts["attempted"]))
    for failure in raw["failures"]:
        lines.append("FAILURE %s job %d (seed %d): %s" % (
            failure["kind"], failure["job"], raw["seed"], failure["detail"]))
    result = {
        "correct": (counts["attempted"] > 0 and counts["wrong"] == 0
                    and counts["errored"] == 0),
        "attempted": max(1, counts["attempted"]),
        "failed": counts["failed"],
        "metrics": metrics,
    }
    return lines, result
