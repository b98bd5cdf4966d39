"""Self-test for perfbench/summarize.py.

    python3 perfbench/run.py --self-test
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import unittest

import summarize

HERE = os.path.dirname(os.path.abspath(__file__))


def job(**fields):
    base = {
        "kind": "pagerank", "phase": "closed", "index": 0, "root": 0,
        "traced": False, "wall_s": 0.010, "lat_s": 0.010, "elapsed_s": 0.009,
        "supersteps": 20, "messages": 1000, "edges_touched": 500,
        "superstep_s": [0.0004] * 20, "io_read_bytes": 1e6, "stall_s": 0.0,
        "readahead_hit_rate": 1.0, "dispatch_busy_s": 0.004,
        "compute_busy_s": 0.005, "pool_leases": 10, "pool_hits": 8,
        "pool_steady_misses": 0, "cpu_s": -1.0, "rss_mb": 10.0,
        "e2e_s": 0.0, "queue_s": 0.0, "submit_s": 0.0, "lag_s": 0.0,
        "remote_messages": 0, "wire_bytes": 0, "frames": 0,
        "send_imbalance": 0.0,
    }
    base.update(fields)
    return base


def raw_report(workload="pagerank-google", jobs=None, **fields):
    raw = {
        "workload": workload, "seed": 7, "seconds": 10.0, "trace": False,
        "host": {"nproc": 4, "compiler": "GNU 12", "build_type": "Release",
                 "l2_bytes": 2 << 20, "l3_bytes": 300 << 20},
        "config": {"dispatchers": 2, "computers": 2, "engine_workers": 4,
                   "service_workers": 3, "service_concurrent_jobs": 4,
                   "cluster_ranks": 2, "cluster_workers_per_rank": 2,
                   "pagerank_iterations": 20, "cluster_supersteps": 10,
                   "service_segments": 10,
                   "pagerank_rel_tol": 1e-3},
        "modes": {"exec": "worklist", "routing": "range", "io_backend": "mmap",
                  "csr_format": "v1", "csr_order": "none", "pool": "on"},
        "inputs": {"vertices": 100, "edges": 1000, "gen_s": 0.1, "roots": []},
        "working_set_bytes": 1 << 20, "csr_file_bytes": 1 << 19,
        "setup_s": [0.3, 0.1, 0.2], "attempted": 0, "stream_s": 10.0,
        "stream_cpu_s": 20.0, "rss_mb": 12.0, "rss_windows": [],
        "resident_supersteps": 0,
        "nominal_rate": 0.0, "high_rate": 0.0, "backlog_nominal": [],
        "backlog_high": [], "failures": [], "probes": {}, "jobs": jobs or [],
    }
    raw["attempted"] = len(raw["jobs"])
    raw.update(fields)
    return raw


class TailRuleTest(unittest.TestCase):
    def test_eleventh_largest_has_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = summarize.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(len([v for v in values if v > value]), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_percentile_rises_with_n(self):
        _, pct, _ = summarize.tail(list(range(1000)))
        self.assertAlmostEqual(pct, 99.0)
        self.assertEqual(summarize.tail_label(list(range(1000))),
                         "p99.0 of n=1000")

    def test_order_does_not_matter(self):
        shuffled = [13, 5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 21, 14, 15, 20,
                    16, 17, 18, 19]
        self.assertEqual(summarize.tail(shuffled),
                         summarize.tail(list(range(1, 22))))
        self.assertEqual(summarize.tail(shuffled)[0], 11)

    def test_too_few_samples_reports_max_and_says_so(self):
        value, pct, n = summarize.tail([3.0, 1.0, 2.0])
        self.assertEqual((value, pct, n), (3.0, None, 3))
        self.assertIn("too few samples", summarize.tail_label([1.0]))
        self.assertEqual(summarize.tail([]), (0.0, None, 0))

    def test_tail_never_falls_below_the_median(self):
        for n in range(1, 60):
            values = [float(v) for v in range(n)]
            self.assertGreaterEqual(summarize.tail(values)[0],
                                    summarize.median(values))
        self.assertEqual(summarize.tail([float(v) for v in range(20)])[1],
                         None)
        self.assertAlmostEqual(
            summarize.tail([float(v) for v in range(21)])[1], 100 * 11 / 21)

    def test_label_states_n(self):
        self.assertEqual(summarize.tail_label([float(v) for v in range(57)]),
                         "p82.4 of n=57")


class MetricTableTest(unittest.TestCase):
    def test_tables_are_valid(self):
        self.assertEqual(summarize.check_metric_tables(), [])

    def test_checker_catches_bad_names_and_units(self):
        saved = summarize.PER_LAYER
        try:
            summarize.PER_LAYER = saved + [("_bad", "ms", "lower"),
                                           ("ok.name", "m s", "lower"),
                                           ("x" * 65, "ms", "lower"),
                                           ("core.messages", "count",
                                            "lower"),
                                           ("dir", "ms", "up")]
            problems = summarize.check_metric_tables()
        finally:
            summarize.PER_LAYER = saved
        self.assertEqual(len(problems), 5, problems)

    def test_tables_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
            summarize.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            summarize.PER_LAYER)
        for metric in bench["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))

    def test_summary_emits_exactly_the_tables(self):
        raw = raw_report(jobs=[job(index=i) for i in range(30)])
        _, result = summarize.summarize(raw)
        self.assertEqual(set(result["metrics"]),
                         {name for name, _, _ in summarize.END_TO_END})
        for name, unit, _ in summarize.END_TO_END:
            self.assertEqual(result["metrics"][name]["unit"], unit)
        raw["trace"] = True
        for i, j in enumerate(raw["jobs"]):
            j["traced"] = i % 2 == 1
            j["cpu_s"] = 0.02 if j["traced"] else -1.0
        _, result = summarize.summarize(raw)
        self.assertEqual(set(result["metrics"]),
                         {name for name, _, _ in summarize.PER_LAYER})


class FailureAccountingTest(unittest.TestCase):
    def test_fail_frac_counts_rejected_errored_and_wrong(self):
        raw = raw_report(jobs=[job(index=i) for i in range(16)])
        raw["attempted"] = 20
        raw["failures"] = [
            {"kind": "rejected", "job": 3, "detail": "queue full"},
            {"kind": "rejected", "job": 4, "detail": "queue full"},
            {"kind": "error", "job": 5, "detail": "io"},
            {"kind": "wrong", "job": 6, "detail": "vertex 1: 2 != 3"},
        ]
        counts = summarize.fail_counts(raw)
        self.assertEqual(counts["failed"], 4)
        self.assertAlmostEqual(counts["fail_frac"], 0.2)
        lines, result = summarize.summarize(raw)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (20, 4))
        self.assertTrue(any("FAILURE wrong job 6 (seed 7)" in l
                            for l in lines))

    def test_rejected_submits_fail_but_are_not_wrong(self):
        raw = raw_report(jobs=[job(index=i) for i in range(12)])
        raw["attempted"] = 13
        raw["failures"] = [{"kind": "rejected", "job": 12, "detail": "full"}]
        _, result = summarize.summarize(raw)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_nothing_attempted_is_not_correct(self):
        _, result = summarize.summarize(raw_report(jobs=[]))
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 1)


class OpenLoopTest(unittest.TestCase):
    def test_drained_backlog_is_bounded(self):
        check = summarize.open_loop_check([0, 3, 5, 2, 1, 0, 1, 0],
                                          [0.001] * 8)
        self.assertTrue(check["bounded"])
        self.assertEqual(check["backlog_max"], 5)

    def test_growing_backlog_is_not_bounded(self):
        backlog = list(range(0, 80, 2))
        check = summarize.open_loop_check(backlog, [0.0] * len(backlog))
        self.assertFalse(check["bounded"])
        self.assertEqual(check["backlog_max"], 78)

    def test_generator_lag_uses_the_tail_rule(self):
        lags = [i / 1000.0 for i in range(100)]  # 0..99 ms
        check = summarize.open_loop_check([0] * 100, lags)
        self.assertAlmostEqual(check["gen_lag_ms"], 89.0)
        self.assertEqual(check["gen_lag_label"], "p90.0 of n=100")

    def service_raw(self):
        jobs = []
        for i in range(40):
            phase = "nominal" if i < 20 else "high"
            jobs.append(job(kind="bfs", phase=phase, index=i,
                            e2e_s=0.030 + 0.001 * (i % 20), queue_s=0.001,
                            lag_s=0.0005,
                            lat_s=0.0305 + 0.001 * (i % 20) + (
                                0.02 if phase == "high" else 0.0)))
        return raw_report("service-pokec", jobs, resident_supersteps=500,
                          stream_s=10.0, nominal_rate=15.0,
                          high_rate=30.0, rss_windows=[50.0, 52.0, 51.0],
                          backlog_nominal=[0, 1, 0, 0],
                          backlog_high=[1, 2, 3, 1])

    def test_service_metrics_split_by_phase(self):
        values, notes = summarize.end_to_end(self.service_raw())
        self.assertAlmostEqual(values["resident_ss_per_s"], 50.0)
        self.assertAlmostEqual(values["rss_mb"], 51.0)
        self.assertAlmostEqual(values["lat_tail_ms"], 49.5)
        self.assertAlmostEqual(values["lat_tail_ms_hi"], 69.5)
        self.assertIn("too few samples", notes["lat_tail_ms"])

    def test_service_report_prints_open_loop_checks(self):
        lines, result = summarize.summarize(self.service_raw())
        text = "\n".join(lines)
        self.assertIn("nominal: backlog max 1, bounded", text)
        self.assertIn("generator lag", text)
        self.assertTrue(result["correct"])

    def test_unbounded_backlog_is_printed(self):
        raw = self.service_raw()
        raw["backlog_high"] = list(range(10, 50))
        lines, _ = summarize.summarize(raw)
        self.assertIn("NOT BOUNDED", "\n".join(lines))


class TracedRunTest(unittest.TestCase):
    def test_overhead_and_reconciliation(self):
        jobs = []
        for i in range(20):
            traced = i % 2 == 1
            jobs.append(job(index=i, traced=traced,
                            wall_s=0.011 if traced else 0.010,
                            elapsed_s=0.009, cpu_s=0.02 if traced else -1.0,
                            superstep_s=[0.0004] * 20))
        raw = raw_report(jobs=jobs, trace=True,
                         probes={"apps.ref_ms": 20.0, "baselines.psw_s": 0.05})
        values, not_applicable = summarize.per_layer(raw)
        self.assertAlmostEqual(values["trace.overhead_frac"], 0.1)
        self.assertAlmostEqual(values["apps.cost_x"], 2.0)
        self.assertAlmostEqual(values["baselines.psw_x"], 5.0)
        self.assertAlmostEqual(values["core.superstep_residual_ms"], 1.0)
        self.assertIn("net.wire_mb", not_applicable)
        self.assertEqual(values["net.wire_mb"], 0.0)
        rec = summarize.reconciliation(raw)
        self.assertAlmostEqual(rec["overhead_ms"], 2.0)
        self.assertAlmostEqual(rec["supersteps_ms"], 8.0)
        self.assertAlmostEqual(rec["residual_ms"], 1.0)
        total = rec["overhead_ms"] + rec["supersteps_ms"] + rec["residual_ms"]
        self.assertAlmostEqual(total, rec["wall_ms"])

    def test_traced_run_keeps_untraced_jobs_for_end_to_end(self):
        jobs = [job(index=i, traced=i % 2 == 1,
                    wall_s=0.5 if i % 2 == 1 else 0.010) for i in range(20)]
        raw = raw_report(jobs=jobs, trace=True)
        values, _ = summarize.end_to_end(copy.deepcopy(raw))
        self.assertAlmostEqual(values["job_p50_ms"], 10.0)


if __name__ == "__main__":
    unittest.main()
