#!/usr/bin/env python3
"""Self-tests of the benchmark (stdlib unittest).

    python3 perfbench/test_perfbench.py          # everything (~2 minutes)
    python3 perfbench/test_perfbench.py -k Fast  # statistics and names only

The run tests build the harness like run.py does and make short runs of
every workload: each must emit every metric BENCHMARK.json names and pass
its output check, and a deliberately perturbed output must fail it.
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FastPercentile(unittest.TestCase):
    def test_nearest_rank_is_a_sample(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)
        self.assertEqual(stats.percentile([3, 1, 2], 100), 3)

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(90, 100), 10)
        self.assertEqual(stats.beyond(90, 99), 9)    # rank ceil(89.1) = 90
        self.assertEqual(stats.beyond(99, 1000), 10)
        self.assertEqual(stats.beyond(99, 999), 9)
        with self.assertRaises(ValueError):
            stats.rank(50, 0)

    def test_tail_percentiles_have_ten_beyond_at_minimum_run_size(self):
        # The harness runs at least 100 training steps; a serving phase at
        # the nominal rate yields thousands of requests.
        self.assertGreaterEqual(stats.beyond(run.TAIL_PERCENTILE["train-skew"], 100), 10)
        self.assertGreaterEqual(stats.beyond(run.TAIL_PERCENTILE["train-dense"], 100), 10)
        self.assertGreaterEqual(stats.beyond(run.TAIL_PERCENTILE["serve-mix"], 1000), 10)

    def test_reduce_reports_count_and_rank(self):
        raw = {"values": {}, "samples": {"latency_ms": list(range(1, 101))}}
        value, n, note = run.reduce_metric(raw, "latency_ms", "tail", "train-skew")
        self.assertEqual((value, n), (90, 100))
        self.assertIn("p90, 10 samples beyond", note)
        value, n, _ = run.reduce_metric(raw, "latency_ms", "median", "train-skew")
        self.assertEqual((value, n), (50.5, 100))

    def test_windowed_tail(self):
        values = list(range(1, 1001)) + list(range(1, 1001)) + [5000] * 1000
        value, k = stats.windowed_percentile(values, 99, 1000)
        self.assertEqual((value, k), (990, 3))
        self.assertEqual(stats.windowed_percentile(list(range(1, 1500)), 99, 1000),
                         (stats.percentile(list(range(1, 1500)), 99), 1))

    def test_quartiles_and_spread(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


class FastNames(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_contract_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class FastSelfTimes(unittest.TestCase):
    SPANS = [
        ["bench.train_step", -1, 1, 0.0, 100.0],
        ["engine.PlanRunner::run_forward", 0, 1, 1.0, 31.0],
        ["tensor.softmax_cross_entropy", 0, 1, 31.0, 41.0],
        ["engine.PlanRunner::run_backward", 0, 1, 41.0, 99.0],
        ["graph.Graph", -1, -1, 200.0, 205.0],
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(stats.self_times(self.SPANS), [2.0, 30.0, 10.0, 58.0, 5.0])

    def test_step_self_times_sum_to_step_wall(self):
        s = stats.self_time_summary(self.SPANS)
        self.assertEqual(s["steps"], 1)
        self.assertAlmostEqual(s["step_self_sum_ms_median"], s["step_wall_ms_median"])
        self.assertAlmostEqual(s["step_self_ms_median"]["engine"], 0.088)
        self.assertAlmostEqual(s["attributed_share_median"], 0.98)
        self.assertAlmostEqual(s["total_self_ms"]["graph"], 0.005)

    def test_chrome_trace_events(self):
        events = stats.chrome_trace(self.SPANS)["traceEvents"]
        self.assertEqual(len(events), 5)
        self.assertEqual(events[1]["cat"], "engine")
        self.assertEqual(events[1]["dur"], 30.0)
        self.assertEqual(events[1]["ph"], "X")


class FastCompare(unittest.TestCase):
    SPEC = {"end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]}

    def test_agree_and_disagree(self):
        base = {"w": {"p50_ms": [10, 10.1, 9.9, 10.2, 9.8],
                      "throughput_per_s": [100, 101, 99, 100, 100]}}
        same = {"w": {"p50_ms": [10.05, 10, 9.95, 10.1, 9.9],
                      "throughput_per_s": [100, 99, 101, 100, 100]}}
        slower = {"w": {"p50_ms": [12, 12.1, 11.9, 12, 12],
                        "throughput_per_s": [80, 81, 79, 80, 80]}}
        verdicts = {r[1]: r[5] for r in compare.compare(base, same, self.SPEC)}
        self.assertEqual(verdicts, {"p50_ms": True, "throughput_per_s": True})
        verdicts = {r[1]: r[5] for r in compare.compare(base, slower, self.SPEC)}
        self.assertEqual(verdicts, {"p50_ms": False, "throughput_per_s": False})

    def test_loads_results_and_machine_probes(self):
        out = ('record {"machine_probe_ms_start": 25.5, "seed": 1}\n'
               'metric p50_ms = 10 ms (n=100, median)\n'
               '{"correct": true, "attempted": 100, "failed": 0, "metrics": '
               '{"p50_ms": {"value": 10.0, "unit": "ms"}}}\n')
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "w").mkdir()
            (Path(tmp) / "w" / "seed1.out").write_text(out)
            self.assertEqual(compare.load_set(tmp), {"w": {"p50_ms": [10.0]}})
            self.assertEqual(compare.load_probes(tmp), {"w": [25.5]})

    def test_faster_is_not_worse(self):
        self.assertLess(compare.worse_by(10, 8, "lower"), 0)
        self.assertLess(compare.worse_by(10, 12, "higher"), 0)


def bench(workload, trace, seconds=1, perturb=False, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if perturb:
        cmd.append("--perturb")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


class Runs(unittest.TestCase):
    """Short real runs (the harness enforces minimum sample counts)."""

    def assert_emits_every_metric(self, workload, trace):
        r = bench(workload, trace)
        self.assertEqual(r.returncode, 0, r.stdout[-2000:] + r.stderr[-2000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        self.assertIn("record ", r.stdout)
        record = json.loads(r.stdout.split("record ", 1)[1].splitlines()[0])
        for key in ("nproc", "pool_threads", "host_workers", "build_type",
                    "seed", "commit", "source_sha256", "machine_probe_ms_start",
                    "machine_probe_ms_end"):
            self.assertIn(key, record)

    def test_serve_mix_untraced(self):
        self.assert_emits_every_metric("serve-mix", 0)

    def test_serve_mix_traced(self):
        self.assert_emits_every_metric("serve-mix", 1)

    def test_train_dense_untraced(self):
        self.assert_emits_every_metric("train-dense", 0)

    def test_train_skew_traced(self):
        self.assert_emits_every_metric("train-skew", 1)

    def test_perturbed_output_fails_the_check(self):
        # Untraced serving also perturbs a rate-search probe's response.
        for workload, trace, check in (
                ("serve-mix", 1, "responses_match_solo_nominal"),
                ("serve-mix", 0, "responses_match_solo_search"),
                ("train-dense", 1, "logits_match_reference")):
            r = bench(workload, trace, perturb=True)
            self.assertNotEqual(r.returncode, 0, workload)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            self.assertLessEqual(result["failed"], result["attempted"], workload)
            self.assertIn("check FAIL " + check, r.stdout)

    def test_no_sources_exits_nonzero_without_result(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = bench("serve-mix", 0, cwd=tmp)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
