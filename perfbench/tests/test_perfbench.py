"""Tests of the benchmark itself. From the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The smoke test builds the perfbench binary (first run only) and runs every
workload for a few slots in both modes; it takes about ten seconds once
the binary is built.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_workloads():
    with open(BENCH_DIR / "workloads.json") as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [n for n, _, _ in run.END_TO_END + run.PER_LAYER]
        for n in names:
            self.assertRegex(n, NAME)
            self.assertRegex(n, run.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_tables_match_benchmark_json(self):
        bench = load_benchmark()
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            list(run.PER_LAYER))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_readme_table_matches_benchmark_json(self):
        with open(BENCH_DIR / "README.md") as f:
            rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| (\w+) \| ([0-9.]+) \|",
                              f.read(), re.MULTILINE)
        bench = load_benchmark()
        self.assertEqual(
            [(n, u.strip(), b, float(x)) for n, u, b, x in rows],
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in bench["end_to_end"]])

    def test_workloads_match_benchmark_json(self):
        bench = load_benchmark()
        workloads = load_workloads()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads))
        for w in workloads.values():
            self.assertTrue((ROOT / w["scenario"]).is_file(), w["scenario"])


class TailPercentile(unittest.TestCase):
    def test_at_least_ten_samples_beyond(self):
        for n in range(20, 3000, 7):
            values = [float(i) for i in range(n)]
            p, value, count = run.tail_percentile(values)
            self.assertEqual(count, n)
            self.assertGreaterEqual(sum(v > value for v in values), 10, n)
            # No higher ladder step would still leave ten beyond.
            higher = [q for q in run.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(n - run.nearest_rank(q, n), 10, (n, q))

    def test_known_cases(self):
        self.assertEqual(run.tail_percentile(list(range(100)))[:2], (90.0, 89))
        self.assertEqual(run.tail_percentile(list(range(1000)))[:2], (99.0, 989))
        self.assertEqual(run.tail_percentile(list(range(90)))[:2], (80.0, 71))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (100.0, 3.0, 3))
        with self.assertRaises(ValueError):
            run.tail_percentile([])

    def test_nearest_rank_is_exact(self):
        self.assertEqual(run.nearest_rank(90.0, 100), 90)
        self.assertEqual(run.nearest_rank(99.9, 1000), 999)
        self.assertEqual(run.nearest_rank(50.0, 3), 2)

    def test_order_does_not_matter(self):
        values = [((i * 7919) % 211) / 3.0 for i in range(211)]
        self.assertEqual(run.tail_percentile(values),
                         run.tail_percentile(sorted(values)))


class OutputFormat(unittest.TestCase):
    def test_round_trip(self):
        units = {n: u for n, u, _ in run.END_TO_END}
        metrics = {n: 1.0 / (i + 3) for i, n in enumerate(units)}
        line = run.format_result(True, 1300, 2, metrics, units)
        self.assertNotIn("\n", line)
        correct, attempted, failed, back, back_units = run.parse_result(line)
        self.assertIs(correct, True)
        self.assertEqual((attempted, failed), (1300, 2))
        self.assertEqual(back, metrics)  # floats survive bit for bit
        self.assertEqual(back_units, units)
        self.assertEqual(sorted(json.loads(line)),
                         ["attempted", "correct", "failed", "metrics"])

    def test_parse_rejects_extra_keys(self):
        with self.assertRaises(ValueError):
            run.parse_result('{"correct": true, "attempted": 1, "failed": 0,'
                             ' "metrics": {}, "extra": 1}')


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


class Smoke(unittest.TestCase):
    """A few slots of every workload, untraced and traced."""

    def check_run(self, workload, trace):
        w = load_workloads()[workload]
        seconds = 4.0 / w["slots_per_second"]  # four slots
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", repr(seconds), "--trace", str(trace),
                         "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        correct, attempted, failed, metrics, units = run.parse_result(
            proc.stdout.strip().splitlines()[-1])
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (4, 0))
        table = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(list(metrics), [n for n, _, _ in table])
        self.assertEqual(units, {n: u for n, u, _ in table})
        for name, value in metrics.items():
            self.assertTrue(math.isfinite(value), name)
        for name, _, _ in table:
            self.assertIn(name, proc.stdout)

    def test_every_workload(self):
        for workload in load_workloads():
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


class NoProgram(unittest.TestCase):
    def test_refuses_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = run_bench(tmp, "--workload", "paper-22", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
