"""The benchmark's own tests.

    python3 bench/selftest.py

Runs every workload's command list on tiny meshes twice with tracing on
and checks that the outputs pass the structural checks, that spans nest
(every child inside its parent, every self time >= 0), that the counts
repeat exactly, and that each workload runs the layers it is meant to and
no others.  Also checks that the metric lists match BENCHMARK.json and
that the benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, unit in spans.LAYER_METRICS.items() if unit != "s"]

# layers each workload must run (nonzero) and must not run (zero)
RUNS = {
    "modes": ["analysis.closed_form_calls", "analysis.sweep_s", "analysis.max_rho_s",
              "modesim.power_growth_calls", "modesim.oracle_matrix_calls",
              "cli.verify_self_s", "cli.table_write_s"],
    "spectrum": ["fem.n_dofs", "schwarz.decompose_s", "schwarz.factor_calls",
                 "schwarz.subsolve_cols", "schwarz.operator_self_s", "schwarz.eig_n"],
    "gmres": ["fem.n_dofs", "schwarz.factor_calls", "schwarz.subsolve_cols",
              "schwarz.gmres_iters", "schwarz.ras_self_s"],
    "schwarz": ["fem.n_dofs", "fem.export_s", "schwarz.factor_calls",
                "schwarz.subsolve_cols", "schwarz.iterate_self_s"],
}
SKIPS = {
    "modes": ["fem.n_dofs", "schwarz.factor_calls", "schwarz.subsolve_cols"],
    "spectrum": ["analysis.closed_form_calls", "schwarz.gmres_iters", "fem.export_s"],
    "gmres": ["analysis.closed_form_calls", "schwarz.eig_n", "fem.export_s"],
    "schwarz": ["analysis.closed_form_calls", "schwarz.eig_n", "schwarz.gmres_iters"],
}


def traced_tiny_run(workload: str) -> dict:
    runner = run.Runner(workload, 1, time.monotonic(), None)
    runner.commands = workloads.commands(workload, 1, tiny=True)
    result = runner.repetition(trace=True)
    result["attempted"] = len(runner.commands)
    return result


class SpanMath(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        trace = [
            ["root", -1, 0.0, 10.0, None],
            ["child", 0, 1.0, 4.0, None],
            ["grandchild", 1, 2.0, 3.0, None],
            ["child", 0, 5.0, 6.0, None],
        ]
        self.assertEqual(spans.self_times(trace), [6.0, 2.0, 1.0, 1.0])
        self.assertEqual(spans.check_nesting(trace), [])

    def test_nesting_problems_are_reported(self):
        trace = [["root", -1, 0.0, 1.0, None], ["child", 0, 0.5, 2.0, None]]
        problems = spans.check_nesting(trace)
        self.assertTrue(any("outside its parent" in p for p in problems))
        self.assertTrue(any("self time" in p for p in problems))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIn("no tail", run.tail_percentile([1.0] * 19))
        self.assertTrue(run.tail_percentile([float(i) for i in range(20)]).startswith("p50"))
        self.assertTrue(run.tail_percentile([float(i) for i in range(100)]).startswith("p90"))


class Manifest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        self.assertEqual(units, run.E2E_UNITS)
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        self.assertEqual(units, run.TRACE_UNITS)
        self.assertEqual(tuple(w["name"] for w in manifest["workloads"]), workloads.WORKLOADS)


class TinyWorkloads(unittest.TestCase):
    def test_each_workload(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = traced_tiny_run(workload)
                second = traced_tiny_run(workload)
                for result in (first, second):
                    self.assertEqual(result["ok"], result["attempted"])
                    self.assertEqual(spans.check_nesting(result["spans"]), [])
                for name in COUNTS:
                    self.assertEqual(first["layers"][name], second["layers"][name], name)
                for name in RUNS[workload]:
                    self.assertGreater(first["layers"][name], 0, name)
                for name in SKIPS[workload]:
                    self.assertEqual(first["layers"][name], 0, name)


class MissingSources(unittest.TestCase):
    def test_refuses_without_package(self):
        bare = os.path.join(run.RUN_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "modes",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            self.assertFalse(line.startswith("{"), line)


if __name__ == "__main__":
    unittest.main()
