"""Fast self-test of the benchmark harness at tiny sizes (stdlib + numpy).

    python3 perfbench/selftest.py

Covers every workload's loop, the traced run, the failure counter with
deliberately corrupted outputs, and the refusal to run without sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts nothing on sys.path by itself)

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import qpdsim  # noqa: E402
import workloads  # noqa: E402

TINY_SAMPLES = 65
TINY_DRAWS = 20


def tiny_workloads(work_dir: str) -> list:
    return [
        workloads.CatalogSweep(samples=TINY_SAMPLES, random_per_pass=2),
        workloads.CliLong(run.ROOT, work_dir, samples=TINY_SAMPLES),
        workloads.Survey(draws=TINY_DRAWS),
    ]


class Patched:
    """Temporarily replace an attribute."""

    def __init__(self, obj, name: str, value):
        self.obj, self.name, self.value = obj, name, value

    def __enter__(self):
        self.saved = getattr(self.obj, self.name)
        setattr(self.obj, self.name, self.value)

    def __exit__(self, *exc):
        setattr(self.obj, self.name, self.saved)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        self.work_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def test_every_workload_runs_clean(self):
        for workload in tiny_workloads(self.work_dir):
            with self.subTest(workload.name):
                result = run.measure(workload, seed=3, seconds=0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS) - {"setup_s"})
                self.assertTrue(all(v > 0 for v in result["metrics"].values()), result["metrics"])
        self.assertEqual(os.listdir(self.work_dir), [], "cli-long left an output directory behind")

    def test_catalog_sweep_counts_whole_passes(self):
        result = run.measure(workloads.CatalogSweep(samples=TINY_SAMPLES, random_per_pass=2), seed=3, seconds=0)
        self.assertEqual(result["attempted"], len(qpdsim.CATALOG_LABELS) + 2)

    def test_traced_run_reports_every_layer_metric(self):
        spans = os.path.join(self.work_dir, "spans.json")
        first = run.trace_all(tiny_workloads(self.work_dir), seed=3, seconds=0, spans_path=spans)
        second = run.trace_all(tiny_workloads(self.work_dir), seed=4, seconds=0, spans_path=spans)
        self.assertEqual(first["failed"], 0)
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        self.assertEqual(declared, run.per_layer_units())
        self.assertEqual(set(first["metrics"]), set(declared))
        for name, value in first["metrics"].items():
            if name.endswith((".calls", ".bytes", ".self_ms")):
                self.assertGreater(value, 0, name)
            if name.endswith((".calls", ".bytes")):
                self.assertEqual(value, second["metrics"][name], f"{name} does not repeat")
        # chi(t) is built twice per analysis at this commit.
        self.assertEqual(first["metrics"]["catalog-sweep.stp.chi_series.calls"], 2.0)
        self.assertEqual(first["metrics"]["survey.interference.random_slit_model.calls"], 2.0 * TINY_DRAWS)
        with open(spans, encoding="utf-8") as fh:
            dumped = json.load(fh)
        self.assertEqual(dumped["fields"], ["name", "start", "end", "parent", "op", "nbytes"])
        self.assertTrue(dumped["spans"])

    def test_self_times_account_for_each_op(self):
        from tracing import Tracer

        tracer = Tracer()
        workload = workloads.CatalogSweep(samples=TINY_SAMPLES, random_per_pass=2)
        ops = next(workload.passes(5))
        walls = {}
        with tracer.installed():
            for op_id, op in enumerate(ops, 1):
                ok, walls[op_id], _ = run.run_op(op, lambda: 0.0, tracer, op_id)
                self.assertTrue(ok)
        self_by_op = tracer.self_s_by_op()
        stats = tracer.layer_stats()
        for op_id, wall in walls.items():
            self.assertGreaterEqual(wall, self_by_op[op_id])
            self.assertLess(wall - self_by_op[op_id], 0.01 * wall)
        self.assertEqual(stats["report.reproduce_all"].calls, 1)
        # Patches are gone after the context exits.
        self.assertFalse(hasattr(qpdsim.report.evolve, "__wrapped__"))
        self.assertFalse(hasattr(qpdsim.analyze_case, "__wrapped__"))

    def test_corrupted_outputs_are_counted_as_failed(self):
        real_analyze = qpdsim.analyze_case
        real_survey = qpdsim.run_interference_survey

        def bad_bound(*args, **kwargs):
            analysis = real_analyze(*args, **kwargs)
            return dataclasses.replace(analysis, delta_bound=np.full_like(analysis.delta_bound, -1.0))

        with Patched(qpdsim, "analyze_case", bad_bound):
            result = run.measure(workloads.CatalogSweep(samples=TINY_SAMPLES, random_per_pass=2), seed=3, seconds=0)
        self.assertEqual(result["failed"], 2)

        survey = workloads.Survey(draws=TINY_DRAWS)
        with Patched(qpdsim, "run_interference_survey", lambda n, s: {**real_survey(n, s), "max_abs_i3": 1e-3}):
            self.assertEqual(run.measure(survey, seed=3, seconds=0)["failed"], 1)

        def boom(n, s):
            if n == TINY_DRAWS:  # the warm-up call uses fewer draws
                raise RuntimeError("deliberate")
            return real_survey(n, s)

        with Patched(qpdsim, "run_interference_survey", boom):
            self.assertEqual(run.measure(survey, seed=3, seconds=0)["failed"], 1)

        cli = workloads.CliLong(run.ROOT, self.work_dir, samples=TINY_SAMPLES)
        real_child = cli._in_child

        def drop_last_row(case):
            out_dir = real_child(case)
            path = os.path.join(out_dir, sorted(f for f in os.listdir(out_dir) if f.startswith("trajectory"))[0])
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:-1])
            return out_dir

        cli._in_child = drop_last_row
        self.assertEqual(run.measure(cli, seed=3, seconds=0)["failed"], 1)
        self.assertEqual(os.listdir(self.work_dir), [])

    def test_cli_check_rejects_changed_shared_column(self):
        out_dir = workloads.CliLong(run.ROOT, self.work_dir, samples=TINY_SAMPLES)._in_process("3*")
        path = os.path.join(out_dir, "trajectory_case_3star_c.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        fields = lines[5].split(",")
        fields[4] = repr(float(fields[4]) + 1e-6)  # delta of one sample
        lines[5] = ",".join(fields)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        with self.assertRaisesRegex(workloads.CheckError, "differ from branch u"):
            workloads.check_cli_output(out_dir, "3*", TINY_SAMPLES)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(self.work_dir, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
