"""The benchmark's three workloads: seeded inputs, ops and output checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned. A pass is the unit of work the loops
repeat; it is a fixed mix of ops, so per-op counts repeat exactly whatever the
number of passes. ``per_layer=True`` asks for the passes of the traced run. Checks run after an op returns, outside its timed call.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import qpdsim
import qpdsim.cli
from qpdsim import linalg

CATALOG_SAMPLES = 4097
RANDOM_PER_PASS = 8  # half of them with a coherence-free prediction
CLI_SAMPLES = 16385  # ~3 s per op, so a run holds about ten ops and its median means something
PER_LAYER_CASE = "3*"  # the case ROADMAP.md quotes its timings for
CHILD_TIMEOUT_S = 120  # a hung child fails its op instead of the whole run
SURVEY_DRAWS = 1000

# Pinned output formats of the CLI (case, alpha, values, rounded values).
_TABLE_VALUES = {
    "table1": ("Cl1_B", "S_B", "Cl1_A", "S_A"),
    "table2": ("S_B", "S_A", "S_AB", "I_AB"),
    "table3": ("Cl1_B", "Cl1_A", "Cl1_AB", "CRE_AB", "EF_AB"),
}
TABLE_HEADERS = {
    name: ("case", "alpha") + (("violated",) if name == "table2" else ()) + cols + tuple(f"{c}_rounded" for c in cols)
    for name, cols in _TABLE_VALUES.items()
}
TRAJECTORY_HEADER = (
    "t", "p_u", "p_d", "p_c", "delta", "Delta",
    "S_A", "S_B", "S_AB", "I_AB", "Cl1_A", "Cl1_B", "Cl1_AB", "CRE_AB", "EF_AB",
)
SHARED_TRAJECTORY_COLUMNS = 6  # t, p_*, delta, Delta repeat across branch files

# Acceptance criterion 7 of the survey.
I3_LIMIT = 1e-10
I2_VISIBLE_MIN_FRACTION = 0.10
DIAGONAL_I2_LIMIT = 1e-10


class CheckError(Exception):
    """An op's output failed its check."""


@dataclass
class Op:
    """One timed call that counts as ``weight`` ops, and its output check."""

    label: str
    weight: int
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# catalog-sweep


# The same distributions as tests/support.py, kept here so that a change to the
# test helpers cannot change the benchmark's inputs.
def _random_subsystem(rng: np.random.Generator, coherent: bool) -> qpdsim.SubsystemParams:
    p = rng.uniform(0.0, 1.0)
    if not coherent:
        return qpdsim.SubsystemParams(p)
    magnitude = np.sqrt(p * (1.0 - p)) * rng.uniform(0.0, 0.999)  # inside the positivity disk
    return qpdsim.SubsystemParams(p, magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def random_scenario(rng: np.random.Generator, coherent_prediction: bool):
    spec = qpdsim.ScenarioSpec.uncorrelated(
        "random", _random_subsystem(rng, coherent_prediction), _random_subsystem(rng, True)
    )
    params = qpdsim.HamiltonianParams(
        mu_d=rng.uniform(-2.0, 2.0), mu_c=rng.uniform(-2.0, 2.0), gamma=rng.uniform(-3.0, 3.0)
    )
    return spec, params


def check_reproduce(report) -> None:
    _require(report.passed, "reproduce_all: " + report.lines[-1])


def check_scenario(analysis, coherent_prediction: bool) -> None:
    states = np.stack([analysis.trajectories[a].states for a in qpdsim.BRANCHES])
    trace_dev = float(np.max(np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)))
    _require(trace_dev <= linalg.TRACE_TOL, f"trace deviation {trace_dev:.3e} > {linalg.TRACE_TOL:g}")
    herm_dev = float(np.max(np.abs(states - states.conj().swapaxes(-1, -2))))
    _require(herm_dev <= linalg.HERM_TOL, f"Hermiticity residual {herm_dev:.3e} > {linalg.HERM_TOL:g}")
    below = np.flatnonzero(analysis.delta_bound < np.abs(analysis.delta))
    _require(below.size == 0, f"Delta < |delta| at sample {below[0] if below.size else -1}")
    _require(
        coherent_prediction or not analysis.verdict.violated,
        f"coherence-free prediction violated the principle (max |delta| {analysis.verdict.max_abs_delta:.3e})",
    )


class CatalogSweep:
    """reproduce_all() (7 ops), then RANDOM_PER_PASS random analyze_case ops."""

    name = "catalog-sweep"
    in_child = False

    def __init__(self, samples: int = CATALOG_SAMPLES, random_per_pass: int = RANDOM_PER_PASS):
        self.samples = samples
        self.random_per_pass = random_per_pass

    def warm_up(self) -> None:
        qpdsim.analyze_case("1", samples=self.samples)

    def passes(self, seed: int, per_layer: bool = False) -> Iterator[list[Op]]:
        rng = np.random.default_rng(seed)
        n_cases = len(qpdsim.CATALOG_LABELS)
        while True:
            ops = [
                Op(
                    "reproduce_all",
                    n_cases,
                    lambda: qpdsim.reproduce_all(samples=self.samples),
                    check_reproduce,
                )
            ]
            for k in range(self.random_per_pass):
                coherent = k % 2 == 0
                spec, params = random_scenario(rng, coherent)
                ops.append(
                    Op(
                        "analyze_case",
                        1,
                        lambda spec=spec, params=params: qpdsim.analyze_case(spec, params, samples=self.samples),
                        lambda out, coherent=coherent: check_scenario(out, coherent),
                    )
                )
            yield ops


# ---------------------------------------------------------------------------
# cli-long


def qpdsim_env(root: str) -> dict:
    """Environment for a child interpreter that imports qpdsim from root/src."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read_csv(path: str) -> tuple[list[str], list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    _require(lines[-1] == "", f"{os.path.basename(path)}: no final newline")
    return lines[0].split(","), lines[1:-1]


def check_cli_output(out_dir: str, case: str, samples: int) -> None:
    """File set, header order, row counts, shared columns, reference cells."""
    tag = case.replace("*", "star")
    trajectories = [f"trajectory_case_{tag}_{a}.csv" for a in qpdsim.BRANCHES]
    expected = {f"{t}.csv" for t in TABLE_HEADERS} | set(trajectories)
    found = set(os.listdir(out_dir))
    _require(found == expected, f"file set {sorted(found)} != {sorted(expected)}")

    verdicts = {r["case"]: r["violated"] for r in qpdsim.load_reference_table("table2")}
    for table, header in TABLE_HEADERS.items():
        got, lines = _read_csv(os.path.join(out_dir, f"{table}.csv"))
        _require(tuple(got) == header, f"{table}.csv header {got}")
        rows = [dict(zip(header, line.split(","))) for line in lines]
        _require([(r["case"], r["alpha"]) for r in rows] == [(case, a) for a in qpdsim.BRANCHES], f"{table}.csv rows")
        if table == "table2":
            _require(all(int(r["violated"]) == verdicts[case] for r in rows), "table2.csv verdict flag")
        failed = [
            c
            for c in qpdsim.report.check_table(table, rows, _TABLE_VALUES[table])
            if c.status == "fail"
        ]
        _require(not failed, f"{table}.csv cells beyond reference tolerance: {failed[:3]}")

    shared = None
    for name in trajectories:
        got, lines = _read_csv(os.path.join(out_dir, name))
        _require(tuple(got) == TRAJECTORY_HEADER, f"{name} header {got}")
        _require(len(lines) == samples, f"{name}: {len(lines)} rows, expected {samples}")
        values = np.loadtxt(lines, delimiter=",", ndmin=2)
        _require(values.shape == (samples, len(TRAJECTORY_HEADER)), f"{name}: shape {values.shape}")
        _require(bool(np.all(np.isfinite(values))), f"{name}: non-finite value")
        if shared is None:
            shared = values[:, :SHARED_TRAJECTORY_COLUMNS]
        else:
            _require(
                np.array_equal(values[:, :SHARED_TRAJECTORY_COLUMNS], shared),
                f"{name}: p_*/delta/Delta columns differ from branch u",
            )


class CliLong:
    """One ``python -m qpdsim`` run per op at CLI_SAMPLES, cases in seeded order."""

    name = "cli-long"
    in_child = True

    def __init__(self, root: str, work_dir: str, samples: int = CLI_SAMPLES):
        self.root = root
        self.work_dir = work_dir
        self.samples = samples
        self._runs = 0

    def warm_up(self) -> None:
        pass  # every op pays interpreter start and import, as users do

    def _argv(self, case: str, out_dir: str) -> list[str]:
        return [
            "--case", case, "--samples", str(self.samples),
            "--outputs", "table1,table2,table3,trajectory", "--out-dir", out_dir,
        ]

    def _fresh_dir(self) -> str:
        self._runs += 1
        return os.path.join(self.work_dir, f"cli-{os.getpid()}-{self._runs}")

    def _in_child(self, case: str) -> str:
        out_dir = self._fresh_dir()
        proc = subprocess.run(
            [sys.executable, "-m", "qpdsim", *self._argv(case, out_dir)],
            env=qpdsim_env(self.root),
            cwd=self.root,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"qpdsim exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return out_dir

    def _in_process(self, case: str) -> str:
        out_dir = self._fresh_dir()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = qpdsim.cli.main(self._argv(case, out_dir))
        if rc != 0:
            raise RuntimeError(f"qpdsim.cli.main returned {rc}")
        return out_dir

    def _check(self, out_dir: str, case: str) -> None:
        try:
            check_cli_output(out_dir, case, self.samples)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def passes(self, seed: int, per_layer: bool = False) -> Iterator[list[Op]]:
        """Cases in seeded order; the per-layer run calls qpdsim.cli.main in
        this process on PER_LAYER_CASE only, so its counts repeat exactly."""
        rng = np.random.default_rng(seed)
        run = self._in_process if per_layer else self._in_child
        while True:
            cases = [PER_LAYER_CASE] if per_layer else [str(c) for c in rng.permutation(qpdsim.CATALOG_LABELS)]
            for case in cases:
                yield [Op(f"cli --case {case}", 1, lambda case=case: run(case), lambda out, case=case: self._check(out, case))]


# ---------------------------------------------------------------------------
# survey


def check_survey(result: dict, draws: int) -> None:
    _require(result["n_draws"] == draws, f"n_draws {result['n_draws']} != {draws}")
    _require(result["max_abs_i3"] < I3_LIMIT, f"max |I3| {result['max_abs_i3']:.3e} >= {I3_LIMIT:g}")
    frac = result["frac_i2_above_0.01"]
    _require(frac >= I2_VISIBLE_MIN_FRACTION, f"I2 fraction {frac} < {I2_VISIBLE_MIN_FRACTION}")
    diag = result["diagonal_max_abs_i2"]
    _require(diag < DIAGONAL_I2_LIMIT, f"diagonal max |I2| {diag:.3e} >= {DIAGONAL_I2_LIMIT:g}")


class Survey:
    """One run_interference_survey(SURVEY_DRAWS, seed_i) per op."""

    name = "survey"
    in_child = False

    def __init__(self, draws: int = SURVEY_DRAWS):
        self.draws = draws

    def warm_up(self) -> None:
        qpdsim.run_interference_survey(10, 0)

    def passes(self, seed: int, per_layer: bool = False) -> Iterator[list[Op]]:
        rng = np.random.default_rng(seed)
        while True:
            seed_i = int(rng.integers(2**31))
            yield [
                Op(
                    f"survey seed={seed_i}",
                    1,
                    lambda seed_i=seed_i: qpdsim.run_interference_survey(self.draws, seed_i),
                    lambda out: check_survey(out, self.draws),
                )
            ]
