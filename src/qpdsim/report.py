"""Scenario orchestration, table reproduction, and CSV emission.

One CaseAnalysis bundles everything derived from a scenario: the three
branch trajectories, choice probabilities, the mixture correction series,
per-branch information measures, their time averages, and the verdict.
Reference tables shipped as package data anchor the regression sweep.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping

import numpy as np

from .dynamics import (
    DEFAULT_SAMPLES,
    DEFAULT_T_MAX,
    HamiltonianParams,
    Trajectory,
    build_hamiltonian,
    evolve,
    time_grid,
)
from .measures import (
    MEASURE_FIELDS,
    MeasureRecord,
    MeasureSeries,
    average_measures,
    l1_coherence,
    measure_series,
    von_neumann_entropy,
)
from .states import (
    BRANCHES,
    CATALOG_LABELS,
    ScenarioSpec,
    catalog_case,
    chi_initial,
    initial_mental_state,
    qubit_state,
)
from .stp import StpVerdict, choice_probability, stp_delta, stp_delta_bound, stp_verdict

# Regression tolerances. Time-averaged table cells must land within
# TABLE_TOL of the 2-decimal reference; cells between TABLE_TOL and
# TABLE_TOL_LOOSE pass with a logged note (the published averaging
# convention is unstated). Structurally exact cells and exact-zero cells
# get their own, much tighter limits.
TABLE1_TOL = 0.005
TABLE_TOL = 0.02
TABLE_TOL_LOOSE = 0.05
EXACT_CELL_TOL = 0.005
ZERO_CELL_TOL = 1e-6

TABLE2_COLUMNS = ("S_B", "S_A", "S_AB", "I_AB")
TABLE3_COLUMNS = ("Cl1_B", "Cl1_A", "Cl1_AB", "CRE_AB", "EF_AB")
TABLE1_COLUMNS = ("Cl1_B", "S_B", "Cl1_A", "S_A")

# Cells pinned by unitary invariance or marginal structure rather than by
# quadrature: the uncertain maximally-mixed case and the certain-prediction
# branches whose action marginal stays maximally mixed.
EXACT_TABLE2_CELLS = frozenset(
    {("1", "u", "S_AB"), ("1", "u", "I_AB")}
    | {(case, alpha, col) for case in ("3", "3*") for alpha in ("d", "c") for col in ("S_A", "S_AB")}
)

# Action-coherence and entanglement cells of cases 1, 3, 3* whose reference
# prints 0 are exact zeros of the dynamics (the branches concerned keep a
# maximally mixed action marginal / stay separable), so they are held to
# ZERO_CELL_TOL instead of the quadrature tier.
ZERO_TABLE3_CASES = ("1", "3", "3*")
ZERO_TABLE3_COLUMNS = ("Cl1_A", "EF_AB")

TRAJECTORY_COLUMNS = (
    "t", "p_u", "p_d", "p_c", "delta", "Delta",
    "S_A", "S_B", "S_AB", "I_AB", "Cl1_A", "Cl1_B", "Cl1_AB", "CRE_AB", "EF_AB",
)

_SIG_FMT = "%.12g"

# Valid ranges for emitted columns. Values within _RANGE_CLIP_TOL of a bound
# are rounding residue and get clipped onto it; anything beyond is an
# invariant failure and aborts the run.
_RANGE_CLIP_TOL = 1e-9
_COLUMN_RANGES: dict[str, tuple[float, float]] = {
    "p_u": (0.0, 1.0),
    "p_d": (0.0, 1.0),
    "p_c": (0.0, 1.0),
    "delta": (-1.0, 1.0),
    "Delta": (0.0, 4.0),
    "S_A": (0.0, 2.0),
    "S_B": (0.0, 2.0),
    "S_AB": (0.0, 2.0),
    "I_AB": (0.0, 2.0),
    "Cl1_A": (0.0, np.inf),
    "Cl1_B": (0.0, np.inf),
    "Cl1_AB": (0.0, np.inf),
    "CRE_AB": (0.0, 2.0),
    "EF_AB": (0.0, 1.0),
}


def _checked_column(name: str, values) -> np.ndarray:
    """One output column clipped onto its valid range, with -0.0 as 0.0.

    A value beyond the range by more than _RANGE_CLIP_TOL raises ValueError
    naming the column and the first such 0-based data row.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = _COLUMN_RANGES.get(name, (-np.inf, np.inf))
    bad = np.flatnonzero((values < lo - _RANGE_CLIP_TOL) | (values > hi + _RANGE_CLIP_TOL))
    if bad.size:
        row = bad[0]
        value = float(values[row])
        side = f"below {lo}" if value < lo else f"above {hi}"
        raise ValueError(f"column {name}, row {row}: value {value!r} {side}")
    return np.clip(values, lo, hi) + 0.0


@dataclass(frozen=True)
class CaseAnalysis:
    spec: ScenarioSpec
    hamiltonian: HamiltonianParams
    times: np.ndarray
    trajectories: Mapping[str, Trajectory]
    probabilities: Mapping[str, np.ndarray]
    delta: np.ndarray
    delta_bound: np.ndarray
    series: Mapping[str, MeasureSeries]
    means: Mapping[str, MeasureRecord]
    verdict: StpVerdict


def analyze_case(
    scenario: ScenarioSpec | str,
    params: HamiltonianParams = HamiltonianParams(),
    t_max: float = DEFAULT_T_MAX,
    samples: int = DEFAULT_SAMPLES,
) -> CaseAnalysis:
    """Run one scenario end to end on the default or a custom grid.

    chi(t) is chi(0) carried along by the dynamics, so it is exactly zero
    when the uncertain prediction has no coherence.
    """
    spec = catalog_case(scenario) if isinstance(scenario, str) else scenario
    h = build_hamiltonian(params)
    times = time_grid(t_max, samples)
    trajectories = {alpha: evolve(initial_mental_state(spec, alpha), h, times) for alpha in BRANCHES}
    chi = evolve(chi_initial(spec), h, times).states
    delta = stp_delta(chi)
    series = {alpha: measure_series(trajectories[alpha].states) for alpha in BRANCHES}
    return CaseAnalysis(
        spec=spec,
        hamiltonian=params,
        times=times,
        trajectories=trajectories,
        probabilities={alpha: choice_probability(trajectories[alpha].states) for alpha in BRANCHES},
        delta=delta,
        delta_bound=stp_delta_bound(chi),
        series=series,
        means={alpha: average_measures(series[alpha], times) for alpha in BRANCHES},
        verdict=stp_verdict(times, delta),
    )


def scenario_table1_rows(spec: ScenarioSpec) -> list[dict]:
    """Initial-state coherence and entropy for one scenario's branches."""
    rows = []
    for alpha in BRANCHES:
        branch = spec.branches[alpha]
        rho_b = qubit_state(branch.prediction)
        rho_a = qubit_state(branch.action)
        rows.append(
            {
                "case": spec.case_label,
                "alpha": alpha,
                "Cl1_B": l1_coherence(rho_b),
                "S_B": von_neumann_entropy(rho_b),
                "Cl1_A": l1_coherence(rho_a),
                "S_A": von_neumann_entropy(rho_a),
            }
        )
    return rows


def table1_rows(labels: Iterable[str] = CATALOG_LABELS) -> list[dict]:
    """Initial-state coherence and entropy per catalog case and branch."""
    rows = []
    for label in labels:
        rows.extend(scenario_table1_rows(catalog_case(label)))
    return rows


def table2_rows(analyses: Mapping[str, CaseAnalysis]) -> list[dict]:
    """Time-averaged entropies and mutual information per case and branch."""
    rows = []
    for label, analysis in analyses.items():
        for alpha in BRANCHES:
            mean = analysis.means[alpha]
            rows.append(
                {
                    "case": label,
                    "alpha": alpha,
                    "violated": int(analysis.verdict.violated),
                    "S_B": mean.S_B,
                    "S_A": mean.S_A,
                    "S_AB": mean.S_AB,
                    "I_AB": mean.I_AB,
                }
            )
    return rows


def table3_rows(analyses: Mapping[str, CaseAnalysis]) -> list[dict]:
    """Time-averaged coherence and entanglement per case and branch."""
    rows = []
    for label, analysis in analyses.items():
        for alpha in BRANCHES:
            mean = analysis.means[alpha]
            rows.append(
                {
                    "case": label,
                    "alpha": alpha,
                    "Cl1_B": mean.Cl1_B,
                    "Cl1_A": mean.Cl1_A,
                    "Cl1_AB": mean.Cl1_AB,
                    "CRE_AB": mean.CRE_AB,
                    "EF_AB": mean.EF_AB,
                }
            )
    return rows


def analyze_catalog(
    params: HamiltonianParams = HamiltonianParams(),
    t_max: float = DEFAULT_T_MAX,
    samples: int = DEFAULT_SAMPLES,
) -> dict[str, CaseAnalysis]:
    return {label: analyze_case(label, params, t_max, samples) for label in CATALOG_LABELS}


def load_reference_table(name: str) -> list[dict]:
    """Read one of the packaged reference tables (comment lines skipped)."""
    text = resources.files("qpdsim.data").joinpath(f"{name}_reference.csv").read_text()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = []
    for raw in csv.DictReader(lines):
        row: dict = {"case": raw["case"], "alpha": raw["alpha"]}
        for key, val in raw.items():
            if key in ("case", "alpha"):
                continue
            row[key] = int(val) if key == "violated" else float(val)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class CellCheck:
    table: str
    case: str
    alpha: str
    column: str
    value: float
    reference: float
    deviation: float
    limit: float
    status: str  # "pass", "note" (loose-tier pass), or "fail"


def _check_cell(table, case, alpha, column, value, reference) -> CellCheck:
    dev = abs(value - reference)
    if table == "table1":
        limit = TABLE1_TOL
        status = "pass" if dev <= limit else "fail"
    elif table == "table2" and (case, alpha, column) in EXACT_TABLE2_CELLS:
        limit = EXACT_CELL_TOL
        status = "pass" if dev <= limit else "fail"
    elif (
        table == "table3"
        and case in ZERO_TABLE3_CASES
        and column in ZERO_TABLE3_COLUMNS
        and reference == 0.0
    ):
        limit = ZERO_CELL_TOL
        status = "pass" if abs(value) < limit else "fail"
        dev = abs(value)
    else:
        limit = TABLE_TOL
        if dev <= TABLE_TOL:
            status = "pass"
        elif dev <= TABLE_TOL_LOOSE:
            status = "note"
        else:
            status = "fail"
    return CellCheck(table, case, alpha, column, value, reference, dev, limit, status)


def check_table(table: str, computed_rows: list[dict], columns: tuple[str, ...]) -> list[CellCheck]:
    """Compare computed rows against the packaged reference, cell by cell."""
    reference = {(r["case"], r["alpha"]): r for r in load_reference_table(table)}
    checks = []
    for row in computed_rows:
        ref = reference[(row["case"], row["alpha"])]
        for column in columns:
            checks.append(
                _check_cell(table, row["case"], row["alpha"], column, float(row[column]), ref[column])
            )
    return checks


def check_verdicts(analyses: Mapping[str, CaseAnalysis]) -> dict[str, bool]:
    """Per case: does the computed verdict match the reference column."""
    reference = {r["case"]: bool(r["violated"]) for r in load_reference_table("table2")}
    return {label: analyses[label].verdict.violated == reference[label] for label in analyses}


@dataclass(frozen=True)
class ReproduceReport:
    checks: list[CellCheck]
    verdicts_ok: Mapping[str, bool]
    lines: list[str]
    notes: list[str]
    passed: bool


def reproduce_all(
    params: HamiltonianParams = HamiltonianParams(),
    t_max: float = DEFAULT_T_MAX,
    samples: int = DEFAULT_SAMPLES,
) -> ReproduceReport:
    """Regression sweep over the whole catalog against the reference tables."""
    analyses = analyze_catalog(params, t_max, samples)
    checks = check_table("table1", table1_rows(), TABLE1_COLUMNS)
    checks += check_table("table2", table2_rows(analyses), TABLE2_COLUMNS)
    checks += check_table("table3", table3_rows(analyses), TABLE3_COLUMNS)
    verdicts_ok = check_verdicts(analyses)

    lines = []
    notes = []
    for c in checks:
        lines.append(
            f"{c.table} case={c.case} alpha={c.alpha} {c.column}: "
            f"value={c.value:.6f} ref={c.reference:g} dev={c.deviation:.2e} "
            f"limit={c.limit:g} [{c.status.upper()}]"
        )
        if c.status == "note":
            notes.append(
                f"{c.table} case={c.case} alpha={c.alpha} {c.column}: deviation "
                f"{c.deviation:.3f} beyond {TABLE_TOL} but within {TABLE_TOL_LOOSE} "
                "(averaging-convention slack)"
            )
    for label, ok in verdicts_ok.items():
        lines.append(f"stp case={label}: verdict match [{'PASS' if ok else 'FAIL'}]")
    n_fail = sum(1 for c in checks if c.status == "fail") + sum(1 for ok in verdicts_ok.values() if not ok)
    passed = n_fail == 0
    lines += [f"note: {note}" for note in notes]
    lines.append(
        f"RESULT: {'PASS' if passed else 'FAIL'} "
        f"({len(checks)} cells, {len(notes)} loose-tier notes, {n_fail} failures)"
    )
    return ReproduceReport(checks, verdicts_ok, lines, notes, passed)


# ---------------------------------------------------------------------------
# CSV emission


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    The temp file gets a fresh name and is created exclusively, so concurrent
    writers into one directory never share it; it is removed if the write or
    the rename fails. The final file has the usual umask-derived mode.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def render_table_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    """Full-precision value columns followed by 2-decimal display columns."""
    # Python floats, so that round() below rounds the decimal value exactly
    checked = [_checked_column(c, [row[c] for row in rows]).tolist() for c in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["case", "alpha"]
    if rows and "violated" in rows[0]:
        header.append("violated")
    header += list(columns) + [f"{c}_rounded" for c in columns]
    writer.writerow(header)
    for row, values in zip(rows, zip(*checked)):
        out = [row["case"], row["alpha"]]
        if "violated" in row:
            out.append(str(row["violated"]))
        out += [_SIG_FMT % v for v in values]
        out += [f"{round(v, 2):.2f}" for v in values]
        writer.writerow(out)
    return buf.getvalue()


def render_trajectory_csv(analysis: CaseAnalysis, branch: str) -> str:
    """Fixed-order per-sample series for one branch at 12 significant digits.

    Probability and deviation columns are scenario-level (identical across
    the three branch files); the measure columns belong to the branch.
    """
    series = analysis.series[branch]
    column_data = {
        "t": analysis.times,
        "p_u": analysis.probabilities["u"],
        "p_d": analysis.probabilities["d"],
        "p_c": analysis.probabilities["c"],
        "delta": analysis.delta,
        "Delta": analysis.delta_bound,
    }
    for name in MEASURE_FIELDS:
        column_data[name] = getattr(series, name)
    m = np.column_stack([_checked_column(name, column_data[name]) for name in TRAJECTORY_COLUMNS])
    buf = io.StringIO()
    np.savetxt(buf, m, fmt=_SIG_FMT, delimiter=",", header=",".join(TRAJECTORY_COLUMNS), comments="")
    return buf.getvalue()


def case_file_tag(label: str) -> str:
    """Filesystem-safe case tag: the starred variants map * to 'star'."""
    return label.replace("*", "star")
