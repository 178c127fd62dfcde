"""Scenario orchestration, table reproduction, and CSV emission.

One CaseAnalysis bundles the series derived from a scenario: choice
probabilities, the mixture correction series, per-branch information
measures, their time averages, and the verdict. It keeps no state stack: its
``trajectories`` evolve a branch's states again on each access. Reference
tables shipped as package data anchor the regression sweep.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dynamics import (
    DEFAULT_SAMPLES,
    DEFAULT_T_MAX,
    HamiltonianParams,
    Trajectory,
    build_hamiltonian,
    evolve,
    orbit,
    time_grid,
)
from .errors import InputError, InvariantError, _check_choice, _first_bad
from .linalg import SpectralPropagator
from .measures import (
    MeasureRecord,
    average_measures,
    measure_series,
)
from .states import (
    BRANCHES,
    CATALOG_LABELS,
    ScenarioSpec,
    catalog_case,
    chi_initial,
    initial_mental_state,
    initial_rank,
)
from .stp import StpVerdict, _defection_weight, stp_leak, stp_verdict

# Regression tolerances. Time-averaged table cells must land within
# TABLE_TOL of the 2-decimal reference; cells between TABLE_TOL and
# TABLE_TOL_LOOSE pass with a logged note (the published averaging
# convention is unstated). Exact cells (all of table1, some of table2) and
# exact-zero cells get their own, much tighter limits.
TABLE_TOL = 0.02
TABLE_TOL_LOOSE = 0.05
EXACT_CELL_TOL = 0.005
ZERO_CELL_TOL = 1e-6

# The value columns of each output table, in file order.
TABLE_COLUMNS = {
    "table1": ("Cl1_B", "S_B", "Cl1_A", "S_A"),
    "table2": ("S_B", "S_A", "S_AB", "I_AB"),
    "table3": ("Cl1_B", "Cl1_A", "Cl1_AB", "CRE_AB", "EF_AB"),
}

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

_SIG_FMT = "%.12g"
_RENDER_BLOCK_ROWS = 1024
_WRITE_CHUNK_CHARS = 1 << 16

# Every emitted value column and its valid range, in trajectory file order: the
# scenario's columns, then the branch's measures. Values within _RANGE_CLIP_TOL
# of a bound are rounding residue and get clipped onto it; anything beyond is
# an invariant failure and aborts the run.
_RANGE_CLIP_TOL = 1e-9
_COLUMN_RANGES: dict[str, tuple[float, float]] = {
    **{f"p_{alpha}": (0.0, 1.0) for alpha in BRANCHES},
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
TRAJECTORY_COLUMNS = ("t", *_COLUMN_RANGES)

# Slack of the coherence budget |delta| <= |lam_B|, Delta <= 2|lam_B|, which every H and t keep.
_BUDGET_TOL = 1e-12


def _checked_column(name: str, values) -> np.ndarray:
    """One output column clipped onto its valid range, with -0.0 as 0.0; ``values`` itself when it needs neither.

    A NaN, an infinity, or a value beyond the range by more than
    _RANGE_CLIP_TOL raises InvariantError naming the column and the first such
    0-based data row.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = _COLUMN_RANGES.get(name, (-np.inf, np.inf))
    ok = np.isfinite(values) & (values >= lo - _RANGE_CLIP_TOL) & (values <= hi + _RANGE_CLIP_TOL)
    bad = _first_bad(~ok)
    if bad is not None:
        value = float(values[bad])
        side = f"below {lo}" if value < lo else f"above {hi}" if value > hi else "is not finite"
        raise InvariantError(f"column {name}, row {bad[0]}: value {value!r} {side}")
    if values.size and (values.min() < lo or values.max() > hi or np.signbit(values[values == 0]).any()):
        return np.clip(values, lo, hi) + 0.0
    return values  # nothing to clip or to turn into 0.0: no copy


class _BranchTrajectories(Mapping):
    """The branch orbits of one analysis, keyed by BRANCHES; each lookup evolves its branch anew and keeps nothing."""

    def __init__(self, analysis: CaseAnalysis):
        self._analysis = analysis

    def __getitem__(self, alpha: str) -> Trajectory:
        if alpha not in BRANCHES:  # KeyError, which Mapping.get() expects, not initial_mental_state's InputError
            return {}[alpha]
        a = self._analysis
        return evolve(initial_mental_state(a.spec, alpha), build_hamiltonian(a.hamiltonian), a.times)

    def __iter__(self) -> Iterator[str]:
        return iter(BRANCHES)

    def __len__(self) -> int:
        return len(BRANCHES)

    def __contains__(self, alpha) -> bool:
        return alpha in BRANCHES


@dataclass(frozen=True)
class CaseAnalysis:
    spec: ScenarioSpec
    hamiltonian: HamiltonianParams
    times: np.ndarray
    probabilities: Mapping[str, np.ndarray]
    delta: np.ndarray
    delta_bound: np.ndarray
    series: Mapping[str, MeasureRecord]
    means: Mapping[str, MeasureRecord]
    verdict: StpVerdict

    @property
    def trajectories(self) -> Mapping[str, Trajectory]:
        """Each branch's orbit, evolved on each access: ``trajectories["u"].states`` is a fresh (N, 4, 4) stack."""
        return _BranchTrajectories(self)


def analyze_case(
    scenario: ScenarioSpec | str,
    params: HamiltonianParams = HamiltonianParams(),
    t_max: float = DEFAULT_T_MAX,
    samples: int = DEFAULT_SAMPLES,
) -> CaseAnalysis:
    """Run one scenario end to end on the default or a custom grid.

    H is diagonalized once for all three branches, and each branch state once,
    at t=0: unitary evolution keeps its spectrum, so the entries its measures read
    (the diagonal and upper triangle) and the spin-flip matrix n of its support (of the
    qubit factors' rank, by concurrence's rank rule) are Bohr sums over H's eigenbasis. No state
    stack is formed. chi(t)'s diagonal is one too, formed from chi(0), so it is
    exactly zero when the uncertain prediction has no coherence. A sample of delta or
    Delta beyond the coherence budget raises InvariantError naming it and the bound.
    """
    spec = catalog_case(scenario) if isinstance(scenario, str) else scenario
    times = time_grid(t_max, samples)
    propagator = SpectralPropagator(build_hamiltonian(params), times)
    delta, delta_bound = stp_leak(propagator._entries(chi_initial(spec), *np.diag_indices(4)))
    lam_b = abs(spec.prediction.lam)
    budget = (("|delta|", np.abs(delta), "|lam_B|", lam_b), ("Delta", delta_bound, "2|lam_B|", 2.0 * lam_b))
    for name, values, bound, limit in budget:
        bad = _first_bad(~(values <= limit + _BUDGET_TOL))
        if bad is not None:
            broken = f"{name} = {values[bad]:.12g} exceeds {bound} = {limit:.12g}"
            raise InvariantError(f"coherence budget broken at sample {bad[0]}: {broken}")
    probabilities, series = {}, {}
    for alpha in BRANCHES:
        branch = orbit(initial_mental_state(spec, alpha), propagator, initial_rank(spec, alpha))
        probabilities[alpha] = _defection_weight(branch.entries[..., :4])
        series[alpha] = measure_series(branch)
        del branch  # its entries (N, 10) and n (N, rank, rank) go before the next branch's are built
    return CaseAnalysis(
        spec=spec,
        hamiltonian=params,
        times=times,
        probabilities=probabilities,
        delta=delta,
        delta_bound=delta_bound,
        series=series,
        means={alpha: average_measures(series[alpha], times) for alpha in BRANCHES},
        verdict=stp_verdict(times, delta),
    )


def table_rows(table: str, source: CaseAnalysis | ScenarioSpec) -> list[dict]:
    """One row of ``table`` per branch: case, alpha, table2's verdict flag, then its columns as the files print them.

    ``source`` is a CaseAnalysis, whose time averages tables 2 and 3 read; table1 measures
    each branch's t=0 state, so it takes the bare ScenarioSpec too.
    """
    _check_choice("table", table, TABLE_COLUMNS)
    analysis, spec = (source, source.spec) if isinstance(source, CaseAnalysis) else (None, source)
    if not isinstance(spec, ScenarioSpec):
        raise InputError(f"source must be a CaseAnalysis or a ScenarioSpec, got {type(source).__name__}")
    if table != "table1" and analysis is None:
        raise InputError(f"{table} reads time averages: pass the CaseAnalysis of the scenario")
    records = (
        {a: measure_series(initial_mental_state(spec, a)) for a in BRANCHES} if table == "table1" else analysis.means
    )
    columns = [_checked_column(c, [getattr(records[a], c) for a in BRANCHES]).tolist() for c in TABLE_COLUMNS[table]]
    flag = {"violated": int(analysis.verdict.violated)} if table == "table2" else {}
    return [
        {"case": spec.case_label, "alpha": alpha, **flag, **dict(zip(TABLE_COLUMNS[table], values))}
        for alpha, values in zip(BRANCHES, zip(*columns))
    ]


def analyze_catalog(
    params: HamiltonianParams = HamiltonianParams(),
    t_max: float = DEFAULT_T_MAX,
    samples: int = DEFAULT_SAMPLES,
) -> dict[str, CaseAnalysis]:
    return {label: analyze_case(label, params, t_max, samples) for label in CATALOG_LABELS}


def load_reference_table(name: str) -> list[dict]:
    """Read one of the packaged reference tables (comment lines skipped)."""
    _check_choice("table", name, TABLE_COLUMNS)
    text = resources.files("qpdsim.data").joinpath(f"{name}_reference.csv").read_text()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    parse = {"case": str, "alpha": str, "violated": int}  # every other column is a float
    return [{key: parse.get(key, float)(val) for key, val in raw.items()} for raw in csv.DictReader(lines)]


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
    if table == "table1" or (table == "table2" and (case, alpha, column) in EXACT_TABLE2_CELLS):
        limit = EXACT_CELL_TOL
        status = "pass" if dev <= limit else "fail"
    elif (
        table == "table3"
        and case in ZERO_TABLE3_CASES
        and column in ZERO_TABLE3_COLUMNS
        and reference == 0.0
    ):
        limit = ZERO_CELL_TOL
        status = "pass" if dev < limit else "fail"
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
    """Compare computed rows against the packaged reference, cell by cell.

    A row whose case and alpha have no reference row raises InputError naming them.
    """
    reference = {(r["case"], r["alpha"]): r for r in load_reference_table(table)}
    checks = []
    for row in computed_rows:
        ref = reference.get((row["case"], row["alpha"]))
        if ref is None:
            raise InputError(f"{table} has no reference row for case {row['case']!r}, alpha {row['alpha']!r}")
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
    lines: list[str]
    passed: bool


def reproduce_all(
    params: HamiltonianParams = HamiltonianParams(),
    t_max: float = DEFAULT_T_MAX,
    samples: int = DEFAULT_SAMPLES,
) -> ReproduceReport:
    """Regression sweep over the whole catalog against the reference tables."""
    analyses = analyze_catalog(params, t_max, samples)
    checks = []
    for table, columns in TABLE_COLUMNS.items():
        rows = [row for analysis in analyses.values() for row in table_rows(table, analysis)]
        checks += check_table(table, rows, columns)
    verdicts_ok = check_verdicts(analyses)

    lines = [
        f"{c.table} case={c.case} alpha={c.alpha} {c.column}: "
        f"value={c.value:.6f} ref={c.reference:g} dev={c.deviation:.2e} "
        f"limit={c.limit:g} [{c.status.upper()}]"
        for c in checks
    ]
    lines += [f"stp case={label}: verdict match [{'PASS' if ok else 'FAIL'}]" for label, ok in verdicts_ok.items()]
    n_fail = sum(1 for c in checks if c.status == "fail") + sum(1 for ok in verdicts_ok.values() if not ok)
    passed = n_fail == 0
    notes = [c for c in checks if c.status == "note"]
    lines += [
        f"note: {c.table} case={c.case} alpha={c.alpha} {c.column}: deviation "
        f"{c.deviation:.3f} beyond {TABLE_TOL} but within {TABLE_TOL_LOOSE} (averaging-convention slack)"
        for c in notes
    ]
    lines.append(
        f"RESULT: {'PASS' if passed else 'FAIL'} "
        f"({len(checks)} cells, {len(notes)} loose-tier notes, {n_fail} failures)"
    )
    return ReproduceReport(checks, lines, passed)


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
            for start in range(0, len(text), _WRITE_CHUNK_CHARS):  # encoded a chunk at a time, not in one copy
                fh.write(text[start : start + _WRITE_CHUNK_CHARS])
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def render_table_csv(table: str, rows: list[dict]) -> str:
    """The CSV of ``table``: case, alpha, table2's verdict flag, the full-precision columns, then 2-decimal ones."""
    _check_choice("table", table, TABLE_COLUMNS)
    keys = ("case", "alpha", "violated") if table == "table2" else ("case", "alpha")
    columns = TABLE_COLUMNS[table]
    # Python floats, so that round() below rounds the decimal value exactly
    checked = [_checked_column(c, [row[c] for row in rows]).tolist() for c in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*keys, *columns, *(f"{c}_rounded" for c in columns)])
    for row, values in zip(rows, zip(*checked)):
        rounded = (f"{round(v, 2):.2f}" for v in values)
        writer.writerow([*(row[k] for k in keys), *(_SIG_FMT % v for v in values), *rounded])
    return buf.getvalue()


def _row_format(columns) -> tuple[str, list[np.ndarray]]:
    """The comma-joined row format of (name, values) pairs, each checked, and the columns it leaves varying.

    A column whose values are all equal goes into the format as its own text,
    which holds no '%': the %.12g text of a checked, finite float.
    """
    fields, varying = [], []
    for name, values in columns:
        values = _checked_column(name, values)
        if values.size and (values == values[0]).all():
            fields.append(_SIG_FMT % values[0])
        else:
            fields.append(_SIG_FMT)
            varying.append(values)
    return ",".join(fields), varying


def _interleaved(columns: list[list]) -> tuple:
    """Equal-length columns as one flat row-major tuple, the arguments of one % over their rows."""
    flat = [None] * sum(map(len, columns))
    for j, values in enumerate(columns):
        flat[j :: len(columns)] = values
    return tuple(flat)


def render_trajectory_csv(analysis: CaseAnalysis, branches=BRANCHES) -> dict[str, str]:
    """Fixed-order per-sample series at 12 significant digits: ``{branch: text}`` for each label.

    ``branches`` is one label or a sequence of them. The probability and deviation
    columns belong to the scenario and open every branch file's rows alike, so they
    are checked and formatted once for all the files; the measure columns belong to
    the branch.
    """
    labels = (branches,) if isinstance(branches, str) else tuple(branches)
    for label in labels:
        _check_choice("branch", label, BRANCHES)
    scenario = (analysis.times, *(analysis.probabilities[a] for a in BRANCHES), analysis.delta, analysis.delta_bound)
    scenario_row, scenario_varying = _row_format(zip(TRAJECTORY_COLUMNS, scenario))
    n = len(analysis.times)
    blocks = [(start, min(start + _RENDER_BLOCK_ROWS, n)) for start in range(0, n, _RENDER_BLOCK_ROWS)]
    # One % per block of rows: the text np.savetxt gives, without its per-row loop.
    # Each block's scenario fields are kept as one text, which every branch splits
    # into the %s that opens each of its rows.
    heads = [
        "\n".join([scenario_row] * (stop - start)) % _interleaved([v[start:stop].tolist() for v in scenario_varying])
        for start, stop in blocks
    ]
    texts = {}
    for i, label in enumerate(labels):
        series = analysis.series[label]
        branch_row, varying = _row_format((name, getattr(series, name)) for name in TRAJECTORY_COLUMNS[len(scenario) :])
        row = "%s," + branch_row + "\n"
        # One branch's buffer grows at a time, and the last branch drops each
        # block's scenario text once it has used it.
        buf = io.StringIO()
        buf.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for b, (start, stop) in enumerate(blocks):
            block_heads = heads[b].split("\n")
            if i == len(labels) - 1:
                heads[b] = None
            buf.write((row * (stop - start)) % _interleaved([block_heads, *(v[start:stop].tolist() for v in varying)]))
        texts[label] = buf.getvalue()
    return texts


def case_file_tag(label: str) -> str:
    """Filesystem-safe case tag: the starred variants map * to 'star'."""
    return label.replace("*", "star")
