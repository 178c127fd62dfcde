import dataclasses
import os
import re
import stat
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from qpdsim import (
    BRANCHES,
    CATALOG_LABELS,
    HamiltonianParams,
    InputError,
    InvariantError,
    ScenarioSpec,
    SubsystemParams,
    analyze_case,
    analyze_catalog,
    build_hamiltonian,
    catalog_case,
    initial_mental_state,
    load_reference_table,
    measure_series,
)
from qpdsim import dynamics, linalg, report
from qpdsim.linalg import TRACE_TOL
from qpdsim.measures import MEASURE_FIELDS, MeasureRecord
from qpdsim.report import (
    _RENDER_BLOCK_ROWS,
    _WRITE_CHUNK_CHARS,
    TABLE_COLUMNS,
    TRAJECTORY_COLUMNS,
    _checked_column,
    atomic_write_text,
    case_file_tag,
    check_table,
    render_table_csv,
    render_trajectory_csv,
    reproduce_all,
    table_rows,
)
from qpdsim.states import initial_rank
from support import (
    chi_leak,
    chi_series,
    random_hamiltonian_params,
    random_scenario,
    savetxt_trajectory_csv,
    state_entries,
    trajectory_columns,
)


@pytest.fixture(scope="module")
def case2_analysis():
    return analyze_case("2", samples=257)


class TestAnalyzeCase:
    def test_shapes_and_alignment(self, case2_analysis):
        a = case2_analysis
        assert len(a.times) == 257
        for alpha in ("u", "d", "c"):
            assert a.trajectories[alpha].states.shape == (257, 4, 4)
            assert a.probabilities[alpha].shape == (257,)
            assert a.series[alpha].S_AB.shape == (257,)
        assert a.delta.shape == (257,)

    def test_case2_satisfies_principle(self, case2_analysis):
        assert not case2_analysis.verdict.violated

    def test_accepts_custom_scenario_and_params(self):
        a = analyze_case(catalog_case("3"), HamiltonianParams(0.2, 0.2, 0.5), t_max=1.0, samples=33)
        assert a.times[-1] == pytest.approx(1.0)
        assert a.hamiltonian.gamma == 0.5

    def test_case1_u_mean_row(self):
        a = analyze_case("1", samples=513)
        mean = a.means["u"]
        assert mean.S_B == pytest.approx(1.0, abs=1e-9)
        assert mean.S_A == pytest.approx(1.0, abs=1e-9)
        assert mean.S_AB == pytest.approx(2.0, abs=1e-9)
        assert mean.I_AB == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("samples", [65, 4097])
    def test_coherence_free_delta_is_exactly_zero(self, samples):
        # chi(0) vanishes without prediction coherence, and the dynamics
        # carries zero to zero: no rounding residue from branch subtraction
        rng = np.random.default_rng(71)
        for _ in range(20):
            spec = random_scenario(rng, coherent_prediction=False)
            a = analyze_case(spec, random_hamiltonian_params(rng), samples=samples)
            assert np.all(a.delta == 0.0)
            assert np.all(a.delta_bound == 0.0)
            assert a.verdict.max_abs_delta == 0.0
            assert not a.verdict.violated

    # case 3 has |lam_B| = 0.5: sample 5 of delta or Delta goes 1e-9 beyond the budget, delta on its negative side
    @pytest.mark.parametrize(
        "which, value, message",
        [
            (0, -0.5 - 1e-9, "|delta| = 0.500000001 exceeds |lam_B| = 0.5"),
            (1, 1.0 + 1e-9, "Delta = 1.000000001 exceeds 2|lam_B| = 1"),
        ],
        ids=["delta", "Delta"],
    )
    def test_a_broken_coherence_budget_names_its_sample(self, monkeypatch, which, value, message):
        real_leak = report.stp_leak

        def leaky(chi_diagonal):
            series = [values.copy() for values in real_leak(chi_diagonal)]
            series[which][5] = value
            return tuple(series)

        monkeypatch.setattr(report, "stp_leak", leaky)
        with pytest.raises(InvariantError, match=rf"^coherence budget broken at sample 5: {re.escape(message)}$"):
            analyze_case("3", samples=33)

    def test_decomposition_identity_from_analysis(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            spec = random_scenario(rng)
            a = analyze_case(spec, random_hamiltonian_params(rng), samples=513)
            p = a.probabilities
            gap = p["u"] - (spec.prediction.p * p["d"] + (1 - spec.prediction.p) * p["c"]) - a.delta
            assert np.max(np.abs(gap)) <= 1e-10


def mirrored(q: SubsystemParams) -> SubsystemParams:
    """The qubit X q X: its two populations swap places and its coherence is conjugated."""
    return SubsystemParams(1.0 - q.p, complex(q.lam).conjugate())


class TestMirror:
    """(X (x) X) H(mu_d, mu_c, gamma) (X (x) X) = H(-mu_c, -mu_d, gamma), so mirroring both qubits and the payoffs
    swaps branches d and c, takes every choice probability p to 1 - p and delta to -delta, and keeps Delta and
    the measures, which no local unitary changes."""

    def test_mirror_swaps_the_certain_branches(self):
        rng = np.random.default_rng(123)
        swap = {"u": "u", "d": "c", "c": "d"}
        flip = np.fliplr(np.eye(4))  # X (x) X
        worst = 0.0
        for _ in range(40):
            spec, params = random_scenario(rng), random_hamiltonian_params(rng)
            mirror_params = HamiltonianParams(-params.mu_c, -params.mu_d, params.gamma)
            np.testing.assert_array_equal(flip @ build_hamiltonian(params) @ flip, build_hamiltonian(mirror_params))
            a = analyze_case(spec, params, samples=513)
            m = analyze_case(ScenarioSpec("mirror", mirrored(spec.prediction), mirrored(spec.action)), mirror_params, samples=513)
            for alpha in BRANCHES:
                want = trajectory_columns(a, swap[alpha])
                want.update({f"p_{beta}": 1.0 - a.probabilities[swap[beta]] for beta in BRANCHES}, delta=-a.delta)
                for name, values in trajectory_columns(m, alpha).items():
                    worst = max(worst, np.max(np.abs(values - want[name])))
        assert worst <= 1e-12  # 2.4e-14 measured

    def test_selection_rule_on_the_line_mu_c_equal_to_minus_mu_d(self):
        # There H commutes with X (x) X, and a violation needs Im(lam_B) Re(lam_A) != 0: coherence in both qubits
        rng = np.random.default_rng(11)
        flip = np.fliplr(np.eye(4))  # X (x) X

        def on_the_line():
            mu = rng.uniform(-2.0, 2.0)
            return HamiltonianParams(mu, -mu, rng.uniform(-3.0, 3.0))

        for _ in range(80):
            h = build_hamiltonian(on_the_line())
            np.testing.assert_array_equal(flip @ h, h @ flip)
        worst = 0.0
        for k in range(40):
            prediction, action = random_scenario(rng).prediction, random_scenario(rng).action
            sign = rng.choice([-1.0, 1.0])
            if k % 2:  # an exactly real lam_B
                prediction = SubsystemParams(prediction.p, sign * abs(prediction.lam))
            else:  # an exactly imaginary lam_A
                action = SubsystemParams(action.p, sign * 1j * abs(action.lam))
            a = analyze_case(ScenarioSpec("rule", prediction, action), on_the_line(), samples=513)
            assert not a.verdict.violated
            worst = max(worst, a.verdict.max_abs_delta)
        assert worst <= 1e-12  # 1.3e-15 measured
        least = np.inf
        for _ in range(40):
            spec = random_scenario(rng)
            while abs(spec.prediction.lam.imag * spec.action.lam.real) < 0.01:
                spec = random_scenario(rng)
            a = analyze_case(spec, on_the_line(), samples=513)
            assert a.verdict.violated
            least = min(least, a.verdict.max_abs_delta / abs(spec.prediction.lam.imag * spec.action.lam.real))
        assert least >= 0.1  # 0.604 measured


@pytest.fixture(scope="module")
def spectral_analyses():
    """Every catalog case and six random scenarios, three of them coherence-free."""
    analyses = [analyze_case(label, samples=257) for label in CATALOG_LABELS]
    rng = np.random.default_rng(74)
    for k in range(6):
        spec = random_scenario(rng, coherent_prediction=k % 2 == 0)
        analyses.append(analyze_case(spec, random_hamiltonian_params(rng), samples=257))
    return analyses


class TestSpectralEngine:
    def test_one_diagonalization_of_h_and_none_per_sample(self, monkeypatch):
        diagonalized = []
        stacked = []
        real_eig = linalg.eig_hermitian

        def counting_eig(m):
            diagonalized.append(np.array(m))
            return real_eig(m)

        def recording(fn):
            def wrapped(m, *args, **kwargs):
                stacked.append(np.shape(m))
                return fn(m, *args, **kwargs)

            return wrapped

        # Every module-level binding of eig_hermitian: linalg's own (H, in
        # SpectralPropagator) and dynamics' imported one (the t=0 states, in orbit).
        monkeypatch.setattr(linalg, "eig_hermitian", counting_eig)
        monkeypatch.setattr(dynamics, "eig_hermitian", counting_eig)
        monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        analyze_case("3*", samples=65)
        h = build_hamiltonian()
        assert [m.shape for m in diagonalized] == [(4, 4)] * 4
        assert sum(np.array_equal(m, h) for m in diagonalized) == 1
        states = [m for m in diagonalized if not np.array_equal(m, h)]
        initial = [initial_mental_state(catalog_case("3*"), alpha) for alpha in BRANCHES]
        assert all(any(np.array_equal(m, rho) for m in states) for rho in initial)
        assert [shape for shape in stacked if len(shape) > 2] == []

    def test_forms_no_state_stack(self, monkeypatch):
        # chi's diagonal, each branch's 10 measured entries and the rank-2 n of d and c; 3* u is
        # rank 4 with a negative spectral margin, so it gets no n
        shapes = []
        real_bohr_sum = linalg._bohr_sum

        def recording(*args, **kwargs):
            result = real_bohr_sum(*args, **kwargs)
            shapes.append(result.shape)
            return result

        def refuse(*args):
            raise AssertionError("analyze_case formed a state stack")

        monkeypatch.setattr(linalg, "_bohr_sum", recording)
        monkeypatch.setattr(linalg.SpectralPropagator, "conjugated", refuse)
        analyze_case("3*", samples=65)
        assert [shape for shape in shapes if shape[-2:] == (4, 4)] == []
        assert shapes == [(65, 4), (65, 10), (65, 2, 2), (65, 10), (65, 2, 2), (65, 10)]

    def test_branch_series_match_bare_states(self, spectral_analyses):
        for a in spectral_analyses:
            for alpha in BRANCHES:
                bare = measure_series(a.trajectories[alpha].states)
                got = a.series[alpha]
                for name in ("S_AB", "I_AB", "CRE_AB"):
                    np.testing.assert_allclose(getattr(got, name), getattr(bare, name), rtol=0, atol=1e-12)
                np.testing.assert_allclose(got.EF_AB, bare.EF_AB, rtol=0, atol=1e-10)
                for name in ("S_B", "S_A", "Cl1_B", "Cl1_A", "Cl1_AB"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(bare, name))

    def test_spectrum_preserved_along_branches(self, spectral_analyses):
        for a in spectral_analyses:
            for alpha in BRANCHES:
                initial = np.linalg.eigvalsh(initial_mental_state(a.spec, alpha))
                spectra = np.linalg.eigvalsh(a.trajectories[alpha].states)
                np.testing.assert_allclose(spectra, np.broadcast_to(initial, spectra.shape), rtol=0, atol=1e-12)

    def test_trace_at_the_positivity_edge(self):
        # |lam|^2 = p(1-p) + 5e-11 passes qubit_state's PSD_TOL and initial_rank calls both
        # qubits pure, but the states keep the full t=0 trace, not that of its largest eigenvalue
        edge = SubsystemParams(0.5, np.sqrt(0.25 + 5e-11))
        a = analyze_case(ScenarioSpec("edge", edge, edge), samples=257)
        for alpha in BRANCHES:
            trace = np.trace(a.trajectories[alpha].states, axis1=-2, axis2=-1)
            assert np.max(np.abs(trace - 1.0)) <= TRACE_TOL, alpha

    def test_delta_matches_branch_subtraction(self, spectral_analyses):
        for a in spectral_analyses:
            trajs = a.trajectories
            chi = chi_series(trajs["u"], trajs["d"], trajs["c"], a.spec.prediction.p)
            np.testing.assert_allclose(a.delta, chi_leak(chi)[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.delta_bound, chi_leak(chi)[1], rtol=0, atol=1e-12)


def _reachable_arrays(obj):
    """Every ndarray reachable from ``obj`` through dataclass fields, mapping values and array bases."""
    if isinstance(obj, np.ndarray):
        yield obj
        if isinstance(obj.base, np.ndarray):  # a view keeps its base alive
            yield from _reachable_arrays(obj.base)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _reachable_arrays(getattr(obj, field.name))
    elif isinstance(obj, Mapping):
        for value in obj.values():
            yield from _reachable_arrays(value)


class TestOnDemandTrajectories:
    def test_analysis_keeps_no_state_stack(self, spectral_analyses):
        for a in spectral_analyses:
            arrays = list(_reachable_arrays(a))
            assert arrays, "the walk must reach the series"
            assert [x.shape for x in arrays if x.ndim >= 3] == []

    def test_states_equal_the_orbit(self, spectral_analyses):
        # the seven catalog cases and six random scenarios, bit for bit
        for a in spectral_analyses:
            propagator = linalg.SpectralPropagator(build_hamiltonian(a.hamiltonian), a.times)
            for alpha in BRANCHES:
                rho0 = initial_mental_state(a.spec, alpha)
                expected = dynamics.orbit(rho0, propagator, initial_rank(a.spec, alpha)).entries
                got = a.trajectories[alpha]
                assert np.array_equal(state_entries(got.states), expected), (a.spec.case_label, alpha)
                assert np.array_equal(got.times, a.times)

    def test_mapping_evolves_only_on_lookup(self, case2_analysis, monkeypatch):
        calls = []
        real_evolve = report.evolve

        def counting_evolve(*args):
            calls.append(args)
            return real_evolve(*args)

        monkeypatch.setattr(report, "evolve", counting_evolve)
        trajectories = case2_analysis.trajectories
        assert isinstance(trajectories, Mapping)
        assert tuple(trajectories) == BRANCHES
        assert tuple(trajectories.keys()) == BRANCHES
        assert len(trajectories) == 3
        assert "u" in trajectories and "x" not in trajectories and "u" in trajectories.keys()
        assert trajectories.get("x") is None
        with pytest.raises(KeyError, match="x"):
            trajectories["x"]
        assert calls == []
        first, second = trajectories["d"], trajectories["d"]  # nothing is cached: two lookups, two evolutions
        assert len(calls) == 2 and first is not second
        assert np.array_equal(first.states, second.states)

    def test_analysis_keeps_little_live_memory(self):
        analyze_case("3", samples=65)  # imports and first-call setup stay out of the measurement
        tracemalloc.start()
        try:
            a = analyze_case("3", samples=16385)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (N,) series take about 4 MiB; the three (N, 4, 4) state stacks alone would add 12 MiB
        assert live < 8 * 2**20, f"{live / 2**20:.1f} MiB live"
        assert a.times.shape == (16385,)


class TestReferenceTables:
    def test_loading(self):
        rows = load_reference_table("table2")
        assert len(rows) == 21
        first = rows[0]
        assert first["case"] == "1" and first["alpha"] == "u"
        assert first["S_AB"] == 2.0 and first["violated"] == 0

    def test_all_tables_cover_catalog(self):
        for name in ("table1", "table2", "table3"):
            rows = load_reference_table(name)
            assert {(r["case"], r["alpha"]) for r in rows} == {
                (c, a) for c in ("1", "1*", "2", "3", "3*", "4", "4*") for a in ("u", "d", "c")
            }

    def test_table_rows_rejects_unknown_table_and_missing_analysis(self, case2_analysis):
        spec = case2_analysis.spec
        with pytest.raises(ValueError, match=r"^unknown table 'table4'; choose from \('table1', 'table2', 'table3'\)$"):
            table_rows("table4", case2_analysis)
        for table in ("table2", "table3"):
            message = f"{table} reads time averages: pass the CaseAnalysis of the scenario"
            with pytest.raises(ValueError, match=f"^{message}$"):
                table_rows(table, spec)
        # table1 measures the t=0 states, so the scenario and its analysis give the same rows
        assert table_rows("table1", spec) == table_rows("table1", case2_analysis)

    def test_check_table_names_a_row_without_reference(self):
        rows = [{"case": "1", "alpha": "u", "Cl1_B": 0.0, "S_B": 1.0, "Cl1_A": 0.0, "S_A": 1.0}]
        rows.append({**rows[0], "case": "random"})
        with pytest.raises(InputError, match=r"^table1 has no reference row for case 'random', alpha 'u'$"):
            check_table("table1", rows, TABLE_COLUMNS["table1"])

    def test_unknown_reference_table(self):
        with pytest.raises(InputError, match=r"^unknown table 'table9'; choose from \('table1', 'table2', 'table3'\)$"):
            load_reference_table("table9")
        with pytest.raises(InputError, match=r"^unknown table \['table1'\]; choose from "):
            load_reference_table(["table1"])  # unhashable: it used to raise a bare TypeError

    def test_table_rows_names_a_source_of_another_type(self):
        # a case label used to raise a bare AttributeError
        with pytest.raises(InputError, match=r"^source must be a CaseAnalysis or a ScenarioSpec, got str$"):
            table_rows("table1", "3")

    def test_check_table_flags_misses(self):
        rows = [
            {"case": "1", "alpha": "u", "violated": 0, "S_B": 1.0, "S_A": 1.0, "S_AB": 2.0, "I_AB": 0.9}
        ]
        checks = check_table("table2", rows, TABLE_COLUMNS["table2"])
        by_col = {c.column: c for c in checks}
        assert by_col["I_AB"].status == "fail"  # exact cell, way off
        assert by_col["S_B"].status == "pass"

    def test_check_table_loose_tier(self):
        rows = [
            {"case": "1", "alpha": "d", "violated": 0, "S_B": 0.68, "S_A": 1.0, "S_AB": 1.0, "I_AB": 0.65}
        ]
        checks = {c.column: c for c in check_table("table2", rows, TABLE_COLUMNS["table2"])}
        assert checks["S_B"].status == "note"  # 0.03 off: between 0.02 and 0.05
        rows[0]["I_AB"] = 0.59  # 0.06 off: beyond the loose tier
        checks = {c.column: c for c in check_table("table2", rows, TABLE_COLUMNS["table2"])}
        assert checks["I_AB"].status == "fail" and checks["I_AB"].limit == 0.02


class TestReproduceAll:
    def test_full_sweep_passes(self):
        report = reproduce_all()
        assert report.passed
        assert report.lines[-1].startswith("RESULT: PASS")
        assert len(report.checks) == 21 * (4 + 4 + 5)

    def test_loose_tier_cells_become_note_lines(self):
        # at 9 samples the quadrature is coarse enough that some cells pass only in the loose tier
        report = reproduce_all(samples=9)
        notes = [c for c in report.checks if c.status == "note"]
        note_lines = [line for line in report.lines if line.startswith("note: ")]
        assert report.passed and len(notes) > 0 and len(note_lines) == len(notes)
        assert report.lines[-1] == f"RESULT: PASS ({len(report.checks)} cells, {len(notes)} loose-tier notes, 0 failures)"
        assert note_lines[0].startswith(f"note: {notes[0].table} case={notes[0].case} alpha={notes[0].alpha} ")

    def test_sweep_reads_the_cells_the_files_print(self):
        # table3 case 1, branch u, CRE_AB averages to -4.44e-16: the sweep printed it as -0.000000
        report = reproduce_all()
        assert not [line for line in report.lines if "-0.000000" in line]
        cell = next(c for c in report.checks if (c.table, c.case, c.alpha, c.column) == ("table3", "1", "u", "CRE_AB"))
        assert cell.value == 0.0 and not np.signbit(cell.value) and cell.deviation == 0.0

    def test_deterministic(self):
        a = reproduce_all(samples=129)
        b = reproduce_all(samples=129)
        assert [c.deviation for c in a.checks] == [c.deviation for c in b.checks]


class TestRendering:
    def test_table_csv_layout(self, case2_analysis):
        text = render_table_csv("table2", table_rows("table2", case2_analysis))
        lines = text.strip().split("\n")
        assert lines[0] == (
            "case,alpha,violated,S_B,S_A,S_AB,I_AB,"
            "S_B_rounded,S_A_rounded,S_AB_rounded,I_AB_rounded"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[:3] == ["2", "u", "0"]
        assert float(first[3]) == pytest.approx(float(first[7]), abs=0.005)

    def test_trajectory_csv_layout(self, case2_analysis):
        text = render_trajectory_csv(case2_analysis, "u")["u"]
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == 258
        row = dict(zip(TRAJECTORY_COLUMNS, lines[1].split(",")))
        assert float(row["t"]) == 0.0
        assert 0.0 <= float(row["p_u"]) <= 1.0
        assert float(row["S_AB"]) >= 0.0

    def test_trajectory_probabilities_in_range(self, case2_analysis):
        text = render_trajectory_csv(case2_analysis, "d")["d"]
        for line in text.strip().split("\n")[1:]:
            row = dict(zip(TRAJECTORY_COLUMNS, line.split(",")))
            for col in ("p_u", "p_d", "p_c"):
                assert 0.0 <= float(row[col]) <= 1.0
            for col in ("S_A", "S_B", "S_AB", "I_AB"):
                assert 0.0 <= float(row[col]) <= 2.0

    def test_twelve_significant_digits(self, case2_analysis):
        text = render_trajectory_csv(case2_analysis, "u")["u"]
        t_column = [line.split(",")[0] for line in text.strip().split("\n")[1:]]
        assert t_column[1] == f"{case2_analysis.times[1]:.12g}"

    def test_trajectory_format_pin(self, case2_analysis):
        # hand-built columns: near-bound residue, -0.0, exponents, no upper bound
        columns = {
            "S_A": [2.0 + 5e-10, 1.0], "S_B": [1e-5, 0.1], "S_AB": [-1e-10, 1.5],
            "I_AB": [0.0, 2 / 3], "Cl1_A": [123456.789, 0.0], "Cl1_B": [1e-300, 1.0],
            "Cl1_AB": [0.25, 3.0], "CRE_AB": [0.125, 1.0], "EF_AB": [1.0 + 1e-10, 0.5],
        }
        hand = dataclasses.replace(
            case2_analysis,
            times=np.array([-0.0, np.pi]),
            probabilities={
                "u": np.array([1 / 3, 0.5]),
                "d": np.array([1.0 + 5e-10, 0.5]),
                "c": np.array([-1e-10, 0.5]),
            },
            delta=np.array([-0.0, -0.25]),
            delta_bound=np.array([0.0, 0.75]),
            series={"u": MeasureRecord(**{f: np.array(columns[f]) for f in MEASURE_FIELDS})},
        )
        assert render_trajectory_csv(hand, "u")["u"] == (
            "t,p_u,p_d,p_c,delta,Delta,S_A,S_B,S_AB,I_AB,Cl1_A,Cl1_B,Cl1_AB,CRE_AB,EF_AB\n"
            "0,0.333333333333,1,0,0,0,2,1e-05,0,0,123456.789,1e-300,0.25,0.125,1\n"
            "3.14159265359,0.5,0.5,0.5,-0.25,0.75,1,0.1,1.5,0.666666666667,0,1,3,1,0.5\n"
        )

    @pytest.mark.parametrize(
        "samples", [2, _RENDER_BLOCK_ROWS - 1, _RENDER_BLOCK_ROWS, _RENDER_BLOCK_ROWS + 1, 2 * _RENDER_BLOCK_ROWS + 1]
    )
    def test_blocks_match_savetxt(self, samples):
        analysis = analyze_case("4", samples=samples)
        texts = render_trajectory_csv(analysis)
        for alpha in BRANCHES:
            assert texts[alpha] == savetxt_trajectory_csv(analysis, alpha)

    @pytest.mark.parametrize("label", CATALOG_LABELS)
    def test_catalog_matches_savetxt(self, label):
        analysis = analyze_case(label, samples=129)
        texts = render_trajectory_csv(analysis)
        assert list(texts) == list(BRANCHES)
        for alpha in BRANCHES:
            assert texts[alpha] == savetxt_trajectory_csv(analysis, alpha), alpha
        # The catalog holds every pattern of constant columns, which the renderer
        # writes into its row format: S_AB everywhere, EF_AB in cases 1, 3 and 3*,
        # delta and Delta in cases 1, 1* and 2.
        columns = {
            "delta": analysis.delta,
            "Delta": analysis.delta_bound,
            "S_AB": analysis.series["d"].S_AB,
            "EF_AB": analysis.series["d"].EF_AB,
        }
        constant = {name for name, values in columns.items() if np.all(values == values[0])}
        expected = {"S_AB"} | ({"EF_AB"} if label in ("1", "3", "3*") else set())
        expected |= {"delta", "Delta"} if label in ("1", "1*", "2") else set()
        assert constant == expected

    def test_constant_columns_are_checked_before_they_join_the_row_format(self, case2_analysis):
        n = len(case2_analysis.times)
        series = dataclasses.replace(case2_analysis.series["u"], S_A=np.full(n, 2.0 + 5e-10), Cl1_A=np.full(n, -0.0))
        hand = dataclasses.replace(case2_analysis, delta=np.full(n, -0.0), series={"u": series})
        text = render_trajectory_csv(hand, "u")["u"]
        assert text == savetxt_trajectory_csv(hand, "u")
        cells = dict(zip(TRAJECTORY_COLUMNS, zip(*(line.split(",") for line in text.splitlines()[1:]))))
        assert set(cells["S_A"]) == {"2"} and set(cells["Cl1_A"]) == {"0"} and set(cells["delta"]) == {"0"}

    def test_constant_out_of_range_column_names_row_0(self, case2_analysis):
        series = dataclasses.replace(case2_analysis.series["u"], S_AB=np.full(len(case2_analysis.times), 2.5))
        bad = dataclasses.replace(case2_analysis, series={"u": series})
        with pytest.raises(InvariantError, match=r"^column S_AB, row 0: value 2\.5 above 2\.0$"):
            render_trajectory_csv(bad, "u")

    def test_branch_subset_and_unknown_label(self, case2_analysis):
        full = render_trajectory_csv(case2_analysis)
        assert list(full) == ["u", "d", "c"]
        subset = render_trajectory_csv(case2_analysis, ("c", "u"))
        assert list(subset) == ["c", "u"] and subset == {alpha: full[alpha] for alpha in ("c", "u")}
        assert render_trajectory_csv(case2_analysis, "d") == {"d": full["d"]}
        with pytest.raises(InputError, match=r"^unknown branch 'x'; choose from \('u', 'd', 'c'\)$"):
            render_trajectory_csv(case2_analysis, ("u", "x"))
        with pytest.raises(InputError, match=r"^unknown branch 'ud'; "):
            render_trajectory_csv(case2_analysis, "ud")

    def test_checked_column_copies_only_what_it_changes(self):
        values = np.array([0.0, 0.5, 1.0])
        assert _checked_column("p_u", values) is values
        residue = np.array([-0.0, 1.0 + 5e-10])
        checked = _checked_column("p_u", residue)
        assert checked.tolist() == [0.0, 1.0] and not np.signbit(checked).any()
        assert np.signbit(residue[0]) and residue[1] == 1.0 + 5e-10  # the input is left as it was

    def test_table_format_pin(self):
        # 2.675 is stored just below 2.675, so it rounds down like the decimal value
        rows = [{"case": "x", "alpha": "u", "Cl1_B": -1e-10, "S_B": -0.0, "Cl1_A": 2.675, "S_A": 2.0 + 5e-10}]
        assert render_table_csv("table1", rows) == (
            "case,alpha,Cl1_B,S_B,Cl1_A,S_A,Cl1_B_rounded,S_B_rounded,Cl1_A_rounded,S_A_rounded\n"
            "x,u,0,0,2.675,2,0.00,0.00,2.67,2.00\n"
        )

    def test_table_name_gives_the_columns_and_the_verdict_flag(self):
        assert render_table_csv("table2", []) == (
            "case,alpha,violated,S_B,S_A,S_AB,I_AB,S_B_rounded,S_A_rounded,S_AB_rounded,I_AB_rounded\n"
        )
        row = {"case": "x", "alpha": "u", "violated": 1, "Cl1_B": 0.0, "S_B": 0.0, "Cl1_A": 0.0, "S_A": 0.0}
        assert render_table_csv("table1", [row]).splitlines()[1] == "x,u,0,0,0,0,0.00,0.00,0.00,0.00"
        with pytest.raises(InputError, match=r"^unknown table 'table9'; choose from \('table1', 'table2', 'table3'\)$"):
            render_table_csv("table9", [])

    def test_out_of_range_names_column_and_sample(self, case2_analysis):
        delta = case2_analysis.delta.copy()
        delta[7] = 1.5
        bad = dataclasses.replace(case2_analysis, delta=delta)
        with pytest.raises(ValueError, match=r"^column delta, row 7: value 1\.5 above 1\.0$"):
            render_trajectory_csv(bad, "d")

    def test_non_finite_names_column_and_sample(self, case2_analysis):
        delta = case2_analysis.delta.copy()
        delta[7] = np.nan
        bad = dataclasses.replace(case2_analysis, delta=delta)
        with pytest.raises(ValueError, match=r"^column delta, row 7: value nan is not finite$"):
            render_trajectory_csv(bad, "d")
        # Cl1 columns have no upper bound, but an infinity is still rejected
        series = dataclasses.replace(case2_analysis.series["u"], Cl1_AB=np.full(len(delta), np.inf))
        bad = dataclasses.replace(case2_analysis, series={"u": series})
        with pytest.raises(ValueError, match=r"^column Cl1_AB, row 0: value inf is not finite$"):
            render_trajectory_csv(bad, "u")

    def test_table_out_of_range_names_column_and_row(self):
        row = {"case": "x", "alpha": "u", "Cl1_B": 0.0, "S_B": 0.0, "Cl1_A": 0.0, "S_A": 0.0}
        rows = [row, dict(row, alpha="d", S_B=-1e-6)]
        with pytest.raises(ValueError, match=r"^column S_B, row 1: value -1e-06 below 0\.0$"):
            render_table_csv("table1", rows)

    def test_case_file_tag(self):
        assert case_file_tag("3*") == "3star"
        assert case_file_tag("1") == "1"


# table1.csv of each catalog case, and the header, violated and *_rounded columns of
# table2.csv and table3.csv at the default grid. No averaged value lies within 1.5e-5 of
# a rounding boundary of its 2-decimal column (the closest is 1* u Cl1_B = 0.14498).
TABLE1_PIN = """\
case,alpha,Cl1_B,S_B,Cl1_A,S_A,Cl1_B_rounded,S_B_rounded,Cl1_A_rounded,S_A_rounded
1,u,0,1,0,1,0.00,1.00,0.00,1.00
1,d,0,0,0,1,0.00,0.00,0.00,1.00
1,c,0,0,0,1,0.00,0.00,0.00,1.00
1*,u,0,0.918295834054,0,0.970950594455,0.00,0.92,0.00,0.97
1*,d,0,0,0,0.970950594455,0.00,0.00,0.00,0.97
1*,c,0,0,0,0.970950594455,0.00,0.00,0.00,0.97
2,u,0,1,1,0,0.00,1.00,1.00,0.00
2,d,0,0,1,0,0.00,0.00,1.00,0.00
2,c,0,0,1,0,0.00,0.00,1.00,0.00
3,u,1,0,0,1,1.00,0.00,0.00,1.00
3,d,0,0,0,1,0.00,0.00,0.00,1.00
3,c,0,0,0,1,0.00,0.00,0.00,1.00
3*,u,0.5,0.811278124459,0,1,0.50,0.81,0.00,1.00
3*,d,0,0,0,1,0.00,0.00,0.00,1.00
3*,c,0,0,0,1,0.00,0.00,0.00,1.00
4,u,1,0,1,0,1.00,0.00,1.00,0.00
4,d,0,0,1,0,0.00,0.00,1.00,0.00
4,c,0,0,1,0,0.00,0.00,1.00,0.00
4*,u,0.5,0.811278124459,1,0,0.50,0.81,1.00,0.00
4*,d,0,0,1,0,0.00,0.00,1.00,0.00
4*,c,0,0,1,0,0.00,0.00,1.00,0.00
"""
TABLE2_PIN = """\
case,alpha,violated,S_B_rounded,S_A_rounded,S_AB_rounded,I_AB_rounded
1,u,0,1.00,1.00,2.00,0.00
1,d,0,0.67,1.00,1.00,0.67
1,c,0,0.67,1.00,1.00,0.67
1*,u,0,0.96,0.98,1.89,0.06
1*,d,0,0.66,0.99,0.97,0.68
1*,c,0,0.66,0.98,0.97,0.66
2,u,0,0.88,0.70,1.00,0.58
2,d,0,0.40,0.40,0.00,0.81
2,c,0,0.50,0.50,0.00,1.00
3,u,1,0.81,0.80,1.00,0.61
3,d,1,0.67,1.00,1.00,0.67
3,c,1,0.67,1.00,1.00,0.67
3*,u,1,0.96,0.95,1.81,0.10
3*,d,1,0.67,1.00,1.00,0.67
3*,c,1,0.67,1.00,1.00,0.67
4,u,1,0.53,0.53,0.00,1.05
4,d,1,0.40,0.40,0.00,0.81
4,c,1,0.50,0.50,0.00,1.00
4*,u,1,0.76,0.61,0.81,0.56
4*,d,1,0.40,0.40,0.00,0.81
4*,c,1,0.50,0.50,0.00,1.00
"""
TABLE3_PIN = """\
case,alpha,Cl1_B_rounded,Cl1_A_rounded,Cl1_AB_rounded,CRE_AB_rounded,EF_AB_rounded
1,u,0.00,0.00,0.00,0.00,0.00
1,d,0.38,0.00,1.17,0.83,0.00
1,c,0.38,0.00,1.17,0.83,0.00
1*,u,0.14,0.10,0.52,0.09,0.00
1*,d,0.39,0.09,1.30,0.84,0.04
1*,c,0.40,0.12,1.32,0.85,0.03
2,u,0.31,0.43,1.40,0.86,0.08
2,d,0.66,0.64,2.39,1.59,0.40
2,c,0.58,0.59,2.34,1.57,0.50
3,u,0.42,0.39,1.36,0.84,0.11
3,d,0.38,0.00,1.17,0.83,0.00
3,c,0.38,0.00,1.17,0.83,0.00
3*,u,0.21,0.19,0.68,0.15,0.00
3*,d,0.38,0.00,1.17,0.83,0.00
3*,c,0.38,0.00,1.17,0.83,0.00
4,u,0.54,0.64,2.59,1.72,0.53
4,d,0.66,0.64,2.39,1.59,0.40
4,c,0.58,0.59,2.34,1.57,0.50
4*,u,0.48,0.54,1.72,1.00,0.14
4*,d,0.66,0.64,2.39,1.59,0.40
4*,c,0.58,0.59,2.34,1.57,0.50
"""


def pinned_rows(pin, label):
    """The header and the rows of one case from a pinned table."""
    header, *rows = pin.splitlines(keepends=True)
    return header + "".join(row for row in rows if row.startswith(label + ","))


def rounded_columns(text):
    """The case, alpha, violated and *_rounded columns of a table CSV, header included."""
    rows = [line.split(",") for line in text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name in ("case", "alpha", "violated") or name.endswith("_rounded")]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)


class TestOutputPins:
    """The table CSVs the CLI writes for the catalog, byte for byte where they are exact."""

    def test_table1_text(self):
        for label in CATALOG_LABELS:
            got = render_table_csv("table1", table_rows("table1", catalog_case(label)))
            assert got == pinned_rows(TABLE1_PIN, label), label

    def test_table2_and_table3_rounded_columns(self):
        for label, analysis in analyze_catalog().items():
            table2 = render_table_csv("table2", table_rows("table2", analysis))
            table3 = render_table_csv("table3", table_rows("table3", analysis))
            assert rounded_columns(table2) == pinned_rows(TABLE2_PIN, label), label
            assert rounded_columns(table3) == pinned_rows(TABLE3_PIN, label), label


class TestAtomicWrite:
    def test_writes_text_with_umask_mode(self, tmp_path):
        target = tmp_path / "out.csv"
        atomic_write_text(str(target), "a,b\n1,2\n")
        assert target.read_text() == "a,b\n1,2\n"
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_write_leaves_no_temp_and_keeps_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(target), "new \ud800\n")  # lone surrogate: not encodable
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_writes_text_longer_than_one_chunk(self, tmp_path):
        target = tmp_path / "out.csv"
        text = "x" * (_WRITE_CHUNK_CHARS - 1) + "\u00e9" + "y" * (2 * _WRITE_CHUNK_CHARS) + "\n"
        atomic_write_text(str(target), text)
        assert target.read_text(encoding="utf-8") == text

    def test_leaves_existing_fixed_name_temp_alone(self, tmp_path):
        stale = tmp_path / "out.csv.tmp"
        stale.write_text("someone else's\n")
        atomic_write_text(str(tmp_path / "out.csv"), "new\n")
        assert stale.read_text() == "someone else's\n"
        assert (tmp_path / "out.csv").read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.csv.tmp"]
