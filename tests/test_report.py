import dataclasses
import os
import stat

import numpy as np
import pytest

from qpdsim import HamiltonianParams, analyze_case, catalog_case, load_reference_table
from qpdsim.measures import MEASURE_FIELDS, MeasureSeries
from qpdsim.report import (
    TABLE1_COLUMNS,
    TABLE2_COLUMNS,
    TRAJECTORY_COLUMNS,
    atomic_write_text,
    case_file_tag,
    check_table,
    render_table_csv,
    render_trajectory_csv,
    reproduce_all,
    table2_rows,
)
from support import random_hamiltonian_params, random_scenario


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

    def test_decomposition_identity_from_analysis(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            spec = random_scenario(rng)
            a = analyze_case(spec, random_hamiltonian_params(rng), samples=513)
            p = a.probabilities
            gap = p["u"] - (spec.p_b * p["d"] + (1 - spec.p_b) * p["c"]) - a.delta
            assert np.max(np.abs(gap)) <= 1e-10


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

    def test_check_table_flags_misses(self):
        rows = [
            {"case": "1", "alpha": "u", "violated": 0, "S_B": 1.0, "S_A": 1.0, "S_AB": 2.0, "I_AB": 0.9}
        ]
        checks = check_table("table2", rows, TABLE2_COLUMNS)
        by_col = {c.column: c for c in checks}
        assert by_col["I_AB"].status == "fail"  # exact cell, way off
        assert by_col["S_B"].status == "pass"

    def test_check_table_loose_tier(self):
        rows = [
            {"case": "1", "alpha": "d", "violated": 0, "S_B": 0.68, "S_A": 1.0, "S_AB": 1.0, "I_AB": 0.65}
        ]
        checks = {c.column: c for c in check_table("table2", rows, TABLE2_COLUMNS)}
        assert checks["S_B"].status == "note"  # 0.03 off: between 0.02 and 0.05


class TestReproduceAll:
    def test_full_sweep_passes(self):
        report = reproduce_all()
        assert report.passed
        assert all(report.verdicts_ok.values())
        assert report.lines[-1].startswith("RESULT: PASS")
        assert len(report.checks) == 21 * (4 + 4 + 5)

    def test_deterministic(self):
        a = reproduce_all(samples=129)
        b = reproduce_all(samples=129)
        assert [c.deviation for c in a.checks] == [c.deviation for c in b.checks]


class TestRendering:
    def test_table_csv_layout(self, case2_analysis):
        text = render_table_csv(table2_rows({"2": case2_analysis}), TABLE2_COLUMNS)
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
        text = render_trajectory_csv(case2_analysis, "u")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == 258
        row = dict(zip(TRAJECTORY_COLUMNS, lines[1].split(",")))
        assert float(row["t"]) == 0.0
        assert 0.0 <= float(row["p_u"]) <= 1.0
        assert float(row["S_AB"]) >= 0.0

    def test_trajectory_probabilities_in_range(self, case2_analysis):
        text = render_trajectory_csv(case2_analysis, "d")
        for line in text.strip().split("\n")[1:]:
            row = dict(zip(TRAJECTORY_COLUMNS, line.split(",")))
            for col in ("p_u", "p_d", "p_c"):
                assert 0.0 <= float(row[col]) <= 1.0
            for col in ("S_A", "S_B", "S_AB", "I_AB"):
                assert 0.0 <= float(row[col]) <= 2.0

    def test_twelve_significant_digits(self, case2_analysis):
        text = render_trajectory_csv(case2_analysis, "u")
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
            series={"u": MeasureSeries(**{f: np.array(columns[f]) for f in MEASURE_FIELDS})},
        )
        assert render_trajectory_csv(hand, "u") == (
            "t,p_u,p_d,p_c,delta,Delta,S_A,S_B,S_AB,I_AB,Cl1_A,Cl1_B,Cl1_AB,CRE_AB,EF_AB\n"
            "0,0.333333333333,1,0,0,0,2,1e-05,0,0,123456.789,1e-300,0.25,0.125,1\n"
            "3.14159265359,0.5,0.5,0.5,-0.25,0.75,1,0.1,1.5,0.666666666667,0,1,3,1,0.5\n"
        )

    def test_table_format_pin(self):
        # 2.675 is stored just below 2.675, so it rounds down like the decimal value
        rows = [{"case": "x", "alpha": "u", "Cl1_B": -1e-10, "S_B": -0.0, "Cl1_A": 2.675, "S_A": 2.0 + 5e-10}]
        assert render_table_csv(rows, TABLE1_COLUMNS) == (
            "case,alpha,Cl1_B,S_B,Cl1_A,S_A,Cl1_B_rounded,S_B_rounded,Cl1_A_rounded,S_A_rounded\n"
            "x,u,0,0,2.675,2,0.00,0.00,2.67,2.00\n"
        )

    def test_out_of_range_names_column_and_sample(self, case2_analysis):
        delta = case2_analysis.delta.copy()
        delta[7] = 1.5
        bad = dataclasses.replace(case2_analysis, delta=delta)
        with pytest.raises(ValueError, match=r"^column delta, row 7: value 1\.5 above 1\.0$"):
            render_trajectory_csv(bad, "d")

    def test_table_out_of_range_names_column_and_row(self):
        row = {"case": "x", "alpha": "u", "Cl1_B": 0.0, "S_B": 0.0, "Cl1_A": 0.0, "S_A": 0.0}
        rows = [row, dict(row, alpha="d", S_B=-1e-6)]
        with pytest.raises(ValueError, match=r"^column S_B, row 1: value -1e-06 below 0\.0$"):
            render_table_csv(rows, TABLE1_COLUMNS)

    def test_case_file_tag(self):
        assert case_file_tag("3*") == "3star"
        assert case_file_tag("1") == "1"


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

    def test_leaves_existing_fixed_name_temp_alone(self, tmp_path):
        stale = tmp_path / "out.csv.tmp"
        stale.write_text("someone else's\n")
        atomic_write_text(str(tmp_path / "out.csv"), "new\n")
        assert stale.read_text() == "someone else's\n"
        assert (tmp_path / "out.csv").read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.csv.tmp"]
