"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and in qpdsim.report, nothing is deferred
to later calibration.
"""

import csv
import time

import numpy as np
import pytest

from qpdsim import (
    BRANCHES,
    CATALOG_LABELS,
    build_hamiltonian,
    catalog_case,
    entanglement_of_formation,
    evolve,
    initial_mental_state,
    load_reference_table,
    run_interference_survey,
    time_grid,
)
from qpdsim.cli import main as cli_main
from qpdsim.linalg import SpectralPropagator
from qpdsim.report import TABLE_COLUMNS, analyze_catalog, check_table, check_verdicts, table_rows
from support import (
    chi_leak,
    chi_series,
    random_density,
    random_hamiltonian_params,
    random_hermitian,
    random_pure_density,
    random_scenario,
    reduced_states,
    rk4_propagator,
    von_neumann_entropy,
)

N_TRIALS = 100


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")
    return ok


@pytest.fixture(scope="module")
def catalog_analyses():
    return analyze_catalog()


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    rows = [row for label in CATALOG_LABELS for row in table_rows("table1", catalog_case(label))]
    checks = check_table("table1", rows, TABLE_COLUMNS["table1"])
    elapsed = time.perf_counter() - start
    bad = [c for c in checks if c.status != "pass"]
    ok = not bad and elapsed < 1.0
    assert report(
        "1 initial-state table within 0.005",
        ok,
        f"{len(checks)} cells, worst dev {max(c.deviation for c in checks):.2e}, {elapsed:.2f}s",
    ), bad


def test_criterion_2_table2_reproduction():
    start = time.perf_counter()
    analyses = analyze_catalog()
    rows = [row for a in analyses.values() for row in table_rows("table2", a)]
    checks = check_table("table2", rows, TABLE_COLUMNS["table2"])
    elapsed = time.perf_counter() - start
    failures = [c for c in checks if c.status == "fail"]
    notes = [c for c in checks if c.status == "note"]
    for c in notes:
        print(
            f"  note: table2 case={c.case} alpha={c.alpha} {c.column} dev={c.deviation:.3f} "
            "accepted on the loose tier (averaging convention unstated)"
        )
    ok = not failures and elapsed < 10.0
    assert report(
        "2 mean entropy table within 0.02/0.05, exact cells 0.005",
        ok,
        f"{len(checks)} cells, {len(notes)} loose-tier, worst dev "
        f"{max(c.deviation for c in checks):.3f}, {elapsed:.2f}s",
    ), failures


def test_criterion_3_table3_reproduction():
    start = time.perf_counter()
    analyses = analyze_catalog()
    rows = [row for a in analyses.values() for row in table_rows("table3", a)]
    checks = check_table("table3", rows, TABLE_COLUMNS["table3"])
    elapsed = time.perf_counter() - start
    failures = [c for c in checks if c.status == "fail"]
    notes = [c for c in checks if c.status == "note"]
    for c in notes:
        print(
            f"  note: table3 case={c.case} alpha={c.alpha} {c.column} dev={c.deviation:.3f} "
            "accepted on the loose tier (averaging convention unstated)"
        )
    # cases 1, 3, 3*: Cl1_A and EF_AB wherever the reference prints 0
    zero_cells = [c for c in checks if c.limit == pytest.approx(1e-6)]
    ok = not failures and elapsed < 10.0 and len(zero_cells) == 15
    assert report(
        "3 mean coherence/entanglement table, zero cells below 1e-6",
        ok,
        f"{len(checks)} cells, {len(zero_cells)} zero cells "
        f"(worst {max(c.deviation for c in zero_cells):.1e}), {elapsed:.2f}s",
    ), failures


def test_criterion_4_stp_verdicts(catalog_analyses):
    verdicts_ok = check_verdicts(catalog_analyses)
    expected = {r["case"]: bool(r["violated"]) for r in load_reference_table("table2")}
    got = {label: catalog_analyses[label].verdict.violated for label in CATALOG_LABELS}
    ok = all(verdicts_ok.values()) and got == expected
    assert report(
        "4 verdict classification matches all 7 cases",
        ok,
        ", ".join(f"{k}:{'viol' if v else 'sat'}" for k, v in got.items()),
    ), got


def test_criterion_5_trajectory_exports(tmp_path):
    results = {}
    for label in ("2", "3*", "4*"):
        out_dir = tmp_path / label.replace("*", "star")
        assert cli_main(["--case", label, "--outputs", "trajectory", "--out-dir", str(out_dir)]) == 0
        tag = label.replace("*", "star")
        with open(out_dir / f"trajectory_case_{tag}_u.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        delta = np.array([float(r["delta"]) for r in rows])
        bound = np.array([float(r["Delta"]) for r in rows])
        results[label] = (delta, bound)

    delta2, bound2 = results["2"]
    ok = bool(np.max(np.abs(delta2)) < 1e-10 and np.max(bound2) < 1e-10)
    for label in ("3*", "4*"):
        delta, bound = results[label]
        ok = ok and abs(delta[0]) < 1e-12
        ok = ok and np.max(np.abs(delta)) > 1e-3
        ok = ok and bool(np.all(bound >= np.abs(delta) - 1e-9))
    assert report(
        "5 exported trajectories: flat for case 2, gated deviation for 3*/4*",
        ok,
        f"max|delta| 3*={np.max(np.abs(results['3*'][0])):.3f}, 4*={np.max(np.abs(results['4*'][0])):.3f}",
    )


def test_criterion_6a_unitarity_trace_spectrum():
    rng = np.random.default_rng(600)
    worst = 0.0
    for trial in range(N_TRIALS):
        h = (
            build_hamiltonian(random_hamiltonian_params(rng))
            if trial % 2
            else random_hermitian(rng, 4)
        )
        t = rng.uniform(0.0, 8.0)
        # U U^dagger = I: the propagator conjugates the identity to itself
        worst = max(worst, np.max(np.abs(SpectralPropagator(h, [t]).conjugated(np.eye(4)) - np.eye(4))))
        rho0 = random_density(rng, 4)
        traj = evolve(rho0, h, np.linspace(0.0, t, 8))
        worst = max(worst, np.max(np.abs(np.trace(traj.states, axis1=-2, axis2=-1) - 1.0)))
        ref = np.sort(np.linalg.eigvalsh(rho0))
        worst = max(worst, np.max(np.abs(np.sort(np.linalg.eigvalsh(traj.states), axis=-1) - ref)))
    ok = worst <= 1e-10
    assert report("6a unitarity/trace/spectrum preserved to 1e-10", ok, f"worst {worst:.2e}")


def test_criterion_6b_decomposition_identity():
    rng = np.random.default_rng(601)
    h_grid = time_grid(samples=65)
    worst = 0.0
    for _ in range(N_TRIALS):
        spec = random_scenario(rng)
        h = build_hamiltonian(random_hamiltonian_params(rng))
        trajs = {a: evolve(initial_mental_state(spec, a), h, h_grid) for a in BRANCHES}
        chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
        p_u = trajs["u"].states[:, 0, 0].real + trajs["u"].states[:, 2, 2].real
        p_d = trajs["d"].states[:, 0, 0].real + trajs["d"].states[:, 2, 2].real
        p_c = trajs["c"].states[:, 0, 0].real + trajs["c"].states[:, 2, 2].real
        gap = p_u - (spec.prediction.p * p_d + (1 - spec.prediction.p) * p_c + chi_leak(chi)[0])
        worst = max(worst, np.max(np.abs(gap)))
    ok = worst <= 1e-10
    assert report("6b mixture decomposition identity to 1e-10", ok, f"worst {worst:.2e}")


def test_criterion_6c_no_deviation_without_prediction_coherence():
    rng = np.random.default_rng(602)
    grid = time_grid()
    worst = 0.0
    for _ in range(N_TRIALS):
        spec = random_scenario(rng, coherent_prediction=False)
        h = build_hamiltonian(random_hamiltonian_params(rng))
        trajs = {a: evolve(initial_mental_state(spec, a), h, grid) for a in BRANCHES}
        chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
        worst = max(worst, np.max(np.abs(chi_leak(chi)[0])))
    ok = worst < 1e-10
    assert report("6c coherence-free prediction keeps |delta| below 1e-10", ok, f"worst {worst:.2e}")


def test_criterion_6d_entanglement_paths_agree():
    rng = np.random.default_rng(603)
    worst = 0.0
    for _ in range(2 * N_TRIALS):
        rho = random_pure_density(rng, 4)
        ee = von_neumann_entropy(reduced_states(rho)[0])
        worst = max(worst, abs(entanglement_of_formation(rho) - ee))
    ok = worst <= 1e-8
    assert report("6d concurrence path matches reduced-entropy path to 1e-8", ok, f"worst {worst:.2e}")


def test_criterion_6e_propagator_matches_rk4():
    rng = np.random.default_rng(604)
    rho0 = random_density(np.random.default_rng(605), 4)
    hs, ts = [], []
    for trial in range(N_TRIALS):
        h = (
            build_hamiltonian(random_hamiltonian_params(rng))
            if trial % 2
            else random_hermitian(rng, 4)
        )
        hs.append(h)
        ts.append(rng.uniform(0.25, 2.0))
    # all trials integrated as one stack: the same 2000 RK4 steps per trial
    us = rk4_propagator(np.stack(hs), np.array(ts))
    worst = 0.0
    for h, t, u in zip(hs, ts, us):
        diff = np.max(np.abs(SpectralPropagator(h, [t]).conjugated(rho0)[0] - u @ rho0 @ u.conj().T))
        worst = max(worst, diff)
    ok = worst <= 1e-8
    assert report("6e spectral propagator matches RK4 oracle to 1e-8", ok, f"worst {worst:.2e}")


def test_criterion_7_interference_hierarchy():
    start = time.perf_counter()
    survey = run_interference_survey(10_000, seed=20250810)
    elapsed = time.perf_counter() - start
    ok = (
        survey["max_abs_i3"] < 1e-10
        and survey["frac_i2_above_0.01"] >= 0.10
        and survey["diagonal_max_abs_i2"] < 1e-10
        and elapsed < 10.0
    )
    assert report(
        "7 third order cancels, second order visible, classical limit flat",
        ok,
        f"max|I3|={survey['max_abs_i3']:.1e}, frac|I2|>0.01={survey['frac_i2_above_0.01']:.2f}, "
        f"diag max|I2|={survey['diagonal_max_abs_i2']:.1e}, {elapsed:.1f}s",
    ), survey
