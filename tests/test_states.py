import json
import re

import numpy as np
import pytest

from qpdsim import (
    BRANCHES,
    CATALOG_LABELS,
    HERM_TOL,
    PSD_TOL,
    InputError,
    ScenarioSpec,
    SubsystemParams,
    analyze_case,
    catalog_case,
    chi_initial,
    eig_hermitian,
    initial_mental_state,
    measure_series,
    qubit_state,
    scenario_from_config,
    scenario_to_config,
)
from qpdsim.cli import main as cli_main
from qpdsim.linalg import TRACE_TOL
from qpdsim.report import TABLE_COLUMNS, check_table, table_rows
from qpdsim.states import initial_rank
from support import random_scenario, reduced_states


class TestQubitState:
    def test_maximally_mixed(self):
        np.testing.assert_array_equal(qubit_state(SubsystemParams(0.5)), np.eye(2) / 2)

    def test_maximal_coherence_is_pure(self):
        rho = qubit_state(SubsystemParams(0.5, 0.5))
        np.testing.assert_allclose(eig_hermitian(rho)[0], [1.0, 0.0], atol=1e-14)

    def test_imaginary_coherence_eigenvalues(self):
        rho = qubit_state(SubsystemParams(0.5, 0.25j))
        np.testing.assert_allclose(eig_hermitian(rho)[0], [0.75, 0.25])

    def test_rejects_excess_coherence(self):
        with pytest.raises(InputError, match=r"^\|lam\|\^2 = 0\.25 exceeds p\(1-p\) = 0\.21$"):
            qubit_state(SubsystemParams(0.3, 0.5))

    @pytest.mark.parametrize("p", [2.0, -0.5, 1.0 + 2e-10, 1e200])
    def test_rejects_a_population_outside_the_unit_interval(self, p):
        # the positivity check used to name the coherence: "|lam|^2 = 0 exceeds p(1-p) = -2"
        with pytest.raises(InputError, match=rf"^p must lie in \[0, 1\], got {re.escape(repr(p))}$"):
            qubit_state(SubsystemParams(p))

    @pytest.mark.parametrize("p", [1.0 + 5e-11, -5e-11])
    def test_a_population_within_the_positivity_slack_passes(self, p):
        assert qubit_state(SubsystemParams(p))[0, 0] == p

    def test_layout(self):
        rho = qubit_state(SubsystemParams(0.7, 0.1 - 0.2j))
        assert rho[0, 0] == 0.7 and rho[1, 1] == pytest.approx(0.3)
        assert rho[0, 1] == 0.1 - 0.2j and rho[1, 0] == 0.1 + 0.2j

    @pytest.mark.parametrize("lam", [1e200, complex(1.7e308, 1.7e308)])
    def test_a_coherence_whose_square_overflows_fails_the_positivity_check(self, lam):
        # |lam|^2 is inf: the square as a product, not ** or abs, which raise OverflowError
        with pytest.raises(InputError, match=r"^\|lam\|\^2 = inf exceeds p\(1-p\) = 0\.25$"):
            qubit_state(SubsystemParams(0.5, lam))

    def test_rejects_a_nan_population(self):
        with pytest.raises(InputError, match=r"^p must be finite, got nan$"):
            qubit_state(SubsystemParams(float("nan")))

    @pytest.mark.parametrize(
        "params, message",
        [
            (SubsystemParams("0.5"), "p must be a real number, got '0.5'"),
            (SubsystemParams(0.5j), "p must be a real number, got 0.5j"),
            (SubsystemParams(True), "p must be a real number, got True"),
            (SubsystemParams(0.5, "0.5j"), "lam must be a number, got '0.5j'"),
            (SubsystemParams(0.5, None), "lam must be a number, got None"),
        ],
    )
    def test_rejects_a_parameter_that_is_not_a_number(self, params, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            qubit_state(params)
        # a scenario checks its qubits when it is built, not when analyze_case first reads them
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ScenarioSpec("x", params, SubsystemParams(0.5))

    @pytest.mark.parametrize(
        "params, message",
        [
            (SubsystemParams(10**400), f"p must be finite, got {10**400}"),
            (SubsystemParams(0.5, complex(0.0, np.inf)), "lam must be finite, got infj"),
        ],
        ids=["p-beyond-float", "lam-infinite"],
    )
    def test_rejects_a_parameter_that_is_not_finite(self, params, message):
        # the first used to raise a bare OverflowError
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ScenarioSpec("x", params, SubsystemParams(0.5))

    def test_numpy_scalars_are_numbers(self):
        rho = qubit_state(SubsystemParams(np.float32(0.5), np.complex64(0.25j)))
        np.testing.assert_array_equal(rho, qubit_state(SubsystemParams(0.5, 0.25j)))


class TestInitialMentalState:
    def test_case1_uncertain_is_maximally_mixed(self):
        np.testing.assert_allclose(initial_mental_state(catalog_case("1"), "u"), np.eye(4) / 4)

    def test_case1star_uncertain_diagonal(self):
        rho = initial_mental_state(catalog_case("1*"), "u")
        want = np.diag([1 / 3 * 3 / 5, 1 / 3 * 2 / 5, 2 / 3 * 3 / 5, 2 / 3 * 2 / 5])
        np.testing.assert_allclose(rho, want, atol=1e-15)

    def test_case4_defect_branch_block(self):
        rho = initial_mental_state(catalog_case("4"), "d")
        block = np.array([[0.5, 0.5], [0.5, 0.5]])
        want = np.zeros((4, 4))
        want[:2, :2] = block
        np.testing.assert_allclose(rho, want)

    def test_all_catalog_states_are_valid_densities(self):
        for label in CATALOG_LABELS:
            spec = catalog_case(label)
            for alpha in BRANCHES:
                rho = initial_mental_state(spec, alpha)
                assert np.max(np.abs(rho - rho.conj().T)) <= HERM_TOL, (label, alpha)
                assert abs(np.trace(rho) - 1.0) <= TRACE_TOL, (label, alpha)
                assert np.linalg.eigvalsh(rho)[0] >= -PSD_TOL, (label, alpha)

    def test_unknown_branch(self):
        spec = catalog_case("3")
        for build in (initial_mental_state, initial_rank):
            with pytest.raises(InputError, match=r"^unknown branch 'x'; choose from \('u', 'd', 'c'\)$"):
                build(spec, "x")


class TestInitialRank:
    CATALOG_RANKS = {
        "1": (4, 2, 2), "1*": (4, 2, 2), "2": (2, 1, 1), "3": (2, 2, 2), "3*": (4, 2, 2), "4": (1, 1, 1), "4*": (2, 1, 1),
    }

    def test_catalog_ranks(self):
        for label in CATALOG_LABELS:
            spec = catalog_case(label)
            assert tuple(initial_rank(spec, alpha) for alpha in BRANCHES) == self.CATALOG_RANKS[label]
            for alpha in BRANCHES:
                eigenvalues = np.linalg.eigvalsh(initial_mental_state(spec, alpha))
                assert np.count_nonzero(eigenvalues > 1e-12) == initial_rank(spec, alpha), (label, alpha)

    def test_barely_mixed_prediction_has_rank_two(self):
        lam = np.nextafter(0.5, 0.0)  # |lam|^2 falls just below p(1 - p) = 1/4
        assert lam**2 < 0.25
        spec = ScenarioSpec("barely mixed", SubsystemParams(0.5, lam), SubsystemParams(0.5, 0.5))
        assert [initial_rank(spec, alpha) for alpha in BRANCHES] == [2, 1, 1]
        a = analyze_case(spec, samples=257)
        bare = measure_series(a.trajectories["u"].states)
        np.testing.assert_allclose(a.series["u"].EF_AB, bare.EF_AB, rtol=0, atol=1e-10)


def closed_form_chi(p_a, lam_a, lam_b):
    block = np.array([[p_a * lam_b, lam_a * lam_b], [np.conj(lam_a) * lam_b, (1 - p_a) * lam_b]])
    chi = np.zeros((4, 4), dtype=complex)
    chi[:2, 2:] = block
    chi[2:, :2] = block.conj().T
    return chi


class TestChiInitial:
    def test_zero_without_prediction_coherence(self):
        for label in ("1", "1*", "2"):
            assert np.max(np.abs(chi_initial(catalog_case(label)))) == 0.0

    def test_case3_entries(self):
        chi = chi_initial(catalog_case("3"))
        assert chi[0, 2] == pytest.approx(0.25, abs=1e-15)
        assert chi[1, 3] == pytest.approx(0.25, abs=1e-15)
        assert chi[0, 3] == 0.0 and chi[1, 2] == 0.0

    def test_case4star_corner_entry(self):
        chi = chi_initial(catalog_case("4*"))
        assert chi[0, 3] == pytest.approx(0.5 * 0.25j, abs=1e-15)

    @pytest.mark.parametrize("label", CATALOG_LABELS)
    def test_matches_closed_form(self, label):
        spec = catalog_case(label)
        want = closed_form_chi(spec.action.p, spec.action.lam, spec.prediction.lam)
        np.testing.assert_allclose(chi_initial(spec), want, atol=1e-12)

    def test_equals_branch_subtraction_exactly(self):
        # the closed form takes the same products as rho_u - p_B rho_d - (1 - p_B) rho_c, minus exact zeros
        rng = np.random.default_rng(23)
        specs = [catalog_case(label) for label in CATALOG_LABELS]
        specs += [random_scenario(rng, coherent_prediction=bool(k % 4)) for k in range(200)]
        for spec in specs:
            p_b = spec.prediction.p
            rho = {alpha: initial_mental_state(spec, alpha) for alpha in BRANCHES}
            subtraction = rho["u"] - p_b * rho["d"] - (1.0 - p_b) * rho["c"]
            assert np.array_equal(chi_initial(spec), subtraction), spec

    @pytest.mark.parametrize("label", CATALOG_LABELS)
    def test_traceless_hermitian_zero_diagonal(self, label):
        chi = chi_initial(catalog_case(label))
        assert abs(np.trace(chi)) <= 1e-12
        assert np.max(np.abs(chi - chi.conj().T)) <= 1e-12
        assert np.max(np.abs(np.diagonal(chi))) == 0.0

    def test_decomposition_identity_at_t0(self):
        rng = np.random.default_rng(21)
        specs = [catalog_case(label) for label in CATALOG_LABELS]
        specs += [random_scenario(rng) for _ in range(50)]
        for spec in specs:
            p_b = spec.prediction.p
            mixture = (
                p_b * initial_mental_state(spec, "d")
                + (1 - p_b) * initial_mental_state(spec, "c")
                + chi_initial(spec)
            )
            assert np.max(np.abs(initial_mental_state(spec, "u") - mixture)) <= 1e-12


class TestClassicalMentalState:
    """Diagonal joint states: no coherence, only a joint distribution over {dd, dc, cd, cc}."""

    def test_bayes_marginal_factorization(self):
        # brute force over random joint distributions: joints recombine from
        # conditionals times marginals, and partial traces give the marginals
        rng = np.random.default_rng(22)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            rho = np.diag(p).astype(complex)
            p_b = np.real(np.diagonal(reduced_states(rho)[0]))
            p_a_given_b = np.array(
                [
                    [p[0], p[1]] / p_b[0] if p_b[0] > 0 else [0.0, 0.0],
                    [p[2], p[3]] / p_b[1] if p_b[1] > 0 else [0.0, 0.0],
                ]
            )
            for i in range(2):
                for j in range(2):
                    assert p[2 * i + j] == pytest.approx(p_a_given_b[i, j] * p_b[i], abs=1e-12)


class TestScenarioSpec:
    def test_catalog_labels(self):
        assert CATALOG_LABELS == ("1", "1*", "2", "3", "3*", "4", "4*")

    def test_unknown_label(self):
        with pytest.raises(InputError, match="unknown case label '5'"):
            catalog_case("5")

    def test_certain_branches_fixed(self):
        for label in CATALOG_LABELS:
            spec = catalog_case(label)
            rho_a = qubit_state(spec.action)
            for alpha, prediction in (("d", np.diag([1.0, 0.0])), ("c", np.diag([0.0, 1.0]))):
                np.testing.assert_array_equal(initial_mental_state(spec, alpha), np.kron(prediction, rho_a))
            branches = scenario_to_config(spec)["branches"]
            assert (branches["d"]["pB"], branches["c"]["pB"]) == (1.0, 0.0)

    def test_rejects_wrong_certain_branch(self):
        # a config is the one place a scenario's derived branches can disagree with it
        config = scenario_to_config(catalog_case("2"))
        config["branches"]["d"]["pB"] = 0.9
        with pytest.raises(ValueError, match=r"^config: branches\.d\.pB must be 1\.0 \(a certain prediction\), got 0\.9$"):
            scenario_from_config(config)

    def test_rejects_mismatched_action(self):
        config = scenario_to_config(catalog_case("2"))
        config["branches"]["c"]["pA"] = 0.4
        with pytest.raises(ValueError, match=r"^config: branches\.c\.pA must be 0\.5 \(the action of branch u\), got 0\.4$"):
            scenario_from_config(config)

    def test_rejects_non_positive_prediction(self):
        with pytest.raises(InputError, match=r"^\|lam\|\^2 = 0\.81 exceeds p\(1-p\) = 0\.25$"):
            ScenarioSpec("bad", SubsystemParams(0.5, 0.9), SubsystemParams(0.5))
        with pytest.raises(InputError, match=r"^\|lam\|\^2 = 0\.25 exceeds p\(1-p\) = 0\.21$"):
            ScenarioSpec("bad", SubsystemParams(0.5), SubsystemParams(0.3, 0.5))

    @pytest.mark.parametrize("label", ["a/b", 5])
    def test_rejects_bad_case_label(self, label):
        # the label names the output files, so a spec built in code is checked as a config is
        message = f"case_label must be a non-empty printable string without / or \\, got {label!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioSpec(label, SubsystemParams(0.5), SubsystemParams(0.5))
        config = scenario_to_config(catalog_case("3"))
        config["case_label"] = label
        with pytest.raises(ValueError, match=f"^config: {re.escape(message)}$"):
            scenario_from_config(config)

    def test_uncorrelated_is_the_constructor(self):
        # the older name perfbench/workloads.py still builds its scenarios with
        prediction, action = SubsystemParams(0.3, 0.1j), SubsystemParams(0.6)
        assert ScenarioSpec.uncorrelated("x", prediction, action) == ScenarioSpec("x", prediction, action)

    def test_config_roundtrip(self):
        rng = np.random.default_rng(24)
        specs = [catalog_case(label) for label in CATALOG_LABELS]
        specs += [random_scenario(rng, coherent_prediction=bool(k % 2)) for k in range(50)]
        for spec in specs:
            config = json.loads(json.dumps(scenario_to_config(spec)))
            assert scenario_from_config(config) == spec

    def test_load_scenario_file(self, tmp_path):
        # the CLI reads a scenario file written from scenario_to_config as the catalog case itself
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_config(catalog_case("3*"))))
        assert cli_main(["--config", str(path), "--outputs", "table1", "--out-dir", str(tmp_path / "file")]) == 0
        assert cli_main(["--case", "3*", "--outputs", "table1", "--out-dir", str(tmp_path / "case")]) == 0
        assert (tmp_path / "file" / "table1.csv").read_text() == (tmp_path / "case" / "table1.csv").read_text()


def test_table1_catalog_reproduces_reference():
    rows = [row for label in CATALOG_LABELS for row in table_rows("table1", catalog_case(label))]
    checks = check_table("table1", rows, TABLE_COLUMNS["table1"])
    bad = [c for c in checks if c.status != "pass"]
    assert not bad, bad


def _binary_entropy(x):
    return -sum(q * np.log2(q) for q in (x, 1.0 - x) if q > 0.0)


def test_table1_custom_scenario_matches_closed_forms():
    # qubit [[p, lam], [conj(lam), 1-p]]: Cl1 = 2|lam| and S is the binary
    # entropy of its eigenvalue (1 + sqrt((2p-1)^2 + 4|lam|^2)) / 2
    prediction = SubsystemParams(0.3, 0.2 + 0.1j)
    action = SubsystemParams(0.7, -0.15j)
    spec = ScenarioSpec("custom", prediction, action)
    rows = table_rows("table1", spec)
    assert [(r["case"], r["alpha"]) for r in rows] == [("custom", a) for a in BRANCHES]
    for row in rows:
        predicted = {"u": prediction, "d": SubsystemParams(1.0), "c": SubsystemParams(0.0)}[row["alpha"]]
        for side, params in (("B", predicted), ("A", action)):
            radius = np.sqrt((2.0 * params.p - 1.0) ** 2 + 4.0 * abs(params.lam) ** 2)
            assert row[f"Cl1_{side}"] == pytest.approx(2.0 * abs(params.lam), rel=0, abs=1e-12)
            assert row[f"S_{side}"] == pytest.approx(_binary_entropy((1.0 + radius) / 2.0), rel=0, abs=1e-12)
