import numpy as np
import pytest

from qpdsim import (
    InvalidModelError,
    MissingSubsetError,
    QuantumSlitModel,
    SlitExperiment,
    build_hamiltonian,
    catalog_case,
    chi_series,
    choice_probability,
    evolve,
    initial_mental_state,
    interference_i3,
    pairwise_interference,
    random_slit_model,
    run_interference_survey,
    run_slit_model,
    slit_experiment_from_json,
    slit_experiment_to_json,
    stp_delta,
    subset_keys,
)


def projector_model(rho, effect):
    n = rho.shape[0]
    projectors = np.stack([np.diag([1.0 if k == i else 0.0 for k in range(n)]) for i in range(n)]).astype(complex)
    return QuantumSlitModel(np.asarray(rho, dtype=complex), projectors, np.asarray(effect, dtype=complex))


class TestSlitExperiment:
    def test_subset_keys(self):
        assert subset_keys(2) == ("1", "2", "12")
        assert subset_keys(3) == ("1", "2", "3", "12", "13", "23", "123")

    def test_missing_subset(self):
        with pytest.raises(MissingSubsetError):
            SlitExperiment(2, {"1": 0.2, "2": 0.3})

    def test_probability_range(self):
        with pytest.raises(ValueError):
            SlitExperiment(2, {"1": 0.2, "2": 0.3, "12": 1.4})

    def test_json_roundtrip(self):
        exp = SlitExperiment(3, {k: 0.1 for k in subset_keys(3)})
        again = slit_experiment_from_json(slit_experiment_to_json(exp))
        assert again.n_slits == 3
        assert again.probs == exp.probs


class TestI2:
    def test_classical_additive_assignment(self):
        exp = SlitExperiment(2, {"1": 0.2, "2": 0.3, "12": 0.5})
        assert pairwise_interference(exp, 1, 2) == 0.0

    def test_positive_for_equal_superposition(self):
        # state and detector both aligned with (|1> + |2>)/sqrt(2): opening
        # the second slit doubles the overlap instead of adding a half
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(psi, psi)
        exp = run_slit_model(projector_model(rho, rho.copy()))
        # oracle: evaluate tr(Pi_S rho Pi_S M) by hand for each subset
        assert exp["12"] == pytest.approx(1.0)
        assert exp["1"] == pytest.approx(0.25)
        assert exp["2"] == pytest.approx(0.25)
        assert pairwise_interference(exp, 1, 2) == pytest.approx(0.5)
        assert pairwise_interference(exp, 1, 2) > 0.0

    def test_choice_deviation_is_two_slit_interference(self):
        # the mixture deviation of the decision model is exactly a two-slit
        # second-order term with the certain predictions as slits
        spec = catalog_case("3*")
        h = build_hamiltonian()
        times = np.array([0.0, 1.3])
        trajs = {a: evolve(initial_mental_state(spec, a), h, times) for a in ("u", "d", "c")}
        p_u = choice_probability(trajs["u"].states[1])
        p_d = choice_probability(trajs["d"].states[1])
        p_c = choice_probability(trajs["c"].states[1])
        exp = SlitExperiment(
            2, {"1": spec.p_b * p_d, "2": (1 - spec.p_b) * p_c, "12": p_u}
        )
        delta = stp_delta(chi_series(trajs["u"], trajs["d"], trajs["c"], spec.p_b)[1])
        assert pairwise_interference(exp, 1, 2) == pytest.approx(delta, abs=1e-12)


class TestI3:
    def test_classical_additive_assignment(self):
        singles = {"1": 0.1, "2": 0.2, "3": 0.3}
        probs = dict(singles)
        probs.update({"12": 0.3, "13": 0.4, "23": 0.5, "123": 0.6})
        assert interference_i3(SlitExperiment(3, probs)) == pytest.approx(0.0)

    def test_supra_quantum_perturbation(self):
        probs = {k: 0.1 for k in subset_keys(3)}
        base = interference_i3(SlitExperiment(3, probs))
        probs["123"] = 0.1 + 0.1
        assert interference_i3(SlitExperiment(3, probs)) - base == pytest.approx(0.1)

    def test_sign_pattern(self):
        # linear in each subset probability with signs +1 for singles and the
        # triple, -1 for pairs
        signs = {"1": 1, "2": 1, "3": 1, "12": -1, "13": -1, "23": -1, "123": 1}
        base_probs = {k: 0.2 for k in subset_keys(3)}
        base = interference_i3(SlitExperiment(3, base_probs))
        for key, sign in signs.items():
            probs = dict(base_probs)
            probs[key] += 0.05
            shifted = interference_i3(SlitExperiment(3, probs))
            assert shifted - base == pytest.approx(sign * 0.05, abs=1e-12)

    def test_zero_for_random_quantum_models(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            exp = run_slit_model(random_slit_model(rng))
            assert abs(interference_i3(exp)) < 1e-10


class TestRunSlitModel:
    def test_maximally_mixed_identity_effect(self):
        n = 3
        exp = run_slit_model(projector_model(np.eye(n) / n, np.eye(n)))
        for key in subset_keys(n):
            assert exp[key] == pytest.approx(len(key) / n)

    def test_single_slit_diagonal_weights(self):
        rng = np.random.default_rng(62)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        effect = (u * rng.uniform(0, 1, 3)) @ u.conj().T
        exp = run_slit_model(projector_model(rho, effect))
        for i in range(3):
            want = rho[i, i].real * effect[i, i].real
            assert exp[str(i + 1)] == pytest.approx(want, abs=1e-12)

    def test_diagonal_state_kills_pairwise_terms(self):
        rng = np.random.default_rng(63)
        for _ in range(200):
            exp = run_slit_model(random_slit_model(rng, diagonal=True))
            for pair in ((1, 2), (1, 3), (2, 3)):
                assert abs(pairwise_interference(exp, *pair)) < 1e-12

    def test_rejects_non_orthogonal_projectors(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        projectors = np.stack([np.outer(v, v), np.diag([0.0, 1.0])]).astype(complex)
        with pytest.raises(InvalidModelError):
            QuantumSlitModel(np.eye(2, dtype=complex) / 2, projectors, np.eye(2, dtype=complex))

    def test_rejects_oversized_effect(self):
        with pytest.raises(InvalidModelError):
            projector_model(np.eye(2) / 2, 2.0 * np.eye(2))


class TestSurvey:
    def test_deterministic_for_fixed_seed(self):
        a = run_interference_survey(200, seed=7)
        b = run_interference_survey(200, seed=7)
        assert a == b

    def test_summary_contents(self):
        out = run_interference_survey(300, seed=11)
        assert out["max_abs_i3"] < 1e-10
        assert out["frac_i2_above_0.01"] >= 0.10
        assert out["diagonal_max_abs_i2"] < 1e-10

    @pytest.mark.parametrize("n_draws", [0, -3])
    def test_rejects_no_draws(self, n_draws):
        with pytest.raises(ValueError, match="n_draws"):
            run_interference_survey(n_draws, seed=0)
