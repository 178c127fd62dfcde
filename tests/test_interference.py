import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qpdsim import (
    InputError,
    InvariantError,
    QuantumSlitModel,
    build_hamiltonian,
    catalog_case,
    choice_probability,
    evolve,
    initial_mental_state,
    interference_term,
    random_slit_model,
    run_interference_survey,
    run_slit_model,
    subset_keys,
)

from support import chi_leak, chi_series, random_density, slit_probabilities


def projector_model(rho, effect):
    """A one-draw stack whose slits are the computational basis states."""
    n = rho.shape[0]
    return QuantumSlitModel(
        np.asarray(rho, dtype=complex)[None],
        np.eye(n, dtype=complex)[None],
        np.asarray(effect, dtype=complex)[None],
    )


def column_projectors(basis):
    """(n_draws, d, d, d) projectors |u_a><u_a| onto the columns of each basis, by outer products."""
    return np.array([[np.outer(u[:, a], u[:, a].conj()) for a in range(u.shape[1])] for u in basis])


def by_key(probs):
    """One draw's probabilities keyed by slit subset."""
    n = {3: 2, 7: 3}[len(probs)]
    return dict(zip(subset_keys(n), probs))


def table(probs):
    """A three-slit probability array from a subset-key mapping."""
    return np.array([probs[key] for key in subset_keys(3)])


class TestSlitExperiment:
    def test_subset_keys(self):
        assert subset_keys(2) == ("1", "2", "12")
        assert subset_keys(3) == ("1", "2", "3", "12", "13", "23", "123")
        assert len(subset_keys(9)) == 2**9 - 1
        with pytest.raises(ValueError, match="at most 9 slits, got 10$"):
            subset_keys(10)
        for n_slits in (0, -2):
            message = f"subset keys need at least 1 slit and one digit per slit, so at most 9 slits, got {n_slits}"
            with pytest.raises(ValueError, match=f"^{message}$"):
                subset_keys(n_slits)

    @pytest.mark.parametrize("n_slits", [True, False, 2.0, "3"])
    def test_subset_keys_takes_an_integer(self, n_slits):
        # the integer rule of every other integer argument; a bool is none, and 2.0 is not read as 2
        with pytest.raises(InputError, match=f"^{re.escape(f'n_slits must be an integer, got {n_slits!r}')}$"):
            subset_keys(n_slits)

    def test_missing_subset(self):
        message = "need one probability per slit subset (1, 3, 7, 15, 31, 63, 127, 255, 511), got shape (2,)"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            interference_term(np.array([0.2, 0.3]), (1, 2))

    @pytest.mark.parametrize("length", [4, 8])
    def test_rejects_lengths_that_count_no_subsets(self, length):
        message = f"need one probability per slit subset (1, 3, 7, 15, 31, 63, 127, 255, 511), got shape ({length},)"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            interference_term(np.full(length, 0.1), (1, 2))

    def test_probability_range(self):
        with pytest.raises(ValueError):
            interference_term(np.array([0.2, 0.3, 1.4]), (1, 2))

    @pytest.mark.parametrize(
        "probs, i, j, slits",
        [
            ([0.2, 0.3, 0.5], 1, 1, "1..2"),
            ([0.2, 0.3, 0.5], 1, 4, "1..2"),
            ([0.2, 0.3, 0.5], 0, 1, "1..2"),
            ([0.1] * 7, 3, 4, "1..3"),
        ],
    )
    def test_bad_slit_pair_names_pair_and_slits(self, probs, i, j, slits):
        message = f"slits ({i}, {j}) are not two or more distinct slits of {slits}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interference_term(np.array(probs), (i, j))

    @pytest.mark.parametrize("slits", [(1,), (1, 2, 2), (2, 3, 4), (0, 1, 2), ()])
    def test_bad_slit_set_names_slits(self, slits):
        message = f"slits ({', '.join(map(str, slits))}) are not two or more distinct slits of 1..3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interference_term(np.full(7, 0.1), slits)

    def test_out_of_range_names_draw_and_subset(self):
        probs = np.full((4, 7), 0.1)
        probs[2, 4] = -0.5
        with pytest.raises(ValueError, match=r"^draw 2: P_13 = -0\.5 outside \[0, 1\]$"):
            interference_term(probs, (1, 2, 3))


class TestI2:
    def test_classical_additive_assignment(self):
        assert interference_term(np.array([0.2, 0.3, 0.5]), (1, 2)) == 0.0

    def test_positive_for_equal_superposition(self):
        # state and detector both aligned with (|1> + |2>)/sqrt(2): opening
        # the second slit doubles the overlap instead of adding a half
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(psi, psi)
        probs = run_slit_model(projector_model(rho, rho.copy()))[0]
        exp = by_key(probs)
        # oracle: evaluate tr(Pi_S rho Pi_S M) by hand for each subset
        assert exp["12"] == pytest.approx(1.0)
        assert exp["1"] == pytest.approx(0.25)
        assert exp["2"] == pytest.approx(0.25)
        assert interference_term(probs, (1, 2)) == pytest.approx(0.5)
        assert interference_term(probs, (1, 2)) > 0.0

    def test_four_slit_classical_model(self):
        # maximally mixed in the slit basis: every pair is additive
        probs = run_slit_model(QuantumSlitModel(np.eye(4)[None] / 4 + 0j, np.eye(4)[None] + 0j, np.eye(4)[None] + 0j))
        assert probs.shape == (1, 15)
        for i, j in itertools.combinations(range(1, 5), 2):
            assert interference_term(probs, (i, j)) == 0.0

    def test_random_five_slit_model_reads_pairs_by_key(self):
        rng = np.random.default_rng(66)
        n_draws, d = 8, 5
        rho = np.array([random_density(rng, d) for _ in range(n_draws)])
        basis = np.linalg.qr(rng.standard_normal((n_draws, d, d)) + 1j * rng.standard_normal((n_draws, d, d)))[0]
        v = np.linalg.qr(rng.standard_normal((n_draws, d, d)) + 1j * rng.standard_normal((n_draws, d, d)))[0]
        effect = (v * rng.uniform(0.0, 1.0, (n_draws, 1, d))) @ v.conj().swapaxes(1, 2)
        probs = run_slit_model(QuantumSlitModel(rho, basis, effect))
        rows = [dict(zip(subset_keys(d), row)) for row in probs]
        for i, j in itertools.combinations(range(1, d + 1), 2):
            want = [p[f"{i}{j}"] - p[str(i)] - p[str(j)] for p in rows]
            np.testing.assert_array_equal(interference_term(probs, (i, j)), want)
            assert np.max(np.abs(want)) > 1e-3  # a generic quantum model interferes

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
        probs = np.array([spec.prediction.p * p_d, (1 - spec.prediction.p) * p_c, p_u])
        delta = chi_leak(chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)[1])[0]
        assert interference_term(probs, (1, 2)) == pytest.approx(delta, abs=1e-12)


class TestI3:
    def test_classical_additive_assignment(self):
        singles = {"1": 0.1, "2": 0.2, "3": 0.3}
        probs = dict(singles)
        probs.update({"12": 0.3, "13": 0.4, "23": 0.5, "123": 0.6})
        assert interference_term(table(probs), (1, 2, 3)) == pytest.approx(0.0)

    def test_supra_quantum_perturbation(self):
        probs = {k: 0.1 for k in subset_keys(3)}
        base = interference_term(table(probs), (1, 2, 3))
        probs["123"] = 0.1 + 0.1
        assert interference_term(table(probs), (1, 2, 3)) - base == pytest.approx(0.1)

    def test_sign_pattern(self):
        # linear in each subset probability with signs +1 for singles and the
        # triple, -1 for pairs
        signs = {"1": 1, "2": 1, "3": 1, "12": -1, "13": -1, "23": -1, "123": 1}
        base_probs = {k: 0.2 for k in subset_keys(3)}
        base = interference_term(table(base_probs), (1, 2, 3))
        for key, sign in signs.items():
            probs = dict(base_probs)
            probs[key] += 0.05
            shifted = interference_term(table(probs), (1, 2, 3))
            assert shifted - base == pytest.approx(sign * 0.05, abs=1e-12)

    def test_zero_for_random_quantum_models(self):
        rng = np.random.default_rng(61)
        i3 = interference_term(run_slit_model(random_slit_model(rng, 500)), (1, 2, 3))
        assert i3.shape == (500,)
        assert np.max(np.abs(i3)) < 1e-10

    def test_rejects_two_slit_experiments(self):
        message = "slits (1, 2, 3) are not two or more distinct slits of 1..2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interference_term(np.array([0.2, 0.3, 0.5]), (1, 2, 3))


def random_model(rng, n_draws, d):
    """A hand-built stack of random d-slit models: full-rank states, Haar slit bases, random effects."""
    rho = np.array([random_density(rng, d) for _ in range(n_draws)])
    basis = np.linalg.qr(rng.standard_normal((n_draws, d, d)) + 1j * rng.standard_normal((n_draws, d, d)))[0]
    v = np.linalg.qr(rng.standard_normal((n_draws, d, d)) + 1j * rng.standard_normal((n_draws, d, d)))[0]
    effect = (v * rng.uniform(0.0, 1.0, (n_draws, 1, d))) @ v.conj().swapaxes(1, 2)
    return QuantumSlitModel(rho, basis, effect)


def additive_table(singles):
    """The classical experiment of independent slits: P_T is the sum of the singles in T."""
    return {key: sum(singles[int(ch) - 1] for ch in key) for key in subset_keys(len(singles))}


class TestHierarchy:
    @pytest.mark.parametrize("d", [4, 5])
    def test_only_pairs_interfere_in_random_quantum_models(self, d):
        probs = run_slit_model(random_model(np.random.default_rng(67 + d), 16, d))
        for pair in itertools.combinations(range(1, d + 1), 2):
            assert np.max(np.abs(interference_term(probs, pair))) > 1e-3
        for k in range(3, d + 1):
            for slits in itertools.combinations(range(1, d + 1), k):
                assert np.max(np.abs(interference_term(probs, slits))) < 1e-12

    def test_supra_quantum_table_has_fourth_order_term(self):
        # a classical four-slit table whose P_123 alone carries a third-order excess of 0.1:
        # I3 of slits 1-3 reads it, every other triple stays at 0, and I4 = -I3
        probs = additive_table([0.1, 0.2, 0.3, 0.15])
        probs["123"] += 0.1
        four = np.array([probs[key] for key in subset_keys(4)])
        assert interference_term(four, (1, 2, 3)) == pytest.approx(0.1, abs=1e-12)
        for triple in ((1, 2, 4), (1, 3, 4), (2, 3, 4)):
            assert interference_term(four, triple) == pytest.approx(0.0, abs=1e-12)
        assert interference_term(four, (1, 2, 3, 4)) == pytest.approx(-0.1, abs=1e-12)


class TestRunSlitModel:
    def test_maximally_mixed_identity_effect(self):
        n = 3
        exp = by_key(run_slit_model(projector_model(np.eye(n) / n, np.eye(n)))[0])
        for key in subset_keys(n):
            assert exp[key] == pytest.approx(len(key) / n)

    def test_single_slit_diagonal_weights(self):
        rng = np.random.default_rng(62)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        effect = (u * rng.uniform(0, 1, 3)) @ u.conj().T
        exp = by_key(run_slit_model(projector_model(rho, effect))[0])
        for i in range(3):
            want = rho[i, i].real * effect[i, i].real
            assert exp[str(i + 1)] == pytest.approx(want, abs=1e-12)

    def test_diagonal_state_kills_pairwise_terms(self):
        rng = np.random.default_rng(63)
        probs = run_slit_model(random_slit_model(rng, 200, diagonal=True))
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert np.max(np.abs(interference_term(probs, pair))) < 1e-12

    def test_rejects_skewed_slit_basis(self):
        # the oblique projectors outer(v[:, a], inv(v)[a]) of this basis sum to the identity and satisfy
        # P_a P_b = delta_ab P_a, yet give P_1 = 1.5 for psi = (1, -1, 0)/sqrt(2) and the effect |1><1|
        psi = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        skewed = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
        rho, effect = np.outer(psi, psi).astype(complex), np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(InputError, match=r"^draw 0: slit basis must be unitary$"):
            QuantumSlitModel(rho[None], skewed[None], effect[None])

    def test_rejects_ten_slits(self):
        # with two-digit slit numbers, slit 1 would count as part of subset "10" and give P_10 = 1
        rho = np.zeros((10, 10))
        rho[0, 0] = 1.0
        with pytest.raises(ValueError, match="at most 9 slits, got 10$"):
            run_slit_model(projector_model(rho, np.eye(10)))

    def test_invariant_under_column_phases(self):
        # slit a is |u_a><u_a|, which a phase on column u_a leaves unchanged
        rng = np.random.default_rng(65)
        model = random_slit_model(rng, 64)
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (64, 1, 3)))
        rephased = QuantumSlitModel(model.rho, model.basis * phases, model.effect)
        assert_allclose(run_slit_model(rephased), run_slit_model(model), rtol=0, atol=1e-15)

    def test_rejects_oversized_effect(self):
        with pytest.raises(InputError, match=r"^draw 0: effect eigenvalues must lie in \[0, 1\]$"):
            projector_model(np.eye(2) / 2, 2.0 * np.eye(2))

    @pytest.mark.parametrize("diagonal", [False, True], ids=["general", "diagonal"])
    def test_matches_scalar_oracle(self, diagonal):
        rng = np.random.default_rng(64)
        model = random_slit_model(rng, 64, diagonal=diagonal)
        want = slit_probabilities(model.rho, column_projectors(model.basis), model.effect)
        got = run_slit_model(model)
        assert_allclose(got, want, rtol=0, atol=1e-12)
        rows = [by_key(row) for row in want]
        for i, j in ((1, 2), (1, 3), (2, 3)):
            pair = f"{i}{j}"
            i2 = [p[pair] - p[str(i)] - p[str(j)] for p in rows]
            assert_allclose(interference_term(got, (i, j)), i2, rtol=0, atol=1e-12)
        i3 = [p["123"] - p["12"] - p["13"] - p["23"] + p["1"] + p["2"] + p["3"] for p in rows]
        assert_allclose(interference_term(got, (1, 2, 3)), i3, rtol=0, atol=1e-12)


def valid_stack(n_draws=5, d=3):
    """Maximally mixed states, basis slits and the effect 1/2, one per draw."""
    rho = np.tile(np.eye(d, dtype=complex) / d, (n_draws, 1, 1))
    basis = np.tile(np.eye(d, dtype=complex), (n_draws, 1, 1))
    effect = np.tile(np.eye(d, dtype=complex) / 2, (n_draws, 1, 1))
    return rho, basis, effect


class TestStackChecks:
    """Each check names the one corrupted draw of an otherwise valid stack."""

    def test_valid_stack_passes(self):
        probs = run_slit_model(QuantumSlitModel(*valid_stack()))
        assert_allclose(probs, np.tile([1, 1, 1, 2, 2, 2, 3], (5, 1)) / 6, rtol=0, atol=1e-15)

    def test_slit_basis_must_be_unitary(self):
        rho, basis, effect = valid_stack()
        basis[3, :, 0] *= 1.0 + 1e-12  # a column of norm 1 + 1e-12, beyond the 5e-14 model tolerance
        with pytest.raises(InputError, match=r"^draw 3: slit basis must be unitary$"):
            QuantumSlitModel(rho, basis, effect)
        basis[3] = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # unit-norm columns, not orthogonal
        basis[3, :, 1] /= np.sqrt(2.0)
        with pytest.raises(InputError, match=r"^draw 3: slit basis must be unitary$"):
            QuantumSlitModel(rho, basis, effect)

    def test_effect_must_be_hermitian(self):
        rho, basis, effect = valid_stack()
        effect[3, 0, 1] = 0.1
        with pytest.raises(InputError, match=r"^draw 3: effect must be Hermitian$"):
            QuantumSlitModel(rho, basis, effect)

    def test_effect_eigenvalues_must_lie_in_unit_interval(self):
        rho, basis, effect = valid_stack()
        effect[3] = 1.5 * np.eye(3)
        with pytest.raises(InputError, match=r"^draw 3: effect eigenvalues must lie in \[0, 1\]$"):
            QuantumSlitModel(rho, basis, effect)

    def test_state_must_be_hermitian(self):
        rho, basis, effect = valid_stack()
        rho[3, 0, 1] = 0.1
        with pytest.raises(InputError, match=r"^draw 3: state must be Hermitian$"):
            QuantumSlitModel(rho, basis, effect)

    def test_state_must_have_unit_trace(self):
        # with the identity effect this state used to give P_123 = 0.5
        rho, basis, effect = valid_stack()
        rho[3] = np.eye(3) / 6
        with pytest.raises(InputError, match=r"^draw 3: state must have unit trace$"):
            QuantumSlitModel(rho, basis, effect)

    def test_state_must_be_positive_semidefinite(self):
        # Hermitian with trace 1 and eigenvalues 1.4, 0, -0.4; its P_S all lay inside [0, 1]
        rho, basis, effect = valid_stack()
        rho[3] = [[0.5, 0.9, 0.0], [0.9, 0.5, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(InputError, match=r"^draw 3: state must be positive semidefinite$"):
            QuantumSlitModel(rho, basis, effect)

    def test_model_checks_keep_probabilities_in_range(self):
        # trace 1 + 5e-11 would give P_13 = 1 + 5e-11, beyond the range check (1e-12)
        rho, basis, effect = valid_stack()
        effect[:] = np.eye(3)
        rho[3] = np.diag([0.5 + 5e-11, 0.0, 0.5])
        with pytest.raises(InputError, match=r"^draw 3: state must have unit trace$"):
            QuantumSlitModel(rho, basis, effect)

    def test_probabilities_must_lie_in_unit_interval(self):
        # a validated model whose state is then set to trace 1 + 5e-11
        rho, basis, effect = valid_stack()
        effect[:] = np.eye(3)
        model = QuantumSlitModel(rho, basis, effect)
        model.rho[3] = np.diag([0.5 + 5e-11, 0.0, 0.5])
        with pytest.raises(InvariantError, match=r"^draw 3: P_13 = 1\.00000000005 outside \[0, 1\] beyond tolerance$"):
            run_slit_model(model)

    def test_names_the_first_of_several_bad_draws(self):
        rho, basis, effect = valid_stack()
        effect[3, 0, 1] = 0.1
        effect[1, 1, 2] = 0.1
        with pytest.raises(InputError, match=r"^draw 1: effect must be Hermitian$"):
            QuantumSlitModel(rho, basis, effect)

    def test_residue_within_tolerance_is_clipped(self):
        # a validated model whose state is then given residue 1e-13, inside the range check (1e-12)
        rho, basis, effect = valid_stack(n_draws=1)
        effect[:] = np.eye(3)
        model = QuantumSlitModel(rho, basis, effect)
        model.rho[0] = np.diag([1.0 + 1e-13, -1e-13, 0.0])
        exp = by_key(run_slit_model(model)[0])
        assert exp["1"] == 1.0
        assert exp["2"] == 0.0

    def test_stacks_must_be_three_dimensional(self):
        # 1-D arrays used to fail on unpacking their shape, nested lists on reading .shape
        for stacks in ((np.ones(3),) * 3, (np.eye(3).tolist(),) * 3):
            with pytest.raises(InputError, match=r"^model dimensions are inconsistent$"):
                QuantumSlitModel(*stacks)
        as_lists = QuantumSlitModel(*(a.tolist() for a in valid_stack()))
        assert_array_equal(run_slit_model(as_lists), run_slit_model(QuantumSlitModel(*valid_stack())))

    def test_inconsistent_dimensions(self):
        rho, basis, effect = valid_stack()
        with pytest.raises(InputError, match=r"^model dimensions are inconsistent$"):
            QuantumSlitModel(rho, basis[:4], effect)

    def test_zero_slits(self):
        with pytest.raises(InputError, match=r"^model needs at least 1 slit, got dimension 0$"):
            QuantumSlitModel(*(np.zeros((2, 0, 0)),) * 3)


class TestSurvey:
    def test_deterministic_for_fixed_seed(self):
        a = run_interference_survey(200, seed=7)
        b = run_interference_survey(200, seed=7)
        assert a == b

    def test_draw_order_is_pinned(self):
        # the 128-draw blocks fix the order of the RNG draws; this is the value sorkin.json has always had
        assert run_interference_survey(10_000, seed=3)["frac_i2_above_0.01"] == 0.6301

    def test_summary_contents(self):
        out = run_interference_survey(300, seed=11)
        assert out["max_abs_i3"] < 1e-10
        assert out["frac_i2_above_0.01"] >= 0.10
        assert out["diagonal_max_abs_i2"] < 1e-10

    @pytest.mark.parametrize("n_draws", [0, -3])
    def test_rejects_no_draws(self, n_draws):
        with pytest.raises(ValueError, match="n_draws"):
            run_interference_survey(n_draws, seed=0)

    @pytest.mark.parametrize(
        ("n_draws", "seed", "message"),
        [
            (True, 1, "n_draws must be an integer >= 1, got True"),
            (2.5, 1, "n_draws must be an integer >= 1, got 2.5"),
            (10, -1, "seed must be an integer >= 0, got -1"),
            (10, 1.0, "seed must be an integer >= 0, got 1.0"),
            (10, False, "seed must be an integer >= 0, got False"),
        ],
    )
    def test_rejects_non_integer_arguments(self, n_draws, seed, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            run_interference_survey(n_draws, seed)

    @pytest.mark.parametrize("n_draws", [-1, 0, True, 2.0])
    def test_random_slit_model_takes_the_survey_integer_rule(self, n_draws):
        with pytest.raises(InputError, match=f"^{re.escape(f'n_draws must be an integer >= 1, got {n_draws!r}')}$"):
            random_slit_model(np.random.default_rng(0), n_draws)

    def test_numpy_integers_are_integers(self):
        out = run_interference_survey(np.int64(200), np.uint8(7))
        assert out == run_interference_survey(200, 7)
        assert type(out["n_draws"]) is int and type(out["seed"]) is int  # so the summary dumps to JSON
