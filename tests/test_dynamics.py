import math

import numpy as np
import pytest

from qpdsim import (
    DimensionMismatchError,
    HamiltonianParams,
    assert_density_matrix,
    build_hamiltonian,
    catalog_case,
    choice_probability,
    entanglement_of_formation,
    evolve,
    initial_mental_state,
    l1_coherence,
    measure_action,
    partial_trace,
    time_grid,
    von_neumann_entropy,
)
from support import random_density


def hand_expanded_hamiltonian(mu_d, mu_c, gamma):
    a_d = mu_d / math.sqrt(1 + mu_d**2)
    b_d = 1 / math.sqrt(1 + mu_d**2)
    a_c = mu_c / math.sqrt(1 + mu_c**2)
    b_c = 1 / math.sqrt(1 + mu_c**2)
    g = gamma / math.sqrt(2)
    return np.array(
        [
            [a_d - g, b_d, -g, 0.0],
            [b_d, -a_d + g, 0.0, -g],
            [-g, 0.0, a_c + g, b_c],
            [0.0, -g, b_c, -a_c - g],
        ]
    )


class TestBuildHamiltonian:
    def test_gamma_zero_mu_zero_blocks(self):
        h = build_hamiltonian(HamiltonianParams(0.0, 0.0, 0.0))
        want = np.zeros((4, 4))
        want[:2, :2] = [[0, 1], [1, 0]]
        want[2:, 2:] = [[0, 1], [1, 0]]
        np.testing.assert_allclose(h, want)

    def test_corner_entry(self):
        mu, gamma = 0.59, 1.74
        h = build_hamiltonian(HamiltonianParams(mu, mu, gamma))
        assert h[0, 0] == pytest.approx(mu / math.sqrt(1 + mu**2) - gamma / math.sqrt(2))

    @pytest.mark.parametrize(
        "params",
        [
            HamiltonianParams(0.59, 0.59, 1.74),
            HamiltonianParams(1.2, -0.3, 0.7),
            HamiltonianParams(0.0, 2.0, -1.1),
        ],
    )
    def test_matches_hand_expansion(self, params):
        h = build_hamiltonian(params)
        want = hand_expanded_hamiltonian(params.mu_d, params.mu_c, params.gamma)
        np.testing.assert_allclose(h, want, atol=1e-15)

    def test_real_symmetric(self):
        h = build_hamiltonian(HamiltonianParams(0.59, 0.59, 1.74))
        assert h.dtype.kind == "f"
        np.testing.assert_array_equal(h, h.T)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HamiltonianParams(gamma=float("nan"))


class TestEvolve:
    def test_maximally_mixed_is_stationary(self):
        traj = evolve(np.eye(4) / 4, build_hamiltonian(), time_grid(samples=64))
        assert np.max(np.abs(traj.states - np.eye(4) / 4)) <= 1e-12

    def test_case1_uncertain_entropy_constant_two(self):
        traj = evolve(
            initial_mental_state(catalog_case("1"), "u"), build_hamiltonian(), time_grid(samples=129)
        )
        entropies = von_neumann_entropy(traj.states)
        np.testing.assert_allclose(entropies, 2.0, atol=1e-12)

    def test_periodic_when_spectrum_is_unit(self):
        # gamma=0 leaves only the payoff term, whose square is the identity,
        # so every orbit closes after 2*pi
        h = build_hamiltonian(HamiltonianParams(0.59, 0.59, 0.0))
        rng = np.random.default_rng(31)
        rho0 = random_density(rng, 4)
        traj = evolve(rho0, h, np.array([0.0, 2.0 * math.pi]))
        assert np.max(np.abs(traj.states[1] - rho0)) <= 1e-12

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(32)
        rho0 = random_density(rng, 4)
        ref = np.sort(np.linalg.eigvalsh(rho0))
        traj = evolve(rho0, build_hamiltonian(), time_grid(samples=33))
        traces = np.trace(traj.states, axis1=-2, axis2=-1)
        assert np.max(np.abs(traces - 1.0)) <= 1e-12
        spectra = np.sort(np.linalg.eigvalsh(traj.states), axis=-1)
        assert np.max(np.abs(spectra - ref)) <= 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(33)
        h = build_hamiltonian()
        grid = time_grid(samples=17)
        rho1, rho2 = random_density(rng, 4), random_density(rng, 4)
        w = 0.3
        mixed = evolve(w * rho1 + (1 - w) * rho2, h, grid).states
        separate = w * evolve(rho1, h, grid).states + (1 - w) * evolve(rho2, h, grid).states
        assert np.max(np.abs(mixed - separate)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve(np.eye(2) / 2, build_hamiltonian(), time_grid(samples=4))

    def test_states_are_write_protected(self):
        traj = evolve(np.eye(4) / 4, build_hamiltonian(), time_grid(samples=4))
        with pytest.raises(ValueError):
            traj.states[0, 0, 0] = 1.0

    def test_payoff_term_alone_never_entangles(self):
        # the prediction-controlled term commutes with the prediction
        # projectors, so a diagonal-prediction product state stays separable
        h = build_hamiltonian(HamiltonianParams(0.59, 0.59, 0.0))
        traj = evolve(initial_mental_state(catalog_case("2"), "u"), h, time_grid(samples=257))
        assert np.max(entanglement_of_formation(traj.states)) <= 1e-12


class TestMeasureAction:
    def test_pure_defect(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        outcomes = measure_action(rho)
        assert outcomes["d"].probability == pytest.approx(1.0)
        assert outcomes["c"].probability == 0.0
        assert outcomes["c"].post_state is None

    def test_maximally_mixed(self):
        outcomes = measure_action(np.eye(4) / 4)
        for j, label in enumerate(("d", "c")):
            out = outcomes[label]
            assert out.probability == pytest.approx(0.5)
            want = np.zeros((4, 4))
            want[j, j] = 0.5
            want[j + 2, j + 2] = 0.5
            np.testing.assert_allclose(out.post_state, want, atol=1e-15)

    def test_probabilities_sum_to_one_and_match_diagonals(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            rho = random_density(rng, 4)
            outcomes = measure_action(rho)
            total = outcomes["d"].probability + outcomes["c"].probability
            assert total == pytest.approx(1.0, abs=1e-12)
            want_d = rho[0, 0].real + rho[2, 2].real
            assert outcomes["d"].probability == pytest.approx(want_d, abs=1e-12)

    def test_post_states_valid_with_zero_action_coherence(self):
        rng = np.random.default_rng(35)
        rho = random_density(rng, 4)
        for out in measure_action(rho).values():
            assert_density_matrix(out.post_state)
            assert l1_coherence(partial_trace(out.post_state, "A", (2, 2))) <= 1e-12

    def test_consistent_with_choice_probability(self):
        # outcome-d probability equals the conditional choice probability
        # computed by the deviation analysis, both being diagonal sums
        traj = evolve(
            initial_mental_state(catalog_case("2"), "u"),
            build_hamiltonian(),
            np.array([0.0, 1.0]),
        )
        rho_t1 = traj.states[1]
        assert measure_action(rho_t1)["d"].probability == pytest.approx(
            choice_probability(rho_t1), abs=1e-12
        )

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            measure_action(np.eye(2) / 2)


class TestTimeGrid:
    def test_default_shape(self):
        grid = time_grid()
        assert len(grid) == 4097
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2 * math.pi)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            time_grid(samples=1)
        with pytest.raises(ValueError):
            time_grid(t_max=0.0)
        with pytest.raises(ValueError):
            time_grid(t_max=math.inf)
