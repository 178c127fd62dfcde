import dataclasses
import math
import re

import numpy as np
import pytest

from qpdsim import (
    HamiltonianParams,
    InputError,
    Trajectory,
    build_hamiltonian,
    catalog_case,
    choice_probability,
    entanglement_of_formation,
    evolve,
    initial_mental_state,
    time_grid,
)
from qpdsim.dynamics import orbit
from qpdsim.linalg import SpectralPropagator
from support import random_density, state_entries, von_neumann_entropy


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

    @pytest.mark.parametrize("name", ["mu_d", "mu_c"])
    def test_rejects_payoff_constant_whose_square_overflows(self, name):
        # 1 + mu^2 = inf would make build_hamiltonian's H_A silently zero
        with pytest.raises(ValueError, match=rf"^{name} = 1e\+200 is too large: its square overflows$"):
            HamiltonianParams(**{name: 1e200})
        with pytest.raises(ValueError, match=rf"^{name} = -1e\+155 is too large"):
            HamiltonianParams(**{name: -1e155})

    @pytest.mark.parametrize("name, value", [("mu_d", "0.5"), ("mu_c", None), ("gamma", 1j), ("gamma", True)])
    def test_rejects_a_parameter_that_is_not_a_real_number(self, name, value):
        with pytest.raises(InputError, match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
            HamiltonianParams(**{name: value})
        assert HamiltonianParams(**{name: np.float32(0.5)}) == HamiltonianParams(**{name: 0.5})

    @pytest.mark.parametrize("name", ["mu_d", "gamma"])
    def test_rejects_an_int_too_large_for_a_float(self, name):
        # it used to raise a bare OverflowError
        with pytest.raises(InputError, match=rf"^{name} must be finite, got {10**400}$"):
            HamiltonianParams(**{name: 10**400})

    def test_largest_payoff_constants_keep_the_payoff_rotation(self):
        h = build_hamiltonian(HamiltonianParams(1e150, -1e150, 0.0))
        np.testing.assert_array_equal(np.diag(h), [1.0, -1.0, -1.0, 1.0])


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
        with pytest.raises(InputError, match=r"^state shape \(2, 2\) != Hamiltonian shape \(4, 4\)$"):
            evolve(np.eye(2) / 2, build_hamiltonian(), time_grid(samples=4))

    def test_non_hermitian_state_rejected(self):
        rho0 = np.eye(4) / 4
        rho0[0, 1] = 0.1
        with pytest.raises(InputError, match=r"^matrix is not Hermitian within 1e-12$"):
            evolve(rho0, build_hamiltonian(), time_grid(samples=4))

    def test_scalar_time_is_not_a_grid(self):
        with pytest.raises(InputError, match=r"^times must be 1-D, got shape \(\)$"):
            evolve(np.eye(4) / 4, build_hamiltonian(), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_is_named(self, bad):
        with pytest.raises(ValueError, match=rf"^time sample 1 is {bad}, not finite$"):
            evolve(np.eye(4) / 4, build_hamiltonian(), [0.0, bad, 1.0])

    def test_non_numeric_grid_is_named(self):
        with pytest.raises(InputError, match=r"^times must be real numbers: could not convert string to float: 'a'$"):
            evolve(np.eye(4) / 4, build_hamiltonian(), ["a", "b"])

    def test_forms_no_spin_flipped_matrix(self, monkeypatch):
        rho0 = initial_mental_state(catalog_case("3*"), "u")
        h, times = build_hamiltonian(), time_grid(samples=33)
        expected = orbit(rho0, SpectralPropagator(h, times), 4).entries

        def refuse(*args):
            raise AssertionError("evolve formed the spin-flipped n(t)")

        monkeypatch.setattr(SpectralPropagator, "spin_flipped", refuse)
        np.testing.assert_array_equal(state_entries(evolve(rho0, h, times).states), expected)

    def test_callers_times_stay_writeable(self):
        times = time_grid(samples=4)
        traj = evolve(np.eye(4) / 4, build_hamiltonian(), times)
        assert times.flags.writeable
        np.testing.assert_array_equal(traj.times, times)

    def test_trajectory_adds_no_check_of_its_own(self):
        # evolve's grid rule is the one check: a Trajectory only holds the grid and the states
        assert [field.name for field in dataclasses.fields(Trajectory)] == ["times", "states"]
        assert "__post_init__" not in vars(Trajectory)

    def test_payoff_term_alone_never_entangles(self):
        # the prediction-controlled term commutes with the prediction
        # projectors, so a diagonal-prediction product state stays separable
        h = build_hamiltonian(HamiltonianParams(0.59, 0.59, 0.0))
        traj = evolve(initial_mental_state(catalog_case("2"), "u"), h, time_grid(samples=257))
        assert np.max(entanglement_of_formation(traj.states)) <= 1e-12


def action_outcome_probability(rho, action):
    """Oracle for the action measurement: tr((1 (x) |action><action|) rho)."""
    proj = np.kron(np.eye(2), np.diag([1.0, 0.0] if action == "d" else [0.0, 1.0]))
    return np.trace(proj @ rho).real


class TestMeasureAction:
    # measuring the action qubit yields d with probability choice_probability(rho)
    def test_pure_defect(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert choice_probability(rho) == pytest.approx(1.0)
        assert action_outcome_probability(rho, "c") == 0.0

    def test_maximally_mixed(self):
        rho = np.eye(4) / 4
        assert choice_probability(rho) == pytest.approx(0.5)
        assert action_outcome_probability(rho, "c") == pytest.approx(0.5)

    def test_probabilities_sum_to_one_and_match_diagonals(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            rho = random_density(rng, 4)
            p_d = choice_probability(rho)
            assert p_d + action_outcome_probability(rho, "c") == pytest.approx(1.0, abs=1e-12)
            assert p_d == pytest.approx(action_outcome_probability(rho, "d"), abs=1e-12)

    def test_consistent_with_choice_probability(self):
        # the defection weight the deviation analysis uses is the outcome-d
        # probability of the action measurement on an evolved state
        traj = evolve(
            initial_mental_state(catalog_case("2"), "u"),
            build_hamiltonian(),
            np.array([0.0, 1.0]),
        )
        rho_t1 = traj.states[1]
        assert choice_probability(rho_t1) == pytest.approx(action_outcome_probability(rho_t1, "d"), abs=1e-12)


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

    def test_rejects_non_integral_samples(self):
        with pytest.raises(InputError, match=r"^samples must be an integer >= 2, got 2\.5$"):
            time_grid(1.0, 2.5)
        assert len(time_grid(1.0, np.int64(3))) == 3
