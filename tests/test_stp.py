import re

import numpy as np
import pytest

from qpdsim import (
    BRANCHES,
    CATALOG_LABELS,
    DELTA_EPS,
    InputError,
    analyze_case,
    build_hamiltonian,
    catalog_case,
    chi_initial,
    choice_probability,
    eig_hermitian,
    evolve,
    initial_mental_state,
    stp_verdict,
    time_grid,
)
from qpdsim.stp import stp_leak
from support import chi_leak, chi_series, random_hamiltonian_params, random_scenario, unitary

SATISFYING = ("1", "1*", "2")
VIOLATING = ("3", "3*", "4", "4*")


def branch_trajectories(spec, params=None, times=None):
    h = build_hamiltonian(params) if params is not None else build_hamiltonian()
    if times is None:
        times = time_grid()
    return {alpha: evolve(initial_mental_state(spec, alpha), h, times) for alpha in BRANCHES}


class TestChoiceProbability:
    def test_pure_defect_prediction_and_action(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert choice_probability(rho) == 1.0

    def test_maximally_mixed(self):
        assert choice_probability(np.eye(4) / 4) == pytest.approx(0.5)

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (3, 4, 2)])
    def test_rejects_a_shape_that_is_not_4x4(self, shape):
        message = f"expected a 4x4 state or a (..., 4, 4) stack, got shape {shape}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            choice_probability(np.ones(shape))

    def test_mixture_law_exact_at_t0(self):
        # the correction matrix has an identically zero diagonal initially,
        # so the uncertain branch obeys the classical mixture at t = 0
        for label in CATALOG_LABELS:
            spec = catalog_case(label)
            p_u = choice_probability(initial_mental_state(spec, "u"))
            p_d = choice_probability(initial_mental_state(spec, "d"))
            p_c = choice_probability(initial_mental_state(spec, "c"))
            assert p_u == pytest.approx(spec.prediction.p * p_d + (1 - spec.prediction.p) * p_c, abs=1e-14)


class TestChiSeries:
    def test_t0_matches_initial_construction(self):
        spec = catalog_case("3*")
        trajs = branch_trajectories(spec, times=time_grid(samples=8))
        chi0 = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)[0]
        np.testing.assert_allclose(chi0, chi_initial(spec), atol=1e-13)

    def test_grid_mismatch_rejected(self):
        spec = catalog_case("3")
        h = build_hamiltonian()
        traj_a = evolve(initial_mental_state(spec, "u"), h, time_grid(samples=8))
        traj_b = evolve(initial_mental_state(spec, "d"), h, time_grid(samples=16))
        with pytest.raises(InputError, match=r"^branch trajectories must share one time grid$"):
            chi_series(traj_a, traj_b, traj_b, spec.prediction.p)

    def test_two_computation_paths_agree(self):
        # subtraction of evolved branches versus direct conjugation of chi(0)
        spec = catalog_case("3*")
        times = time_grid(samples=257)
        trajs = branch_trajectories(spec, times=times)
        chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
        h = build_hamiltonian()
        chi0 = chi_initial(spec)
        for k in (1, 64, 200, 256):
            u = unitary(h, times[k])
            np.testing.assert_allclose(chi[k], u @ chi0 @ u.conj().T, atol=1e-10)

    def test_traceless_along_evolution(self):
        spec = catalog_case("4*")
        trajs = branch_trajectories(spec, times=time_grid(samples=65))
        chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
        assert np.max(np.abs(np.trace(chi, axis1=-2, axis2=-1))) <= 1e-10


class TestDelta:
    def test_zero_matrix(self):
        assert chi_leak(np.zeros((4, 4), dtype=complex))[0] == 0.0

    def test_rejects_imaginary_diagonal(self):
        # off-diagonal imaginary parts are legitimate; every diagonal entry must be real
        chi = np.zeros((3, 4, 4), dtype=complex)
        chi[:, 0, 1] = 0.3j
        assert np.array_equal(chi_leak(chi)[0], np.zeros(3))
        chi[1, 2, 2] = 2e-12j
        with pytest.raises(ValueError, match="imaginary part"):
            chi_leak(chi)
        with pytest.raises(ValueError, match="imaginary part"):
            chi_leak(chi[1])

    def test_rejects_imaginary_parts_that_cancel_in_delta(self):
        # dd and cd carry opposite imaginary parts, so delta alone would look real
        with pytest.raises(ValueError, match="imaginary part"):
            stp_leak(np.array([1j, 0.0, -1j, 0.0]))
        with pytest.raises(ValueError, match="imaginary part"):
            stp_leak(np.array([0.0, 1j, 0.0, 0.0]))

    def test_imaginary_entry_names_its_sample(self):
        chi = np.zeros((5, 4), dtype=complex)
        chi[3, 1] = 1e-9j
        chi[4, 0] = 1j
        with pytest.raises(ValueError, match=r"^chi diagonal sample 3, entry 1: imaginary part 1e-09 beyond 1e-12$"):
            stp_leak(chi)
        with pytest.raises(ValueError, match=r"^chi diagonal sample 0, entry 1: imaginary part 1e-09 beyond 1e-12$"):
            stp_leak(chi[3])

    def test_nan_imaginary_part_is_named(self):
        # NaN > tolerance is False, so the check must be written as not (|imag| <= tolerance)
        chi = np.zeros((3, 4), dtype=complex)
        chi[1, 0] = complex(0.1, np.nan)
        with pytest.raises(ValueError, match=r"^chi diagonal sample 1, entry 0: imaginary part nan beyond 1e-12$"):
            stp_leak(chi)

    def test_case2_never_deviates(self):
        spec = catalog_case("2")
        trajs = branch_trajectories(spec)
        chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
        assert np.max(np.abs(chi_leak(chi)[0])) < 1e-10

    def test_matches_probability_difference_oracle(self):
        # independent path: delta from the three choice probabilities
        spec = catalog_case("3*")
        times = np.array([0.0, 1.0])
        trajs = branch_trajectories(spec, times=times)
        chi1 = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)[1]
        p_u = choice_probability(trajs["u"].states[1])
        p_d = choice_probability(trajs["d"].states[1])
        p_c = choice_probability(trajs["c"].states[1])
        want = p_u - (spec.prediction.p * p_d + (1 - spec.prediction.p) * p_c)
        assert chi_leak(chi1)[0] == pytest.approx(want, abs=1e-12)
        assert abs(want) > 1e-3  # the case genuinely deviates at t = 1

    def test_decomposition_identity_every_sample(self):
        rng = np.random.default_rng(51)
        specs = [catalog_case(label) for label in CATALOG_LABELS]
        specs += [random_scenario(rng) for _ in range(5)]
        for spec in specs:
            trajs = branch_trajectories(spec, times=time_grid(samples=513))
            delta = chi_leak(chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p))[0]
            p = {alpha: choice_probability(trajs[alpha].states) for alpha in BRANCHES}
            mixture = spec.prediction.p * p["d"] + (1 - spec.prediction.p) * p["c"]
            np.testing.assert_allclose(p["u"], mixture + delta, rtol=0, atol=1e-10)

    def test_bound_dominates_delta(self):
        spec = catalog_case("4*")
        trajs = branch_trajectories(spec)
        chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
        delta, bound = chi_leak(chi)
        assert np.all(bound >= np.abs(delta) - 1e-12)

    def test_coherence_free_prediction_never_deviates(self):
        # necessity: without prediction coherence the deviation vanishes for
        # arbitrary subsystem parameters and Hamiltonians
        rng = np.random.default_rng(52)
        for _ in range(100):
            spec = random_scenario(rng, coherent_prediction=False)
            trajs = branch_trajectories(spec, params=random_hamiltonian_params(rng))
            chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
            assert np.max(np.abs(chi_leak(chi)[0])) < 1e-10

    @pytest.mark.parametrize("label", VIOLATING)
    def test_catalog_violations_are_visible(self, label):
        spec = catalog_case(label)
        trajs = branch_trajectories(spec)
        chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
        assert np.max(np.abs(chi_leak(chi)[0])) > 1e-3


class TestCoherenceBudget:
    """chi(0) = [[0, lam_B], [conj(lam_B), 0]] (x) rho_A has eigenvalues +-|lam_B| a_i, with a_1 + a_2 = 1 rho_A's, and
    unitary evolution keeps them. delta = tr((I (x) |d><d|) chi) projects on a rank-2 subspace, so |delta| <= |lam_B|
    (Ky Fan's maximum principle), and Delta = sum |chi_ii| <= ||chi||_1 = 2 |lam_B| (pinching), for every H and t."""

    def test_violation_never_exceeds_the_prediction_coherence(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            spec = random_scenario(rng)
            analysis = analyze_case(spec, random_hamiltonian_params(rng), samples=513)
            budget = abs(spec.prediction.lam)
            assert np.max(np.abs(analysis.delta)) <= budget + 1e-12  # at most 0.927 of it measured
            assert np.max(analysis.delta_bound) <= 2.0 * budget + 1e-12

    def test_some_unitary_spends_the_whole_budget(self):
        # U = targets V^dagger, with V chi(0)'s eigenvectors by descending eigenvalue, takes the two positive
        # ones onto dd and cd, the entries delta adds up
        rng = np.random.default_rng(5)
        targets = np.eye(4)[:, [0, 2, 1, 3]]  # dd, cd, dc, cc
        for _ in range(100):
            spec = random_scenario(rng)
            chi0 = chi_initial(spec)
            u = targets @ eig_hermitian(chi0)[1].conj().T
            delta = stp_leak(np.diagonal(u @ chi0 @ u.conj().T))[0]
            assert delta == pytest.approx(abs(spec.prediction.lam), abs=1e-14)  # 3.9e-16 measured


def sampled_delta(spec):
    times = time_grid()
    trajs = branch_trajectories(spec, times=times)
    return times, chi_leak(chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p))[0]


class TestVerdict:
    @pytest.mark.parametrize("label", SATISFYING)
    def test_satisfying_cases(self, label):
        verdict = stp_verdict(*sampled_delta(catalog_case(label)))
        assert not verdict.violated
        assert verdict.onset_time is None

    @pytest.mark.parametrize("label", VIOLATING)
    def test_violating_cases(self, label):
        verdict = stp_verdict(*sampled_delta(catalog_case(label)))
        assert verdict.violated
        assert verdict.max_abs_delta > 1e-3
        assert verdict.onset_time is not None and verdict.onset_time > 0.0

    def test_all_zero_sequence(self):
        verdict = stp_verdict(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        assert not verdict.violated
        assert verdict.max_abs_delta == 0.0
        assert verdict.onset_time is None

    def test_onset_is_first_crossing(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        delta = np.array([0.0, DELTA_EPS / 2, 5e-3, 8e-3])
        verdict = stp_verdict(times, delta)
        assert verdict.violated and verdict.onset_time == 2.0

    def test_onset_counts_negative_delta(self):
        verdict = stp_verdict(np.array([0.0, 1.0, 2.0]), np.array([0.0, -5e-3, 8e-3]))
        assert verdict.violated and verdict.onset_time == 1.0
        assert verdict.max_abs_delta == 8e-3

    def test_empty_rejected(self):
        with pytest.raises(InputError, match=r"^no delta samples to judge$"):
            stp_verdict(np.array([]), np.array([]))

    def test_non_finite_delta_rejected(self):
        with pytest.raises(ValueError, match=r"^delta sample 2 \(t = 2\) is nan, not finite$"):
            stp_verdict(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 5e-3, np.nan, np.inf]))

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError, match=r"^time sample 1 is nan, not finite$"):
            stp_verdict(np.array([0.0, np.nan, 2.0]), np.array([0.0, 0.5, 0.1]))

    def test_non_numeric_grid_rejected(self):
        # numpy's unnamed ValueError used to escape
        with pytest.raises(InputError, match=r"^times must be real numbers: could not convert string to float: 'a'$"):
            stp_verdict(["a", "b"], np.array([0.0, 0.5]))

    def test_scalar_time_grid_rejected(self):
        # a 0-d grid used to fail on indexing with an IndexError
        with pytest.raises(InputError, match=r"^times must be 1-D, got shape \(\)$"):
            stp_verdict(0.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match=r"^\(2,\) times but \(1,\) delta samples$"):
            stp_verdict(np.array([0.0, 1.0]), np.array([0.0]))


def test_delta_bound_nonnegative_series():
    spec = catalog_case("3")
    trajs = branch_trajectories(spec, times=time_grid(samples=129))
    chi = chi_series(trajs["u"], trajs["d"], trajs["c"], spec.prediction.p)
    assert np.min(chi_leak(chi)[1]) >= 0.0
