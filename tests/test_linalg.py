import re

import numpy as np
import pytest

from qpdsim import (
    HamiltonianParams,
    InputError,
    ScenarioSpec,
    SubsystemParams,
    build_hamiltonian,
    eig_hermitian,
    evolve,
    initial_mental_state,
    measure_series,
    stp_verdict,
    trapezoid_mean,
)
from qpdsim.dynamics import orbit
from qpdsim.linalg import SpectralPropagator, diagonalized
from qpdsim.measures import _eigenvalues_2x2
from support import (
    conjugated_pair_sum,
    random_density,
    random_hermitian,
    reduced_states,
    rk4_propagator,
    spin_flipped_pair_sum,
    unitary,
    von_neumann_entropy,
)


class TestEigHermitian:
    def test_diagonal_maximally_mixed(self):
        w, _ = eig_hermitian(np.diag([0.5, 0.5]))
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_2x2_symmetric_closed_form(self):
        w, _ = eig_hermitian(np.array([[0.5, 0.25], [0.25, 0.5]]))
        np.testing.assert_allclose(w, [0.75, 0.25])

    def test_diagonal_needs_reordering(self):
        w, v = eig_hermitian(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(w, [0.75, 0.25])
        m = v @ np.diag(w) @ v.conj().T
        np.testing.assert_allclose(m, np.diag([0.25, 0.75]), atol=1e-14)

    def test_prediction_control_term_eigenvalues(self):
        # each 2x2 payoff block squares to the identity, so the 4x4 control
        # term has eigenvalues +-1, each doubly degenerate
        h = build_hamiltonian(HamiltonianParams(mu_d=0.59, mu_c=0.59, gamma=0.0))
        w, _ = eig_hermitian(h)
        np.testing.assert_allclose(w, [1.0, 1.0, -1.0, -1.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError, match=r"^matrix is not Hermitian within 1e-12$"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(InputError, match=r"^matrix has a non-finite entry$"):
            eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_names_the_first_non_finite_matrix(self):
        stack = random_hermitian_stack(np.random.default_rng(20), 12, 4)
        stack[2, 0, 3] += 1.0
        stack[5, 1, 2] = complex(1.0, np.inf)
        stack[8, 0, 0] = np.nan
        with pytest.raises(InputError, match=r"^matrix 5 has a non-finite entry$"):
            eig_hermitian(stack)
        with pytest.raises(InputError, match=r"^matrix 1 1 has a non-finite entry$"):
            eig_hermitian(stack.reshape(3, 4, 4, 4))
        with pytest.raises(InputError, match=r"^matrix has a non-finite entry$"):
            eig_hermitian(np.diag([1.0, -np.inf]))

    def test_rejects_non_square(self):
        with pytest.raises(InputError, match=r"^expected a square matrix, got shape \(3,\)$"):
            eig_hermitian(np.zeros(3))
        with pytest.raises(InputError, match=r"^expected a square matrix, got shape \(5, 2, 3\)$"):
            eig_hermitian(np.zeros((5, 2, 3)))

    def test_rejects_a_zero_dimension(self):
        # numpy's unnamed "zero-size array to reduction operation maximum" used to escape
        with pytest.raises(InputError, match=r"^expected a square matrix, got shape \(0, 0\)$"):
            eig_hermitian(np.zeros((0, 0)))
        w, v = eig_hermitian(np.zeros((0, 4, 4)))  # an empty stack of 4x4 matrices is still a stack
        assert w.shape == (0, 4) and v.shape == (0, 4, 4)

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(17)
        stack = random_hermitian_stack(rng, 12, 4).reshape(3, 4, 4, 4)
        w, v = eig_hermitian(stack)
        assert w.shape == (3, 4, 4) and v.shape == (3, 4, 4, 4)
        assert np.all(np.diff(w, axis=-1) <= 0.0)
        for index in np.ndindex(3, 4):
            single_w, _ = eig_hermitian(stack[index])
            np.testing.assert_allclose(w[index], single_w, rtol=0, atol=1e-13)
        np.testing.assert_allclose((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2), stack, rtol=0, atol=1e-12)

    def test_stack_names_the_first_non_hermitian_matrix(self):
        stack = random_hermitian_stack(np.random.default_rng(18), 12, 4)
        stack[7, 0, 3] += 1e-9
        stack[9, 1, 2] += 1.0
        with pytest.raises(InputError, match=r"^matrix 7 is not Hermitian within 1e-12$"):
            eig_hermitian(stack)
        with pytest.raises(InputError, match=r"^matrix 1 3 is not Hermitian within 1e-12$"):
            eig_hermitian(stack.reshape(3, 4, 4, 4))
        with pytest.raises(InputError, match=r"^matrix is not Hermitian within 1e-12$"):
            eig_hermitian(stack[7])

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_reconstruction_random(self, dim):
        rng = np.random.default_rng(1000 + dim)
        for _ in range(100):
            m = random_hermitian(rng, dim)
            w, v = eig_hermitian(m)
            assert np.all(np.diff(w) <= 1e-12)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
            assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-10


def random_hermitian_stack(rng, n, dim):
    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def descending_eigenvalues(m):
    """measures' private 2x2 closed form (of the entries m_00, m_11, m_01) for dim 2, eig_hermitian for any other size."""
    return _eigenvalues_2x2(m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1]) if m.shape[-1] == 2 else eig_hermitian(m)[0]


class TestHermitianEigenvalues:
    """The 2x2 closed form of measures and eig_hermitian's eigenvalues against np.linalg.eigvalsh."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_stacks_match_eigvalsh(self, dim):
        rng = np.random.default_rng(15)
        m = random_hermitian_stack(rng, 200, dim).reshape(10, 20, dim, dim)
        got = descending_eigenvalues(m)
        assert got.shape == (10, 20, dim)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(m)[..., ::-1], rtol=0, atol=1e-14)
        assert np.all(np.diff(got, axis=-1) <= 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_degenerate_matrices(self, dim):
        rng = np.random.default_rng(16)
        m = random_hermitian_stack(rng, 50, dim)
        equal_diagonal = m.copy()
        equal_diagonal[:, 1, 1] = equal_diagonal[:, 0, 0]
        zero_off_diagonal = m * np.eye(dim)
        identities = np.broadcast_to(np.eye(dim), m.shape)
        for stack in (equal_diagonal, zero_off_diagonal, zero_off_diagonal * 0.0, identities):
            got = descending_eigenvalues(stack)
            np.testing.assert_allclose(got, np.linalg.eigvalsh(stack)[..., ::-1], rtol=0, atol=1e-14)
            assert np.all(np.diff(got, axis=-1) <= 0.0)

    def test_rejects_non_hermitian_beyond_the_closed_form(self):
        m = np.zeros((3, 3))
        m[0, 2] = 0.5
        with pytest.raises(InputError, match=r"^matrix is not Hermitian within 1e-12$"):
            eig_hermitian(m)


class TestDiagonalized:
    """One eigenvalue order: descending for a bare stack and for an orbit."""

    def test_bare_stack_and_orbit_are_descending(self):
        rng = np.random.default_rng(19)
        rho0 = random_density(rng, 4)
        propagator = SpectralPropagator(random_hermitian(rng, 4), np.linspace(0.0, 3.0, 9))
        thin = orbit(rho0, propagator, 4)
        bare = diagonalized(propagator.conjugated(rho0))
        assert bare.eigenvalues.shape == (9, 4) and thin.eigenvalues.shape == (4,)
        assert np.all(np.diff(bare.eigenvalues, axis=-1) <= 0.0)
        assert np.all(np.diff(thin.eigenvalues) <= 0.0)
        np.testing.assert_allclose(bare.eigenvalues, np.broadcast_to(thin.eigenvalues, (9, 4)), rtol=0, atol=1e-13)


class TestTensor:
    """Joint states put the prediction B first: the basis {dd, dc, cd, cc}."""

    def test_identity(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_structure(self):
        p_a = 0.3
        out = initial_mental_state(ScenarioSpec("block", SubsystemParams(0.5), SubsystemParams(p_a)), "d")
        np.testing.assert_allclose(out, np.diag([p_a, 1.0 - p_a, 0.0, 0.0]))

    def test_cross_block_entry(self):
        # coherent prediction times diagonal action: the (1,3) entry of the
        # product is lam_B * p_A, matching the correction-matrix closed form
        out = initial_mental_state(ScenarioSpec("cross", SubsystemParams(0.5, 0.5), SubsystemParams(0.5)), "u")
        hand = np.array(
            [
                [0.25, 0.0, 0.25, 0.0],
                [0.0, 0.25, 0.0, 0.25],
                [0.25, 0.0, 0.25, 0.0],
                [0.0, 0.25, 0.0, 0.25],
            ]
        )
        np.testing.assert_array_equal(out, hand)
        assert out[0, 2] == 0.25


class TestPartialTrace:
    """The reduced states that measure_series reads as entry sums, against the einsum of support.reduced_states."""

    def test_marginals_of_diagonal_joint(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        rho = np.diag(p)
        rho_b, rho_a = reduced_states(rho)
        np.testing.assert_allclose(rho_a, np.diag([p[0] + p[2], p[1] + p[3]]))
        np.testing.assert_allclose(rho_b, np.diag([p[0] + p[1], p[2] + p[3]]))
        record = measure_series(rho)
        assert record.S_A == pytest.approx(von_neumann_entropy(rho_a), abs=1e-14)
        assert record.S_B == pytest.approx(von_neumann_entropy(rho_b), abs=1e-14)
        assert record.Cl1_A == record.Cl1_B == 0.0

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(8)
        rho_b = random_density(rng, 2)
        rho_a = random_density(rng, 2)
        got_b, got_a = reduced_states(np.kron(rho_b, rho_a))
        np.testing.assert_allclose(got_b, rho_b, atol=1e-14)
        np.testing.assert_allclose(got_a, rho_a, atol=1e-14)
        record = measure_series(np.kron(rho_b, rho_a))
        assert record.S_B == pytest.approx(von_neumann_entropy(rho_b), abs=1e-14)
        assert record.S_A == pytest.approx(von_neumann_entropy(rho_a), abs=1e-14)
        assert record.Cl1_B == pytest.approx(2.0 * abs(rho_b[0, 1]), abs=1e-14)
        assert record.Cl1_A == pytest.approx(2.0 * abs(rho_a[0, 1]), abs=1e-14)

    def test_bell_state_marginal_is_maximally_mixed(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(psi, psi)
        for marginal in reduced_states(rho):
            np.testing.assert_allclose(marginal, np.eye(2) / 2, atol=1e-15)
        record = measure_series(rho)
        assert record.S_A == pytest.approx(1.0, abs=1e-14) and record.S_B == pytest.approx(1.0, abs=1e-14)
        assert record.Cl1_A == record.Cl1_B == 0.0

    def test_entry_sums_equal_einsum_bit_for_bit(self):
        # Cl1_B = 2 |s_02 + s_13| and Cl1_A = 2 |s_01 + s_23| add the same two entries as the einsum
        rng = np.random.default_rng(21)
        states = np.stack([random_density(rng, 4) for _ in range(7)])
        record = measure_series(states)
        rho_b, rho_a = reduced_states(states)
        assert record.Cl1_B.tobytes() == (2.0 * np.abs(rho_b[:, 0, 1])).tobytes()
        assert record.Cl1_A.tobytes() == (2.0 * np.abs(rho_a[:, 0, 1])).tobytes()


class TestUnitaryFromHamiltonian:
    """exp(-i h t) as support.unitary builds it, the oracle for SpectralPropagator."""

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(unitary(h, 0.0), np.eye(4), atol=1e-14)

    def test_involutory_hamiltonian_at_pi(self):
        # H^2 = I gives U(t) = cos(t) I - i sin(t) H, hence U(pi) = -I
        h = build_hamiltonian(HamiltonianParams(mu_d=0.59, mu_c=0.59, gamma=0.0))
        np.testing.assert_allclose(unitary(h, np.pi), -np.eye(4), atol=1e-12)

    def test_matches_rk4_oracle(self):
        h = build_hamiltonian(HamiltonianParams(0.59, 0.59, 1.74))
        u = unitary(h, 1.0)
        assert np.max(np.abs(u - rk4_propagator(h, 1.0))) <= 1e-8

    def test_group_law(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h = random_hermitian(rng, 4)
            t1, t2 = rng.uniform(-2.0, 2.0, size=2)
            lhs = unitary(h, t1) @ unitary(h, t2)
            rhs = unitary(h, t1 + t2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            u = unitary(random_hermitian(rng, 4), rng.uniform(0.0, 10.0))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10

    def test_time_array_stacks_scalar_propagators(self):
        rng = np.random.default_rng(14)
        h = random_hermitian(rng, 4)
        times = np.linspace(-3.0, 3.0, 7)
        stack = unitary(h, times)
        assert stack.shape == (7, 4, 4)
        for t, u in zip(times, stack):
            np.testing.assert_allclose(u, unitary(h, t), rtol=0, atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError, match=r"^matrix is not Hermitian within 1e-12$"):
            SpectralPropagator(np.array([[0.0, 1.0], [0.5, 0.0]]), [1.0])


# Every function that takes a time grid, given the grid ``t`` and zero values of its shape.
TIME_GRID_TAKERS = {
    "SpectralPropagator": lambda t: SpectralPropagator(build_hamiltonian(), t),
    "evolve": lambda t: evolve(np.eye(4) / 4, build_hamiltonian(), t),
    "trapezoid_mean": lambda t: trapezoid_mean(np.zeros(np.shape(t)), t),
    "stp_verdict": lambda t: stp_verdict(t, np.zeros(np.shape(t))),
}


@pytest.mark.parametrize("times", [0.5, np.linspace(0.0, 1.0, 6).reshape(2, 3)], ids=["scalar", "2x3"])
@pytest.mark.parametrize("taker", sorted(TIME_GRID_TAKERS))
def test_every_time_grid_is_one_dimensional(taker, times):
    # a (2, 3) grid used to reach the propagator's Bohr sum, whose table.T reversed its axes: a wrong
    # (2, 3, 4, 4) answer and no error
    shape = re.escape(str(np.shape(times)))
    with pytest.raises(InputError, match=rf"^times must be 1-D, got shape {shape}$"):
        TIME_GRID_TAKERS[taker](times)


class TestSpectralPropagator:
    def test_conjugated_matches_oracle_at_a_scalar_time(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            h, m0, t = random_hermitian(rng, 4), random_density(rng, 4), rng.uniform(-5.0, 5.0)
            u = unitary(h, t)
            got = SpectralPropagator(h, [t]).conjugated(m0)  # the grid of one time
            assert got.shape == (1, 4, 4)
            np.testing.assert_allclose(got[0], u @ m0 @ u.conj().T, rtol=0, atol=1e-14)

    def test_conjugated_matches_oracle_on_a_grid(self):
        rng = np.random.default_rng(16)
        h, m0 = build_hamiltonian(), random_density(rng, 4)
        times = np.linspace(-3.0, 3.0, 65)
        u = unitary(h, times)
        got = SpectralPropagator(h, times).conjugated(m0)
        assert got.shape == (65, 4, 4)
        np.testing.assert_allclose(got, u @ m0 @ u.conj().swapaxes(-1, -2), rtol=0, atol=1e-14)

    def test_zero_matrix_conjugates_to_exact_zeros(self):
        got = SpectralPropagator(build_hamiltonian(), np.linspace(0.0, 10.0, 33)).conjugated(np.zeros((4, 4)))
        assert got.shape == (33, 4, 4) and np.all(got == 0.0)
        for h in oracle_hamiltonians(np.random.default_rng(24)):
            assert np.all(SpectralPropagator(h, [0.7]).conjugated(np.zeros((4, 4))) == 0.0)

    def test_spin_flipped_matches_propagated_support(self):
        # n(t) = sqrt(w) X^dagger (Y (x) Y) X^* sqrt(w) with X = U(t) v0, formed here from the oracle's U
        rng = np.random.default_rng(17)
        flip = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
        h, times = random_hermitian(rng, 4), np.linspace(0.0, 4.0, 17)
        for rank in (1, 2, 4):
            w, v0 = eig_hermitian(random_density(rng, 4))
            x = unitary(h, times) @ v0[:, :rank]
            root = np.sqrt(w[:rank])
            want = root[:, None] * (x.conj().swapaxes(-1, -2) @ flip @ x.conj()) * root[None, :]
            got = SpectralPropagator(h, times).spin_flipped(w[:rank], v0[:, :rank])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def oracle_hamiltonians(rng):
    """The catalog H (mu_d = mu_c, so E1 - E2 = E3 - E4), a non-degenerate H, the payoff term alone
    (E1 = E2 and E3 = E4), and random complex Hermitian H, whose eigenvectors are not real."""
    return [
        build_hamiltonian(),
        build_hamiltonian(HamiltonianParams(0.3, -1.2, 0.8)),
        build_hamiltonian(HamiltonianParams(0.59, 0.59, 0.0)),
        *(random_hermitian(rng, 4) for _ in range(3)),
    ]


class TestFoldedBohrSums:
    """conjugated folds the conjugate difference-phase pairs and spin_flipped the equal sum-phase pairs;
    the full d^2 complex pair sum is the oracle."""

    def test_catalog_spectrum_has_equal_differences(self):
        e, _ = eig_hermitian(build_hamiltonian())
        assert abs((e[0] - e[1]) - (e[2] - e[3])) < 1e-12

    @pytest.mark.parametrize("times", [[0.7], np.linspace(-4.0, 9.0, 129)], ids=["scalar", "grid"])
    def test_conjugated_matches_the_full_pair_sum(self, times):
        rng = np.random.default_rng(22)
        for h in oracle_hamiltonians(rng):
            propagator = SpectralPropagator(h, times)
            general = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for m0 in (random_density(rng, 4), general):
                got = propagator.conjugated(m0)
                assert got.shape == np.shape(times) + (4, 4)
                np.testing.assert_allclose(got, conjugated_pair_sum(propagator, m0), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("times", [[0.7], np.linspace(-4.0, 9.0, 129)], ids=["scalar", "grid"])
    def test_spin_flipped_matches_the_full_pair_sum(self, times):
        rng = np.random.default_rng(23)
        for h in oracle_hamiltonians(rng):
            propagator = SpectralPropagator(h, times)
            w, v0 = eig_hermitian(random_density(rng, 4))
            for rank in (1, 2, 4):
                got = propagator.spin_flipped(w[:rank], v0[:, :rank])
                assert got.shape == np.shape(times) + (rank, rank)
                want = spin_flipped_pair_sum(propagator, w[:rank], v0[:, :rank])
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
