import math
import warnings

import numpy as np
import pytest

from qpdsim import (
    InputError,
    MeasureRecord,
    ScenarioSpec,
    SubsystemParams,
    Trajectory,
    analyze_case,
    analyze_catalog,
    build_hamiltonian,
    catalog_case,
    concurrence,
    entanglement_of_formation,
    evolve,
    initial_mental_state,
    measure_series,
    qubit_state,
    time_grid,
    trapezoid_mean,
)
from support import (
    l1_coherence,
    mutual_information,
    random_density,
    random_hamiltonian_params,
    random_hermitian,
    random_pure_density,
    reduced_states,
    relative_entropy_coherence,
    state_entries,
    unitary,
    von_neumann_entropy,
)
from qpdsim.dynamics import orbit
from qpdsim.linalg import DiagonalizedStates, SpectralPropagator
from qpdsim.states import initial_rank

BELL = np.zeros((4, 4))
BELL[np.ix_([0, 3], [0, 3])] = 0.5


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_one_third_two_thirds(self):
        want = math.log2(3) - 2 / 3  # -(1/3)log2(1/3) - (2/3)log2(2/3)
        assert von_neumann_entropy(np.diag([1 / 3, 2 / 3])) == pytest.approx(want, abs=1e-12)
        assert von_neumann_entropy(np.diag([1 / 3, 2 / 3])) == pytest.approx(0.92, abs=0.005)

    def test_three_fifths(self):
        want = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4))
        assert von_neumann_entropy(np.diag([0.6, 0.4])) == pytest.approx(want, abs=1e-12)
        assert von_neumann_entropy(np.diag([0.6, 0.4])) == pytest.approx(0.97, abs=0.005)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            rho = random_density(rng, 4)
            u = unitary(random_hermitian(rng, 4), rng.uniform(0, 5))
            rotated = u @ rho @ u.conj().T
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10

    def test_range(self):
        rng = np.random.default_rng(42)
        for dim in (2, 4):
            for _ in range(50):
                s = von_neumann_entropy(random_density(rng, dim))
                assert -1e-12 <= s <= math.log2(dim) + 1e-12

    def test_batched(self):
        states = np.stack([np.eye(4) / 4, BELL])
        np.testing.assert_allclose(von_neumann_entropy(states), [2.0, 0.0], atol=1e-12)


class TestL1Coherence:
    """Cl1_AB, Cl1_B and Cl1_A of measure_series, for one state: the l1 coherence of the state and of its reduced states."""

    def test_diagonal_zero(self):
        record = measure_series(np.diag([0.1, 0.2, 0.3, 0.4]))
        assert (record.Cl1_AB, record.Cl1_B, record.Cl1_A) == (0.0, 0.0, 0.0)

    def test_real_coherence(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        record = measure_series(np.kron(plus, plus))  # every entry 1/4: 12 off-diagonal ones
        assert record.Cl1_AB == pytest.approx(3.0)
        assert record.Cl1_B == pytest.approx(1.0) and record.Cl1_A == pytest.approx(1.0)

    def test_imaginary_coherence(self):
        rho_b = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        record = measure_series(np.kron(rho_b, np.diag([0.4, 0.6])))
        assert record.Cl1_AB == pytest.approx(0.5) and record.Cl1_B == pytest.approx(0.5)
        assert record.Cl1_A == 0.0

    def test_rejects_a_shape_that_is_not_square(self):
        with pytest.raises(InputError, match=r"^expected a 4x4 state or a \(\.\.\., 4, 4\) stack, got shape \(3,\)$"):
            measure_series(np.ones(3))
        with pytest.raises(InputError, match=r"^expected a 4x4 state or a \(\.\.\., 4, 4\) stack, got shape \(5, 2, 3\)$"):
            measure_series(np.ones((5, 2, 3)))


class TestRelativeEntropyCoherence:
    def test_diagonal_zero(self):
        assert relative_entropy_coherence(np.diag([0.2, 0.8])) == 0.0

    def test_pure_superposition_one(self):
        assert relative_entropy_coherence(np.array([[0.5, 0.5], [0.5, 0.5]])) == pytest.approx(1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            assert relative_entropy_coherence(random_density(rng, 4)) >= -1e-12


class TestEntanglementOfFormation:
    def test_product_states_zero(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            rho = np.kron(random_density(rng, 2), random_density(rng, 2))
            assert entanglement_of_formation(rho) <= 1e-10

    def test_bell_state_one(self):
        assert entanglement_of_formation(BELL) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(InputError, match=r"^expected a 4x4 state or a \(\.\.\., 4, 4\) stack, got shape \(2, 2\)$"):
            entanglement_of_formation(np.eye(2) / 2)

    def test_concurrence_path_matches_reduced_entropy_on_pure_states(self):
        # independent oracle: for pure states the entanglement of formation
        # is the entropy of either marginal
        rng = np.random.default_rng(45)
        for _ in range(200):
            rho = random_pure_density(rng, 4)
            ee = von_neumann_entropy(reduced_states(rho)[0])
            assert entanglement_of_formation(rho) == pytest.approx(ee, abs=1e-8)

    def test_concurrence_bell(self):
        assert concurrence(BELL) == pytest.approx(1.0, abs=1e-12)


def random_qubit(rng, pure):
    """A qubit whose coherence fills the positivity disk (pure, up to rounding) or lies inside it."""
    p = rng.uniform(0.0, 1.0)
    magnitude = np.sqrt(p * (1.0 - p)) * (1.0 if pure else rng.uniform(0.0, 0.999))
    return SubsystemParams(p, magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


class TestOrbitSupport:
    def test_thin_orbit_matches_bare_states(self):
        # the concurrence on the orbit's support (closed forms for rank 1 and 2, the SVD for rank 4)
        # against one eigh and the 4x4 SVD per sample
        rng = np.random.default_rng(46)
        ranks = set()
        for k in range(16):
            spec = ScenarioSpec("random", random_qubit(rng, k % 2 == 0), random_qubit(rng, k % 4 < 2))
            h = build_hamiltonian(random_hamiltonian_params(rng))
            times = time_grid(samples=257)
            propagator, u = SpectralPropagator(h, times), unitary(h, times)
            for alpha in ("u", "d", "c"):
                rho0, rank = initial_mental_state(spec, alpha), initial_rank(spec, alpha)
                states = u @ rho0 @ u.conj().swapaxes(-1, -2)
                thin = orbit(rho0, propagator, rank)
                assert thin.eigenvalues.shape == (rank,) and thin.n.shape == (257, rank, rank)
                np.testing.assert_allclose(thin.entries, state_entries(states), rtol=0, atol=1e-14)
                np.testing.assert_allclose(evolve(rho0, h, times).states, states, rtol=0, atol=1e-14)
                got, bare = measure_series(thin), measure_series(states)
                for name in ("S_AB", "I_AB", "CRE_AB", "EF_AB"):
                    np.testing.assert_allclose(getattr(got, name), getattr(bare, name), rtol=0, atol=1e-12)
                ranks.add(rank)
        assert ranks == {1, 2, 4}

    def test_zero_rank_two_concurrence_is_exact(self):
        # branch d of case 1 starts as |d><d| (x) 1/2, for which n = 0 exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ef = analyze_case("1", samples=257).series["d"].EF_AB
        assert np.all(ef == 0.0)


def spectral_margin(w):
    """w1 - w3 - 2 sqrt(w2 w4) of a descending spectrum: the largest concurrence on its unitary orbit, if positive."""
    w = np.clip(w, 0.0, None)
    return w[..., 0] - w[..., 2] - 2.0 * np.sqrt(w[..., 1] * w[..., 3])


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def svd_concurrence(rho):
    """Oracle: s1 - s2 - s3 - s4 from numpy's eigh of rho and the full 4x4 SVD, with no spectral shortcut."""
    w, v = np.linalg.eigh(rho)
    root_w = np.sqrt(np.clip(w, 0.0, None))
    yy = np.kron([[0.0, -1j], [1j, 0.0]], [[0.0, -1j], [1j, 0.0]])
    s = np.linalg.svd(root_w[:, None] * (v.conj().T @ yy @ v.conj()) * root_w[None, :], compute_uv=False)
    return max(0.0, 2.0 * s[0] - np.sum(s))


# descending spectra sorted(0.6, 0.4 - w3 - w4, w3, w4), for (w3, w4) = (1e-2, 1e-12), (1e-4, 1e-8) and (1e-6, 1e-8)
NEAR_RANK_TWO = [np.array([0.6, 0.4 - w3 - w4, w3, w4]) for w3, w4 in ((1e-2, 1e-12), (1e-4, 1e-8), (1e-6, 1e-8))]


class TestSpectralCertificate:
    """Rank 4 runs the SVD only where the spectrum's margin w1 - w3 - 2 sqrt(w2 w4) is positive."""

    def test_catalog_rank_four_branches_need_no_svd(self, monkeypatch):
        # nor the Gram eigensolve that stands in for the SVD where the margin is positive
        for name in ("svd", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, name=name, **kw: pytest.fail(f"np.linalg.{name} called"))
        analyses = analyze_catalog(samples=257)
        for label in ("1", "1*", "3*"):
            ef = analyses[label].series["u"].EF_AB
            assert ef.shape == (257,) and np.all(ef == 0.0), label

    def test_catalog_rank_four_branches_form_no_n(self, monkeypatch):
        # 21 branches, less the three rank-4 ones whose margin is not positive
        calls = []
        real_spin_flipped = SpectralPropagator.spin_flipped

        def counting(self, *args):
            calls.append(args)
            return real_spin_flipped(self, *args)

        monkeypatch.setattr(SpectralPropagator, "spin_flipped", counting)
        analyses = analyze_catalog(samples=257)
        assert len(calls) == 18
        for label in ("1", "1*", "3*"):
            ef = analyses[label].series["u"].EF_AB
            assert ef.shape == (257,) and np.all(ef == 0.0), label

    def test_no_unitary_exceeds_the_margin(self, monkeypatch):
        rng = np.random.default_rng(51)
        certified = entangled = 0
        for k in range(400):
            w = np.sort(rng.dirichlet(np.full(4, (0.2, 1.0, 5.0)[k % 3])))[::-1]
            u = haar_unitary(rng, 4)
            rho = (u * w) @ u.conj().T
            c, margin = concurrence(rho), spectral_margin(w)
            assert c <= max(0.0, margin) + 1e-15
            assert c == pytest.approx(svd_concurrence(rho), abs=1e-14)
            certified += margin <= 0.0
            entangled += c > 0.0
        assert certified > 50 and entangled > 50
        # near-rank-2 spectra, whose small singular values the Gram matrix n n^dagger cannot resolve: single
        # states and one stack per spectrum, counting the samples that the stack sends to the SVD
        unitaries = [[haar_unitary(rng, 4) for _ in range(40)] for _ in NEAR_RANK_TWO]
        stacks = [np.stack([(u * w) @ u.conj().T for u in us]) for w, us in zip(NEAR_RANK_TWO, unitaries)]
        wants = [[svd_concurrence(rho) for rho in stack] for stack in stacks]
        rows, real_svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kwargs: rows.append(len(m)) or real_svd(m, **kwargs))
        svd_samples = []
        for w, stack, want in zip(NEAR_RANK_TWO, stacks, wants):
            singles = [concurrence(rho) for rho in stack]
            assert max(singles) <= spectral_margin(w) + 1e-15
            np.testing.assert_allclose(singles, want, rtol=0, atol=1e-14)
            rows.clear()
            np.testing.assert_allclose(concurrence(stack), want, rtol=0, atol=1e-14)
            svd_samples.append(sum(rows))
        # s3 ~ 1e-4 and 1e-6 lie below s1 / 256 at every sample, s3 ~ 1e-2 mostly above it
        assert svd_samples[0] < 40 and svd_samples[1:] == [40, 40]

    @pytest.mark.parametrize("shift", [-1e-12, 0.0, 1e-12])
    def test_werner_states_at_the_threshold_match_the_svd(self, shift):
        # the Werner state p |psi-><psi-| + (1 - p) I/4 has margin (3p - 1)/2, zero at p = 1/3
        p = 1.0 / 3.0 + shift
        singlet = np.zeros((4, 4))
        singlet[np.ix_([1, 2], [1, 2])] = [[0.5, -0.5], [-0.5, 0.5]]
        werner = p * singlet + (1.0 - p) * np.eye(4) / 4.0
        # local unitaries keep C = max(0, margin), global ones mostly give 0
        rng = np.random.default_rng(52)
        unitaries = [np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in range(25)]
        unitaries += [haar_unitary(rng, 4) for _ in range(25)]
        states = [u @ werner @ u.conj().T for u in unitaries]
        want = [svd_concurrence(rho) for rho in states]
        np.testing.assert_allclose([concurrence(rho) for rho in states], want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(concurrence(np.stack(states)), want, rtol=0, atol=1e-15)


def rank_two_concurrence(n):
    """concurrence of a rank-2 support n (..., 2, 2); the closed form reads n alone."""
    return concurrence(DiagonalizedStates(np.zeros((*n.shape[:-2], 10)), np.array([0.5, 0.5]), n))


class TestRankTwoClosedForm:
    """C = s1 - s2 of a 2x2 n, s1^2 from the Gram entries of n's rows, against numpy's SVD."""

    def test_random_n_matches_svd(self):
        rng = np.random.default_rng(53)
        n = 0.5 * (rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2)))
        for stack in (n, n + n.swapaxes(-1, -2)):  # general, and complex symmetric as the spin flip gives
            s = np.linalg.svd(stack, compute_uv=False)
            np.testing.assert_allclose(rank_two_concurrence(stack), s[:, 0] - s[:, 1], rtol=0, atol=1e-14)

    def test_near_separable_n_matches_svd(self):
        # s2 about 1e-9: the root of n n^dagger's smaller eigenvalue would be off by about 1e-8
        rng = np.random.default_rng(54)
        s1 = rng.uniform(0.05, 1.0, 300)
        s2 = 1e-9 * rng.uniform(0.5, 2.0, 300)
        singular = np.zeros((300, 2, 2))
        singular[:, 0, 0], singular[:, 1, 1] = s1, s2
        left, right = (np.stack([haar_unitary(rng, 2) for _ in range(300)]) for _ in range(2))
        n = left @ singular @ right
        s = np.linalg.svd(n, compute_uv=False)
        got = rank_two_concurrence(n)
        np.testing.assert_allclose(got, s[:, 0] - s[:, 1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(got, s1 - s2, rtol=0, atol=1e-15)


class TestMutualInformation:
    def test_product_state_zero(self):
        rng = np.random.default_rng(46)
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        assert abs(mutual_information(rho)) <= 1e-10

    def test_bell_state_two(self):
        assert mutual_information(BELL) == pytest.approx(2.0, abs=1e-12)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(47)
        g = rng.standard_normal((10_000, 4, 4)) + 1j * rng.standard_normal((10_000, 4, 4))
        states = g @ g.conj().swapaxes(-1, -2)
        states /= np.trace(states, axis1=-2, axis2=-1).real[:, None, None]
        assert np.min(mutual_information(states)) >= -1e-10


class TestTimeAverage:
    def test_constant_functional(self):
        traj = evolve(np.eye(4) / 4, build_hamiltonian(), time_grid(samples=16))
        assert trapezoid_mean(np.full(traj.times.shape, 3.5), traj.times) == pytest.approx(3.5)

    def test_case1_uncertain_joint_entropy(self):
        traj = evolve(
            initial_mental_state(catalog_case("1"), "u"), build_hamiltonian(), time_grid(samples=1025)
        )
        assert trapezoid_mean(von_neumann_entropy(traj.states), traj.times) == pytest.approx(2.0, abs=1e-9)

    def test_case1_defect_branch_paper_means(self):
        traj = evolve(
            initial_mental_state(catalog_case("1"), "d"), build_hamiltonian(), time_grid()
        )
        assert trapezoid_mean(relative_entropy_coherence(traj.states), traj.times) == pytest.approx(0.83, abs=0.02)
        assert trapezoid_mean(mutual_information(traj.states), traj.times) == pytest.approx(0.65, abs=0.02)

    def test_quadrature_convergence_on_halved_grid(self):
        # halving the sample count moves the case-4 uncertain-branch mean of
        # the joint l1 coherence by far less than the table tolerance
        rho0 = initial_mental_state(catalog_case("4"), "u")
        h = build_hamiltonian()
        means = []
        for samples in (4097, 2049):
            traj = evolve(rho0, h, time_grid(samples=samples))
            series = measure_series(traj.states)
            means.append(trapezoid_mean(series.Cl1_AB, traj.times))
        assert abs(means[0] - means[1]) < 1e-4

    def test_empty_trajectory(self):
        traj = Trajectory(np.zeros(0), np.zeros((0, 4, 4), dtype=complex))
        with pytest.raises(InputError, match=r"^need at least two samples to average$"):
            trapezoid_mean(von_neumann_entropy(traj.states), traj.times)

    def test_zero_time_span(self):
        with pytest.raises(ValueError, match=r"^cannot average over a zero time span, t = 1 to 1$"):
            trapezoid_mean([1.0, 2.0], [1.0, 1.0])

    def test_scalar_time_grid_is_rejected(self):
        # a 0-d grid used to fail inside len() with a TypeError
        with pytest.raises(InputError, match=r"^times must be 1-D, got shape \(\)$"):
            trapezoid_mean(1.0, 1.0)

    def test_non_finite_time_is_named(self):
        with pytest.raises(ValueError, match=r"^time sample 1 is inf, not finite$"):
            trapezoid_mean([1.0, 2.0], [0.0, np.inf])

    def test_non_numeric_grid_is_rejected(self):
        # numpy's unnamed ValueError used to escape
        with pytest.raises(InputError, match=r"^times must be real numbers: could not convert string to float: 'a'$"):
            trapezoid_mean([1.0, 2.0], ["a", "b"])

    @pytest.mark.parametrize(
        "values, times, message",
        [
            ([1.0, 2.0], [0.0, 1.0, 2.0], r"^\(3,\) times but \(2,\) values$"),
            ([5.0], [0.0, 1.0], r"^\(2,\) times but \(1,\) values$"),
        ],
        ids=["short", "broadcast"],
    )
    def test_values_off_the_grid_are_rejected(self, values, times, message):
        with pytest.raises(InputError, match=message):
            trapezoid_mean(values, times)


class TestMeasureRecord:
    def test_rejects_a_state_that_is_not_4x4(self):
        # it used to blame concurrence
        with pytest.raises(InputError, match=r"^expected a 4x4 state or a \(\.\.\., 4, 4\) stack, got shape \(3, 3\)$"):
            measure_series(np.eye(3) / 3)

    def test_record_identities_on_random_states(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            record = measure_series(random_density(rng, 4))
            assert record.I_AB == pytest.approx(record.S_A + record.S_B - record.S_AB, abs=1e-10)
            for name in MeasureRecord.__dataclass_fields__:
                assert type(getattr(record, name)) is float and getattr(record, name) >= -1e-10  # one state: floats

    def test_series_matches_scalar_functionals(self):
        rng = np.random.default_rng(49)
        states = np.stack([random_density(rng, 4) for _ in range(5)])
        series = measure_series(states)
        for k in range(5):
            rho_b, rho_a = reduced_states(states[k])
            assert series.S_B[k] == pytest.approx(von_neumann_entropy(rho_b), abs=1e-12)
            assert series.S_A[k] == pytest.approx(von_neumann_entropy(rho_a), abs=1e-12)
            assert series.S_AB[k] == pytest.approx(von_neumann_entropy(states[k]), abs=1e-12)
            assert series.Cl1_B[k] == pytest.approx(l1_coherence(rho_b), abs=1e-12)
            assert series.Cl1_A[k] == pytest.approx(l1_coherence(rho_a), abs=1e-12)
            assert series.Cl1_AB[k] == pytest.approx(l1_coherence(states[k]), abs=1e-12)
            assert series.CRE_AB[k] == pytest.approx(relative_entropy_coherence(states[k]), abs=1e-12)
            assert series.EF_AB[k] == pytest.approx(entanglement_of_formation(states[k]), abs=1e-12)
            assert series.I_AB[k] == pytest.approx(mutual_information(states[k]), abs=1e-12)

    def test_pure_states_give_positive_zero_entropies(self):
        # 0.0 - sum, so a zero entropy is +0.0 and tables never print -0.000000
        pure = np.zeros((4, 4))
        pure[0, 0] = 1.0
        record = measure_series(pure)
        for name in ("S_B", "S_A", "S_AB", "I_AB", "CRE_AB", "EF_AB"):
            assert getattr(record, name) == 0.0 and math.copysign(1.0, getattr(record, name)) == 1.0, name
        # the series of a pure branch (S_AB) and of an unentangled one (EF_AB)
        for series in (analyze_case("2", samples=65).series["d"].S_AB, analyze_case("1", samples=65).series["d"].EF_AB):
            assert np.all(series == 0.0) and not np.any(np.signbit(series))


class TestNotPositiveInput:
    """A bare state whose smallest eigenvalue is below -(PSD_TOL + HERM_TOL) is named, not measured."""

    def test_single_state(self):
        for measure in (measure_series, concurrence, entanglement_of_formation):
            with pytest.raises(InputError, match=r"^matrix has eigenvalue -0.5 below -1.01e-10$"):
                measure(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_stack_names_the_sample(self):
        rng = np.random.default_rng(53)
        states = np.stack([random_density(rng, 4) for _ in range(10)])
        states[6] = np.diag([0.5, 0.5, 0.2, -0.2])
        states[8] = np.diag([1.5, -0.5, 0.0, 0.0])
        for measure in (measure_series, concurrence, entanglement_of_formation):
            with pytest.raises(InputError, match=r"^matrix 6 has eigenvalue -0.2 below -1.01e-10$"):
                measure(states)

    def test_states_at_the_qubit_state_edge_pass(self):
        # qubit_state admits |lam|^2 up to p(1-p) + PSD_TOL, so its states reach eigenvalues near -1e-10
        edge = qubit_state(SubsystemParams(0.5, math.sqrt(0.25 + 0.99e-10)))
        for rho in (np.kron(edge, edge), np.kron(np.diag([0.0, 1.0]), edge)):
            assert np.linalg.eigvalsh(rho)[0] < -9.8e-11
            record = measure_series(rho)
            assert all(math.isfinite(getattr(record, name)) for name in MeasureRecord.__dataclass_fields__)


class TestTraceOffOne:
    """A bare state whose eigenvalues sum to more than TRACE_TOL away from 1 is named, not measured."""

    def test_single_state(self):
        # np.eye(4) used to give S_A = S_B = -4 and I_AB = -8
        for measure in (measure_series, concurrence, entanglement_of_formation):
            with pytest.raises(ValueError, match=r"^matrix has trace 4, not 1 within 1e-12$"):
                measure(np.eye(4))

    def test_stack_names_the_sample(self):
        rng = np.random.default_rng(54)
        states = np.stack([random_density(rng, 4) for _ in range(10)])
        states[3] = np.eye(4)
        states[7] = np.eye(4) / 2
        for measure in (measure_series, concurrence, entanglement_of_formation):
            with pytest.raises(ValueError, match=r"^matrix 3 has trace 4, not 1 within 1e-12$"):
                measure(states)

    def test_trace_within_tolerance_passes(self):
        record = measure_series(np.eye(4) / 4 * (1.0 + 0.5e-12))
        assert record.S_AB == pytest.approx(2.0, rel=0, abs=1e-11)


class TestNonHermitianInput:
    """Every bare state goes through eig_hermitian, which names the first non-Hermitian one."""

    def test_single_state(self):
        m = np.zeros((4, 4))
        m[0, 0], m[0, 3] = 1.0, 0.9
        for measure in (measure_series, concurrence, entanglement_of_formation):
            with pytest.raises(InputError, match=r"^matrix is not Hermitian within 1e-12$"):
                measure(m)

    def test_stack_names_the_sample(self):
        rng = np.random.default_rng(50)
        states = np.stack([random_density(rng, 4) for _ in range(10)])
        states[7, 0, 3] += 0.9
        for measure in (measure_series, concurrence, entanglement_of_formation):
            with pytest.raises(InputError, match=r"^matrix 7 is not Hermitian within 1e-12$"):
                measure(states)

    def test_non_finite_entry_is_named_as_such(self):
        with pytest.raises(InputError, match=r"^matrix has a non-finite entry$"):
            measure_series(np.full((4, 4), np.nan))
        rng = np.random.default_rng(55)
        states = np.stack([random_density(rng, 4) for _ in range(10)])
        states[2, 0, 3] += 0.9
        states[6, 1, 1] = np.inf
        for measure in (measure_series, concurrence, entanglement_of_formation):
            with pytest.raises(InputError, match=r"^matrix 6 has a non-finite entry$"):
                measure(states)
