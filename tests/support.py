"""Shared random generators and independent oracles for the test suite."""

import io

import numpy as np

from qpdsim import HamiltonianParams, InputError, ScenarioSpec, SubsystemParams, subset_keys
from qpdsim.linalg import _STATE_ENTRIES
from qpdsim.measures import MEASURE_FIELDS
from qpdsim.report import TRAJECTORY_COLUMNS, _checked_column
from qpdsim.stp import stp_leak


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_subsystem_params(rng: np.random.Generator, coherent: bool = True) -> SubsystemParams:
    p = rng.uniform(0.0, 1.0)
    if not coherent:
        return SubsystemParams(p)
    # magnitude strictly inside the positivity disk
    mag = np.sqrt(p * (1.0 - p)) * rng.uniform(0.0, 0.999)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return SubsystemParams(p, mag * np.exp(1j * phase))


def random_scenario(rng: np.random.Generator, coherent_prediction: bool = True) -> ScenarioSpec:
    prediction = random_subsystem_params(rng, coherent=coherent_prediction)
    action = random_subsystem_params(rng)
    return ScenarioSpec("random", prediction, action)


def random_hamiltonian_params(rng: np.random.Generator) -> HamiltonianParams:
    return HamiltonianParams(
        mu_d=rng.uniform(-2.0, 2.0),
        mu_c=rng.uniform(-2.0, 2.0),
        gamma=rng.uniform(-3.0, 3.0),
    )


def rk4_propagator(h: np.ndarray, t, steps: int = 2000) -> np.ndarray:
    """Classical fixed-step RK4 for dU/dt = -i h U, U(0) = I: h (d, d) with a scalar t, or a
    stack (K, d, d) with t (K,), each matrix integrated over its own t in ``steps`` steps.
    """
    h = np.asarray(h)
    dt = (np.asarray(t, dtype=float) / steps)[..., None, None]
    u = np.broadcast_to(np.eye(h.shape[-1], dtype=complex), h.shape).copy()
    for _ in range(steps):
        k1 = -1j * (h @ u)
        k2 = -1j * (h @ (u + 0.5 * dt * k1))
        k3 = -1j * (h @ (u + 0.5 * dt * k2))
        k4 = -1j * (h @ (u + dt * k3))
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def unitary(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) from numpy's eigh of h: (d, d) for a scalar t, (N, d, d) for N times."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * np.multiply.outer(t, w))[..., None, :]) @ v.conj().T


def bohr_pair_sum(p: np.ndarray, q: np.ndarray, left: np.ndarray, m: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_jk left_ja p_j m_jk q_k right_kb, (a, b) or (N, a, b), for phases p, q (d,) or (N, d): every one of
    the d^2 complex phase pairs times its own coefficient, with no pair folded."""
    coefficients = np.einsum("ja,jk,kb->jkab", left, m, right).reshape(len(m) ** 2, -1)
    pairs = (p[..., :, None] * q[..., None, :]).reshape(*p.shape[:-1], len(m) ** 2)
    return (pairs @ coefficients).reshape(*p.shape[:-1], left.shape[1], right.shape[1])


def conjugated_pair_sum(propagator, m0: np.ndarray) -> np.ndarray:
    """Oracle of SpectralPropagator.conjugated: U(t) m0 U(t)^dagger as the full pair sum over H's eigenbasis."""
    w, p = propagator.basis, propagator.phases
    return bohr_pair_sum(p, p.conj(), w.T, w.conj().T @ m0 @ w, w.conj().T)


def spin_flipped_pair_sum(propagator, w0: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Oracle of SpectralPropagator.spin_flipped: n(t) of the support (w0, v0) as the full pair sum."""
    w, p = propagator.basis, propagator.phases
    flip = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # Y (x) Y
    a = (w.conj().T @ v0 * np.sqrt(np.clip(w0, 0.0, None))).conj()
    return bohr_pair_sum(p.conj(), p.conj(), a, w.conj().T @ flip @ w.conj(), a)


def state_entries(states: np.ndarray) -> np.ndarray:
    """The entries (..., 10) of states (..., 4, 4) that an orbit keeps: the diagonal, then the upper triangle."""
    rows, cols = _STATE_ENTRIES
    return states[..., rows, cols]


def chi_series(traj_u, traj_d, traj_c, p_b: float) -> np.ndarray:
    """Branch-subtraction oracle: chi(t) = rho_u(t) - p_B rho_d(t) - (1 - p_B) rho_c(t) on a shared grid."""
    if not (
        traj_u.times.shape == traj_d.times.shape == traj_c.times.shape
        and np.array_equal(traj_u.times, traj_d.times)
        and np.array_equal(traj_u.times, traj_c.times)
    ):
        raise InputError("branch trajectories must share one time grid")
    return traj_u.states - p_b * traj_d.states - (1.0 - p_b) * traj_c.states


def _entropy_bits(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis, with 0 log 0 := 0 and rounding below zero clamped."""
    w = np.clip(w, 0.0, None)
    return -np.sum(w * np.log2(np.where(w > 0.0, w, 1.0)), axis=-1)


def _float_if_single(x: np.ndarray, rho: np.ndarray):
    return float(x) if rho.ndim == 2 else x


def von_neumann_entropy(rho):
    """Oracle of S_AB: S = -tr(rho log2 rho) from one eigvalsh per state, (d, d) or (..., d, d)."""
    rho = np.asarray(rho)
    return _float_if_single(_entropy_bits(np.linalg.eigvalsh(rho)), rho)


def relative_entropy_coherence(rho):
    """Oracle of CRE_AB: S(diag(rho)) - S(rho), in bits."""
    rho = np.asarray(rho)
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    return _float_if_single(_entropy_bits(diag) - _entropy_bits(np.linalg.eigvalsh(rho)), rho)


def l1_coherence(rho):
    """Oracle of Cl1: the sum of the moduli of the off-diagonal entries of a matrix (d, d) or stack (..., d, d)."""
    rho = np.asarray(rho)
    return _float_if_single(np.sum(np.abs(rho), axis=(-2, -1)) - np.sum(np.abs(np.diagonal(rho, axis1=-2, axis2=-1)), axis=-1), rho)


def reduced_states(rho) -> tuple[np.ndarray, np.ndarray]:
    """Oracle of the reduced states (rho_B, rho_A) of 4x4 joint states (..., 4, 4), B the leading qubit: one einsum each."""
    blocks = np.asarray(rho).reshape(*np.shape(rho)[:-2], 2, 2, 2, 2)
    return np.einsum("...ikjk->...ij", blocks), np.einsum("...ikil->...kl", blocks)


def mutual_information(rho):
    """Oracle of I_AB: S(A) + S(B) - S(AB) of 4x4 joint states, with B the leading qubit."""
    rho = np.asarray(rho)
    s_b, s_a = (_entropy_bits(np.linalg.eigvalsh(m)) for m in reduced_states(rho))
    return _float_if_single(s_a + s_b - _entropy_bits(np.linalg.eigvalsh(rho)), rho)


def chi_leak(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """delta and its bound Delta of chi (..., 4, 4), by stp_leak on the diagonal."""
    return stp_leak(np.diagonal(chi, axis1=-2, axis2=-1))


def trajectory_columns(analysis, branch: str) -> dict[str, np.ndarray]:
    """The unchecked series of a branch's trajectory file, keyed by TRAJECTORY_COLUMNS in file order."""
    columns = {"t": analysis.times, "delta": analysis.delta, "Delta": analysis.delta_bound}
    columns.update((f"p_{alpha}", p) for alpha, p in analysis.probabilities.items())
    columns.update((name, getattr(analysis.series[branch], name)) for name in MEASURE_FIELDS)
    return {name: columns[name] for name in TRAJECTORY_COLUMNS}


def savetxt_trajectory_csv(analysis, branch: str) -> str:
    """A trajectory file as np.savetxt writes it, one row at a time, from the checked columns."""
    m = np.column_stack([_checked_column(name, values) for name, values in trajectory_columns(analysis, branch).items()])
    buf = io.StringIO()
    np.savetxt(buf, m, fmt="%.12g", delimiter=",", header=",".join(TRAJECTORY_COLUMNS), comments="")
    return buf.getvalue()


def slit_probabilities(rho: np.ndarray, projectors: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """Per-draw, per-subset loop over P_S = tr(Pi_S rho Pi_S M), in subset_keys order."""
    n_draws, n_slits = projectors.shape[:2]
    keys = subset_keys(n_slits)
    probs = np.empty((n_draws, len(keys)))
    for draw in range(n_draws):
        for s, key in enumerate(keys):
            pi = sum(projectors[draw, int(ch) - 1] for ch in key)
            probs[draw, s] = np.trace(pi @ rho[draw] @ pi @ effect[draw]).real
    return probs
