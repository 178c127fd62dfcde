"""Dense complex Hermitian linear algebra shared by all simulation modules.

Conventions used throughout the package: the prediction subsystem B is the
first tensor factor and the action subsystem A the second, giving the joint
basis order {dd, dc, cd, cc}.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError, _first_bad

# Validation tolerances. PSD_TOL is qubit_state's positivity slack, |lam|^2 <= p(1-p) + PSD_TOL, so states
# built at that edge have eigenvalues down to about -PSD_TOL; the entropies clamp every negative one to 0.
HERM_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12

_SPIN_FLIP = np.kron([[0.0, -1j], [1j, 0.0]], [[0.0, -1j], [1j, 0.0]]).real  # Y (x) Y, a real +-1 antidiagonal

# The (row, column) positions of the entries of a Hermitian 4x4 state that its measures read:
# the diagonal, then the upper triangle row by row, (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3).
_STATE_ENTRIES = tuple(np.concatenate([np.diag_indices(4), np.triu_indices(4, 1)], axis=1))


def _square(m: np.ndarray, d: int | None = None) -> np.ndarray:
    """``m`` itself when a matrix (d, d) or stack (..., d, d), any d >= 1 unless given; else InputError naming it."""
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or not m.shape[-1] or d not in (None, m.shape[-1]):
        what = "a square matrix" if d is None else f"a {d}x{d} state or a (..., {d}, {d}) stack"
        raise InputError(f"expected {what}, got shape {m.shape}")
    return m


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix (d, d) or stack (..., d, d): eigenvalues descending on
    the last axis, unitary eigenvector columns.

    Raises InputError naming the first matrix of a stack with a NaN or infinite entry, else the first
    that exceeds the symmetry tolerance.
    """
    m = _square(np.asarray(m, dtype=complex))
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN or infinite entry fails the symmetry check too
        bad = _first_bad(~(np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1)) <= HERM_TOL))
    if bad is not None:
        non_finite = _first_bad(~np.isfinite(m).all(axis=(-2, -1)))
        name = " ".join(["matrix", *map(str, bad if non_finite is None else non_finite)])
        if non_finite is not None:
            raise InputError(f"{name} has a non-finite entry")
        raise InputError(f"{name} is not Hermitian within {HERM_TOL:g}")
    w, v = np.linalg.eigh(m)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def _finite_times(t) -> np.ndarray:
    """t as a float array; InputError unless it is a numeric 1-D grid, and naming its first NaN or infinite sample."""
    try:
        t = np.asarray(t, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"times must be real numbers: {exc}") from None
    if t.ndim != 1:
        raise InputError(f"times must be 1-D, got shape {t.shape}")
    bad = _first_bad(~np.isfinite(t))
    if bad is not None:
        raise InputError(f"time sample {bad[0]} is {t[bad]}, not finite")
    return t


def _series_on_grid(times, values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """times, a _finite_times grid, and values as float arrays; InputError unless values, ``what``, has its shape."""
    times = _finite_times(times)
    values = np.asarray(values, dtype=float)
    if values.shape != times.shape:
        raise InputError(f"{times.shape} times but {values.shape} {what}")
    return times, values


class DiagonalizedStates(NamedTuple):
    """Two-qubit states as their ``entries`` (..., 10) at _STATE_ENTRIES, with their spectrum and
    n = sqrt(w) V^dagger (Y (x) Y) V^* sqrt(w).

    A bare stack has ``eigenvalues`` (N, 4) and n (N, 4, 4). A unitary orbit keeps one spectrum
    and only its support: eigenvalues (r,) and n (N, r, r) for rank r, or None by concurrence's
    rank rule. Eigenvalues are descending, as eig_hermitian gives them.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    n: np.ndarray | None


def _entangling(w: np.ndarray) -> np.ndarray:
    """Whether a unitary can entangle the descending spectrum w (..., 4), clipped at 0: w1 - w3 - 2 sqrt(w2 w4) > 0."""
    w = np.clip(w, 0.0, None)
    return w[..., 0] - w[..., 2] - 2.0 * np.sqrt(w[..., 1] * w[..., 3]) > 0.0


def diagonalized(states: np.ndarray | DiagonalizedStates) -> DiagonalizedStates:
    """``states`` with its spectrum and n: the ones it carries, else its entries and eig_hermitian of the stack.

    A bare state with an eigenvalue below -(PSD_TOL + HERM_TOL) raises InputError naming the
    first one, as does one whose eigenvalues sum to more than TRACE_TOL away from 1;
    an orbit carries the spectrum of its validated t=0 state.
    """
    if isinstance(states, DiagonalizedStates):
        return states
    states = _square(np.asarray(states, dtype=complex), 4)
    w, v = eig_hermitian(states)
    bad = _first_bad(w[..., -1] < -(PSD_TOL + HERM_TOL))
    if bad is not None:
        name = " ".join(["matrix", *map(str, bad)])
        raise InputError(f"{name} has eigenvalue {w[(*bad, -1)]:.3g} below {-(PSD_TOL + HERM_TOL):g}")
    trace = w.sum(axis=-1)
    bad = _first_bad(np.abs(trace - 1.0) > TRACE_TOL)
    if bad is not None:
        name = " ".join(["matrix", *map(str, bad)])
        raise InputError(f"{name} has trace {trace[bad]:.15g}, not 1 within {TRACE_TOL:g}")
    root_w = np.sqrt(np.clip(w, 0.0, None))
    n = root_w[..., :, None] * (v.conj().swapaxes(-1, -2) @ _SPIN_FLIP @ v.conj()) * root_w[..., None, :]
    return DiagonalizedStates(states[..., _STATE_ENTRIES[0], _STATE_ENTRIES[1]], w, n)


class SpectralPropagator:
    """exp(-i h t) at the times t, a 1-D grid (N,), from one diagonalization h = W diag(E) W^dagger.

    ``phases`` (N, d) holds exp(-i E t). A grid that is not 1-D or a NaN or infinite time raises
    InputError (_finite_times); a phase E t that overflows raises it naming the largest |E| and |t|.
    """

    def __init__(self, h: np.ndarray, t) -> None:
        t = _finite_times(t)
        self.energies, self.basis = eig_hermitian(h)
        with np.errstate(over="ignore", invalid="ignore"):
            angles = np.multiply.outer(t, self.energies)
        if not np.isfinite(angles).all():
            largest_e, largest_t = np.max(np.abs(self.energies)), np.max(np.abs(t))
            raise InputError(f"phase E*t overflows: largest |E| = {largest_e:.6g}, largest |t| = {largest_t:.6g}")
        self.phases = np.exp(-1j * angles)

    def conjugated(self, m0: np.ndarray) -> np.ndarray:
        """U(t) m0 U(t)^dagger, (N, d, d): every entry of ``_entries``, row by row."""
        d = len(m0)
        rows, cols = np.indices((d, d)).reshape(2, -1)
        return self._entries(m0, rows, cols).reshape(len(self.phases), d, d)

    def _entries(self, m0: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries (rows[i], cols[i]) of U(t) m0 U(t)^dagger, (N, k): with C = W^dagger m0 W and
        T_jk = C_jk W_:j W_:k^dagger, the sum of T_jk z_jk over j, k, z_jk = exp(-i (E_j - E_k) t). z_jj is 1
        and z_kj = conj(z_jk), so the sum is that of the T_jj plus Re z_jk (T_jk + T_kj) + Im z_jk i (T_jk - T_kj)
        over j < k: a zero m0 gives exact zeros. Only the k entries' coefficients enter the product.
        """
        w = self.basis
        terms = np.einsum("aj,jk,bk->jkab", w, w.conj().T @ m0 @ w, w.conj())
        j, k = np.triu_indices(len(w), 1)
        constant = np.einsum("jjab->ab", terms)[None]
        coefficients = np.concatenate([constant, terms[j, k] + terms[k, j], 1j * (terms[j, k] - terms[k, j])])
        chosen = np.ascontiguousarray(coefficients[:, rows, cols])  # the real view needs a contiguous last axis
        return _bohr_sum(self.phases, self.phases.conj(), list(zip(j, k)), chosen, constant=True)

    def spin_flipped(self, w0: np.ndarray, v0: np.ndarray) -> np.ndarray:
        """n(t) = sqrt(w0) X^dagger (Y (x) Y) X^* sqrt(w0) for X = U(t) v0: (N, r, r).

        With A = W^dagger v0 sqrt(w0) and B = W^dagger (Y (x) Y) W^*, entry rs sums
        conj(A_jr) B_jk conj(A_ks) exp(+i (E_j + E_k) t) over j, k. The phases of (j, k) and
        (k, j) are equal, so the sum runs over the d(d+1)/2 pairs j <= k.
        """
        w = self.basis
        a = (w.conj().T @ v0 * np.sqrt(np.clip(w0, 0.0, None))).conj()
        terms = np.einsum("jr,jk,ks->jkrs", a, w.conj().T @ _SPIN_FLIP @ w.conj(), a)
        j, k = np.triu_indices(len(w))
        symmetric = np.where((j < k)[:, None, None], terms[j, k] + terms[k, j], terms[j, k])
        conjugate_phases = self.phases.conj()
        coefficients = np.concatenate([symmetric, 1j * symmetric])
        return _bohr_sum(conjugate_phases, conjugate_phases, list(zip(j, k)), coefficients)


def _bohr_sum(left: np.ndarray, right: np.ndarray, pairs: list, coefficients: np.ndarray, constant=False) -> np.ndarray:
    """sum_c table_c coefficients_c, (N, ...), for phases left, right (N, d): one real product.

    The real table holds [1 |] Re z | Im z, the 1 only where ``constant``, for z_c = left_j right_k over the
    index ``pairs`` (j, k), filled column by column; coefficients (m, ...) are complex, stacked in the
    table's column order, and enter through their real view.
    """
    m, start = len(coefficients), int(constant)
    table = np.empty((m, len(left)))
    table[:start] = 1.0
    for c, (j, k) in enumerate(pairs, start=start):
        z = left[:, j] * right[:, k]
        table[c], table[c + len(pairs)] = z.real, z.imag
    product = table.T @ coefficients.reshape(m, -1).view(float)
    return product.view(complex).reshape(len(left), *coefficients.shape[1:])
