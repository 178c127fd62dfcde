"""Quantum-information functionals: entropy, coherence, entanglement, averages.

All entropic quantities use log base 2. Every functional accepts either a
single matrix (d, d) or a stacked batch (..., d, d) and returns a float or an
array of matching batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError
from .linalg import DiagonalizedStates, _finite_times, _square, diagonalized, partial_trace

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 fallback


def _entropy_from_probs(w: np.ndarray) -> np.ndarray:
    # 0 log 0 := 0; negative eigenvalues are clamped to zero before the log.
    # 0.0 - sum, not -sum: a pure state gives +0.0, not -0.0.
    w = np.clip(np.asarray(w).real, 0.0, None)
    safe = np.where(w > 0.0, w, 1.0)
    return 0.0 - np.sum(w * np.log2(safe), axis=-1)


def _mean_and_radius(a: np.ndarray, d: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues mean +- radius of the Hermitian 2x2 [[a, off], [conj(off), d]], unvalidated."""
    return 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(off))


def _eigenvalues_2x2(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of 2x2 stacks (..., 2, 2), unvalidated: the reduced states are Hermitian."""
    mean, radius = _mean_and_radius(m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1])
    return np.stack([mean + radius, mean - radius], axis=-1)


def _scalar_or_array(x: np.ndarray, was_single: bool):
    return float(x) if was_single else x


def l1_coherence(rho: np.ndarray):
    """Sum of the moduli of all off-diagonal entries of a matrix or of each matrix of a stack."""
    rho = _square(np.asarray(rho))
    total = np.sum(np.abs(rho), axis=(-2, -1))
    diag = np.sum(np.abs(np.diagonal(rho, axis1=-2, axis2=-1)), axis=-1)
    return _scalar_or_array(total - diag, rho.ndim == 2)


def concurrence(rho: np.ndarray | DiagonalizedStates):
    """Two-qubit concurrence from the singular values of n = sqrt(w) V^dag (Y (x) Y) V^* sqrt(w).

    n comes from DiagonalizedStates (r x r on a support of rank r), else from eig_hermitian of the stack;
    the square-root weights keep it accurate on (near-)pure states. Rank 1 gives C = |n_00|, rank 2
    C = s1 - s2 with s1^2 the larger eigenvalue of n n^dag, from the Gram entries of n's rows, and
    s2 = |det n| / s1 (the root of the smaller eigenvalue would be off by about 1e-8), a larger rank
    the SVD. Unitary evolution keeps the spectrum w1 >= ... >= w4, and no unitary lifts C above
    max(0, w1 - w3 - 2 sqrt(w2 w4)) (Verstraete, Audenaert and De Moor, PRA 64, 012316, 2001): rank 4
    runs the SVD only where that margin is positive, so an orbit's whole branch is settled by its one
    spectrum.
    """
    rho, w, n = diagonalized(rho)
    if n.shape[-1] == 1:
        c = np.abs(n[..., 0, 0])
    elif n.shape[-1] == 2:
        # n n^dagger is the Gram matrix of n's rows: their squared norms and their inner product
        squares = n.real**2 + n.imag**2
        norms = squares[..., 0, 0] + squares[..., 0, 1], squares[..., 1, 0] + squares[..., 1, 1]
        inner = n[..., 0, 0] * n[..., 1, 0].conj() + n[..., 0, 1] * n[..., 1, 1].conj()
        s1 = np.sqrt(np.add(*_mean_and_radius(*norms, inner)))
        det = np.abs(n[..., 0, 0] * n[..., 1, 1] - n[..., 0, 1] * n[..., 1, 0])
        c = np.clip(s1 - np.divide(det, s1, out=np.zeros_like(s1), where=s1 > 0.0), 0.0, None)
    else:
        w = np.clip(w, 0.0, None)
        entangling = np.broadcast_to(w[..., 0] - w[..., 2] - 2.0 * np.sqrt(w[..., 1] * w[..., 3]) > 0.0, n.shape[:-2])
        c = np.zeros(n.shape[:-2])
        if entangling.any():
            s = np.linalg.svd(n if entangling.all() else n[entangling], compute_uv=False)  # descending
            c[entangling] = np.clip(2.0 * s[..., 0] - np.sum(s, axis=-1), 0.0, None)
    return _scalar_or_array(c, rho.ndim == 2)


def entanglement_of_formation(rho: np.ndarray | DiagonalizedStates):
    """Two-qubit entanglement of formation via the concurrence closed form.

    Agrees with the reduced-state entropy on pure states and vanishes on
    product states.
    """
    c = np.asarray(concurrence(rho))
    x = 0.5 * (1.0 + np.sqrt(1.0 - np.clip(c, 0.0, 1.0) ** 2))
    ef = _entropy_from_probs(np.stack([x, 1.0 - x], axis=-1))
    return _scalar_or_array(ef, c.ndim == 0)


def trapezoid_mean(values: np.ndarray, times: np.ndarray) -> float:
    """Composite-trapezoid time average (1/T) integral of f dt over [0, T].

    A non-finite time, a grid that is not 1-D, and values not shaped like ``times`` raise InputError.
    """
    times = _finite_times(times)
    if times.ndim != 1:
        raise InputError(f"times must be 1-D, got shape {times.shape}")
    values = np.asarray(values, dtype=float)
    if values.shape != times.shape:
        raise InputError(f"{times.shape} times but {values.shape} values")
    if len(times) < 2:
        raise InputError("need at least two samples to average")
    span = times[-1] - times[0]
    if span == 0.0:
        raise InputError(f"cannot average over a zero time span, t = {times[0]:g} to {times[-1]:g}")
    return float(_trapezoid(values, times, axis=0) / span)


@dataclass(frozen=True)
class MeasureRecord:
    """The nine information measures: floats for one state or a time average, arrays along a trajectory."""

    S_B: float | np.ndarray
    S_A: float | np.ndarray
    S_AB: float | np.ndarray
    I_AB: float | np.ndarray
    Cl1_B: float | np.ndarray
    Cl1_A: float | np.ndarray
    Cl1_AB: float | np.ndarray
    CRE_AB: float | np.ndarray
    EF_AB: float | np.ndarray


MEASURE_FIELDS = tuple(f.name for f in fields(MeasureRecord))


def measure_series(states: np.ndarray | DiagonalizedStates) -> MeasureRecord:
    """All measures along stacked states (N, 4, 4), or of one state (4, 4), fully vectorized.

    A bare stack is diagonalized by eig_hermitian; DiagonalizedStates, such as an
    orbit, bring their spectrum and n. Both then run the same formulas.
    """
    diagonal_form = diagonalized(states)
    states = diagonal_form.states
    rho_b = partial_trace(states, "B", (2, 2))
    rho_a = partial_trace(states, "A", (2, 2))
    s_ab = np.full(states.shape[:-2], _entropy_from_probs(diagonal_form.eigenvalues))
    s_b = _entropy_from_probs(_eigenvalues_2x2(rho_b))
    s_a = _entropy_from_probs(_eigenvalues_2x2(rho_a))
    return MeasureRecord(
        S_B=s_b,
        S_A=s_a,
        S_AB=s_ab,
        I_AB=s_a + s_b - s_ab,
        Cl1_B=np.asarray(l1_coherence(rho_b)),
        Cl1_A=np.asarray(l1_coherence(rho_a)),
        Cl1_AB=np.asarray(l1_coherence(states)),
        CRE_AB=_entropy_from_probs(np.diagonal(states, axis1=-2, axis2=-1).real) - s_ab,
        EF_AB=np.asarray(entanglement_of_formation(diagonal_form)),
    )


def measure_state(rho: np.ndarray) -> MeasureRecord:
    """All measures of a single 4x4 state."""
    series = measure_series(np.asarray(rho, dtype=complex))
    return MeasureRecord(**{name: float(getattr(series, name)) for name in MEASURE_FIELDS})


def average_measures(series: MeasureRecord, times: np.ndarray) -> MeasureRecord:
    """Trapezoid time average of every measure in a series."""
    return MeasureRecord(
        **{name: trapezoid_mean(getattr(series, name), times) for name in MEASURE_FIELDS}
    )
