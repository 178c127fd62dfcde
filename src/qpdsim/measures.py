"""Quantum-information functionals: entropy, coherence, entanglement, averages.

All entropic quantities use log base 2. Every functional of states accepts either
one two-qubit state (4, 4) or a stacked batch (..., 4, 4) and returns a float or
an array of matching batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError
from .linalg import DiagonalizedStates, _entangling, _series_on_grid, diagonalized

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 fallback
_BLOCK = 1024  # samples per Gram eigensolve of the rank-4 concurrence


def _entropy_from_probs(w: np.ndarray) -> np.ndarray:
    # 0 log 0 := 0; negative eigenvalues are clamped to zero before the log.
    # 0.0 - sum, not -sum: a pure state gives +0.0, not -0.0.
    w = np.clip(np.asarray(w).real, 0.0, None)
    safe = np.where(w > 0.0, w, 1.0)
    return 0.0 - np.sum(w * np.log2(safe), axis=-1)


def _mean_and_radius(a: np.ndarray, d: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues mean +- radius of the Hermitian 2x2 [[a, off], [conj(off), d]], unvalidated."""
    return 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(off))


def _eigenvalues_2x2(a: np.ndarray, d: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the Hermitian 2x2 [[a, off], [conj(off), d]] from stacks of its entries, unvalidated."""
    mean, radius = _mean_and_radius(a, d, off)
    return np.stack([mean + radius, mean - radius], axis=-1)


def _scalar_or_array(x: np.ndarray, was_single: bool):
    return float(x) if was_single else x


def concurrence(rho: np.ndarray | DiagonalizedStates):
    """Two-qubit concurrence from the singular values of n = sqrt(w) V^dag (Y (x) Y) V^* sqrt(w).

    n comes from DiagonalizedStates (r x r on a support of rank r), else from eig_hermitian of the stack;
    the square-root weights keep it accurate on (near-)pure states. Rank 1 gives C = |n_00|, rank 2
    C = s1 - s2 with s1^2 the larger eigenvalue of n n^dag, from the Gram entries of n's rows, and
    s2 = |det n| / s1 (the root of the smaller eigenvalue would be off by about 1e-8), rank 4
    _rank_four_concurrence.

    The rank rule of an orbit: unitary evolution keeps the spectrum w1 >= ... >= w4, and no unitary lifts C
    above max(0, w1 - w3 - 2 sqrt(w2 w4)) (Verstraete, Audenaert and De Moor, PRA 64, 012316, 2001). So rank 4
    reads n only where that margin is positive (linalg._entangling): an orbit's one spectrum settles its whole
    branch, and an orbit whose margin is not positive carries no n.
    """
    entries, w, n = diagonalized(rho)
    if w.shape[-1] == 1:
        c = np.abs(n[..., 0, 0])
    elif w.shape[-1] == 2:
        # n n^dagger is the Gram matrix of n's rows: their squared norms and their inner product
        squares = n.real**2 + n.imag**2
        norms = squares[..., 0, 0] + squares[..., 0, 1], squares[..., 1, 0] + squares[..., 1, 1]
        inner = n[..., 0, 0] * n[..., 1, 0].conj() + n[..., 0, 1] * n[..., 1, 1].conj()
        s1 = np.sqrt(np.add(*_mean_and_radius(*norms, inner)))
        det = np.abs(n[..., 0, 0] * n[..., 1, 1] - n[..., 0, 1] * n[..., 1, 0])
        c = np.clip(s1 - np.divide(det, s1, out=np.zeros_like(s1), where=s1 > 0.0), 0.0, None)
    else:
        entangling = np.broadcast_to(_entangling(w), entries.shape[:-1])
        c = np.zeros(entries.shape[:-1])
        if entangling.any():  # an orbit's one spectrum settles every sample, a bare stack's each its own
            whole = entangling.all()  # then n is read in place, not through a masked copy
            picked = (n.reshape(-1, 4, 4), w.reshape(-1, 4)) if whole else (n[entangling], w[entangling])
            c[entangling] = _rank_four_concurrence(*picked)
    return _scalar_or_array(c, entries.ndim == 1)


def _rank_four_concurrence(n: np.ndarray, w: np.ndarray) -> np.ndarray:
    """max(0, s1 - s2 - s3 - s4) of n (M, 4, 4) = sqrt(w) U sqrt(w), U unitary, for spectra w (1, 4) or (M, 4).

    Per block of _BLOCK samples, s1 >= s2 >= s3 are the roots of eigvalsh of the Gram matrix n n^dagger, and
    s4 = |det n| / (s1 s2 s3) with |det n| = prod(w) exactly. A root is off by about eps s1^2 / s_i, so the
    samples with s3 < s1 / 256 take the SVD instead.
    """
    det = np.broadcast_to(np.prod(np.clip(w, 0.0, None), axis=-1), n.shape[:1])
    c = np.empty(len(n))
    for start in range(0, len(n), _BLOCK):
        block, part = n[start:start + _BLOCK], slice(start, start + _BLOCK)
        s = np.empty((len(block), 4))
        s[:, :3] = np.sqrt(np.clip(np.linalg.eigvalsh(block @ block.conj().swapaxes(-1, -2))[:, :0:-1], 0.0, None))
        top = s[:, 0] * s[:, 1] * s[:, 2]
        s[:, 3] = np.divide(det[part], top, out=np.zeros_like(top), where=top > 0.0)
        lost = s[:, 2] < s[:, 0] / 256.0
        if lost.any():
            s[lost] = np.linalg.svd(block[lost], compute_uv=False)  # descending
        c[part] = np.clip(s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3], 0.0, None)
    return c


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
    times, values = _series_on_grid(times, values, "values")
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
    """All measures along stacked states (N, 4, 4), fully vectorized, or the floats of one state (4, 4).

    Every measure but the spectral two reads only the diagonal and upper-triangle entries. A bare
    stack gives them and is diagonalized by eig_hermitian; DiagonalizedStates, such as an orbit,
    bring their entries, spectrum and n. Both then run the same formulas.
    """
    diagonal_form = diagonalized(states)
    entries = diagonal_form.entries
    p, upper = entries[..., :4].real, entries[..., 4:]  # upper: (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    # the reduced states rho_B = [[p0 + p1, s02 + s13], [., p2 + p3]] and rho_A = [[p0 + p2, s01 + s23], [., p1 + p3]]
    off_b, off_a = upper[..., 1] + upper[..., 4], upper[..., 0] + upper[..., 5]
    s_b = _entropy_from_probs(_eigenvalues_2x2(p[..., 0] + p[..., 1], p[..., 2] + p[..., 3], off_b))
    s_a = _entropy_from_probs(_eigenvalues_2x2(p[..., 0] + p[..., 2], p[..., 1] + p[..., 3], off_a))
    s_ab = np.full(entries.shape[:-1], _entropy_from_probs(diagonal_form.eigenvalues))
    record = dict(
        S_B=s_b,
        S_A=s_a,
        S_AB=s_ab,
        I_AB=s_a + s_b - s_ab,
        Cl1_B=2.0 * np.abs(off_b),
        Cl1_A=2.0 * np.abs(off_a),
        Cl1_AB=2.0 * np.sum(np.abs(upper), axis=-1),
        CRE_AB=_entropy_from_probs(p) - s_ab,
        EF_AB=entanglement_of_formation(diagonal_form),
    )
    return MeasureRecord(**{name: _scalar_or_array(v, entries.ndim == 1) for name, v in record.items()})


def average_measures(series: MeasureRecord, times: np.ndarray) -> MeasureRecord:
    """Trapezoid time average of every measure in a series."""
    return MeasureRecord(
        **{name: trapezoid_mean(getattr(series, name), times) for name in MEASURE_FIELDS}
    )
