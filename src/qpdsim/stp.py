"""Sure-thing-principle analysis: choice probabilities, the branch-mixture
correction chi(t), its probability leak delta(t), and the per-scenario
verdict.

delta(t) is the signed gap between the uncertain-branch choice probability
and the classical mixture of the certain branches; a nonzero value anywhere
on the grid is a principle violation. Delta(t), the summed magnitudes of the
chi diagonal, bounds |delta| from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, InvariantError, _first_bad
from .linalg import _series_on_grid, _square

# Threshold separating rounding noise from genuine violations (>= 1e-3 at
# catalog parameters). chi evolves from chi(0), so delta is exactly 0 when
# the prediction has no coherence.
DELTA_EPS = 1e-6

_IMAG_TOL = 1e-12


def _defection_weight(diagonal: np.ndarray) -> np.ndarray:
    # basis {dd, dc, cd, cc}: the action is d in entries 0 and 2
    return diagonal[..., 0].real + diagonal[..., 2].real


def choice_probability(rho: np.ndarray):
    """Probability of choosing defection: diagonal entries dd and cd.

    Accepts a single 4x4 state or a stacked batch (..., 4, 4); any other shape raises InputError naming it.
    """
    rho = _square(np.asarray(rho), 4)
    p = _defection_weight(np.diagonal(rho, axis1=-2, axis2=-1))
    return float(p) if rho.ndim == 2 else p


def stp_leak(chi_diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """delta and its bound Delta from diagonals of chi (..., 4).

    delta is the defection weight of chi; Delta sums the moduli of the
    whole diagonal, so Delta >= |delta|. An imaginary part beyond 1e-12, or NaN, raises
    InvariantError naming the first sample and entry; a single diagonal is sample 0.
    """
    chi_diagonal = np.asarray(chi_diagonal)
    if not np.max(np.abs(chi_diagonal.imag), initial=0.0) <= _IMAG_TOL:  # a NaN fails too
        imag = np.abs(chi_diagonal.imag).reshape(-1, chi_diagonal.shape[-1])
        sample, entry = _first_bad(~(imag <= _IMAG_TOL))
        part = imag[sample, entry]
        raise InvariantError(f"chi diagonal sample {sample}, entry {entry}: imaginary part {part:.3g} beyond {_IMAG_TOL:g}")
    return _defection_weight(chi_diagonal), np.sum(np.abs(chi_diagonal), axis=-1)


@dataclass(frozen=True)
class StpVerdict:
    violated: bool
    max_abs_delta: float
    onset_time: Optional[float]


def stp_verdict(times: np.ndarray, delta: np.ndarray) -> StpVerdict:
    """Classify a scenario from its delta samples on the grid ``times``.

    Violated iff max |delta| exceeds DELTA_EPS; onset_time is the first grid time
    where that happens, None when the principle holds. A NaN or infinite time or
    delta sample raises InputError naming the first one, and a grid that is not
    1-D raises it naming its shape.
    """
    times, delta = _series_on_grid(times, delta, "delta samples")
    abs_delta = np.abs(delta)
    if abs_delta.size == 0:
        raise InputError("no delta samples to judge")
    bad = _first_bad(~np.isfinite(delta))
    if bad is not None:
        raise InputError(f"delta sample {bad[0]} (t = {times[bad]:g}) is {delta[bad]}, not finite")
    max_abs = float(np.max(abs_delta))
    violated = max_abs > DELTA_EPS
    onset = float(times[np.argmax(abs_delta > DELTA_EPS)]) if violated else None
    return StpVerdict(violated, max_abs, onset)
