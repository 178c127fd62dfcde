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

from .dynamics import Trajectory
from .errors import EmptyInputError, GridMismatchError

# Threshold separating rounding noise (<= 1e-10 when chi is formed by
# subtracting branches) from genuine violations (>= 1e-3 at catalog
# parameters).
DELTA_EPS = 1e-6

_IMAG_TOL = 1e-12


def choice_probability(rho: np.ndarray):
    """Probability of choosing defection: diagonal entries dd and cd.

    Accepts a single 4x4 state or a stacked batch (..., 4, 4).
    """
    rho = np.asarray(rho)
    p = rho[..., 0, 0].real + rho[..., 2, 2].real
    return float(p) if rho.ndim == 2 else p


def chi_series(
    traj_u: Trajectory, traj_d: Trajectory, traj_c: Trajectory, p_b: float
) -> np.ndarray:
    """chi(t) = rho_u(t) - p_B rho_d(t) - (1 - p_B) rho_c(t) on a shared grid."""
    if not (
        traj_u.times.shape == traj_d.times.shape == traj_c.times.shape
        and np.array_equal(traj_u.times, traj_d.times)
        and np.array_equal(traj_u.times, traj_c.times)
    ):
        raise GridMismatchError("branch trajectories must share one time grid")
    return traj_u.states - p_b * traj_d.states - (1.0 - p_b) * traj_c.states


def stp_delta(chi: np.ndarray):
    """Signed probability leak of chi: its defection weight, choice_probability(chi)."""
    chi = np.asarray(chi)
    if np.max(np.abs(choice_probability(chi.imag)), initial=0.0) > _IMAG_TOL:
        raise ValueError("chi diagonal has a non-negligible imaginary part")
    return choice_probability(chi)


def stp_delta_bound(chi: np.ndarray):
    """Upper envelope for |delta|: sum of |chi_ii| over the full diagonal."""
    chi = np.asarray(chi)
    bound = np.sum(np.abs(np.diagonal(chi, axis1=-2, axis2=-1)), axis=-1)
    return float(bound) if chi.ndim == 2 else bound


@dataclass(frozen=True)
class StpVerdict:
    violated: bool
    max_abs_delta: float
    onset_time: Optional[float]


def stp_verdict(times: np.ndarray, delta: np.ndarray) -> StpVerdict:
    """Classify a scenario from its delta samples on the grid ``times``.

    Violated iff max |delta| exceeds DELTA_EPS; onset_time is the first grid time
    where that happens, None when the principle holds.
    """
    times = np.asarray(times, dtype=float)
    abs_delta = np.abs(np.asarray(delta, dtype=float))
    if times.shape != abs_delta.shape:
        raise GridMismatchError(f"{times.shape} times but {abs_delta.shape} delta samples")
    if abs_delta.size == 0:
        raise EmptyInputError("no delta samples to judge")
    max_abs = float(np.max(abs_delta))
    violated = max_abs > DELTA_EPS
    onset = float(times[np.argmax(abs_delta > DELTA_EPS)]) if violated else None
    return StpVerdict(violated, max_abs, onset)
