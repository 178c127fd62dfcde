"""Interaction Hamiltonian and unitary propagation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import DiagonalizedStates, SpectralPropagator, tensor

DEFAULT_MU = 0.59
DEFAULT_GAMMA = 1.74
DEFAULT_T_MAX = 2.0 * math.pi
# Power-of-two-plus-one sample count keeps composite trapezoid averages exact
# to refine by halving.
DEFAULT_SAMPLES = 4097

_PROJ = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]]))


@dataclass(frozen=True)
class HamiltonianParams:
    """Payoff constants (mu_d, mu_c) and prediction-action coupling gamma."""

    mu_d: float = DEFAULT_MU
    mu_c: float = DEFAULT_MU
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self) -> None:
        for name in ("mu_d", "mu_c", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def build_hamiltonian(params: HamiltonianParams = HamiltonianParams()) -> np.ndarray:
    """Two-term 4x4 generator H = H_A + H_B in the basis {dd, dc, cd, cc}.

    H_A lets each certain prediction steer the action through a payoff
    rotation; H_B couples back from the action onto the prediction and is the
    only part able to entangle initially separable states.
    """
    h = np.zeros((4, 4))
    for i, mu in enumerate((params.mu_d, params.mu_c)):
        h_a = np.array([[mu, 1.0], [1.0, -mu]]) / math.sqrt(1.0 + mu * mu)
        h += tensor(_PROJ[i], h_a)
    for j, nu in enumerate((1.0, -1.0)):
        h_b = -(params.gamma / math.sqrt(2.0)) * np.array([[nu, 1.0], [1.0, -nu]])
        h += tensor(h_b, _PROJ[j])
    return h


def time_grid(t_max: float = DEFAULT_T_MAX, samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Uniform closed grid [0, t_max] with the given number of samples."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    return np.linspace(0.0, t_max, samples)


@dataclass(frozen=True)
class Trajectory:
    """Unitary orbit of one state: times (N,) and states (N, 4, 4)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        if self.times.ndim != 1 or self.states.ndim != 3 or len(self.times) != len(self.states):
            raise ValueError("times (N,) and states (N, d, d) must align")
        self.times.setflags(write=False)
        self.states.setflags(write=False)


def propagate(rho0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U rho0 U^dagger for every propagator U in the stack u (..., d, d)."""
    return u @ rho0 @ u.conj().swapaxes(-1, -2)


def diagonalized_orbit(states: np.ndarray, rho0: np.ndarray, u: np.ndarray, rank: int) -> DiagonalizedStates:
    """``states = propagate(rho0, u)`` with the eigensystem they keep from t=0, on its support.

    Unitary evolution fixes the spectrum, so rho0 is diagonalized once: every
    state has the ``rank`` largest eigenvalues of rho0, with the eigenvectors U(t) V0.
    """
    w0, v0 = np.linalg.eigh(np.asarray(rho0, dtype=complex))
    return DiagonalizedStates(states, w0[-rank:], u @ v0[:, -rank:])


def evolve(rho0: np.ndarray, h: np.ndarray, times: np.ndarray) -> Trajectory:
    """Propagate rho0 along U(t) rho0 U(t)^dagger for every grid time.

    Each propagator is built from the spectral decomposition of h, so there
    is no step-to-step error accumulation.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    h = np.asarray(h)
    if rho0.shape != h.shape:
        raise DimensionMismatchError(f"state shape {rho0.shape} != Hamiltonian shape {h.shape}")
    times = np.asarray(times, dtype=float)
    return Trajectory(times, propagate(rho0, SpectralPropagator(h, times).unitaries()))
