"""Interaction Hamiltonian and unitary propagation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _check_integer, _check_number
from .linalg import _STATE_ENTRIES, DiagonalizedStates, SpectralPropagator, _entangling, _finite_times, eig_hermitian

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
            value = _check_number(name, getattr(self, name))
            if name != "gamma" and math.isinf(value * value):  # build_hamiltonian divides by sqrt(1 + mu^2)
                raise InputError(f"{name} = {value:g} is too large: its square overflows")


def build_hamiltonian(params: HamiltonianParams = HamiltonianParams()) -> np.ndarray:
    """Two-term 4x4 generator H = H_A + H_B in the basis {dd, dc, cd, cc}.

    H_A lets each certain prediction steer the action through a payoff
    rotation; H_B couples back from the action onto the prediction and is the
    only part able to entangle initially separable states.
    """
    h = np.zeros((4, 4))
    for i, mu in enumerate((params.mu_d, params.mu_c)):
        h_a = np.array([[mu, 1.0], [1.0, -mu]]) / math.sqrt(1.0 + mu * mu)
        h += np.kron(_PROJ[i], h_a)
    for j, nu in enumerate((1.0, -1.0)):
        h_b = -(params.gamma / math.sqrt(2.0)) * np.array([[nu, 1.0], [1.0, -nu]])
        h += np.kron(h_b, _PROJ[j])
    return h


def _check_grid(t_max, samples) -> None:
    """InputError unless ``samples`` is an integer of at least 2 and t_max a positive, finite real number."""
    _check_integer("samples", samples, 2)
    if _check_number("t_max", t_max) <= 0:
        raise InputError(f"t_max must be positive, got {t_max!r}")


def time_grid(t_max: float = DEFAULT_T_MAX, samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Uniform closed grid [0, t_max] with the given number of samples."""
    _check_grid(t_max, samples)
    return np.linspace(0.0, t_max, samples)


@dataclass(frozen=True)
class Trajectory:
    """Unitary orbit of one state: times (N,) and states (N, 4, 4)."""

    times: np.ndarray
    states: np.ndarray


def orbit(rho0: np.ndarray, propagator: SpectralPropagator, rank: int) -> DiagonalizedStates:
    """U(t) rho0 U(t)^dagger at the propagator's times as its measured entries, with the spectrum and n of its
    ``rank`` largest eigenvalues.

    Unitary evolution keeps the spectrum, so rho0 is diagonalized once; the entries and n are
    both Bohr sums over H's eigenbasis, formed from rho0 and its support at t=0. n follows
    concurrence's rank rule.
    """
    w0, v0 = eig_hermitian(rho0)
    w = w0[:rank]
    n = propagator.spin_flipped(w, v0[:, :rank]) if rank < 4 or _entangling(w) else None
    return DiagonalizedStates(propagator._entries(rho0, *_STATE_ENTRIES), w, n)


def evolve(rho0: np.ndarray, h: np.ndarray, times: np.ndarray) -> Trajectory:
    """Propagate rho0 along U(t) rho0 U(t)^dagger for every time of the 1-D grid ``times``.

    Each propagator comes from the spectral decomposition of h, so errors do not
    accumulate step to step. A non-Hermitian rho0, or times that are not a finite
    1-D grid, raise InputError.
    """
    if np.shape(rho0) != np.shape(h):
        raise InputError(f"state shape {np.shape(rho0)} != Hamiltonian shape {np.shape(h)}")
    eig_hermitian(rho0)  # validates rho0 only: the states need no spectrum and no n
    times = _finite_times(times)
    return Trajectory(times, SpectralPropagator(h, times).conjugated(rho0))
