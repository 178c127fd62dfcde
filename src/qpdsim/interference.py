"""Sorkin's interference hierarchy I_k over multi-slit probability assignments.

Classical probability makes two-slit detection additive (I2 = 0); quantum
assignments generally do not, yet both theories cancel every higher term
exactly (I3 = I4 = ... = 0). A nonzero I3 therefore certifies statistics
beyond quantum probability, which is what a three-choice game extension
would be tested against.

A slit experiment is an array of detection probabilities over the non-empty
slit subsets, last axis in ``subset_keys`` order; leading axes index draws.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError, _check_integer, _first_bad

_RANGE_TOL = 1e-12
# The one tolerance e of every model check. A slit basis with |U^H U - I| <= e entrywise gives
# ||Pi_S|| <= 1 + 3e for every slit subset S of a three-slit model (Gershgorin on the block of U^H U
# that S selects). With tr rho <= 1 + e, eigenvalues of rho and M >= -2e and M's <= 1 + 2e, each P_S
# then lies in [-6e, 1 + 13e] to first order, inside _RANGE_TOL. Survey draws sit below 2e-15.
_MODEL_TOL = 5e-14
_SURVEY_SLITS = 3  # the fewest slits with a third-order term
# Draws per survey block: it fixes the order of the RNG draws, on which every
# sorkin.json value depends, and bounds the memory of the per-block arrays.
_SURVEY_BLOCK = 128


def subset_keys(n_slits: int) -> tuple[str, ...]:
    """Canonical keys for all non-empty slit subsets, e.g. "1", "13", "123"; one digit per slit.

    n_slits is a Python or numpy integer, not a bool, from 1 to 9; anything else raises InputError.
    """
    if not 1 <= _check_integer("n_slits", n_slits, None) <= 9:
        raise InputError(f"subset keys need at least 1 slit and one digit per slit, so at most 9 slits, got {n_slits}")
    slits = range(1, n_slits + 1)
    keys = []
    for size in slits:
        keys.extend("".join(map(str, combo)) for combo in itertools.combinations(slits, size))
    return tuple(keys)


def _check_probabilities(probs: np.ndarray, keys: tuple[str, ...], tol: float) -> None:
    """Raise naming the first draw and subset whose probability leaves [0, 1] by more than tol.

    Given probabilities are checked exactly and raise InputError; computed ones, checked with a
    rounding tolerance, raise InvariantError.
    """
    bad = _first_bad(~((probs >= -tol) & (probs <= 1.0 + tol)))  # NaN counts as bad
    if bad is not None:
        *draw, s = bad
        where = f"draw {', '.join(map(str, draw))}: " if draw else ""
        beyond = " beyond tolerance" if tol else ""
        raise (InvariantError if tol else InputError)(f"{where}P_{keys[s]} = {probs[(*draw, s)]} outside [0, 1]{beyond}")


def _experiment(probs) -> tuple[np.ndarray, tuple[str, ...]]:
    """Probabilities as a float array and their subset keys; one entry per subset, each in [0, 1]."""
    probs = np.asarray(probs, dtype=float)
    length = probs.shape[-1] if probs.ndim else 0
    n_slits = (length + 1).bit_length() - 1  # n slits have 2^n - 1 subsets
    if not (1 <= n_slits <= 9 and length == 2**n_slits - 1):
        lengths = ", ".join(str(2**n - 1) for n in range(1, 10))
        raise InputError(f"need one probability per slit subset ({lengths}), got shape {probs.shape}")
    keys = subset_keys(n_slits)
    _check_probabilities(probs, keys, 0.0)
    return probs, keys


def interference_term(probs, slits: tuple[int, ...]) -> np.ndarray:
    """Sorkin's I_k of k >= 2 distinct slits, per draw: the sum of (-1)^(k-|T|) P_T over their subsets T.

    Largest subsets first, each size in subset_keys order, so a pair gives exactly P_ij - P_i - P_j.
    """
    probs, keys = _experiment(probs)
    n_slits = len(keys[-1])
    chosen = set(map(str, slits))
    if len(slits) < 2 or len(chosen) != len(slits) or not chosen <= set(keys[:n_slits]):
        raise InputError(f"slits ({', '.join(map(str, slits))}) are not two or more distinct slits of 1..{n_slits}")
    term = np.zeros(probs.shape[:-1])
    for size in range(len(slits), 0, -1):
        for s, key in enumerate(keys):
            if len(key) == size and set(key) <= chosen:
                term = term + (-1) ** (len(slits) - size) * probs[..., s]
    return term


@dataclass(frozen=True)
class QuantumSlitModel:
    """A stack of models: density matrices, slit bases, detection effects.

    Slit a of a draw is the projector onto column a of its unitary basis. The
    leading axis indexes draws; a failed check names the first bad draw.
    """

    rho: np.ndarray  # (n_draws, d, d)
    basis: np.ndarray  # (n_draws, d, d), one column per slit
    effect: np.ndarray  # (n_draws, d, d)

    def __post_init__(self) -> None:
        for name in ("rho", "basis", "effect"):  # array-likes, as every other entry point takes them
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        shape = self.rho.shape[:2] + self.rho.shape[1:2]  # (n_draws, d, d)
        if any(a.ndim != 3 or a.shape != shape for a in (self.rho, self.basis, self.effect)):
            raise InputError("model dimensions are inconsistent")
        if shape[1] == 0:
            raise InputError("model needs at least 1 slit, got dimension 0")
        for message, bad in self._defects():
            draw = _first_bad(bad)
            if draw is not None:
                raise InputError(f"draw {draw[0]}: {message}")

    def _defects(self):
        """Each check's message and (n_draws,) mask of failing draws, in order; lazy, so the first failure ends it."""
        rho, basis, effect = self.rho, self.basis, self.effect
        yield "state must be Hermitian", np.abs(rho - rho.conj().swapaxes(1, 2)).max(axis=(1, 2)) > _MODEL_TOL
        yield "state must have unit trace", np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0) > _MODEL_TOL
        yield "state must be positive semidefinite", np.linalg.eigvalsh(rho)[:, 0] < -_MODEL_TOL
        gram = basis.conj().swapaxes(1, 2) @ basis
        yield "slit basis must be unitary", np.abs(gram - np.eye(gram.shape[-1])).max(axis=(1, 2)) > _MODEL_TOL
        yield "effect must be Hermitian", np.abs(effect - effect.conj().swapaxes(1, 2)).max(axis=(1, 2)) > _MODEL_TOL
        eigs = np.linalg.eigvalsh(effect)
        yield "effect eigenvalues must lie in [0, 1]", (eigs[:, 0] < -_MODEL_TOL) | (eigs[:, -1] > 1.0 + _MODEL_TOL)


def run_slit_model(model: QuantumSlitModel) -> np.ndarray:
    """Project onto each open-slit subspace, then detect: P_S = tr(Pi_S rho Pi_S M).

    Returns (n_draws, 2^d - 1) probabilities in subset_keys order, clipped
    onto [0, 1] after a range check with tolerance.
    """
    n_draws, d = model.rho.shape[:2]
    keys = subset_keys(d)
    u, u_h = model.basis, model.basis.conj().swapaxes(1, 2)
    # In the slit basis, tr(P_a rho P_b M) = rho'_ab M'_ba with rho' = U^H rho U and M' = U^H M U;
    # P_S is the sum of these terms over a and b in S
    terms = (u_h @ model.rho @ u * (u_h @ model.effect @ u).swapaxes(1, 2)).real
    mask = np.array([[str(k) in key for k in range(1, d + 1)] for key in keys], dtype=float)
    pair_mask = (mask[:, :, None] * mask[:, None, :]).reshape(len(keys), d * d)
    probs = terms.reshape(n_draws, d * d) @ pair_mask.T
    _check_probabilities(probs, keys, _RANGE_TOL)
    return np.clip(probs, 0.0, 1.0)


def _haar_unitaries(rng: np.random.Generator, n_draws: int, d: int) -> np.ndarray:
    """(n_draws, d, d) unitaries from a complex Gaussian QR: Haar up to column phases.

    A slit model sees U only through |u_a><u_a| and V diag(w) V^H, which those phases leave unchanged.
    """
    g = rng.standard_normal((n_draws, d, d)) + 1j * rng.standard_normal((n_draws, d, d))
    return np.linalg.qr(g)[0]


def random_slit_model(rng: np.random.Generator, n_draws: int, diagonal: bool = False) -> QuantumSlitModel:
    """Draw n_draws random three-slit models: Haar slit projectors, full-rank state, random effect.

    With diagonal=True each state is diagonal in its slit basis (the classical
    limit), which kills every second-order interference term. n_draws must be
    an integer >= 1, as for the survey; a bool is not one.
    """
    n, n_draws = _SURVEY_SLITS, _check_integer("n_draws", n_draws, 1)
    u = _haar_unitaries(rng, n_draws, n)
    if diagonal:
        weights = rng.dirichlet(np.ones(n), size=n_draws)
        rho = (u * weights[:, None, :]) @ u.conj().swapaxes(1, 2)
    else:
        g = rng.standard_normal((n_draws, n, n)) + 1j * rng.standard_normal((n_draws, n, n))
        rho = g @ g.conj().swapaxes(1, 2)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    v = _haar_unitaries(rng, n_draws, n)
    effect = (v * rng.uniform(0.0, 1.0, (n_draws, 1, n))) @ v.conj().swapaxes(1, 2)
    return QuantumSlitModel(rho, u, effect)


def run_interference_survey(n_draws: int, seed: int) -> dict:
    """Monte-Carlo check of the hierarchy on random quantum slit models.

    Models are drawn, checked and evaluated in blocks of _SURVEY_BLOCK draws.
    Returns the largest |I3| seen, the fraction of draws whose I2 of slits
    1 and 2 exceeds 0.01 in magnitude, and the largest I2 produced by
    diagonal (classical-limit) models. n_draws must be an integer >= 1 and
    seed one >= 0; a bool is neither.
    """
    n_draws, seed = _check_integer("n_draws", n_draws, 1), _check_integer("seed", seed, 0)  # plain ints for JSON
    rng = np.random.default_rng(seed)
    blocks = [
        (run_slit_model(random_slit_model(rng, size)), run_slit_model(random_slit_model(rng, size, diagonal=True)))
        for size in (min(_SURVEY_BLOCK, n_draws - start) for start in range(0, n_draws, _SURVEY_BLOCK))
    ]
    probs, diag_probs = (np.concatenate(stack) for stack in zip(*blocks))
    return {
        "n_draws": n_draws,
        "seed": seed,
        "n_slits": _SURVEY_SLITS,
        "max_abs_i3": float(np.abs(interference_term(probs, (1, 2, 3))).max()),
        "frac_i2_above_0.01": int(np.count_nonzero(np.abs(interference_term(probs, (1, 2))) > 0.01)) / n_draws,
        "diagonal_max_abs_i2": float(np.abs(interference_term(diag_probs, (1, 2))).max()),
    }
