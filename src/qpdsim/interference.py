"""Interference-hierarchy functionals over multi-slit probability assignments.

Classical probability makes two-slit detection additive (I2 = 0); quantum
assignments generally do not, yet both theories cancel the third-order
combination exactly (I3 = 0). A nonzero I3 therefore certifies statistics
beyond quantum probability, which is what a three-choice game extension
would be tested against.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidModelError, MissingSubsetError

_RANGE_TOL = 1e-12
_SURVEY_SLITS = 3  # the fewest slits with a third-order term


def subset_keys(n_slits: int) -> tuple[str, ...]:
    """Canonical keys for all non-empty slit subsets, e.g. "1", "13", "123"."""
    slits = range(1, n_slits + 1)
    keys = []
    for size in slits:
        keys.extend("".join(map(str, combo)) for combo in itertools.combinations(slits, size))
    return tuple(keys)


@dataclass(frozen=True)
class SlitExperiment:
    """Detection probability for every non-empty subset of open slits."""

    n_slits: int
    probs: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.n_slits not in (2, 3):
            raise ValueError(f"n_slits must be 2 or 3, got {self.n_slits}")
        for key in subset_keys(self.n_slits):
            if key not in self.probs:
                raise MissingSubsetError(f"missing probability for slit subset {key!r}")
        for key, p in self.probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"P_{key} = {p} outside [0, 1]")

    def __getitem__(self, key: str) -> float:
        return self.probs[key]


def pairwise_interference(exp: SlitExperiment, i: int, j: int) -> float:
    """Sorkin's second-order term I2 = P_ij - P_i - P_j for one slit pair."""
    key = "".join(map(str, sorted((i, j))))
    return exp[key] - exp[str(i)] - exp[str(j)]


def interference_i3(exp: SlitExperiment) -> float:
    """I3 = P_123 - P_12 - P_13 - P_23 + P_1 + P_2 + P_3 of a three-slit one."""
    if exp.n_slits != 3:
        raise ValueError("I3 is defined on three-slit experiments")
    return (
        exp["123"]
        - exp["12"]
        - exp["13"]
        - exp["23"]
        + exp["1"]
        + exp["2"]
        + exp["3"]
    )


@dataclass(frozen=True)
class QuantumSlitModel:
    """Density matrix, orthogonal rank-1 slit projectors, and detection effect."""

    rho: np.ndarray
    projectors: np.ndarray  # (n, d, d)
    effect: np.ndarray

    def __post_init__(self) -> None:
        n = self.projectors.shape[0]
        d = self.rho.shape[0]
        if self.projectors.shape != (n, d, d) or self.effect.shape != (d, d) or n != d:
            raise InvalidModelError("model dimensions are inconsistent")
        total = self.projectors.sum(axis=0)
        if np.max(np.abs(total - np.eye(d))) > _RANGE_TOL:
            raise InvalidModelError("projectors must sum to the identity")
        products = np.einsum("aij,bjk->abik", self.projectors, self.projectors)
        expected = np.zeros_like(products)
        idx = np.arange(n)
        expected[idx, idx] = self.projectors
        if np.max(np.abs(products - expected)) > 1e-10:
            raise InvalidModelError("projectors must be orthogonal and idempotent")
        if np.max(np.abs(self.effect - self.effect.conj().T)) > 1e-10:
            raise InvalidModelError("effect must be Hermitian")
        eff_eigs = np.linalg.eigvalsh(self.effect)
        if eff_eigs[0] < -1e-10 or eff_eigs[-1] > 1.0 + 1e-10:
            raise InvalidModelError("effect eigenvalues must lie in [0, 1]")


def run_slit_model(model: QuantumSlitModel) -> SlitExperiment:
    """Project onto each open-slit subspace, then detect: P_S = tr(Pi_S rho Pi_S M)."""
    n = model.projectors.shape[0]
    probs = {}
    for key in subset_keys(n):
        pi = sum(model.projectors[int(ch) - 1] for ch in key)
        p = float(np.trace(pi @ model.rho @ pi @ model.effect).real)
        if p < -_RANGE_TOL or p > 1.0 + _RANGE_TOL:
            raise InvalidModelError(f"P_{key} = {p} outside [0, 1] beyond tolerance")
        probs[key] = min(max(p, 0.0), 1.0)
    return SlitExperiment(n, probs)


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_slit_model(rng: np.random.Generator, diagonal: bool = False) -> QuantumSlitModel:
    """Draw a random three-slit model: Haar-ish slit basis, full-rank state, random effect.

    With diagonal=True the state commutes with every slit projector (the
    classical limit), which kills every second-order interference term.
    """
    n = _SURVEY_SLITS
    u = _random_unitary(rng, n)
    projectors = np.stack([np.outer(u[:, k], u[:, k].conj()) for k in range(n)])
    if diagonal:
        weights = rng.dirichlet(np.ones(n))
        rho = sum(w * p for w, p in zip(weights, projectors))
    else:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
    v = _random_unitary(rng, n)
    effect = (v * rng.uniform(0.0, 1.0, n)) @ v.conj().T
    return QuantumSlitModel(rho, projectors, effect)


def run_interference_survey(n_draws: int, seed: int) -> dict:
    """Monte-Carlo check of the hierarchy on random quantum slit models.

    Returns the largest |I3| seen, the fraction of draws whose I2 of slits
    1 and 2 exceeds 0.01 in magnitude, and the largest I2 produced by
    diagonal (classical-limit) models.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    rng = np.random.default_rng(seed)
    max_abs_i3 = 0.0
    n_visible_i2 = 0
    diag_max_abs_i2 = 0.0
    for _ in range(n_draws):
        exp = run_slit_model(random_slit_model(rng))
        max_abs_i3 = max(max_abs_i3, abs(interference_i3(exp)))
        if abs(pairwise_interference(exp, 1, 2)) > 0.01:
            n_visible_i2 += 1
        diag_exp = run_slit_model(random_slit_model(rng, diagonal=True))
        diag_max_abs_i2 = max(diag_max_abs_i2, abs(pairwise_interference(diag_exp, 1, 2)))
    return {
        "n_draws": n_draws,
        "seed": seed,
        "n_slits": _SURVEY_SLITS,
        "max_abs_i3": max_abs_i3,
        "frac_i2_above_0.01": n_visible_i2 / n_draws,
        "diagonal_max_abs_i2": diag_max_abs_i2,
    }


def slit_experiment_to_json(exp: SlitExperiment) -> str:
    """Serialize as a flat subset-key to probability mapping."""
    return json.dumps({key: exp[key] for key in subset_keys(exp.n_slits)}, indent=2)


def slit_experiment_from_json(text: str) -> SlitExperiment:
    """Parse the flat mapping; the slit count is inferred from the keys."""
    probs = {str(k): float(v) for k, v in json.loads(text).items()}
    n = max((int(ch) for key in probs for ch in key), default=0)
    return SlitExperiment(n, probs)
