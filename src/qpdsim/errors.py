"""Exception types raised by the simulation modules, and how a failure names its place."""

from __future__ import annotations

import numpy as np


class InputError(ValueError):
    """Bad input: a config key, flag, parameter, shape, grid, case label, slit model, or a state that is
    not Hermitian, not positive or off trace 1."""


class InvariantError(ValueError):
    """A computed value broke an invariant the inputs' checks should have guaranteed."""


def _check_number(name: str, value, real: bool = True) -> None:
    """InputError naming ``name`` unless ``value`` is a Python or numpy number, real where ``real``, and not a bool."""
    kinds = (int, float, np.integer, np.floating) if real else (int, float, complex, np.number)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InputError(f"{name} must be a {'real ' if real else ''}number, got {value!r}")


def _first_bad(mask) -> tuple[int, ...] | None:
    """Index of the first true entry of ``mask``, None when there is none; a 0-d mask's index is ()."""
    hits = np.flatnonzero(mask)
    return tuple(int(i) for i in np.unravel_index(hits[0], np.shape(mask))) if hits.size else None
