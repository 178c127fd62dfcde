"""Exception types raised by the simulation modules, and how a failure names its place."""

from __future__ import annotations

import numpy as np


class InputError(ValueError):
    """Bad input: a config key, flag, parameter, shape, grid, case label, slit model, or a state that is
    not Hermitian, not positive or off trace 1."""


class InvariantError(ValueError):
    """A computed value broke an invariant the inputs' checks should have guaranteed."""


def _check_number(name: str, value, real: bool = True) -> float | complex:
    """``value`` as a float (complex unless ``real``); InputError naming ``name`` unless a finite number, not a bool."""
    kinds = (int, float, np.integer, np.floating) if real else (int, float, complex, np.number)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InputError(f"{name} must be a {'real ' if real else ''}number, got {value!r}")
    try:
        number = complex(value)
    except OverflowError:  # a Python int too large for a float
        number = np.inf
    if not np.isfinite(number):
        raise InputError(f"{name} must be finite, got {value!r}")
    return number.real if real else number


def _check_integer(name: str, value, least: int | None) -> int:
    """``value`` as an int; InputError naming ``name`` unless a Python or numpy integer, not a bool, >= ``least`` if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _check_choice(kind: str, value, choices) -> None:
    """InputError naming the ``kind`` of ``value`` unless it is one of ``choices``, an unhashable value included."""
    if value not in tuple(choices):
        raise InputError(f"unknown {kind} {value!r}; choose from {tuple(choices)}")


def _first_bad(mask) -> tuple[int, ...] | None:
    """Index of the first true entry of ``mask``, None when there is none; a 0-d mask's index is ()."""
    hits = np.flatnonzero(mask)
    return tuple(int(i) for i in np.unravel_index(hits[0], np.shape(mask))) if hits.size else None
