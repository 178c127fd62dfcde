"""Initial mental states of the two-choice game and the built-in case catalog.

A player's joint state lives on prediction (B) x action (A) qubits in the
basis {dd, dc, cd, cc}. Branch "u" starts from a generic prediction qubit,
branches "d"/"c" from the corresponding certain prediction; all branches
share one action qubit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InputError, _check_choice, _check_number
from .linalg import PSD_TOL

BRANCHES = ("u", "d", "c")
_CONFIG_KEYS = ("case_label", "branches", "mu_d", "mu_c", "gamma", "t_max", "samples")
_BRANCH_KEYS = ("pB", "lamB_re", "lamB_im", "pA", "lamA_re", "lamA_im")


@dataclass(frozen=True)
class SubsystemParams:
    """Population p on the defect basis state plus coherence amplitude lam."""

    p: float
    lam: complex = 0j


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: the uncertain prediction and the action all branches share.

    Branch "u" starts from ``prediction``; branches "d" and "c" predict
    defection and cooperation with certainty and are derived, never stored.
    """

    case_label: str
    prediction: SubsystemParams
    action: SubsystemParams

    def __post_init__(self) -> None:
        label = self.case_label  # it names the output files
        if not (isinstance(label, str) and label and label.isprintable() and "/" not in label and "\\" not in label):
            raise InputError(f"case_label must be a non-empty printable string without / or \\, got {label!r}")
        qubit_state(self.prediction)
        qubit_state(self.action)

    # perfbench/workloads.py builds its scenarios through this older name.
    uncorrelated = classmethod(lambda cls, *fields: cls(*fields))


def _predictions(spec: ScenarioSpec) -> dict[str, SubsystemParams]:
    """Each branch's prediction, in BRANCHES order."""
    return {"u": spec.prediction, "d": SubsystemParams(1.0), "c": SubsystemParams(0.0)}


def _modulus_square(lam) -> float:
    """|lam|^2 by multiplication, so inf where it overflows: ** raises OverflowError there, as abs does past 1.8e308."""
    with contextlib.suppress(OverflowError):
        return abs(lam) * abs(lam)
    return math.inf


def qubit_state(params: SubsystemParams) -> np.ndarray:
    """2x2 density matrix [[p, lam], [conj(lam), 1-p]].

    Raises InputError naming p or lam when it is not a finite number, p when p(1-p) is negative beyond
    PSD_TOL, and lam when |lam|^2 exceeds p(1-p) beyond it: each when the matrix would not be positive
    semidefinite.
    """
    p = _check_number("p", params.p)
    if p * (1.0 - p) + PSD_TOL < 0:
        raise InputError(f"p must lie in [0, 1], got {p!r}")
    lam = _check_number("lam", params.lam, real=False)
    if _modulus_square(lam) > p * (1.0 - p) + PSD_TOL:
        raise InputError(f"|lam|^2 = {_modulus_square(lam):.6g} exceeds p(1-p) = {p * (1.0 - p):.6g}")
    return np.array([[p, lam], [lam.conjugate(), 1.0 - p]], dtype=complex)


def initial_mental_state(spec: ScenarioSpec, branch: str) -> np.ndarray:
    """Uncorrelated 4x4 joint state prediction (x) action for one branch."""
    _check_choice("branch", branch, BRANCHES)
    return np.kron(qubit_state(_predictions(spec)[branch]), qubit_state(spec.action))


def initial_rank(spec: ScenarioSpec, branch: str) -> int:
    """Rank of the t=0 state of one branch: rank_B x rank_A, a qubit being pure when |lam|^2 >= p(1-p)."""
    _check_choice("branch", branch, BRANCHES)
    qubits = (_predictions(spec)[branch], spec.action)
    return int(np.prod([1 if _modulus_square(q.lam) >= q.p * (1.0 - q.p) else 2 for q in qubits]))


def chi_initial(spec: ScenarioSpec) -> np.ndarray:
    """Correction matrix relating the uncertain branch to the certain ones.

    chi(0) = rho_u(0) - p_B rho_d(0) - (1 - p_B) rho_c(0), which reduces to
    [[0, lam_B], [conj(lam_B), 0]] (x) rho_A: traceless and Hermitian with an
    identically zero diagonal, and zero when lam_B = 0.
    """
    lam = complex(spec.prediction.lam)
    return np.kron(np.array([[0.0, lam], [lam.conjugate(), 0.0]]), qubit_state(spec.action))


# Built-in scenario catalog. Labels and parameters are frozen regression
# anchors; the starred variants soften their base case so the uncertain
# prediction keeps nonzero entropy.
_CATALOG_PARAMS: dict[str, tuple[SubsystemParams, SubsystemParams]] = {
    "1": (SubsystemParams(0.5), SubsystemParams(0.5)),
    "1*": (SubsystemParams(1.0 / 3.0), SubsystemParams(0.6)),
    "2": (SubsystemParams(0.5), SubsystemParams(0.5, 0.5)),
    "3": (SubsystemParams(0.5, 0.5), SubsystemParams(0.5)),
    "3*": (SubsystemParams(0.5, 0.25), SubsystemParams(0.5)),
    "4": (SubsystemParams(0.5, 0.5), SubsystemParams(0.5, 0.5)),
    "4*": (SubsystemParams(0.5, 0.25j), SubsystemParams(0.5, 0.5)),
}

CATALOG_LABELS = tuple(_CATALOG_PARAMS)


def catalog_case(label: str) -> ScenarioSpec:
    """Look up a built-in scenario by its case label (e.g. "3*")."""
    _check_choice("case label", label, CATALOG_LABELS)
    return ScenarioSpec(label, *_CATALOG_PARAMS[label])


def _subsystem_keys(params: SubsystemParams, side: str) -> dict[str, float]:
    """The config entries p<side>, lam<side>_re, lam<side>_im of one subsystem."""
    lam = complex(params.lam)
    return {f"p{side}": params.p, f"lam{side}_re": lam.real, f"lam{side}_im": lam.imag}


def scenario_to_config(spec: ScenarioSpec) -> dict:
    """Serialize a scenario to the JSON-friendly branch-parameter mapping."""
    branches = {
        alpha: {**_subsystem_keys(prediction, "B"), **_subsystem_keys(spec.action, "A")}
        for alpha, prediction in _predictions(spec).items()
    }
    return {"case_label": spec.case_label, "branches": branches}


def _config_value(mapping, path: str, default=None):
    """Entry at the dotted key ``path`` whose parent is ``mapping``, a mapping checked by _config_mapping."""
    key = path.rpartition(".")[2]
    if key not in mapping and default is None:
        raise InputError(f"config: missing key {path}")
    return mapping.get(key, default)


def _config_mapping(parent, path: str = "", known: tuple[str, ...] = _CONFIG_KEYS) -> Mapping:
    """The mapping at ``path`` (``parent`` itself, the top level, for the empty path), with no key outside ``known``."""
    mapping = _config_value(parent, path) if path else parent
    if not isinstance(mapping, Mapping):
        raise InputError(f"config: {path or 'top level'} must be a mapping, got {mapping!r}")
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise InputError(f"config: unknown key {path}{'.' if path else ''}{unknown[0]}; known keys: {', '.join(known)}")
    return mapping


def _config_float(mapping, path: str, default=None) -> float:
    """Number at ``path``; JSON true/false are rejected, not read as 1 and 0, as is an integer past the float range."""
    value = _config_value(mapping, path, default)
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise InputError(f"config: {path} must be a number, got {value!r}")


def _subsystem_from_config(raw, path: str, side: str) -> SubsystemParams:
    """Subsystem parameters from the keys p<side>, lam<side>_re, lam<side>_im."""
    p = _config_float(raw, f"{path}.p{side}")
    lam = complex(_config_float(raw, f"{path}.lam{side}_re", 0.0), _config_float(raw, f"{path}.lam{side}_im", 0.0))
    return SubsystemParams(p, lam)


def scenario_from_config(config: Mapping) -> ScenarioSpec:
    """Parse the mapping produced by scenario_to_config.

    The scenario comes from branch "u"; branches "d" and "c" must hold the
    values it derives for them. A missing, unknown, malformed or inconsistent
    entry raises InputError naming its key path, e.g. ``branches.d.pB``.
    """
    config = _config_mapping(config)
    branches_cfg = _config_mapping(config, "branches", BRANCHES)
    raw = {alpha: _config_mapping(branches_cfg, f"branches.{alpha}", _BRANCH_KEYS) for alpha in BRANCHES}
    label = _config_value(config, "case_label")
    prediction, action = (_subsystem_from_config(raw["u"], "branches.u", side) for side in "BA")
    try:
        spec = ScenarioSpec(label, prediction, action)
    except InputError as exc:  # the label is checked first; a later error is branch u's
        where = "" if str(exc).startswith("case_label") else "branches.u: "
        raise InputError(f"config: {where}{exc}") from None
    for alpha in ("d", "c"):
        path = f"branches.{alpha}"
        derived = (("B", _predictions(spec)[alpha], "a certain prediction"), ("A", action, "the action of branch u"))
        for side, params, why in derived:
            got = _subsystem_keys(_subsystem_from_config(raw[alpha], path, side), side)
            for key, value in _subsystem_keys(params, side).items():
                if got[key] != value:
                    raise InputError(f"config: {path}.{key} must be {value!r} ({why}), got {got[key]!r}")
    return spec
