"""Initial mental states of the two-choice game and the built-in case catalog.

A player's joint state lives on prediction (B) x action (A) qubits in the
basis {dd, dc, cd, cc}. Branch "u" starts from a generic prediction qubit,
branches "d"/"c" from the corresponding certain prediction; all branches
share one action qubit.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NotPositiveError
from .linalg import PSD_TOL, tensor

BRANCHES = ("u", "d", "c")


@dataclass(frozen=True)
class SubsystemParams:
    """Population p on the defect basis state plus coherence amplitude lam."""

    p: float
    lam: complex = 0j


@dataclass(frozen=True)
class BranchState:
    prediction: SubsystemParams
    action: SubsystemParams


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: per-branch prediction/action parameters.

    Structural invariants: branch "d" predicts defection with certainty,
    branch "c" cooperation, and the action parameters are identical across
    all three branches.
    """

    case_label: str
    branches: Mapping[str, BranchState]

    def __post_init__(self) -> None:
        if set(self.branches) != set(BRANCHES):
            raise ValueError(f"scenario must define branches {BRANCHES}, got {set(self.branches)}")
        d_pred = self.branches["d"].prediction
        c_pred = self.branches["c"].prediction
        if (d_pred.p, complex(d_pred.lam)) != (1.0, 0j):
            raise ValueError("branch 'd' must predict defection with certainty (p=1, lam=0)")
        if (c_pred.p, complex(c_pred.lam)) != (0.0, 0j):
            raise ValueError("branch 'c' must predict cooperation with certainty (p=0, lam=0)")
        action = self.branches["u"].action
        for alpha in BRANCHES:
            b = self.branches[alpha]
            if (b.action.p, complex(b.action.lam)) != (action.p, complex(action.lam)):
                raise ValueError("action parameters must be identical across branches")
            qubit_state(b.prediction)
            qubit_state(b.action)

    @classmethod
    def uncorrelated(
        cls, case_label: str, prediction: SubsystemParams, action: SubsystemParams
    ) -> "ScenarioSpec":
        """Build the three branches from the uncertain-branch prediction."""
        return cls(
            case_label,
            {
                "u": BranchState(prediction, action),
                "d": BranchState(SubsystemParams(1.0), action),
                "c": BranchState(SubsystemParams(0.0), action),
            },
        )

    @property
    def p_b(self) -> float:
        """Defection probability of the uncertain-branch prediction."""
        return self.branches["u"].prediction.p


def qubit_state(params: SubsystemParams) -> np.ndarray:
    """2x2 density matrix [[p, lam], [conj(lam), 1-p]].

    Raises NotPositiveError when |lam|^2 exceeds p(1-p) beyond tolerance,
    i.e. when the matrix would not be positive semidefinite.
    """
    p = float(params.p)
    lam = complex(params.lam)
    if not (np.isfinite(p) and np.isfinite(lam.real) and np.isfinite(lam.imag)):
        raise ValueError("subsystem parameters must be finite")
    if abs(lam) ** 2 > p * (1.0 - p) + PSD_TOL:
        raise NotPositiveError(
            f"|lam|^2 = {abs(lam) ** 2:.6g} exceeds p(1-p) = {p * (1.0 - p):.6g}"
        )
    return np.array([[p, lam], [lam.conjugate(), 1.0 - p]], dtype=complex)


def initial_mental_state(spec: ScenarioSpec, branch: str) -> np.ndarray:
    """Uncorrelated 4x4 joint state prediction (x) action for one branch."""
    b = spec.branches[branch]
    return tensor(qubit_state(b.prediction), qubit_state(b.action))


def chi_initial(spec: ScenarioSpec) -> np.ndarray:
    """Correction matrix relating the uncertain branch to the certain ones.

    chi(0) = rho_u(0) - p_B rho_d(0) - (1 - p_B) rho_c(0). Traceless and
    Hermitian with an identically zero diagonal; every entry carries a
    factor of the prediction coherence, so it vanishes when lam_B = 0.
    """
    p_b = spec.p_b
    return (
        initial_mental_state(spec, "u")
        - p_b * initial_mental_state(spec, "d")
        - (1.0 - p_b) * initial_mental_state(spec, "c")
    )


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
    try:
        prediction, action = _CATALOG_PARAMS[label]
    except KeyError:
        raise KeyError(f"unknown case label {label!r}; known labels: {CATALOG_LABELS}") from None
    return ScenarioSpec.uncorrelated(label, prediction, action)


def scenario_to_config(spec: ScenarioSpec) -> dict:
    """Serialize a scenario to the JSON-friendly branch-parameter mapping."""
    branches = {}
    for alpha in BRANCHES:
        b = spec.branches[alpha]
        lam_b = complex(b.prediction.lam)
        lam_a = complex(b.action.lam)
        branches[alpha] = {
            "pB": b.prediction.p,
            "lamB_re": lam_b.real,
            "lamB_im": lam_b.imag,
            "pA": b.action.p,
            "lamA_re": lam_a.real,
            "lamA_im": lam_a.imag,
        }
    return {"case_label": spec.case_label, "branches": branches}


def _config_value(mapping, path: str, default=None):
    """Entry at the dotted key ``path`` whose parent is ``mapping``."""
    parent, _, key = path.rpartition(".")
    try:
        return mapping[key]
    except KeyError:
        if default is not None:
            return default
        raise ValueError(f"config: missing key {path}") from None
    except TypeError:
        raise ValueError(f"config: {parent or 'top level'} must be a mapping, got {mapping!r}") from None


def _config_float(mapping, path: str, default=None) -> float:
    """Number at ``path``; JSON true/false are rejected, not read as 1 and 0."""
    value = _config_value(mapping, path, default)
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError):
            return float(value)
    raise ValueError(f"config: {path} must be a number, got {value!r}")


def _subsystem_from_config(raw, path: str, side: str) -> SubsystemParams:
    """Subsystem parameters from the keys p<side>, lam<side>_re, lam<side>_im."""
    p = _config_float(raw, f"{path}.p{side}")
    lam = complex(_config_float(raw, f"{path}.lam{side}_re", 0.0), _config_float(raw, f"{path}.lam{side}_im", 0.0))
    return SubsystemParams(p, lam)


def scenario_from_config(config: Mapping) -> ScenarioSpec:
    """Parse the mapping produced by scenario_to_config.

    A missing or malformed entry raises ValueError naming its key path,
    e.g. ``branches.u.pB``.
    """
    branches_cfg = _config_value(config, "branches")
    branches = {}
    for alpha in BRANCHES:
        path = f"branches.{alpha}"
        raw = _config_value(branches_cfg, path)
        branches[alpha] = BranchState(
            _subsystem_from_config(raw, path, "B"), _subsystem_from_config(raw, path, "A")
        )
    return ScenarioSpec(str(_config_value(config, "case_label")), branches)

