import ast
import dataclasses
import inspect
import pathlib

import numpy as np
import pytest

import qpdsim
from qpdsim.report import _checked_column
from qpdsim.stp import stp_leak

# The public surface of the package, grouped by defining module. A name added
# or removed here is an API change and belongs in CHANGES.md. Submodules are
# left out: they show up in vars(qpdsim) only once something imports them.
PUBLIC_NAMES = {
    # dynamics
    "DEFAULT_GAMMA", "DEFAULT_MU", "DEFAULT_SAMPLES", "DEFAULT_T_MAX", "HamiltonianParams",
    "Trajectory", "build_hamiltonian", "evolve", "time_grid",
    # errors
    "InputError", "InvariantError",
    # interference
    "QuantumSlitModel", "interference_term", "random_slit_model", "run_interference_survey",
    "run_slit_model", "subset_keys",
    # linalg
    "HERM_TOL", "PSD_TOL", "eig_hermitian",
    # measures
    "MeasureRecord", "average_measures", "concurrence", "entanglement_of_formation",
    "measure_series", "trapezoid_mean",
    # report
    "CaseAnalysis", "ReproduceReport", "analyze_case", "analyze_catalog", "load_reference_table",
    "reproduce_all", "table_rows",
    # states
    "BRANCHES", "CATALOG_LABELS", "ScenarioSpec", "SubsystemParams", "catalog_case",
    "chi_initial", "initial_mental_state", "qubit_state",
    "scenario_from_config", "scenario_to_config",
    # stp
    "DELTA_EPS", "StpVerdict", "choice_probability", "stp_verdict",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(qpdsim).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC_NAMES


# The fields of the public input and result dataclasses, in order. A scenario
# and a slit model store only their free parameters, and an analysis only its
# series: its trajectories are a property that evolves a branch on each access.
DATACLASS_FIELDS = {
    "ScenarioSpec": ("case_label", "prediction", "action"),
    "SubsystemParams": ("p", "lam"),
    "QuantumSlitModel": ("rho", "basis", "effect"),
    "HamiltonianParams": ("mu_d", "mu_c", "gamma"),
    "MeasureRecord": ("S_B", "S_A", "S_AB", "I_AB", "Cl1_B", "Cl1_A", "Cl1_AB", "CRE_AB", "EF_AB"),
    "CaseAnalysis": (
        "spec", "hamiltonian", "times", "probabilities", "delta", "delta_bound", "series", "means", "verdict",
    ),
    "StpVerdict": ("violated", "max_abs_delta", "onset_time"),
}


@pytest.mark.parametrize("name", sorted(DATACLASS_FIELDS))
def test_dataclass_fields_are_pinned(name):
    assert tuple(field.name for field in dataclasses.fields(getattr(qpdsim, name))) == DATACLASS_FIELDS[name]


def _raised_classes(node: ast.expr) -> set[str]:
    """Names of the classes a ``raise`` expression can raise: ``E(...)``, ``E``, or ``(A if c else B)(...)``."""
    if isinstance(node, ast.Call):
        return _raised_classes(node.func)
    if isinstance(node, ast.IfExp):
        return _raised_classes(node.body) | _raised_classes(node.orelse)
    return {node.id if isinstance(node, ast.Name) else ast.unparse(node)}


@pytest.mark.parametrize("path", sorted(pathlib.Path(qpdsim.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_uses_one_of_the_two_bases(path):
    # A bare ``raise`` re-raises what a handler caught; every other raise names InputError or InvariantError.
    raised = [
        (node.lineno, name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in _raised_classes(node.exc)
    ]
    assert [(line, name) for line, name in raised if name not in {"InputError", "InvariantError"}] == []


def test_broken_invariants_of_computed_values_raise_invariant_error():
    # the output columns and chi(t) are computed, never given; run_slit_model's range check is pinned in
    # test_interference.py
    with pytest.raises(qpdsim.InvariantError, match=r"^column EF_AB, row 1: value 1\.5 above 1\.0$"):
        _checked_column("EF_AB", [0.5, 1.5])
    with pytest.raises(qpdsim.InvariantError, match=r"^chi diagonal sample 0, entry 1: imaginary part 1e-09 beyond 1e-12$"):
        stp_leak(np.array([0.0, 1e-9j, 0.0, 0.0]))
