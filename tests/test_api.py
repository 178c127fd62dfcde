import dataclasses
import inspect

import pytest

import qpdsim

# The public surface of the package, grouped by defining module. A name added
# or removed here is an API change and belongs in CHANGES.md. Submodules are
# left out: they show up in vars(qpdsim) only once something imports them.
PUBLIC_NAMES = {
    # dynamics
    "DEFAULT_GAMMA", "DEFAULT_MU", "DEFAULT_SAMPLES", "DEFAULT_T_MAX", "HamiltonianParams",
    "Trajectory", "build_hamiltonian", "evolve", "time_grid",
    # errors
    "DimensionMismatchError", "EmptyInputError", "EmptyTrajectoryError", "GridMismatchError",
    "InvalidModelError", "MissingSubsetError", "NonHermitianError", "NotPositiveError",
    # interference
    "QuantumSlitModel", "interference_term", "random_slit_model", "run_interference_survey",
    "run_slit_model", "subset_keys",
    # linalg
    "HERM_TOL", "PSD_TOL", "eig_hermitian", "partial_trace",
    # measures
    "MeasureRecord", "average_measures", "concurrence", "entanglement_of_formation",
    "l1_coherence", "measure_series", "measure_state", "trapezoid_mean",
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
# and a slit model store only their free parameters.
DATACLASS_FIELDS = {
    "ScenarioSpec": ("case_label", "prediction", "action"),
    "SubsystemParams": ("p", "lam"),
    "QuantumSlitModel": ("rho", "basis", "effect"),
    "HamiltonianParams": ("mu_d", "mu_c", "gamma"),
    "MeasureRecord": ("S_B", "S_A", "S_AB", "I_AB", "Cl1_B", "Cl1_A", "Cl1_AB", "CRE_AB", "EF_AB"),
    "CaseAnalysis": (
        "spec", "hamiltonian", "times", "trajectories", "probabilities", "delta", "delta_bound", "series",
        "means", "verdict",
    ),
    "StpVerdict": ("violated", "max_abs_delta", "onset_time"),
}


@pytest.mark.parametrize("name", sorted(DATACLASS_FIELDS))
def test_dataclass_fields_are_pinned(name):
    assert tuple(field.name for field in dataclasses.fields(getattr(qpdsim, name))) == DATACLASS_FIELDS[name]
