"""Density-matrix simulation of two-choice decision dynamics.

Core objects: scenario specifications over prediction/action qubits, the
two-term interaction Hamiltonian, unitary trajectories, quantum-information
measures, sure-thing-principle deviation analysis, and interference-
hierarchy functionals for multi-slit probability assignments.
"""

from .dynamics import (
    DEFAULT_GAMMA,
    DEFAULT_MU,
    DEFAULT_SAMPLES,
    DEFAULT_T_MAX,
    HamiltonianParams,
    Trajectory,
    build_hamiltonian,
    evolve,
    time_grid,
)
from .errors import InputError, InvariantError
from .interference import (
    QuantumSlitModel,
    interference_term,
    random_slit_model,
    run_interference_survey,
    run_slit_model,
    subset_keys,
)
from .linalg import (
    HERM_TOL,
    PSD_TOL,
    eig_hermitian,
)
from .measures import (
    MeasureRecord,
    average_measures,
    concurrence,
    entanglement_of_formation,
    measure_series,
    trapezoid_mean,
)
from .report import (
    CaseAnalysis,
    ReproduceReport,
    analyze_case,
    analyze_catalog,
    load_reference_table,
    reproduce_all,
    table_rows,
)
from .states import (
    BRANCHES,
    CATALOG_LABELS,
    ScenarioSpec,
    SubsystemParams,
    catalog_case,
    chi_initial,
    initial_mental_state,
    qubit_state,
    scenario_from_config,
    scenario_to_config,
)
from .stp import (
    DELTA_EPS,
    StpVerdict,
    choice_probability,
    stp_verdict,
)

__version__ = "0.1.0"
