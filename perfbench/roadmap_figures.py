"""Re-measure the single-call timings ROADMAP.md quotes, best of 3.

    python3 perfbench/roadmap_figures.py

Prints one JSON object in milliseconds. These figures are for comparison
with the quoted baseline only; the benchmark proper is perfbench/run.py.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qpdsim  # noqa: E402
from qpdsim import report  # noqa: E402

REPEATS = 3
SURVEY_DRAWS = 1000


def best_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main() -> None:
    figures = {}
    for samples in (4097, 65537):
        figures[f"analyze_case_3star_{samples}"] = best_ms(lambda: qpdsim.analyze_case("3*", samples=samples))
        analysis = qpdsim.analyze_case("3*", samples=samples)
        figures[f"render_trajectory_csv_per_branch_{samples}"] = best_ms(
            lambda: report.render_trajectory_csv(analysis, "u")
        )
    h = qpdsim.build_hamiltonian()
    times = qpdsim.time_grid()
    rho0 = qpdsim.initial_mental_state(qpdsim.catalog_case("3*"), "u")
    states = qpdsim.evolve(rho0, h, times).states
    figures["evolve_per_branch_4097"] = best_ms(lambda: qpdsim.evolve(rho0, h, times))
    figures["measure_series_per_branch_4097"] = best_ms(lambda: qpdsim.measure_series(states))
    figures["entanglement_of_formation_per_branch_4097"] = best_ms(lambda: qpdsim.entanglement_of_formation(states))
    figures["survey_per_draw"] = best_ms(lambda: qpdsim.run_interference_survey(SURVEY_DRAWS, 0)) / SURVEY_DRAWS
    print(json.dumps(figures, indent=2))


if __name__ == "__main__":
    main()
