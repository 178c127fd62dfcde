"""Batch command-line front end.

Runs one scenario (built-in case or JSON config) through the default or a
custom Hamiltonian/grid and writes the requested outputs: t=0 and
time-averaged tables, per-branch trajectory CSVs, and the interference
survey. --reproduce-all sweeps the whole catalog against the packaged
reference values and exits nonzero on any regression.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .dynamics import DEFAULT_GAMMA, DEFAULT_MU, DEFAULT_SAMPLES, DEFAULT_T_MAX, HamiltonianParams
from .interference import run_interference_survey
from .report import (
    TABLE1_COLUMNS,
    TABLE2_COLUMNS,
    TABLE3_COLUMNS,
    analyze_case,
    atomic_write_text,
    case_file_tag,
    render_table_csv,
    render_trajectory_csv,
    reproduce_all,
    scenario_table1_rows,
    table2_rows,
    table3_rows,
)
from .states import ScenarioSpec, _config_float, catalog_case, scenario_from_config

OUTPUT_KINDS = ("table1", "table2", "table3", "trajectory", "sorkin")
DEFAULT_OUTPUTS = ("table1", "table2", "table3", "trajectory")
SURVEY_DRAWS = 10_000


@dataclass(frozen=True)
class RunConfig:
    """Validated batch-run parameters."""

    scenario: ScenarioSpec
    hamiltonian: HamiltonianParams = HamiltonianParams()
    t_max: float = DEFAULT_T_MAX
    samples: int = DEFAULT_SAMPLES
    outputs: tuple[str, ...] = DEFAULT_OUTPUTS
    out_dir: str = "."
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        if not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise ValueError(f"unknown output {kind!r}; choose from {OUTPUT_KINDS}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpdsim",
        description=(
            "Simulate density-matrix decision dynamics for one scenario and "
            "emit table/trajectory CSVs, or reproduce the full reference sweep."
        ),
    )
    parser.add_argument("--case", help="built-in case label (1, 1*, 2, 3, 3*, 4, 4*)")
    parser.add_argument("--config", help="path to a JSON scenario/parameter config")
    parser.add_argument("--gamma", type=float, help=f"coupling constant (default {DEFAULT_GAMMA})")
    parser.add_argument("--mu", type=float, help=f"payoff constant for both predictions (default {DEFAULT_MU})")
    parser.add_argument("--t-max", type=float, help=f"end of the time interval (default 2*pi = {DEFAULT_T_MAX:.6g})")
    parser.add_argument("--samples", type=int, help=f"uniform grid samples (default {DEFAULT_SAMPLES})")
    parser.add_argument(
        "--outputs",
        help="comma-separated subset of " + ",".join(OUTPUT_KINDS) + f" (default {','.join(DEFAULT_OUTPUTS)})",
    )
    parser.add_argument("--out-dir", default=".", help="directory for emitted files (default .)")
    parser.add_argument("--seed", type=int, default=0, help="seed for the interference survey (default 0)")
    parser.add_argument(
        "--reproduce-all",
        action="store_true",
        help="sweep all catalog cases against the packaged reference tables",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    if args.case and "branches" in file_cfg:
        raise ValueError("give either --case or a config with a scenario, not both")
    if args.case:
        scenario = catalog_case(args.case)
    elif "branches" in file_cfg:
        scenario = scenario_from_config(file_cfg)
    else:
        raise ValueError("no scenario: pass --case LABEL or --config with case_label/branches")

    def pick(cli_value, key: str, default: float) -> float:
        return cli_value if cli_value is not None else _config_float(file_cfg, key, default)

    samples = pick(args.samples, "samples", DEFAULT_SAMPLES)
    if not float(samples).is_integer():
        raise ValueError(f"config: samples must be an integer, got {samples!r}")
    hamiltonian = HamiltonianParams(
        mu_d=pick(args.mu, "mu_d", DEFAULT_MU),
        mu_c=pick(args.mu, "mu_c", DEFAULT_MU),
        gamma=pick(args.gamma, "gamma", DEFAULT_GAMMA),
    )
    outputs = tuple(s.strip() for s in args.outputs.split(",")) if args.outputs else DEFAULT_OUTPUTS
    return RunConfig(
        scenario=scenario,
        hamiltonian=hamiltonian,
        t_max=pick(args.t_max, "t_max", DEFAULT_T_MAX),
        samples=int(samples),
        outputs=outputs,
        out_dir=args.out_dir,
        seed=args.seed,
    )


def run(config: RunConfig) -> list[str]:
    """Execute one batch run; returns the paths written.

    Every requested output is rendered before any file is written, so a
    failure while rendering leaves no file and no directory behind.
    """
    label = config.scenario.case_label
    needs_dynamics = any(k in config.outputs for k in ("table2", "table3", "trajectory"))
    analysis = None
    if needs_dynamics:
        analysis = analyze_case(config.scenario, config.hamiltonian, config.t_max, config.samples)

    rendered: list[tuple[str, str]] = []
    if "table1" in config.outputs:
        rendered.append(("table1.csv", render_table_csv(scenario_table1_rows(config.scenario), TABLE1_COLUMNS)))
    if "table2" in config.outputs:
        rendered.append(("table2.csv", render_table_csv(table2_rows({label: analysis}), TABLE2_COLUMNS)))
    if "table3" in config.outputs:
        rendered.append(("table3.csv", render_table_csv(table3_rows({label: analysis}), TABLE3_COLUMNS)))
    if "trajectory" in config.outputs:
        for alpha in ("u", "d", "c"):
            name = f"trajectory_case_{case_file_tag(label)}_{alpha}.csv"
            rendered.append((name, render_trajectory_csv(analysis, alpha)))
    if "sorkin" in config.outputs:
        survey = run_interference_survey(SURVEY_DRAWS, config.seed)
        rendered.append(("sorkin.json", json.dumps(survey, indent=2) + "\n"))

    os.makedirs(config.out_dir, exist_ok=True)
    written = []
    for name, text in rendered:
        path = os.path.join(config.out_dir, name)
        atomic_write_text(path, text)
        written.append(path)
    return written


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.reproduce_all:
            t_max = args.t_max if args.t_max is not None else DEFAULT_T_MAX
            samples = args.samples if args.samples is not None else DEFAULT_SAMPLES
            mu = args.mu if args.mu is not None else DEFAULT_MU
            gamma = args.gamma if args.gamma is not None else DEFAULT_GAMMA
            result = reproduce_all(HamiltonianParams(mu, mu, gamma), t_max, samples)
            for line in result.lines:
                print(line)
            return 0 if result.passed else 1
        config = _config_from_args(args)
        for path in run(config):
            print(f"wrote {path}")
        return 0
    except Exception as exc:  # batch tool: any invariant failure is a hard error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
