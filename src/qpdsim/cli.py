"""Batch command-line front end.

Runs one scenario (built-in case or JSON config) through the default or a
custom Hamiltonian/grid and writes the requested outputs: t=0 and
time-averaged tables, per-branch trajectory CSVs, and the interference
survey. --reproduce-all sweeps the whole catalog against the packaged
reference values and exits nonzero on any regression.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import sys
from dataclasses import dataclass

from .dynamics import DEFAULT_GAMMA, DEFAULT_MU, DEFAULT_SAMPLES, DEFAULT_T_MAX, HamiltonianParams, _check_grid
from .errors import InputError, _check_choice, _check_integer
from .interference import run_interference_survey
from .report import (
    TABLE_COLUMNS,
    analyze_case,
    atomic_write_text,
    case_file_tag,
    render_table_csv,
    render_trajectory_csv,
    reproduce_all,
    table_rows,
)
from .states import ScenarioSpec, _config_float, _config_mapping, catalog_case, scenario_from_config

DEFAULT_OUTPUTS = (*TABLE_COLUMNS, "trajectory")
OUTPUT_KINDS = (*DEFAULT_OUTPUTS, "sorkin")
SURVEY_DRAWS = 10_000
_SCENARIO_KEYS = {"case_label", "branches"}  # a config with either one describes a scenario


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
        _check_grid(self.t_max, self.samples)
        _check_integer("seed", self.seed, 0)
        for kind in self.outputs:
            _check_choice("output", kind, OUTPUT_KINDS)


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
    parser.add_argument("--out-dir", help="directory for emitted files (default .)")
    parser.add_argument("--seed", type=int, help="seed for the interference survey (default 0)")
    parser.add_argument(
        "--reproduce-all",
        action="store_true",
        help="sweep all catalog cases against the packaged reference tables",
    )
    return parser


def _run_params(args: argparse.Namespace, file_cfg: dict) -> tuple[HamiltonianParams, float, int]:
    """Hamiltonian, t_max and samples; a flag beats its config key, which beats the default."""

    def pick(cli_value, key: str, default: float) -> float:
        return cli_value if cli_value is not None else _config_float(file_cfg, key, default)

    samples = pick(args.samples, "samples", DEFAULT_SAMPLES)
    if not float(samples).is_integer():
        raise InputError(f"config: samples must be an integer, got {samples!r}")
    hamiltonian = HamiltonianParams(
        mu_d=pick(args.mu, "mu_d", DEFAULT_MU),
        mu_c=pick(args.mu, "mu_c", DEFAULT_MU),
        gamma=pick(args.gamma, "gamma", DEFAULT_GAMMA),
    )
    return hamiltonian, pick(args.t_max, "t_max", DEFAULT_T_MAX), int(samples)


def _config_from_args(args: argparse.Namespace, file_cfg: dict) -> RunConfig:
    if args.case and _SCENARIO_KEYS & file_cfg.keys():
        raise InputError("give either --case or a config with a scenario, not both")
    if args.case:
        scenario = catalog_case(args.case)
    elif _SCENARIO_KEYS & file_cfg.keys():
        scenario = scenario_from_config(file_cfg)
    else:
        raise InputError("no scenario: pass --case LABEL or --config with case_label/branches")
    hamiltonian, t_max, samples = _run_params(args, file_cfg)
    outputs = tuple(s.strip() for s in args.outputs.split(",")) if args.outputs is not None else DEFAULT_OUTPUTS
    given = {key: value for key, value in (("out_dir", args.out_dir), ("seed", args.seed)) if value is not None}
    return RunConfig(scenario, hamiltonian, t_max, samples, outputs, **given)


def run(config: RunConfig) -> list[str]:
    """Execute one batch run; returns the paths written.

    Every requested output is rendered before any file is written, and a
    failed write removes the files written before it and every directory the
    run created, so a failed run leaves no file or directory of its own.
    """
    label = config.scenario.case_label
    needs_dynamics = any(k in config.outputs for k in ("table2", "table3", "trajectory"))
    analysis = None
    if needs_dynamics:
        analysis = analyze_case(config.scenario, config.hamiltonian, config.t_max, config.samples)

    rendered: list[tuple[str, str]] = []
    for table in TABLE_COLUMNS:
        if table in config.outputs:
            rendered.append((f"{table}.csv", render_table_csv(table, table_rows(table, analysis or config.scenario))))
    if "trajectory" in config.outputs:
        for alpha, text in render_trajectory_csv(analysis).items():
            rendered.append((f"trajectory_case_{case_file_tag(label)}_{alpha}.csv", text))
    if "sorkin" in config.outputs:
        survey = run_interference_survey(SURVEY_DRAWS, config.seed)
        rendered.append(("sorkin.json", json.dumps(survey, indent=2) + "\n"))

    out_dir = pathlib.Path(config.out_dir).absolute()
    missing = [d for d in (out_dir, *out_dir.parents) if not d.is_dir()]  # what makedirs creates, leaf first
    written = []
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        for name, text in rendered:
            path = os.path.join(config.out_dir, name)
            atomic_write_text(path, text)
            written.append(path)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        for directory in missing:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    return written


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_cfg: dict = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
            _config_mapping(file_cfg)
        if args.reproduce_all:
            flags = {"--case": args.case, "--outputs": args.outputs, "--out-dir": args.out_dir, "--seed": args.seed}
            stray = [flag for flag, value in flags.items() if value is not None]
            stray += sorted(_SCENARIO_KEYS & file_cfg.keys())
            if stray:
                raise InputError(f"--reproduce-all only sweeps the whole catalog; it takes no {', '.join(stray)}")
            result = reproduce_all(*_run_params(args, file_cfg))
            for line in result.lines:
                print(line)
            return 0 if result.passed else 1
        config = _config_from_args(args, file_cfg)
        for path in run(config):
            print(f"wrote {path}")
        return 0
    except Exception as exc:  # batch tool: every failure, bad input or broken invariant, exits 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
