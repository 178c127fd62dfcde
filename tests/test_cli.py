import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from qpdsim import InputError, catalog_case, cli, run_interference_survey, scenario_to_config, time_grid
from qpdsim.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_table2_for_case_1(tmp_path, capsys):
    assert main(["--case", "1", "--outputs", "table2", "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "table2.csv")
    assert [r["alpha"] for r in rows] == ["u", "d", "c"]
    u = rows[0]
    assert u["case"] == "1" and u["violated"] == "0"
    assert float(u["S_B"]) == pytest.approx(1.0, abs=0.005)
    assert float(u["S_A"]) == pytest.approx(1.0, abs=0.005)
    assert float(u["S_AB"]) == pytest.approx(2.0, abs=0.005)
    assert float(u["I_AB"]) == pytest.approx(0.0, abs=0.005)


def test_trajectory_for_case_4star(tmp_path):
    assert main(["--case", "4*", "--outputs", "trajectory", "--out-dir", str(tmp_path)]) == 0
    for alpha in ("u", "d", "c"):
        assert (tmp_path / f"trajectory_case_4star_{alpha}.csv").exists()
    rows = read_csv(tmp_path / "trajectory_case_4star_u.csv")
    assert len(rows) == 4097
    deltas = np.array([float(r["delta"]) for r in rows])
    assert abs(deltas[0]) < 1e-12
    times = np.array([float(r["t"]) for r in rows])
    interior = (times > 0) & (times < 2 * math.pi)
    assert np.max(np.abs(deltas[interior])) > 1e-3


def test_degenerate_two_sample_grid(tmp_path):
    assert main(["--case", "1", "--outputs", "table2", "--samples", "2", "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "table2.csv")
    assert float(rows[0]["S_AB"]) == pytest.approx(2.0, abs=1e-9)


def test_byte_identical_reruns(tmp_path):
    args = ["--case", "3*", "--outputs", "table2,table3,trajectory,sorkin", "--seed", "5"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(dir_a)]) == 0
    assert main(args + ["--out-dir", str(dir_b)]) == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_custom_scenario_config(tmp_path):
    config = scenario_to_config(catalog_case("2"))
    config["case_label"] = "custom"
    config["samples"] = 65
    config["gamma"] = 0.8
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--outputs", "trajectory", "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "trajectory_case_custom_u.csv")
    assert len(rows) == 65


def test_config_numbers_may_be_strings(tmp_path):
    config = scenario_to_config(catalog_case("2"))
    config.update(gamma="2", t_max="2", samples="5")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--outputs", "trajectory", "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "trajectory_case_2_u.csv")
    assert [float(r["t"]) for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_cli_overrides_config_file(tmp_path):
    config = scenario_to_config(catalog_case("2"))
    config["samples"] = 65
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(
        ["--config", str(path), "--samples", "33", "--outputs", "trajectory", "--out-dir", str(tmp_path)]
    ) == 0
    rows = read_csv(tmp_path / f"trajectory_case_2_u.csv")
    assert len(rows) == 33


def test_sorkin_output(tmp_path):
    assert main(["--case", "1", "--outputs", "sorkin", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    survey = json.loads((tmp_path / "sorkin.json").read_text())
    assert survey["n_draws"] == 10_000
    assert survey["seed"] == 3
    assert survey["max_abs_i3"] < 1e-10
    assert survey["frac_i2_above_0.01"] >= 0.10


def test_error_paths(tmp_path, capsys):
    assert main(["--case", "nope", "--out-dir", str(tmp_path)]) == 1
    # the message is printed as it is, without quotes around it
    labels = "('1', '1*', '2', '3', '3*', '4', '4*')"
    assert capsys.readouterr().err == f"error: unknown case label 'nope'; choose from {labels}\n"

    assert main(["--outputs", "table2", "--out-dir", str(tmp_path)]) == 1
    assert "no scenario" in capsys.readouterr().err

    assert main(["--case", "1", "--samples", "1", "--out-dir", str(tmp_path)]) == 1
    assert "samples must be an integer >= 2, got 1" in capsys.readouterr().err

    # checked even when the survey, the seed's only reader, is not requested
    assert main(["--case", "1", "--seed", "-1", "--outputs", "table1", "--out-dir", str(tmp_path)]) == 1
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    assert main(["--case", "1", "--outputs", "bogus", "--out-dir", str(tmp_path)]) == 1
    assert "unknown output" in capsys.readouterr().err

    # an empty list is rejected like any unknown kind, not replaced by the defaults
    empty = tmp_path / "empty"
    assert main(["--case", "1", "--outputs", "", "--out-dir", str(empty)]) == 1
    assert "unknown output ''; choose from" in capsys.readouterr().err
    assert not empty.exists()

    for name, text, shown in (("list.json", "[1]", "[1]"), ("number.json", "5", "5"), ("null.json", "null", "None")):
        not_a_mapping = tmp_path / name
        not_a_mapping.write_text(text)
        assert main(["--case", "1", "--config", str(not_a_mapping), "--out-dir", str(tmp_path)]) == 1
        assert f"config: top level must be a mapping, got {shown}" in capsys.readouterr().err

    fresh = tmp_path / "fresh"
    assert main(["--case", "3", "--t-max", "inf", "--out-dir", str(fresh)]) == 1
    assert "t_max must be finite, got inf" in capsys.readouterr().err
    assert not fresh.exists()

    huge = tmp_path / "huge"
    assert main(["--case", "3", "--mu", "1e200", "--out-dir", str(huge)]) == 1
    assert "mu_d = 1e+200 is too large: its square overflows" in capsys.readouterr().err
    assert not huge.exists()

    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["--case", "1", "--outputs", "table1", "--out-dir", str(blocker)]) == 1


@pytest.mark.parametrize(
    "t_max, samples, message",
    [
        (1.0, 1, "samples must be an integer >= 2, got 1"),
        (1.0, 2.5, "samples must be an integer >= 2, got 2.5"),
        (0.0, 3, "t_max must be positive, got 0.0"),
        (math.inf, 3, "t_max must be finite, got inf"),
        ("1", 3, "t_max must be a real number, got '1'"),
        (1j, 3, "t_max must be a real number, got 1j"),
        (True, 3, "t_max must be a real number, got True"),
        pytest.param(10**400, 3, f"t_max must be finite, got {10**400}", id="t_max-beyond-float"),
    ],
)
def test_run_config_checks_the_grid_as_time_grid_does(t_max, samples, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        time_grid(t_max, samples)
    with pytest.raises(InputError, match=f"^{message}$"):
        cli.RunConfig(catalog_case("1"), t_max=t_max, samples=samples)


@pytest.mark.parametrize("seed", [-1, "1", 1.5, True])
def test_run_config_checks_the_seed_as_the_survey_does(seed):
    message = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(InputError, match=message):
        run_interference_survey(10, seed)
    with pytest.raises(InputError, match=message):
        cli.RunConfig(catalog_case("1"), seed=seed)


def test_case_and_scenario_config_conflict(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_config(catalog_case("2"))))
    assert main(["--case", "1", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    assert "not both" in capsys.readouterr().err


def test_case_label_config_names_a_scenario(tmp_path, capsys):
    path = tmp_path / "label.json"
    path.write_text(json.dumps({"case_label": "3*", "samples": 65}))
    out = tmp_path / "out"
    assert main(["--case", "1", "--config", str(path), "--outputs", "table1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: give either --case or a config with a scenario, not both\n"
    # a label alone is not a scenario: its branches are named as missing
    assert main(["--config", str(path), "--outputs", "table1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: config: missing key branches\n"
    assert main(["--reproduce-all", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --reproduce-all only sweeps the whole catalog; it takes no case_label\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda cfg: cfg["branches"]["u"].pop("pB"), "branches.u.pB"),
        (lambda cfg: cfg["branches"]["c"].pop("pA"), "branches.c.pA"),
        (lambda cfg: cfg["branches"].pop("d"), "branches.d"),
        (lambda cfg: cfg.pop("case_label"), "case_label"),
        (lambda cfg: cfg["branches"]["u"].update(lamB_re="half"), "branches.u.lamB_re"),
        (lambda cfg: cfg["branches"].update(u=[0.5]), "branches.u"),
        (lambda cfg: cfg.update(samples="many"), "samples"),
        (lambda cfg: cfg.update(samples=3.7), "samples"),
        (lambda cfg: cfg.update(gamma="strong"), "gamma"),
        (lambda cfg: cfg.update(mu_d=[0.5]), "mu_d"),
        pytest.param(lambda cfg: cfg.update(gamma=True), "gamma", id="gamma-true"),
        pytest.param(
            lambda cfg: cfg["branches"]["u"].update(lamB_re=False), "branches.u.lamB_re", id="lamB_re-false"
        ),
        # branches d and c must hold the values the scenario derives for them
        pytest.param(lambda cfg: cfg["branches"]["d"].update(pB=0.9), "branches.d.pB", id="d-pB-uncertain"),
        pytest.param(lambda cfg: cfg["branches"]["c"].update(lamB_im=0.1), "branches.c.lamB_im", id="c-lamB_im"),
        pytest.param(lambda cfg: cfg["branches"]["c"].update(lamA_re=0.1), "branches.c.lamA_re", id="c-lamA_re"),
        pytest.param(lambda cfg: cfg["branches"]["d"].update(pA=0.4), "branches.d.pA", id="d-pA"),
        pytest.param(lambda cfg: cfg["branches"]["u"].update(lamB_re=0.9), "branches.u", id="u-not-positive"),
        # |lam|^2 overflows to inf, which the positivity check names; a JSON integer beyond the float range
        pytest.param(
            lambda cfg: cfg["branches"]["u"].update(lamB_re=1e200),
            "branches.u: |lam|^2 = inf exceeds p(1-p) = 0.25",
            id="u-coherence-square-overflows",
        ),
        pytest.param(lambda cfg: cfg.update(mu_d=10**400), "mu_d must be a number", id="mu_d-beyond-float-range"),
        # a population outside [0, 1] is named as such, not as a coherence beyond p(1-p)
        pytest.param(
            lambda cfg: cfg["branches"]["u"].update(pB=2),
            "branches.u: p must lie in [0, 1], got 2.0",
            id="u-population-above-one",
        ),
        # the case label names the output files
        pytest.param(lambda cfg: cfg.update(case_label="a/b"), "case_label", id="label-slash"),
        pytest.param(lambda cfg: cfg.update(case_label="x\ny"), "case_label", id="label-newline"),
        pytest.param(lambda cfg: cfg.update(case_label=""), "case_label", id="label-empty"),
        pytest.param(lambda cfg: cfg.update(case_label=5), "case_label", id="label-number"),
        # a misspelt key would otherwise fall back to its default silently
        pytest.param(lambda cfg: cfg.update(gama=0.2), "unknown key gama", id="top-level-typo"),
        pytest.param(
            lambda cfg: cfg["branches"]["u"].update(lamB_Re=0.25),
            "unknown key branches.u.lamB_Re",
            id="branch-field-typo",
        ),
        pytest.param(lambda cfg: cfg["branches"].update(x={}), "unknown key branches.x", id="unknown-branch"),
    ],
)
def test_config_errors_name_the_key_path(tmp_path, capsys, edit, path):
    config = scenario_to_config(catalog_case("3"))
    edit(config)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path), "--outputs", "table1", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and path in err
    assert not (tmp_path / "table1.csv").exists()


@pytest.mark.parametrize("key", ["gama", "sample"])
def test_reproduce_all_rejects_unknown_config_keys(tmp_path, capsys, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"samples": 129, key: 1}))
    assert main(["--reproduce-all", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config: unknown key {key}; ") and captured.out == ""


def test_render_failure_writes_nothing(tmp_path, monkeypatch, capsys):
    # Branch c's EF_AB is out of range at row 3, so the one render call fails after
    # branches u and d have rendered: no file may be written and no directory made.
    real_analyze = cli.analyze_case

    def bad_ef_on_c(*args, **kwargs):
        analysis = real_analyze(*args, **kwargs)
        ef = analysis.series["c"].EF_AB.copy()
        ef[3] = 1.5
        series = dict(analysis.series, c=dataclasses.replace(analysis.series["c"], EF_AB=ef))
        return dataclasses.replace(analysis, series=series)

    monkeypatch.setattr(cli, "analyze_case", bad_ef_on_c)
    out_dir = tmp_path / "fresh"
    assert main(["--case", "3", "--samples", "65", "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: column EF_AB, row 3: value 1.5 above 1.0\n"
    assert not out_dir.exists()


def test_phase_overflow_names_energy_and_time(tmp_path, capsys):
    # E*t overflows to inf; the run must stop before numpy warns or the measures fail
    out_dir = tmp_path / "out"
    assert main(["--case", "3*", "--gamma", "1e308", "--samples", "65", "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == "error: phase E*t overflows: largest |E| = 1e+308, largest |t| = 6.28319\n"
    assert not out_dir.exists()


def test_write_failure_removes_the_files_written(tmp_path, monkeypatch, capsys):
    real_write = cli.atomic_write_text
    calls = []

    def fail_on_second(path, text):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        real_write(path, text)

    monkeypatch.setattr(cli, "atomic_write_text", fail_on_second)
    out_dir = tmp_path / "fresh"
    assert main(["--case", "1", "--outputs", "table1,table2,table3", "--out-dir", str(out_dir)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert len(calls) == 2
    assert not out_dir.exists()

    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("not the run's")
    calls.clear()
    assert main(["--case", "1", "--outputs", "table1,table2,table3", "--out-dir", str(kept)]) == 1
    assert sorted(p.name for p in kept.iterdir()) == ["notes.txt"]

    nest = tmp_path / "nest"
    nest.mkdir()
    calls.clear()
    assert main(["--case", "1", "--outputs", "table1,table2,table3", "--out-dir", str(nest / "a" / "b" / "c")]) == 1
    assert len(calls) == 2
    assert nest.is_dir() and not any(nest.iterdir())


def test_reproduce_all_passes(capsys):
    assert main(["--reproduce-all"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("0 failures)")
    assert "RESULT: PASS" in out


def test_reproduce_all_reports_deviations(capsys):
    main(["--reproduce-all", "--samples", "129"])
    out = capsys.readouterr().out
    assert "dev=" in out and "table3" in out


def test_reproduce_all_reads_run_keys_from_config(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"samples": 129}))
    code_flag = main(["--reproduce-all", "--samples", "129"])
    from_flag = capsys.readouterr().out
    assert main(["--reproduce-all", "--config", str(path)]) == code_flag
    assert capsys.readouterr().out == from_flag


def test_reproduce_all_rejects_a_scenario(tmp_path, capsys):
    assert main(["--reproduce-all", "--case", "3"]) == 1
    assert "whole catalog" in capsys.readouterr().err
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_config(catalog_case("2"))))
    assert main(["--reproduce-all", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "whole catalog" in captured.err and captured.out == ""


def test_reproduce_all_rejects_run_output_flags(tmp_path, capsys):
    for extra, flag in (
        (["--outputs", "bogus"], "--outputs"),
        (["--out-dir", str(tmp_path / "o2")], "--out-dir"),
        (["--seed", "3"], "--seed"),
    ):
        assert main(["--reproduce-all", *extra]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
    args = ["--reproduce-all", "--outputs", "bogus", "--out-dir", str(tmp_path / "o2"), "--seed", "3"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "--outputs, --out-dir, --seed" in captured.err and captured.out == ""
    assert not (tmp_path / "o2").exists()
