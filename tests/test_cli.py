import csv
import json
import math

import numpy as np
import pytest

from qpdsim import catalog_case, cli, scenario_to_config
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
    assert "unknown case label" in capsys.readouterr().err

    assert main(["--outputs", "table2", "--out-dir", str(tmp_path)]) == 1
    assert "no scenario" in capsys.readouterr().err

    assert main(["--case", "1", "--samples", "1", "--out-dir", str(tmp_path)]) == 1
    assert "at least 2" in capsys.readouterr().err

    assert main(["--case", "1", "--outputs", "bogus", "--out-dir", str(tmp_path)]) == 1
    assert "unknown output" in capsys.readouterr().err

    not_a_mapping = tmp_path / "list.json"
    not_a_mapping.write_text("[1]")
    assert main(["--case", "1", "--config", str(not_a_mapping), "--out-dir", str(tmp_path)]) == 1
    assert "config: top level must be a mapping" in capsys.readouterr().err

    fresh = tmp_path / "fresh"
    assert main(["--case", "3", "--t-max", "inf", "--out-dir", str(fresh)]) == 1
    assert "t_max must be positive and finite" in capsys.readouterr().err
    assert not fresh.exists()

    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["--case", "1", "--outputs", "table1", "--out-dir", str(blocker)]) == 1


def test_case_and_scenario_config_conflict(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_config(catalog_case("2"))))
    assert main(["--case", "1", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    assert "not both" in capsys.readouterr().err


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


def test_render_failure_writes_nothing(tmp_path, monkeypatch, capsys):
    real_render = cli.render_trajectory_csv

    def fail_on_c(analysis, branch):
        if branch == "c":
            raise ValueError("column EF_AB, row 3: value 1.5 above 1.0")
        return real_render(analysis, branch)

    monkeypatch.setattr(cli, "render_trajectory_csv", fail_on_c)
    out_dir = tmp_path / "fresh"
    assert main(["--case", "3", "--samples", "65", "--out-dir", str(out_dir)]) == 1
    assert "column EF_AB, row 3" in capsys.readouterr().err
    assert not out_dir.exists()


def test_reproduce_all_passes(capsys):
    assert main(["--reproduce-all"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("0 failures)")
    assert "RESULT: PASS" in out


def test_reproduce_all_reports_deviations(capsys):
    main(["--reproduce-all", "--samples", "129"])
    out = capsys.readouterr().out
    assert "dev=" in out and "table3" in out
