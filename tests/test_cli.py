"""Command-line interface round trips."""

import json
import os

import pytest

from notforest import __version__
from notforest.cli import main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_oned_table_stdout(capsys):
    assert main(["oned", "--n", "50,99", "--c", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("N,c,k_star")
    assert len(out.strip().splitlines()) == 3


def test_oned_table_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    assert main(["oned", "--n", "50", "--c", "0", "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("N,c,k_star")


def test_run_verify_fragility_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "edge = 8\nm = 4\nc = 0\nv = 10\nseeds = 0\n"
        "fragility_trials = 5\niters = 4:3:20\n")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()

    run_dir = os.path.join(out_dir, "runs", "4_0_10_0")
    code = main(["verify", "--run-dir", run_dir])
    record = json.loads(capsys.readouterr().out)
    assert code in (0, 1)  # heuristic equilibria need not certify exactly
    assert record["is_nash"] == (code == 0)
    assert "welfare" in record

    assert main(["fragility", "--run-dir", run_dir, "--trials", "5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["trials"] == 5
    assert "mean_shifted_welfare" in record


def test_fines_subcommand(capsys):
    assert main(["fines", "--edge", "8", "--m", "64", "--c", "0",
                 "--v", "10", "--p", "0,0.05", "--seed", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record["welfare_by_fine"]) == {"0", "0.05"}


@pytest.mark.parametrize("flag, value", [
    ("--c", "nan"), ("--c", "inf"), ("--p", "nan"), ("--p", "inf"),
])
def test_fines_non_finite_cost_or_fine_is_machine_readable_error(capsys, flag, value):
    assert main(["fines", "--edge", "8", "--m", "4", flag, value]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and f"got {value}" in err["message"]


def test_bad_config_is_machine_readable_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("m = 3\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_non_finite_config_value_is_machine_readable_error(tmp_path, capsys):
    cfg_path = tmp_path / "inf.cfg"
    cfg_path.write_text("edge = 8\nm = 4\nv = inf\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "v values must be finite" in err["message"]


def test_missing_run_dir_errors(capsys):
    assert main(["verify", "--run-dir", "/nonexistent/run"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("FileNotFoundError", "OSError", "NotADirectoryError")


@pytest.mark.parametrize("m", [0, -4])
def test_m_below_one_is_machine_readable_error(tmp_path, capsys, m):
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text(f"edge = 8\nm = {m}\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and f"m={m}" in err["message"]
    assert main(["fines", "--edge", "8", "--m", str(m)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and f"got {m}" in err["message"]


@pytest.mark.parametrize("manifest, key", [
    ({"m": 4}, "field_v"),
    ({"field_v": 10.0, "cost": 0.0}, "m"),
    ({"m": 4, "field_v": 10.0}, "cost"),
    ({"m": 4, "field_v": 10.0, "cost": 0.0}, "field_center"),
])
def test_verify_names_missing_manifest_key(tmp_path, capsys, manifest, key):
    (tmp_path / "grid.txt").write_text("0000\n0110\n0000\n0000\n")
    (tmp_path / "metrics.json").write_text(json.dumps({"manifest": manifest}))
    assert main(["verify", "--run-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and repr(key) in err["message"]


def test_verify_names_missing_manifest(tmp_path, capsys):
    (tmp_path / "grid.txt").write_text("0000\n0110\n0000\n0000\n")
    (tmp_path / "metrics.json").write_text("{}")
    assert main(["verify", "--run-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "'manifest'" in err["message"]


@pytest.mark.parametrize("command", ["verify", "fragility"])
@pytest.mark.parametrize("cost", [float("nan"), float("inf"), -0.5])
def test_run_dir_cost_must_be_finite_and_nonnegative(tmp_path, capsys, command, cost):
    (tmp_path / "grid.txt").write_text("0000\n0110\n0000\n0000\n")
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"manifest": {"m": 4, "field_v": None, "cost": cost}}))
    assert main([command, "--run-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["error"] == "ValueError"
    assert str(path) in err["message"] and f"got {cost}" in err["message"]


@pytest.mark.parametrize("command", ["verify", "fragility"])
@pytest.mark.parametrize("m", ["4", 4.0, True])
def test_run_dir_m_must_be_an_integer(tmp_path, capsys, command, m):
    (tmp_path / "grid.txt").write_text("0000\n0110\n0000\n0000\n")
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"manifest": {"m": m, "field_v": None, "cost": 0.0}}))
    assert main([command, "--run-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["error"] == "ValueError"
    assert str(path) in err["message"] and f"got {m!r}" in err["message"]
