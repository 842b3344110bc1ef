import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ris2x2.acceptance
import ris2x2.analytic
import ris2x2.montecarlo
from ris2x2.cli import ExperimentConfig, main

FAST = ["--trials", "2000", "--seed", "11"]


def test_default_grid_shape():
    cfg = ExperimentConfig()
    grid = cfg.snr_grid_db()
    assert len(grid) == 31
    assert grid[0] == -5.0 and grid[-1] == 25.0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(snr_db_min=10.0, snr_db_max=0.0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(snr_db_step=0.0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(trials=10).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(schemes=()).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(schemes=("nope",)).validate()
    for field in ("snr_db_min", "snr_db_max", "snr_db_step", "threshold_db"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ExperimentConfig(**{field: bad}).validate()
    for step in (1e-300, 5e-324, 0.001):
        with pytest.raises(ValueError, match="at most 10001"):
            ExperimentConfig(snr_db_step=step).validate()
    # 0.01 dB over 100 dB is the largest grid accepted
    ExperimentConfig(snr_db_min=-50.0, snr_db_max=50.0, snr_db_step=0.01).validate()


def test_bad_sweep_input_exits_2(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "x.csv")

    def no_trials(*args, **kwargs):
        raise AssertionError("bad input reached the statistics pass")

    monkeypatch.setattr(ris2x2.montecarlo, "channel_statistics", no_trials)
    for flag, value in (
        ("--snr-db-max", "inf"),
        ("--snr-db-min", "nan"),
        ("--threshold-db", "nan"),
        ("--snr-db-step", "1e-300"),
    ):
        assert main(["outage", *FAST, flag, value, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # 10^(v/10) would overflow, or underflow to zero, in the sweep
    for command, flags in (
        ("outage", ["--snr-db-min", "4000", "--snr-db-max", "4000"]),
        ("outage", ["--snr-db-min", "-4000", "--snr-db-max", "-4000"]),
        ("outage", ["--threshold-db", "4000"]),
        ("throughput", ["--threshold-db", "4000"]),
    ):
        assert main([command, *FAST, *flags, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


def test_outage_csv_schema_and_grid(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(
        ["outage", *FAST, "--snr-db-min", "-5", "--snr-db-max", "25",
         "--snr-db-step", "1", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_bytes().decode("ascii").split("\n")
    assert lines[0] == "snr_db,scheme,analytic,mc,ci95"
    assert lines[-1] == ""  # trailing LF
    rows = [l.split(",") for l in lines[1:-1]]
    assert len(rows) == 31 * 9
    # analytic column empty exactly for the optimized scheme
    for r in rows:
        assert (r[1] == "alt") == (r[2] == "")
        float(r[0]), float(r[3]), float(r[4])


def test_outage_csv_is_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["outage", *FAST, "--snr-db-step", "10", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_outage_curve_orderings(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["outage", "--trials", "20000", "--seed", "3",
                 "--snr-db-step", "5", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    by_point = {}
    for snr, scheme, _ana, mc, _ci in rows:
        by_point.setdefault(float(snr), {})[scheme] = float(mc)
    for snr, vals in by_point.items():
        assert vals["alt"] <= vals["j1i1-cmp"] <= vals["j1i1"]
        for tag in ("j1i1", "j1i2", "j2i1", "j2i2"):
            assert vals[tag + "-cmp"] <= vals[tag]


def test_throughput_csv(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(
        ["throughput", *FAST, "--snr-db-min", "0", "--snr-db-max", "20",
         "--snr-db-step", "10", "--schemes", "j1i1-cmp,j2i2,alt", "--out", str(out)]
    )
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 3
    comp = {(r[0], r[1]): r for r in rows}
    # analytic present for modes, absent for alt; compensated above plain
    for snr in ("0", "10", "20"):
        assert comp[(snr, "alt")][2] == ""
        assert float(comp[(snr, "j1i1-cmp")][2]) > float(comp[(snr, "j2i2")][2])


def test_empty_scheme_list_is_an_error(tmp_path):
    rc = main(["outage", *FAST, "--schemes", ",", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep setup\nsnr_db_min=0\nsnr_db_max=10\nsnr_db_step=5\n"
        "trials=2000\nseed=9\nschemes=j2i2\n"
    )
    out = tmp_path / "c.csv"
    rc = main(["outage", "--config", str(cfg), "--snr-db-max", "5", "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    # config says 0..10 step 5, flag overrides max to 5 -> points {0, 5}
    assert sorted({r[0] for r in rows}) == ["0", "5"]
    assert {r[1] for r in rows} == {"j2i2"}


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    rc = main(["outage", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_svg_render(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(["outage", *FAST, "--snr-db-step", "10", "--svg", "--out", str(out)])
    assert rc == 0
    svg = (tmp_path / "o.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 9
    assert "average SNR (dB)" in svg


def test_gain_command(capsys):
    rc = main(["gain", "--trials", "20000", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2.0867 dB" in out
    assert "8.4510 dB" in out
    assert "7.7815 dB" in out
    assert "+-" in out
    assert main(["gain", "--trials", "1"]) == 2
    assert "trials must be >= 100" in capsys.readouterr().err


def test_verify_smoke_passes(capsys):
    rc = main(["verify", "--level", "smoke"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "10/10 criteria passed" in out
    assert out.count("[PASS]") == 10


def test_verify_negative_control(monkeypatch, capsys):
    # an injected wrong constant must flip the exit code
    monkeypatch.setattr(
        ris2x2.acceptance, "CRITERIA", (ris2x2.acceptance.check_gain,)
    )
    monkeypatch.setattr(ris2x2.analytic, "snr_gain_linear", lambda: 1.9)
    rc = main(["verify", "--level", "smoke"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]" in out


def test_benchmark_traced_run(tmp_path):
    # the benchmark's traced mode wraps program names by attribute; a name it
    # reads that the program no longer has fails the run. It monkeypatches
    # modules, so it runs in a process of its own.
    root = Path(__file__).resolve().parents[1]
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(result), "--trace", "--",
         "outage", "--trials", "1000", "--snr-db-step", "10", "--out", str(tmp_path / "o.csv")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit_code"] == 0
