import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ris2x2.acceptance
import ris2x2.analytic
import ris2x2.cli
import ris2x2.montecarlo
from ris2x2.acceptance import AcceptanceSettings, curve_rows
from ris2x2.cli import ExperimentConfig, main
from ris2x2.special import QuadratureError
from ris2x2.sysmodel import Mode

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
        ("--schemes", "j1i1-"),
        ("--schemes", "j1i1-,alt"),
        ("--seed", "-1"),
        ("--seed", str(2**64 + 5)),
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


@pytest.mark.parametrize(
    "command, flags",
    [
        # no contour of the Mellin outage escapes cancellation, nor does
        # the line of the Mellin throughput
        ("outage", ["--snr-db-min", "3000", "--snr-db-max", "3000"]),
        ("throughput", ["--snr-db-min", "300", "--snr-db-max", "300"]),
        ("outage", ["--snr-db-min", "1000", "--snr-db-max", "1000", "--schemes", "j1i1-cmp"]),
    ],
)
def test_numerical_failure_exits_2(tmp_path, capsys, monkeypatch, command, flags):
    out = tmp_path / "x.csv"

    def no_trials(*args, **kwargs):
        raise AssertionError("a failing analytic column reached the statistics pass")

    monkeypatch.setattr(ris2x2.montecarlo, "channel_statistics", no_trials)
    assert main([command, "--trials", "1000", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_numerical_failures_are_the_caught_errors():
    with pytest.raises(QuadratureError, match="meijer_g"):
        ris2x2.analytic.outage_closed_form(Mode(1, 1, False), 1e-30)
    with pytest.raises(QuadratureError, match="Mellin-Barnes line does not meet"):
        ris2x2.analytic.throughput(Mode(1, 1, False), 1e30)
    with pytest.raises(QuadratureError):
        ris2x2.analytic.outage_closed_form(Mode(1, 1, True), 1e-10)
    with pytest.raises(QuadratureError, match="no Mellin-Barnes line"):
        ris2x2.analytic.outage(Mode(1, 1, False), 1e-300)


def test_formerly_failing_outage_grids_match_the_oracle(tmp_path):
    # the closed forms failed here (j1i1-cmp from 100 dB, every mode from
    # 150 dB); the Mellin column is accurate in relative terms
    out = tmp_path / "o.csv"
    flags = ["--snr-db-min", "100", "--snr-db-max", "300", "--snr-db-step", "50"]
    assert main(["outage", "--trials", "1000", *flags, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    checked = 0
    for snr_db, name, ana, _mc, _ci in rows:
        if name == "alt":
            continue
        x = 10.0 ** (-float(snr_db) / 10.0)
        oracle = ris2x2.analytic.outage_quadrature(ris2x2.montecarlo.parse_scheme(name), x)
        assert float(ana) == pytest.approx(oracle, rel=1e-8, abs=0.0), (snr_db, name)
        checked += 1
    assert checked == 5 * 8


@pytest.mark.parametrize("command", ["outage", "throughput"])
def test_curve_rows_are_the_csv_rows(tmp_path, command):
    out = tmp_path / "c.csv"
    assert main([command, "--trials", "1000", "--snr-db-step", "10", "--out", str(out)]) == 0
    cfg = ExperimentConfig(trials=1000, snr_db_step=10.0)
    stats = ris2x2.montecarlo.channel_statistics(cfg.seed, cfg.trials)
    rows = curve_rows(stats, cfg.schemes, cfg.snr_grid_db(), 1.0, command)

    def cell(x):
        return "" if x is None else format(float(x), ".12g")

    text = "snr_db,scheme,analytic,mc,ci95\n" + "".join(
        ",".join([cell(db), name, cell(ana), cell(mc), cell(ci)]) + "\n"
        for db, name, ana, mc, ci in rows
    )
    assert out.read_text() == text


@pytest.mark.parametrize(
    "command, sha256, mc_sha256, analytic_sha256",
    [
        (
            "outage",
            "676ee412be6eb75e2b33884251c69a3d14c16a7eb8bc566bc88424d91c27f4a5",
            "a88d4a9c47a3b17bc7a0af39b4d1ef47e72e669d2ed304fd488c1da24f292417",
            "c0e153b2a65983c7dcf1f9c638cc172181bf9544acd8d1d9ec2c2b08df7659c1",
        ),
        (
            "throughput",
            "bf755a3ab26e05040dc0441a777c54b1b56861ba4e2a0cb649f1d2026070d6f2",
            "e7b6ffb4d2689ed58439bb082d8ab1dd95fe87c531be7015d3ae22a60004ade7",
            "987cdfe56c83c270dac1ad277083e8512aabf27bbe54a137ef6b9c9d6317b16a",
        ),
    ],
    ids=["outage", "throughput"],
)
def test_small_sweep_csv_bytes_are_pinned(tmp_path, command, sha256, mc_sha256, analytic_sha256):
    # pinned bytes of a small sweep at the default seed: a speed-up must not
    # move a bit of the analytic or the MC column.  The snr_db, scheme and
    # analytic columns and the mc and ci95 columns have pins of their own,
    # so that a change to the statistics pass cannot hide a change to an
    # analytic cell, nor a new analytic method a change to the pass.
    out = tmp_path / "c.csv"
    assert main([command, "--trials", "2000", "--snr-db-step", "5", "--out", str(out)]) == 0
    text = out.read_bytes()
    lines = text.splitlines()
    analytic = b"".join(b",".join(line.split(b",")[:3]) + b"\n" for line in lines)
    mc = b"".join(b",".join(line.split(b",")[3:]) + b"\n" for line in lines)
    assert hashlib.sha256(analytic).hexdigest() == analytic_sha256
    assert hashlib.sha256(mc).hexdigest() == mc_sha256
    assert hashlib.sha256(text).hexdigest() == sha256


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


def test_scheme_names_are_written_as_their_labels(tmp_path):
    # a name is matched in any case, and its rows carry the table's label
    out = tmp_path / "c.csv"
    flags = ["--snr-db-step", "10", "--schemes", " J1I1 ,Alt", "--out", str(out)]
    assert main(["outage", *FAST, *flags, "--svg"]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert [r[1] for r in rows[:2]] == ["j1i1", "alt"]
    assert {r[1] for r in rows} == {"j1i1", "alt"}
    svg = out.with_suffix(".svg").read_text()
    assert ">j1i1</text>" in svg and "J1I1" not in svg


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


def test_verify_rejects_a_seed_outside_64_bits(monkeypatch, capsys):
    def no_criteria(*args, **kwargs):
        raise AssertionError("a bad seed reached the acceptance checks")

    monkeypatch.setattr(ris2x2.cli, "run_acceptance", no_criteria)
    for seed in ("-1", str(2**64 + 5)):
        assert main(["verify", "--level", "smoke", "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be an integer in")
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer in"):
            replace(AcceptanceSettings.smoke(), seed=bad)
        with pytest.raises(ValueError, match="seed must be an integer in"):
            ExperimentConfig(seed=bad).validate()


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


@pytest.mark.parametrize("argv", [
    ["outage", "--trials", "1000", "--snr-db-step", "10", "--out", "o.csv"],
    ["verify", "--level", "smoke"],
], ids=["outage", "verify"])
def test_benchmark_traced_run(tmp_path, argv):
    # the benchmark's traced mode wraps program names by attribute; a name it
    # reads that the program no longer has fails the run, on either of the
    # paths its workloads take. It monkeypatches modules, so it runs in a
    # process of its own.
    root = Path(__file__).resolve().parents[1]
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(result), "--trace", "--", *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit_code"] == 0
