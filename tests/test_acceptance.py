"""Full-level acceptance criteria, one test per criterion.

Each test prints its criterion's pass/fail line (visible with ``-v -s`` or
in failure output); shared Monte Carlo passes are computed once per module.
Criterion 9 intentionally asserts the derived mean-ratio of 7 and only
displays the quoted 7.78 dB reference.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from ris2x2 import acceptance, analytic, montecarlo
from ris2x2.acceptance import (
    CRITERIA,
    AcceptanceContext,
    AcceptanceSettings,
    check_closed_forms,
    check_determinism,
    check_eigenvalue_laws,
    check_gain,
    check_joint_optimum,
    check_mean_orderings,
    check_mode_gap,
    check_outage_curves,
    check_throughput_curves,
    check_z_laws,
    curve_rows,
)
from ris2x2.altopt import optimize_batch
from ris2x2.cli import main
from ris2x2.linalg2 import svd2
from ris2x2.sampling import RngState, channel_realizations
from ris2x2.sysmodel import Mode


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext(AcceptanceSettings.full())


def _run(check, ctx):
    result = check(ctx)
    print()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criteria_are_registered_once_in_report_order():
    # the report, and the benchmark's output check, expect C1..C10 in turn
    assert [check.criterion for check in CRITERIA] == list(range(1, 11))
    names = [check.name for check in CRITERIA]
    assert len(set(names)) == len(names)
    checks = {n: f for n, f in vars(acceptance).items() if n.startswith("check_")}
    assert sorted(check.__name__ for check in CRITERIA) == sorted(checks)
    assert all(checks[check.__name__] is check for check in CRITERIA)


def test_criterion_01_snr_gain(ctx):
    _run(check_gain, ctx)


def test_criterion_01_reads_the_ratio_gain_prints(capsys):
    # C1 and `ris2x2 gain` read the matched alignment columns of one pass
    assert main(["gain", "--trials", "20000", "--seed", "2"]) == 0
    printed = re.search(r"MC ratio (\S+) \+-", capsys.readouterr().out).group(1)
    settings = replace(AcceptanceSettings.smoke(), trials=20_000, seed=2)
    observed = check_gain(AcceptanceContext(settings)).observed
    assert re.match(r"MC ratio (\S+) ", observed).group(1) == printed


def test_criterion_02_alignment_cdfs(ctx):
    _run(check_z_laws, ctx)


def test_criterion_03_eigenvalue_laws(ctx):
    _run(check_eigenvalue_laws, ctx)


def test_criterion_04_closed_forms(ctx):
    _run(check_closed_forms, ctx)


def test_criterion_04_fails_when_no_point_certifies_on_both_contours(monkeypatch):
    # a mode whose shifted contour certifies no x has nothing to compare:
    # C4 must report a failure, not raise (j2i2 never needs that contour
    # for its own outage on the smoke grid)
    line = analytic._outage_line

    def uncertified_near_pole(mode, c, log_x):
        value, ok = line(mode, c, log_x)
        return value, ok & (mode != Mode(2, 2) or c != 1.0 - 0.15)

    monkeypatch.setattr(analytic, "_outage_line", uncertified_near_pole)
    result = check_closed_forms(AcceptanceContext(AcceptanceSettings.smoke()))
    assert not result.passed
    assert "contour shift rel dev inf" in result.observed


def test_criterion_05_outage_curves(ctx):
    _run(check_outage_curves, ctx)


def test_criterion_06_throughput_curves(ctx):
    _run(check_throughput_curves, ctx)


def test_criterion_06_smoke_seed_6():
    # at seed 6 the MC alt throughput sits high enough that an unpaired gap
    # (MC alt minus analytic j1i1-cmp) crosses 0.1 nats at 10^4 trials; the
    # paired gap over the same trials stays near its 0.084 mean
    _run(check_throughput_curves, AcceptanceContext(replace(AcceptanceSettings.smoke(), seed=6)))


def test_paired_alt_gap_is_the_difference_of_the_throughput_rows():
    # C6 reads the paired gap as the alt row minus the j1i1-cmp row: both
    # are means over the same trials, so this is the mean of the per-trial
    # difference up to rounding
    stats = montecarlo.channel_statistics(1729, 100_000)
    snr_db = AcceptanceSettings().throughput_snr_db
    rows = curve_rows(stats, ("alt", "j1i1-cmp"), snr_db, 0.0, "throughput")
    g_cmp = montecarlo.scheme_snr_factor(stats, Mode(1, 1, True))
    for k, db in enumerate(snr_db):
        (_, _, _, alt, _), (_, _, _, cmp_mc, _) = rows[2 * k : 2 * k + 2]
        gbar = 10.0 ** (db / 10.0)
        paired = np.mean(np.log1p(gbar * stats.alt_factor) - np.log1p(gbar * g_cmp))
        assert abs((alt - cmp_mc) - paired) <= 1e-12, db


def test_criterion_07_mean_orderings(ctx):
    _run(check_mean_orderings, ctx)


def test_criterion_08_joint_optimum(ctx):
    _run(check_joint_optimum, ctx)


def test_criterion_08_fails_when_the_optimum_is_off(monkeypatch):
    # a joint optimum 1e-9 above the SNR of its own configuration
    smoke = AcceptanceContext(AcceptanceSettings.smoke())
    assert check_joint_optimum(smoke).passed
    monkeypatch.setattr(acceptance, "optimize_batch", lambda ch: optimize_batch(ch) * (1.0 + 1e-9))
    result = check_joint_optimum(smoke)
    assert not result.passed
    assert "- 1| <= 1.0e-09" in result.observed


def test_criterion_08_sweep_is_svd2_sigma_max_squared():
    # the sweep adds the two tile paths and stops at the Gram eigen step;
    # svd2 of the product G diag(1, e^jt) H must agree to a few ulp
    ch = channel_realizations(
        RngState(1729, acceptance._OPTIMUM_STREAM), acceptance._OPTIMUM_SAMPLE
    )
    paths = acceptance._tile_paths(ch)
    for t in 2.0 * np.pi * np.array([0.0, 1.0, 13.0, 32.0, 47.0, 63.0]) / 64.0:
        want = svd2(ch.g * np.array([1.0, np.exp(1j * t)]) @ ch.h).sigma[:, 0] ** 2
        rel = np.abs(acceptance._sigma_max_squared(paths, t) / want - 1.0)
        assert rel.max() <= 8.0 * np.finfo(np.float64).eps, t


def test_criterion_08_sweep_blocks_keep_the_running_max():
    # phases swept a block per array operation give the running max of the
    # sweep one phase at a time, bit for bit, whatever the block
    ch = channel_realizations(
        RngState(1729, acceptance._OPTIMUM_STREAM), acceptance._OPTIMUM_SAMPLE
    )
    paths = acceptance._tile_paths(ch)
    phases = 2.0 * np.pi * np.arange(acceptance._PHASE_GRID) / acceptance._PHASE_GRID
    one_at_a_time = np.zeros(ch.g.shape[0])
    for t in phases:
        one_at_a_time = np.maximum(one_at_a_time, acceptance._sigma_max_squared(paths, t))
    assert acceptance._PHASE_GRID % acceptance._PHASE_BLOCK == 0
    for size in (8, 16, 64, acceptance._PHASE_BLOCK):
        sweep = np.zeros(ch.g.shape[0])
        for block in np.split(phases, phases.size // size):
            sweep = np.maximum(sweep, acceptance._sigma_max_squared(paths, block).max(axis=0))
        assert np.array_equal(sweep, one_at_a_time), size


def test_criterion_09_mode_gap_discrepancy_surfaced(ctx):
    result = _run(check_mode_gap, ctx)
    assert "8.451" in result.note and "7.782" in result.note


def test_statistical_tolerances_scale_as_inverse_sqrt_trials():
    smoke, full = AcceptanceSettings.smoke(), AcceptanceSettings.full()
    assert (smoke.ks_tol, smoke.mean_rel_tol, smoke.gap_rel_tol) == (0.02, 0.1, 0.2)
    assert (full.ks_tol, full.mean_rel_tol, full.gap_rel_tol) == (0.002, 0.01, 0.02)
    assert replace(smoke, seed=6).seed == 6
    assert replace(smoke, seed=6).ks_tol == 0.02


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("trials", 0, "trials must be >= 100"),
        ("trials", 99, "trials must be >= 100"),
        ("trials", True, "trials must be an integer"),
        ("trials", 1e4, "trials must be an integer"),
        ("snr_db", (), "snr_db must be a nonempty"),
        ("throughput_snr_db", (5.0, float("nan")), "throughput_snr_db must be a nonempty"),
        ("oracle_snr_db", (float("inf"),), "oracle_snr_db must be a nonempty"),
        ("closed_form_grid", (0.0, 1.0), "closed_form_grid must be positive"),
        ("mellin_grid", (-1e-2, 1.0), "mellin_grid must be positive"),
    ],
)
def test_settings_are_validated_at_construction(field, bad, message):
    # a zero trial count would divide by zero in ks_tol, and an empty grid
    # would let a criterion pass on no rows
    with pytest.raises(ValueError, match=message):
        replace(AcceptanceSettings.smoke(), **{field: bad})


def test_criterion_10_determinism(ctx):
    _run(check_determinism, ctx)


def test_criterion_10_compares_each_worker_count_over_several_chunks(monkeypatch):
    # a count given a single chunk takes the sequential path whatever its
    # value, and would compare nothing
    calls = []
    thread_map = montecarlo._thread_map

    def recorded(fn, items, workers=None):
        items = list(items)
        calls.append((workers, len(items)))
        return thread_map(fn, items, workers)

    monkeypatch.setattr(montecarlo, "_thread_map", recorded)
    for settings in (AcceptanceSettings.smoke(), AcceptanceSettings.full()):
        calls.clear()
        assert check_determinism(AcceptanceContext(settings)).passed
        compared = [(workers, chunks) for workers, chunks in calls if workers is not None]
        assert {workers for workers, _ in compared} == {1, acceptance._POOLED_WORKERS}
        assert all(chunks >= 2 for _, chunks in compared), compared
        # the streamed pass at the default chunk runs on the default count
        assert (None, -(-acceptance._CHUNK_CHECK_TRIALS // montecarlo._CHUNK_SIZE)) in calls
