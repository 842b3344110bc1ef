"""Full-level acceptance criteria, one test per criterion.

Each test prints its criterion's pass/fail line (visible with ``-v -s`` or
in failure output); shared Monte Carlo passes are computed once per module.
Criterion 9 intentionally asserts the derived mean-ratio of 7 and only
displays the quoted 7.78 dB reference.
"""

from dataclasses import replace

import pytest

from ris2x2 import analytic
from ris2x2.acceptance import (
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
)
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


def test_criterion_01_snr_gain(ctx):
    _run(check_gain, ctx)


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


def test_criterion_07_mean_orderings(ctx):
    _run(check_mean_orderings, ctx)


def test_criterion_08_joint_optimum(ctx):
    _run(check_joint_optimum, ctx)


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
