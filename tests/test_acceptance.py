"""Full-level acceptance criteria, one test per criterion.

Each test prints its criterion's pass/fail line (visible with ``-v -s`` or
in failure output); shared Monte Carlo passes are computed once per module.
Criterion 9 intentionally asserts the derived mean-ratio of 7 and only
displays the quoted 7.78 dB reference.
"""

from dataclasses import replace

import pytest

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


def test_criterion_10_determinism(ctx):
    _run(check_determinism, ctx)
