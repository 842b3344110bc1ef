import dataclasses
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ris2x2 import analytic, special
from ris2x2.montecarlo import ALT, channel_statistics, scheme_snr_factor, throughput_from_stats
from ris2x2.special import MeijerParams, QuadratureError
from ris2x2.sysmodel import MODES, Mode, instantaneous_snr


def test_z_cdf_compensated_values():
    assert analytic.z_factor_cdf(0.0) == 0.0
    assert analytic.z_factor_cdf(1.0) == pytest.approx(1.0)
    assert analytic.z_factor_cdf(0.5) == pytest.approx(0.5 - 0.5 * np.pi / 4)
    assert analytic.z_factor_cdf(-1.0) == 0.0
    assert analytic.z_factor_cdf(2.0) == pytest.approx(1.0)


def test_z_cdf_uncompensated_is_identity():
    assert analytic.z_factor_cdf(0.3, compensated=False) == pytest.approx(0.3)
    assert analytic.z_factor_cdf(-1.0, compensated=False) == 0.0
    assert analytic.z_factor_cdf(1.5, compensated=False) == 1.0


def test_z_cdf_is_valid_cdf():
    grid = np.linspace(0.0, 1.0, 1001)
    vals = analytic.z_factor_cdf(grid)
    assert vals[0] == 0.0 and vals[-1] == pytest.approx(1.0)
    assert np.all(np.diff(vals) >= -1e-15)


def test_z_cdf_compensated_is_relatively_accurate():
    # z - sqrt(z(1-z)) asin(sqrt z) cancels like z^2/3 near 0; the old form
    # was off by 2.5e-4 relative at 1e-12 and returned 0 at 1e-17
    mp = pytest.importorskip("mpmath")
    with mp.workdps(250):
        for z in (1e-17, 1e-12, 1e-8, 0.5, 1.0 - 1e-12):
            t = mp.mpf(z)
            want = t - mp.sqrt(t * (1 - t)) * mp.asin(mp.sqrt(t))
            assert analytic.z_factor_cdf(z) == pytest.approx(float(want), rel=4e-15, abs=0.0)


def test_eigenvalue_cdf_values():
    assert analytic.eigenvalue_cdf(0.0, "largest") == 0.0
    assert analytic.eigenvalue_cdf(0.0, "smallest") == 0.0
    expected = 1.0 - 3.0 * np.exp(-1.0) + np.exp(-2.0)
    assert analytic.eigenvalue_cdf(1.0, "largest") == pytest.approx(expected)
    assert analytic.eigenvalue_cdf(1.0, "smallest") == pytest.approx(1.0 - np.exp(-2.0))


def test_eigenvalue_pdf_integrates_to_cdf():
    for which in ("largest", "smallest"):
        val, _ = quad(lambda y: analytic.eigenvalue_pdf(y, which), 0.0, 2.0, epsabs=1e-13)
        assert val == pytest.approx(analytic.eigenvalue_cdf(2.0, which), abs=1e-11)


def test_eigenvalue_laws_are_relatively_accurate_near_zero():
    # the largest law goes like y^4/12 (density y^3/3); its textbook form
    # 1 - 2e^-y - y^2 e^-y + e^-2y loses every digit there
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        for y in (2.1, 1.9, 0.5, 1e-2, 1e-5, 1e-9):
            t = mp.mpf(y)
            e = mp.exp(-t)
            cdf = 1 - 2 * e - t**2 * e + e**2
            pdf = 2 * e - 2 * t * e + t**2 * e - 2 * e**2
            for value, want in (
                (analytic.eigenvalue_cdf(y, "largest"), cdf),
                (analytic.eigenvalue_pdf(y, "largest"), pdf),
                (analytic.eigenvalue_cdf(y, "smallest"), 1 - e**2),
            ):
                assert value == pytest.approx(float(want), rel=1e-14, abs=0.0)


def test_eigenvalue_means():
    assert analytic.eigenvalue_mean("smallest") == 0.5
    assert analytic.eigenvalue_mean("largest") == 3.5
    # sum equals the mean trace of the 2x2 Gram matrix
    assert analytic.eigenvalue_mean("largest") + analytic.eigenvalue_mean("smallest") == 4.0
    # quadrature of the survival functions reproduces both
    for which, want in (("largest", 3.5), ("smallest", 0.5)):
        val, _ = quad(
            lambda y: 1.0 - analytic.eigenvalue_cdf(y, which), 0.0, 80.0, epsabs=1e-12, limit=300
        )
        assert val == pytest.approx(want, abs=1e-9)


def test_gain_constants():
    assert analytic.snr_gain_linear() == pytest.approx(1.0 + np.pi**2 / 16.0)
    assert analytic.snr_gain_db() == pytest.approx(10.0 * np.log10(1.0 + np.pi**2 / 16.0))
    assert analytic.mean_z(True) == pytest.approx(0.5 * (1.0 + np.pi**2 / 16.0))
    # E{z_comp} also follows from integrating the survival of its CDF
    val, _ = quad(lambda z: 1.0 - analytic.z_factor_cdf(z), 0.0, 1.0, epsabs=1e-13)
    assert val == pytest.approx(analytic.mean_z(True), abs=1e-10)


@pytest.mark.parametrize(
    "fn, args", [(analytic.z_factor_cdf, (0.5,)), (analytic.mean_z, ())], ids=["z_factor_cdf", "mean_z"]
)
def test_alignment_law_takes_only_a_bool(fn, args):
    # a truthy string once picked the compensated law: z_factor_cdf(0.5,
    # "no") read 0.1073 instead of 0.5, and mean_z("no") 0.808
    for bad in ("no", 1, 0, None, 1.0):
        with pytest.raises(ValueError, match="compensated must be a bool"):
            fn(*args, bad)
    assert fn(*args, np.True_) == fn(*args, True)
    assert fn(*args, np.False_) == fn(*args, False)


@pytest.mark.parametrize("fn, args", [
    (analytic.outage, (0.5,)),
    (analytic.outage_closed_form, (0.5,)),
    (analytic.outage_closed_form, (0.0,)),
    (analytic.outage_quadrature, (0.5,)),
    (analytic.outage_quadrature, (0.0,)),
    (analytic.throughput, (10.0,)),
    (analytic.throughput_quadrature, (10.0,)),
    (analytic.diversity_order, ()),
    (analytic.mean_mode_snr, (1.0,)),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_mode_functions_refuse_the_joint_optimum(fn, args):
    # the joint optimum has no eigenvalue or alignment law: every function
    # of a mode names it in a ValueError (not an AttributeError on .rx),
    # also at x = 0, where no value needs the mode
    with pytest.raises(ValueError, match="not AltScheme"):
        fn(ALT, *args)


_LAW_MEANS = {
    "largest": 3.5, "smallest": 0.5, "plain z": 0.5, "compensated z": (1.0 + np.pi**2 / 16.0) / 2.0
}


@pytest.mark.parametrize("law", [*analytic._EIGENVALUE_LAWS, *analytic._Z_LAWS], ids=repr)
def test_each_law_row_agrees_with_itself(law):
    # the facts of one row of the table hold together
    assert law.mean == pytest.approx(_LAW_MEANS[law.name], rel=1e-15)
    # the mean is E{X^-s} at s = -1
    s = np.array([-1.0 + 0.0j])
    moment = law.mellin(s, np.real(s), analytic._gamma_one_minus(s))[0]
    assert moment.real == pytest.approx(law.mean, rel=1e-12, abs=0.0) and moment.imag == 0.0
    # F goes like x^pole as x -> 0
    assert law.cdf(1e-8) / law.cdf(1e-9) == pytest.approx(10.0**law.pole, rel=1e-6)
    if law in analytic._Z_LAWS:
        # the lower bound of F the outage oracle's lower tails are cut by
        z = np.linspace(0.0, 1.0, 1001)
        assert np.all(law.floor(z) <= law.cdf(z))
    else:
        # the bound the lower cut of omega is taken from
        w = np.logspace(-4.0, 3.0, 141)
        assert np.all(law.cdf(w) <= w**law.pole / law.onset)


def test_mode_gap_reports_both_values():
    derived, reported = analytic.consecutive_mode_gap_db()
    assert derived == pytest.approx(10.0 * np.log10(7.0))
    assert reported == pytest.approx(10.0 * np.log10(6.0))


def test_mean_mode_snr_values():
    assert analytic.mean_mode_snr(Mode(1, 1, False), 1.0) == pytest.approx(6.125)
    assert analytic.mean_mode_snr(Mode(2, 2, False), 1.0) == pytest.approx(0.125)
    assert analytic.mean_mode_snr(Mode(1, 1, True), 1.0) == pytest.approx(
        12.25 * 0.5 * (1.0 + np.pi**2 / 16.0)
    )
    # tx/rx symmetry
    assert analytic.mean_mode_snr(Mode(2, 1, False), 1.0) == analytic.mean_mode_snr(
        Mode(1, 2, False), 1.0
    )
    # consecutive modes sit a factor 7 apart along both index chains
    assert analytic.mean_mode_snr(Mode(1, 1, False), 1.0) / analytic.mean_mode_snr(
        Mode(1, 2, False), 1.0
    ) == pytest.approx(7.0)
    assert analytic.mean_mode_snr(Mode(1, 2, False), 1.0) / analytic.mean_mode_snr(
        Mode(2, 2, False), 1.0
    ) == pytest.approx(7.0)


def test_mean_mode_snr_matches_monte_carlo():
    stats = channel_statistics(333, 200_000)
    for mode in MODES:
        sample = scheme_snr_factor(stats, mode)
        assert sample.mean() == pytest.approx(
            analytic.mean_mode_snr(mode, 1.0), rel=0.02
        )


def test_outage_quadrature_endpoints():
    for mode in MODES:
        assert analytic.outage_quadrature(mode, 0.0) == 0.0
        assert analytic.outage_quadrature(mode, 1e4) == pytest.approx(1.0, abs=1e-8)
    for fn in (analytic.outage_quadrature, analytic.outage_closed_form, analytic.outage):
        for mode in MODES:
            for bad in (-0.5, np.nan, np.inf):
                with pytest.raises(ValueError, match="x must be nonnegative and finite"):
                    fn(mode, bad)


def test_outage_quadrature_plain_small_threshold_limit():
    # with z uniform, P(x) = x E{1/lambda} E{1/omega} - E{(x/(lambda omega) - 1)+}
    # and E{1/lambda_largest} = 2 ln 2 - 1; the correction term is of order
    # x^4 here, far below the tolerance
    limit = (2.0 * np.log(2.0) - 1.0) ** 2
    for x in (1e-6, 1e-8):
        ratio = analytic.outage_quadrature(Mode(1, 1, False), x) / x
        assert ratio == pytest.approx(limit, rel=1e-9)


def test_outage_quadrature_compensated_small_threshold_limit():
    # with compensation F_z(z) ~ z^2/3, so P(x)/x^2 tends to
    # E{1/lambda^2}^2 / 3 = (3 - 4 ln 2)^2 / 3, and the deviation falls with x
    limit = (3.0 - 4.0 * np.log(2.0)) ** 2 / 3.0
    deviations = [
        abs(analytic.outage_quadrature(Mode(1, 1, True), x) / x**2 / limit - 1.0)
        for x in (1e-4, 1e-6, 1e-8)
    ]
    assert deviations == sorted(deviations, reverse=True)
    assert deviations[-1] < 1e-6


def test_outage_quadrature_step_halving_is_converged(monkeypatch):
    grid = np.logspace(-6.0, 2.0, 9)
    base = [analytic.outage_quadrature(mode, x) for mode in MODES for x in grid]
    monkeypatch.setattr(analytic, "_REL_TOL", 1e-13)
    tight = [analytic.outage_quadrature(mode, x) for mode in MODES for x in grid]
    assert base == pytest.approx(tight, rel=1e-10, abs=0.0)


def test_outage_transmit_receive_symmetry():
    for compensated in (False, True):
        a = analytic.outage_quadrature(Mode(2, 1, compensated), 0.5)
        b = analytic.outage_quadrature(Mode(1, 2, compensated), 0.5)
        assert a == pytest.approx(b, abs=1e-8)
        # the closed forms share one expression for both index orders, and
        # the Mellin transform is the same product, taken in one order
        ca = analytic.outage_closed_form(Mode(2, 1, compensated), 0.5)
        cb = analytic.outage_closed_form(Mode(1, 2, compensated), 0.5)
        assert ca == cb
        grid = np.logspace(-6.0, 2.0, 9)
        ma = analytic.outage(Mode(2, 1, compensated), grid)
        mb = analytic.outage(Mode(1, 2, compensated), grid)
        assert np.array_equal(ma, mb)


def test_closed_form_matches_quadrature_spot_checks():
    # full 8-point grid runs in the acceptance suite
    for mode in (Mode(1, 1, True), Mode(2, 2, False), Mode(1, 2, True), Mode(1, 1, False)):
        for x in (0.01, 0.25, 2.0):
            cf = analytic.outage_closed_form(mode, x)
            qd = analytic.outage_quadrature(mode, x)
            assert cf == pytest.approx(qd, abs=1e-9)


def test_outage_matches_quadrature_oracle():
    grid = np.logspace(-6.0, 2.0, 9)
    for mode in MODES:
        oracle = [analytic.outage_quadrature(mode, x) for x in grid]
        assert analytic.outage(mode, grid) == pytest.approx(oracle, rel=1e-8, abs=0.0)


def test_outage_matches_closed_forms_on_the_curve_grid():
    # the closed forms are accurate in absolute terms on the default sweep
    # (threshold 0 dB, -5 to 25 dB); their cancellation stays below 1e-12
    grid = 10.0 ** (-np.arange(-5.0, 26.0, 5.0) / 10.0)
    for mode in MODES:
        closed = [analytic.outage_closed_form(mode, x) for x in grid]
        assert analytic.outage(mode, grid) == pytest.approx(closed, rel=0.0, abs=1e-12)


def test_outage_does_not_move_with_its_contour():
    grid = np.array([1e-2, 0.3, 2.0, 50.0])

    def line(mode, c, x):
        value, ok = analytic._outage_line(mode, c, np.log(x))
        assert ok.all()
        return value

    for mode in MODES:
        p = analytic.diversity_order(mode)
        mid = line(mode, 0.5 * p, grid)
        assert line(mode, p - 0.15, grid) == pytest.approx(mid, rel=1e-10)
        # past the pole at 0: P = 1 + the line integral
        assert line(mode, -0.5 * p, grid[2:]) == pytest.approx(mid[2:], rel=1e-10)


def test_outage_high_snr_laws():
    # P(x)/x -> E{1/lambda} E{1/omega} = (2 ln 2 - 1)^2 for j1i1, and with
    # compensation P(x)/x^2 -> E{1/lambda^2}^2 / 3 = (3 - 4 ln 2)^2 / 3:
    # far below where the closed forms have cancelled away
    for x in (1e-12, 1e-16):
        plain = analytic.outage(Mode(1, 1, False), x) / x
        assert plain == pytest.approx((2.0 * np.log(2.0) - 1.0) ** 2, rel=1e-10)
        comp = analytic.outage(Mode(1, 1, True), x) / x**2
        assert comp == pytest.approx((3.0 - 4.0 * np.log(2.0)) ** 2 / 3.0, rel=1e-10)
    assert analytic.diversity_order(Mode(1, 1, True)) == 2.0
    assert {analytic.diversity_order(m) for m in MODES if m != Mode(1, 1, True)} == {1.0}


def test_outage_refuses_what_it_cannot_certify():
    # at 1000 dB the rule's aliases and the cancellation of its sum dwarf P
    # on every contour: no mode may return a value; at the largest x, P = 1
    for mode in MODES:
        with pytest.raises(QuadratureError, match="no Mellin-Barnes line"):
            analytic.outage(mode, 1e-100)
        assert analytic.outage(mode, np.finfo(np.float64).max) == 1.0


_E1 = np.array([1.0, 0.0])
_X_BAD = (-1.0, np.nan, np.inf)
_GAMMA_BAD = (0.0, -1.0, np.nan, np.inf)


@pytest.mark.parametrize(
    "call, grid, bad, tol",
    [
        # the oracle certifies each x to _REL_TOL relative, and a grid cuts
        # its tails at the smallest x's mass
        (lambda v: analytic.outage_quadrature(Mode(1, 1, True), v),
         [[0.0, 1e-3], [0.5, 2.0]], _X_BAD, dict(rel=1e-10, abs=0.0)),
        # P = 1 + sum of terms, each certified to max(1e-12, 1e-10 |term|)
        (lambda v: analytic.outage_closed_form(Mode(1, 1, True), v),
         [[1e-2, 0.25], [1.0, 5.0]], _X_BAD, dict(rel=1e-10, abs=1e-11)),
        (analytic.throughput_closed_r22,
         [[0.1, 1.0], [10.0, 300.0]], _GAMMA_BAD, dict(rel=1e-10, abs=1e-12)),
        (analytic.throughput_closed_r22_cmp,
         [[0.1, 1.0], [10.0, 300.0]], _GAMMA_BAD, dict(rel=1e-10, abs=1e-12)),
        (lambda v: analytic.weighted_bessel_integral(2, -1, v, 0.5),
         [[0.5, 1.0], [2.0, 4.0]], _GAMMA_BAD, dict(rel=1e-10, abs=1e-12)),
        (lambda v: analytic.weighted_bessel_integral(0, 3, 1.0, v),
         [[1e-3, 0.1], [1.0, 20.0]], _GAMMA_BAD, dict(rel=1e-10, abs=1e-12)),
        (lambda v: instantaneous_snr(np.eye(2), np.eye(2), np.ones(2), _E1, _E1, v),
         [[0.5, 1.0], [2.0, 4.0]], _GAMMA_BAD, dict(rel=0.0, abs=0.0)),
    ],
    ids=[
        "outage_quadrature",
        "outage_closed_form",
        "throughput_closed_r22",
        "throughput_closed_r22_cmp",
        "weighted_bessel_integral.gamma_param",
        "weighted_bessel_integral.x",
        "instantaneous_snr",
    ],
)
def test_closed_forms_and_oracles_take_a_grid(call, grid, bad, tol):
    # one call over a 2-D grid keeps its shape and equals the calls at
    # each point to the function's certified tolerance; a scalar gives a
    # float, and one bad element refuses the whole grid
    grid = np.array(grid)
    values = call(grid)
    assert values.shape == grid.shape
    single = [call(float(v)) for v in grid.ravel()]
    assert all(isinstance(v, float) for v in single)
    assert values.ravel() == pytest.approx(single, **tol)
    for value in bad:
        with pytest.raises(ValueError, match="must be"):
            call(np.array([[1.0, value], [2.0, 4.0]]))
        with pytest.raises(ValueError, match="must be"):
            call(value)


@pytest.mark.parametrize(
    "fn, grid, bad, message",
    [
        (analytic.outage, [[0.0, 0.1], [1.0, 10.0]], (-1.0, np.nan, np.inf),
         "x must be nonnegative and finite"),
        (analytic.throughput, [[1e-3, 0.1], [1.0, 1e3]], (0.0, -1.0, np.nan, np.inf),
         "gamma_bar must be positive and finite"),
    ],
    ids=["outage", "throughput"],
)
def test_outage_shapes_and_arguments(fn, grid, bad, message):
    # the two Mellin-Barnes columns share one contract
    if fn is analytic.outage:
        assert fn(Mode(1, 1), 0.0) == 0.0
    assert isinstance(fn(Mode(1, 1), 0.5), float)
    assert fn(Mode(1, 1), np.array([])).shape == (0,)
    for mode in MODES:
        values = fn(mode, np.array(grid))
        assert values.shape == (2, 2)
        # a grid refines until its every point converges, past where one
        # point stops; the rule has long reached rounding by then
        single = [fn(mode, x) for x in np.ravel(grid)]
        assert values.ravel() == pytest.approx(single, rel=1e-14, abs=0.0)
    for value in bad:
        with pytest.raises(ValueError, match=message):
            fn(Mode(1, 1), np.array([1.0, value, 2.0]))
        with pytest.raises(ValueError, match=message):
            fn(Mode(1, 1), value)


@pytest.mark.parametrize("fn, transform, again, grid", [
    (analytic.outage, Mode(1, 1, True), Mode(1, 1, True), np.logspace(-6.0, 2.0, 9)),
    (analytic.throughput, Mode(1, 1, True), Mode(1, 1, True), np.logspace(-2.0, 3.0, 11)),
    (special.meijer_g, MeijerParams(3, 1, 1, 3, (0.0,), (0.0, 1.0, 0.0)),
     MeijerParams(3, 1, 1, 3, (0.0,), (0.0, 1.0, 0.0)), np.logspace(-3.0, 3.0)),
    (analytic.outage, Mode(1, 2, True), Mode(2, 1, True), np.logspace(-6.0, 2.0, 9)),
], ids=["outage", "throughput", "meijer_g", "outage-mirrored-mode"])
def test_mellin_terms_are_evaluated_once_per_node(fn, transform, again, grid):
    # the vertical-line rule caches its nodes per transform (a kernel and
    # the eigenvalue laws of a mode, or a G family), line and level: a
    # second call on the same transform, or on the mode with tx and rx
    # swapped, and the same grid evaluates no new node
    special._line_level.cache_clear()
    try:
        first = fn(transform, grid)
        misses = special._line_level.cache_info().misses
        assert misses > 0
        assert np.array_equal(fn(again, grid), first)
        assert special._line_level.cache_info().misses == misses
    finally:
        special._line_level.cache_clear()


def _direct_terms(mode, kernel, s):
    """K(s) E{X^-s} at the nodes s = c + jt of one level of a line, as the
    rule evaluates it without sharing factors: Gamma(1 - s) and both
    eigenvalue brackets per call, and the compensated E{z^-s} on the
    200-node rule with one modulus row and the phases of the ladder t_k =
    t0 + d k, e^(j t_k L) = e^(j (t0 + d w q) L) e^(j d r L), k = w q + r
    and w = ceil(sqrt n) for n nodes."""
    lam, om, _ = analytic._mode_laws(mode)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.exp(special.log_gamma(1.0 - s))
    eig = om.mellin(s, np.real(s), g) * lam.mellin(s, np.real(s), g)
    if mode.compensated:
        minus_log_z, weight, minus_log_t2, onset = analytic._z_rule()

        def powers(log_base, w):
            t = np.imag(s)
            t0, d = t[0], t[1] - t[0]
            width = math.isqrt(t.size - 1) + 1
            rows = -(-t.size // width)
            modulus = np.exp(np.real(s[0]) * log_base)
            modulus *= w
            tables = []
            for ladder in (t0 + (d * width) * np.arange(rows), d * np.arange(width)):
                phase = np.multiply.outer(ladder, log_base)
                table = np.empty(phase.shape, dtype=np.complex128)
                np.cos(phase, out=table.real)
                np.sin(phase, out=table.imag)
                tables.append(table)
            coarse, fine = tables
            coarse *= modulus
            # the sum over k in 8 running sums, added at the end
            blocks = (table.reshape(table.shape[0], 8, -1) for table in (coarse, fine))
            return np.einsum("qbk,rbk->qrb", *blocks).sum(axis=-1).ravel()[: t.size]

        z = powers(minus_log_z, weight)
        if np.max(np.real(s)) > 1.0:
            exact = (4.0 / 3.0) * np.exp((4.0 - 2.0 * s) * np.log(0.5 * np.pi)) / (4.0 - 2.0 * s)
            z += exact - powers(minus_log_t2, onset)
    else:
        z = 1.0 / (1.0 - s)
    m = eig * z
    return m / s if kernel == "outage" else np.pi * m / (s * np.sin(np.pi * s))


def _mellin_lines():
    """(mode, kernel, c) of every contour of outage and throughput."""
    for mode in MODES:
        pole = analytic.diversity_order(mode)
        for c in (0.5 * pole, pole - analytic._POLE_MARGIN, -0.5 * pole):
            yield mode, "outage", c
        yield mode, "throughput", analytic._THROUGHPUT_ABSCISSA


def test_shared_factors_give_the_direct_terms_bit_for_bit():
    # every mode, both kernels, every contour, levels 0-5: the terms of the
    # line rule, built from factors shared across modes and kernels, have
    # the bits of the direct product on the same nodes
    for mode, kernel, c in _mellin_lines():
        transform = analytic._KernelTransform(analytic._mode_laws(mode), kernel)
        for level in range(6):
            t, values = special._line_level(transform, c, level)
            want = _direct_terms(mode, kernel, c + 1j * t)
            if level == 0:
                want[0] *= 0.5
            assert np.array_equal(values.view(np.float64), want.view(np.float64)), (
                mode, kernel, c, level,
            )


def test_compensated_transform_on_a_line_matches_the_per_node_sum():
    # both sums of the compensated E{z^-s} (the z rule and its onset) at
    # the nodes of every compensated contour, levels 0-8, from the node
    # sets' phasor tables against a cos and a sin per node and rule node:
    # within 4 eps sum|v| of the rule's terms v = weight e^(c L), plus eps
    # |t L| |v| per term for the phases t L that each side rounds
    eps = np.finfo(np.float64).eps
    minus_log_z, weight, minus_log_t2, onset = analytic._z_rule()
    contours = sorted({c for mode, _, c in _mellin_lines() if mode.compensated})
    assert contours == [-1.0, -0.5, 0.5, 0.85, 1.0, 1.85]
    for c in contours:
        for level in range(9):
            count = 65 if level == 0 else 64 << (level - 1)
            t = special._line_nodes(level, count)
            for log_base, w in ((minus_log_z, weight), (minus_log_t2, onset)):
                got = analytic._weighted_powers(c, t, log_base, w, (c, level, count))
                direct = analytic._weighted_powers(np.full(count, c), t, log_base, w)
                v = np.abs(np.exp(c * log_base) * w)
                phases = eps * (np.abs(np.multiply.outer(t, log_base)) * v).sum(axis=-1)
                bound = 4.0 * eps * v.sum() + phases
                assert np.all(np.abs(got - direct) <= bound), (c, level)


def test_a_repeated_contour_evaluates_no_new_factor(monkeypatch):
    # Gamma(1 - s) once for all modes, each eigenvalue bracket once per law
    # and the compensated E{z^-s} once for every compensated mode and both
    # kernels, per node set; a second sweep whose terms must be rebuilt
    # (the line cache cleared) evaluates none of them again
    calls = {}

    def counted(name, fn, kind=None):
        def wrapper(s, *args):
            s = np.asarray(s)
            # nodes of a contour (not real moments)
            if np.any(np.imag(s) != 0.0):
                nodes = (s.flat[0], s.flat[-1], s.size)
                key = (name, kind, nodes)
                calls[key] = calls.get(key, 0) + 1
            return fn(s, *args)

        return wrapper

    def counted_row(name, law):
        return dataclasses.replace(law, mellin=counted(name, law.mellin, law.name))

    def sweep():
        return [
            (analytic.outage(m, np.logspace(-6.0, 2.0, 9)), analytic.throughput(m, np.logspace(-2.0, 3.0, 11)))
            for m in MODES
        ]

    for cache in (special._line_level, analytic._line_factor):
        cache.cache_clear()
    monkeypatch.setattr(analytic, "_gamma_one_minus", counted("gamma", analytic._gamma_one_minus))
    # the rows' transforms; the plain E{z^-s} = 1/(1 - s) is not counted
    eigenvalue_rows = tuple(counted_row("bracket", law) for law in analytic._EIGENVALUE_LAWS)
    monkeypatch.setattr(analytic, "_EIGENVALUE_LAWS", eigenvalue_rows)
    plain, compensated = analytic._Z_LAWS
    monkeypatch.setattr(analytic, "_Z_LAWS", (plain, counted_row("z", compensated)))
    rows = {law.name: law for law in (*analytic._EIGENVALUE_LAWS, *analytic._Z_LAWS)}
    try:
        first = sweep()
        assert calls and max(calls.values()) == 1
        assert {name for name, _, _ in calls} == {"gamma", "bracket", "z"}
        evaluated = dict(calls)
        special._line_level.cache_clear()
        second = sweep()
        assert calls == evaluated
        for a, b in zip(first, second):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
        # the cache holds arrays of its nodes' values, read-only and owning
        # their data (no view keeps a node or phase table alive)
        info = analytic._line_factor.cache_info()
        assert 0 < info.currsize < info.maxsize
        for name, kind, (s0, _, count) in evaluated:
            factor = rows.get(kind)  # None for Gamma(1 - s)
            level = 0 if s0.imag == 0.0 else round(np.log2(special._LINE_FIRST_STEP / s0.imag))
            value = analytic._line_factor(factor, s0.real, level, count)
            assert value.dtype == np.complex128 and value.shape == (count,)
            assert value.flags.owndata and not value.flags.writeable
        assert analytic._line_factor.cache_info().misses == info.misses
    finally:
        for cache in (special._line_level, analytic._line_factor):
            cache.cache_clear()


def test_horner_is_polyval_bit_for_bit():
    # the analytic layer's polynomials without numpy.polynomial: the same
    # order of operations, so the same bits
    from numpy.polynomial.polynomial import polyval

    x = np.random.default_rng(5).uniform(-1.0, 1.0, 1000)
    for series in (analytic._SINH_SERIES, analytic._PDF_SERIES, analytic._Z_WEIGHT_SERIES,
                   analytic._E1_SERIES, (4.0, 4.0, 1.0, 1.0)):
        assert np.array_equal(analytic._horner(x, series), polyval(x, series))
        assert analytic._horner(0.37, series) == polyval(0.37, series)
    _, coefficients = analytic._laguerre_taylor()
    rows = coefficients[np.arange(1000) % len(coefficients)]
    h = x * 1e-3
    assert np.array_equal(analytic._horner(h, rows.T), polyval(h, rows.T, tensor=False))


def test_import_loads_no_numpy_polynomial():
    # importing numpy.polynomial (nine modules) cost every run a few ms
    code = "import sys, ris2x2.cli; print('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_closed_form_monotone_in_threshold():
    grid = np.logspace(-3, 1, 100)
    for mode in (Mode(1, 1, True), Mode(2, 1, False), Mode(2, 2, True)):
        vals = [analytic.outage_closed_form(mode, x) for x in grid]
        assert np.all(np.diff(vals) >= -1e-12)
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)


def test_compensation_improves_outage_everywhere():
    grid = np.logspace(-3, 1, 100)
    for tx in (1, 2):
        for rx in (1, 2):
            comp = np.array(
                [analytic.outage_closed_form(Mode(tx, rx, True), x) for x in grid]
            )
            plain = np.array(
                [analytic.outage_closed_form(Mode(tx, rx, False), x) for x in grid]
            )
            assert np.all(comp <= plain + 1e-12)


def test_closed_form_refuses_where_no_digit_is_right():
    # j1i1-cmp is P ~ 0.0172 x^2 summed from terms of order one: at x = 1e-8
    # the sum is about 4e-11 while P is 1.7e-18, so the error budget raises
    mode = Mode(1, 1, True)
    for x in (1e-8, 1e-7, 1e-5):
        with pytest.raises(QuadratureError, match="error budget"):
            analytic.outage_closed_form(mode, x)
    # on the C4 grid the budget is well below P
    assert analytic.outage_closed_form(mode, 1e-3) == pytest.approx(
        analytic.outage(mode, 1e-3), rel=1e-6
    )
    with pytest.raises(QuadratureError, match="error budget"):
        analytic.outage_closed_form(Mode(1, 1, False), 1e-10)


def test_outage_zero_threshold_skips_special_functions():
    assert analytic.outage_closed_form(Mode(1, 1, True), 0.0) == 0.0


def test_throughput_limits_and_monotonicity():
    tiny = analytic.throughput(Mode(1, 1, True), 1e-4)
    assert 0.0 < tiny < 2e-3
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [analytic.throughput(Mode(1, 1, True), g) for g in grid]
    assert np.all(np.diff(vals) > 0.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        for fn in (
            lambda g: analytic.throughput(Mode(1, 1), g),
            lambda g: analytic.throughput_quadrature(Mode(1, 1), g),
            analytic.throughput_closed_r22,
            analytic.throughput_closed_r22_cmp,
        ):
            with pytest.raises(ValueError, match="gamma_bar must be positive and finite"):
                fn(bad)


def test_throughput_matches_monte_carlo():
    stats = channel_statistics(555, 200_000)
    gamma_bar = 10.0
    for mode in (Mode(1, 1, True), Mode(2, 2, False), Mode(2, 1, True)):
        est = throughput_from_stats(stats, mode, gamma_bar)
        ana = analytic.throughput(mode, gamma_bar)
        assert abs(ana - est.value) <= 3.0 * est.ci_half_width


def test_throughput_closed_forms_match_integral():
    for gamma_bar in (1.0, 10.0):
        r22 = analytic.throughput_closed_r22(gamma_bar)
        assert r22 == pytest.approx(
            analytic.throughput(Mode(2, 2, False), gamma_bar), rel=1e-5
        )
        r22c = analytic.throughput_closed_r22_cmp(gamma_bar)
        assert r22c == pytest.approx(
            analytic.throughput(Mode(2, 2, True), gamma_bar), rel=1e-4
        )
        assert r22c > r22
    assert analytic.throughput_closed_r22(100.0) > 0.0
    # both closed forms vanish with the average SNR
    # (E ln(1+g*x) ~ g E{x} = 0.01 * 0.25 * (1 + pi^2/16)/2 ~ 2.02e-3)
    assert 0.0 < analytic.throughput_closed_r22_cmp(0.01) < 3e-3


def test_throughput_closed_r22_positive_on_grid():
    for snr_db in range(-5, 26, 5):
        assert analytic.throughput_closed_r22(10.0 ** (snr_db / 10.0)) > 0.0


_ENGINE_GAMMAS = (1e-4, 1e-2, 1.0, 10.0, 10.0**2.5, 1e4)


def test_throughput_matches_quadrature_oracle():
    grid = np.array(_ENGINE_GAMMAS)
    for mode in MODES:
        oracle = analytic.throughput_quadrature(mode, grid)
        assert oracle.shape == grid.shape
        assert analytic.throughput(mode, grid) == pytest.approx(oracle, rel=1e-8, abs=0.0)
    # a scalar gamma_bar gives a float, and the same value as on a grid
    value = analytic.throughput_quadrature(Mode(1, 1, True), 10.0)
    assert isinstance(value, float)
    assert value == pytest.approx(
        analytic.throughput_quadrature(Mode(1, 1, True), grid)[3], rel=1e-10, abs=0.0
    )


def test_throughput_oracle_matches_mellin_from_minus_40_to_40_db():
    grid = 10.0 ** (np.arange(-40.0, 41.0, 5.0) / 10.0)
    for mode in MODES:
        assert analytic.throughput_quadrature(mode, grid) == pytest.approx(
            analytic.throughput(mode, grid), rel=1e-10, abs=0.0
        )


def test_throughput_oracle_is_linear_at_vanishing_snr():
    # R = gamma_bar E{X} (1 - O(gamma_bar)); the kernel's e^x E1(x) at x =
    # 1/c must not lose its 1/x to an overflow of x^2 (which once gave 4/7
    # of R for j1i1-cmp at 1e-200)
    gammas = np.array([1e-150, 1e-200, 1e-250, 1e-300])
    for mode in MODES:
        want = gammas * analytic.mean_mode_snr(mode, 1.0)
        assert analytic.throughput_quadrature(mode, gammas) == pytest.approx(want, rel=1e-12)


def _dropped_shares(mode, scales, inverse, box, step=0.125, width=16.0):
    """What each of the four cuts of an oracle's ``box`` drops, relative to
    the value: the rule's node sum, at one fixed step, over a strip of
    ``width`` beyond the cut (the omega strips across every u), over its sum
    on the box.  Each tail falls away from its cut, so the strip's sum is
    below the tail's integral."""
    (s_lo, s_hi), (u_lo, u_hi) = box

    def nodes(lo, hi):
        return lo + step * np.arange(int(np.ceil((hi - lo) / step)) + 1)

    def part(s, u):
        return analytic._oracle_sum(mode, scales, inverse, s, u)

    beyond = step * np.arange(1, int(width / step) + 1)
    s, u, u_all = nodes(s_lo, s_hi), nodes(u_lo, u_hi), nodes(u_lo - width, u_hi + width)
    value = part(s, u)
    strips = {
        "omega below": (s_lo - beyond, u_all),
        "omega above": (s_hi + beyond, u_all),
        "z below": (s, u_lo - beyond),
        "z above": (s, u_hi + beyond),
    }
    return {tail: part(*strip) / value for tail, strip in strips.items()}


def test_oracle_cuts_drop_at_most_their_share():
    # each tail of each oracle may leave out 2.5e-4 _REL_TOL of its value:
    # the outage cuts are set at the smallest x of a grid, the throughput
    # cuts hold at every gamma_bar; a cut too far in would also stall the
    # step halving, whose error is then the jump at the cut
    share = analytic._ORACLE_TAIL_SHARE * analytic._REL_TOL
    gammas = 10.0 ** (np.arange(-40.0, 41.0, 10.0) / 10.0)
    with np.errstate(over="ignore"):
        for mode in MODES:
            for x in (1e-8, 1e-4, 1.0, 1e4):
                box = analytic._outage_box(mode, x)
                shares = _dropped_shares(mode, np.array([x]), True, box)
                for tail, dropped in shares.items():
                    assert dropped.max() <= share, (mode, x, tail, dropped)
            box = analytic._throughput_box(mode)
            shares = _dropped_shares(mode, gammas, False, box)
            for tail, dropped in shares.items():
                assert dropped.max() <= share, (mode, tail, dropped)


def _uniform_rule(mode, scales, inverse, box):
    """The oracles' 2-D trapezoid rule uniform in (s, u) itself, its step
    halved from 1 until two levels agree to _REL_TOL at every scale, the
    nodes on the lower cuts at half weight: the reference the sinh-mapped
    rule is held to."""
    (s_lo, s_hi), (u_lo, u_hi) = box
    step = 1.0
    n_s, n_u = int(np.ceil(s_hi - s_lo)) + 1, int(np.ceil(u_hi - u_lo)) + 1

    def part(k_s, k_u):
        return analytic._oracle_sum(
            mode, scales, inverse, s_lo + k_s * step, u_lo + k_u * step,
            np.where(k_s == 0, 0.5, 1.0), np.where(k_u == 0, 0.5, 1.0),
        )

    with np.errstate(over="ignore", divide="ignore"):
        total = part(np.arange(n_s), np.arange(n_u))
        estimate = total.copy()
        while True:
            step *= 0.5
            n_s, n_u = 2 * n_s - 1, 2 * n_u - 1
            total += part(np.arange(1, n_s, 2), np.arange(n_u))
            total += part(np.arange(0, n_s, 2), np.arange(1, n_u, 2))
            previous, estimate = estimate, step * step * total
            if np.all(np.abs(estimate - previous) <= analytic._REL_TOL * estimate):
                return estimate


def test_mapped_oracles_agree_with_the_uniform_rule():
    # both rules converge geometrically, so where each has certified 1e-10
    # both are at rounding level: they must agree far below the tolerance
    gammas = 10.0 ** (np.arange(-40.0, 41.0, 5.0) / 10.0)
    for mode in MODES:
        for x in (1e-8, 1e-4, 1.0, 1e4):
            box = analytic._outage_box(mode, x)
            want = _uniform_rule(mode, np.array([x]), True, box)
            got = analytic.outage_quadrature(mode, x)
            assert got == pytest.approx(want[0], rel=1e-13, abs=0.0), (mode, x)
        box = analytic._throughput_box(mode)
        want = _uniform_rule(mode, gammas, False, box)
        got = analytic.throughput_quadrature(mode, gammas)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), mode


def test_outage_oracle_reaches_as_far_down_as_the_uniform_rule():
    # F_lambda turns along s + ln z = ln x, hundreds of units below the bulk
    # of omega at these x: maps centred on the bulk spaced the nodes there
    # tens of units apart and raised from about x = 1e-80; maps centred on
    # that band certify each mode as far down as the uniform rule did, in
    # about its time (about 1 s for all six on a 2-vCPU Xeon)
    smallest = {Mode(1, 1, False): 1e-250, Mode(1, 1, True): 1e-100}
    modes = [Mode(j, i, c) for j, i in ((1, 1), (2, 1), (2, 2)) for c in (False, True)]
    start = time.perf_counter()
    got = [analytic.outage_quadrature(mode, smallest.get(mode, 1e-300)) for mode in modes]
    assert time.perf_counter() - start < 4.0
    for mode, value in zip(modes, got):
        x = np.array([smallest.get(mode, 1e-300)])
        box = analytic._outage_box(mode, x[0])
        want = _uniform_rule(mode, x, True, box)
        assert value == pytest.approx(want[0], rel=1e-12, abs=0.0), mode


def test_outage_oracle_certifies_just_above_its_floor():
    # the nodes on the lower cuts weigh half, as the ends of a trapezoid:
    # with full weight the rule's change there fell only like its step, and
    # it ran to its node limit (4.4 s on a 2-vCPU Xeon, now 0.8 s) and raised
    x = 10.0**-296.5
    start = time.perf_counter()
    value = analytic.outage_quadrature(Mode(1, 1), x)
    assert time.perf_counter() - start < 2.0
    # P = x E{1/lambda}^2 = x (2 ln 2 - 1)^2 to double precision, the
    # leading residue; what the lower tails drop at the smallest normal
    # float is within the tolerance at every P the rule certifies
    want = x * (2.0 * np.log(2.0) - 1.0) ** 2
    assert value == pytest.approx(want, rel=analytic._REL_TOL, abs=0.0)


def _kernel_evaluations(monkeypatch, call):
    """How many kernel arguments y ``call()`` passes to the oracles'
    kernels, F_lambda of outage and E ln(1 + c lambda) of throughput, the
    CDF and capacity kernel of the eigenvalue rows."""
    count = [0]

    def counted(kernel):
        def wrapper(y, *args):
            count[0] += np.size(y)
            return kernel(y, *args)

        return wrapper

    rows = tuple(
        dataclasses.replace(law, cdf=counted(law.cdf), kernel=counted(law.kernel))
        for law in analytic._EIGENVALUE_LAWS
    )
    with monkeypatch.context() as patch:
        patch.setattr(analytic, "_EIGENVALUE_LAWS", rows)
        call()
    return count[0]


def test_oracles_on_the_smoke_grids_stay_within_their_kernel_budget(monkeypatch):
    # the six distinct modes on the grids of verify --level smoke (C4's x,
    # C6's gamma_bar): the uniform rule evaluated 3.3e6 and 3.9e5 kernel
    # arguments, the sinh-mapped one about 0.91e6 and 0.86e5
    from ris2x2.acceptance import AcceptanceSettings

    smoke = AcceptanceSettings.smoke()
    x = np.unique(np.concatenate((smoke.closed_form_grid, smoke.mellin_grid)))
    gammas = 10.0 ** (np.array(smoke.oracle_snr_db) / 10.0)
    modes = [Mode(j, i, c) for j, i in ((1, 1), (2, 1), (2, 2)) for c in (False, True)]
    outage = _kernel_evaluations(monkeypatch, lambda: [analytic.outage_quadrature(m, x) for m in modes])
    rate = _kernel_evaluations(
        monkeypatch, lambda: [analytic.throughput_quadrature(m, gammas) for m in modes]
    )
    assert outage <= 1.5e6
    assert rate <= 1.5e5
    # a hook that no longer sees the kernels' calls would count 0
    assert outage >= 0.45e6
    assert rate >= 0.43e5


def _trig_arguments(monkeypatch, call):
    """How many arguments ``call()`` passes to np.cos and to np.sin, from
    empty line caches."""
    count = {"cos": 0, "sin": 0}

    def counted(name):
        fn = getattr(np, name)

        def wrapper(x, *args, **kwargs):
            count[name] += np.size(x)
            return fn(x, *args, **kwargs)

        return wrapper

    caches = (special._line_level, analytic._line_factor)
    for cache in caches:
        cache.cache_clear()
    try:
        with monkeypatch.context() as patch:
            for name in count:
                patch.setattr(np, name, counted(name))
            call()
    finally:
        for cache in caches:
            cache.cache_clear()
    return count


def test_mellin_columns_stay_within_their_trig_budget(monkeypatch):
    # the default outage column (eight modes, 31 SNR points, 0 dB) and the
    # Mellin columns of verify --level smoke (the outage and throughput
    # columns of C5 and C6 and C4's Mellin grid): with a cos and a sin per
    # (x, node) and per (node, z-rule node) they took 0.28e6 and 0.75e6 of
    # each; the node sets' phasor tables take about 0.06e6 and 0.13e6
    from ris2x2.acceptance import AcceptanceSettings

    smoke = AcceptanceSettings.smoke()
    gammas = 10.0 ** (np.arange(-5.0, 26.0) / 10.0)
    column = _trig_arguments(monkeypatch, lambda: [analytic.outage(m, 1.0 / gammas) for m in MODES])

    def smoke_columns():
        outage_gammas = 10.0 ** (np.array(smoke.snr_db) / 10.0)
        rate_gammas = 10.0 ** (np.array(smoke.throughput_snr_db) / 10.0)
        for m in MODES:
            analytic.outage(m, 1.0 / outage_gammas)
            analytic.throughput(m, rate_gammas)
            analytic.outage(m, np.array(smoke.mellin_grid))

    columns = _trig_arguments(monkeypatch, smoke_columns)
    for name in ("cos", "sin"):
        assert column[name] <= 0.08e6, column
        assert columns[name] <= 0.18e6, columns
        # a hook that no longer sees the calls would count 0
        assert column[name] >= 0.03e6, column
        assert columns[name] >= 0.07e6, columns


def test_oracle_refuses_a_scale_that_underflows_every_node_at_once():
    # at gamma_bar = 1e-310 every kernel argument of the box is subnormal:
    # the rule once ran every level up to its node limit (about 5 s a mode)
    # on a sum of zeros before it raised
    start = time.perf_counter()
    for mode in MODES:
        with pytest.raises(QuadratureError, match="below the normal floats"):
            analytic.throughput_quadrature(mode, 1e-310)
        with pytest.raises(QuadratureError, match="below the normal floats"):
            analytic.throughput_quadrature(mode, np.array([1.0, 1e-310]))
    assert time.perf_counter() - start < 1.0
    # a normal gamma_bar a decade up is still certified
    assert analytic.throughput_quadrature(Mode(1, 1, True), 1e-300) == pytest.approx(
        1e-300 * analytic.mean_mode_snr(Mode(1, 1, True), 1.0), rel=1e-12
    )


def test_oracles_refuse_what_they_cannot_certify_at_once():
    # each of these ran every level up to the node limit (0.85-4.4 s) before
    # it raised; the last was returned as certified, 1.8e-4 off P ~ 1.13 x
    calls = [
        (analytic.outage_quadrature, Mode(1, 1), 1e-300),
        (analytic.outage_quadrature, Mode(1, 1, True), 1e-200),
        (analytic.throughput_quadrature, Mode(1, 1), 1e-310),
        (analytic.throughput_quadrature, Mode(2, 2, True), 1e-309),
        (analytic.outage_quadrature, Mode(1, 2, True), 1e-320),
    ]
    for oracle, mode, x in calls:
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="below the .* the rule can certify|below the normal floats"):
            oracle(mode, x)
        assert time.perf_counter() - start < 0.5, (oracle.__name__, mode, x)


def test_capacity_kernel_matches_exponential_integral():
    # E ln(1 + c lambda) = 2 L0(1/c) + L2(1/c) - L0(2/c) (largest) and L0(2/c)
    # (smallest), L0(x) = e^x E1(x) and L2(x) = 1 - x + x^2 L0(x); the grid
    # crosses the bands of the continued fraction and x = 50, where the
    # direct L2 cancels by 1e3
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    c = np.concatenate([np.logspace(-8.0, 8.0, 81), [1.0 / 50.0, 1.0 / 49.9, 1.0 / 50.1, 2.0 / 50.1]])

    def l0(x):
        return mp.exp(x) * mp.e1(x)

    for which in ("largest", "smallest"):
        ref = []
        for ci in c:
            x = 1 / mp.mpf(ci)
            if which == "smallest":
                ref.append(float(l0(2 * x)))
            else:
                ref.append(float(2 * l0(x) + (1 - x + x * x * l0(x)) - l0(2 * x)))
        law = analytic._eigenvalue_law(which)
        assert law.kernel(c) == pytest.approx(ref, rel=1e-12, abs=0.0)
        # below 1e-17, E ln(1 + c lambda) = c E{lambda} to double precision;
        # 2/c overflows from c ~ 1.1e-308 down
        tiny = 10.0 ** -np.arange(17.0, 321.0)
        assert law.kernel(tiny) == pytest.approx(tiny * law.mean, rel=1e-15, abs=0.0)


def test_throughput_oracle_certifies_only_right_values_near_its_floor():
    # R = gamma_bar E{X} to 1e-300 relative on this grid.  The capacity
    # kernels once lost their accuracy below c ~ 1e-306 and returned 0 from
    # c ~ 1.1e-308 down: 39 of the 171 values certified here were more than
    # 1e-10 off, and j1i1 near 10^-305.5 ran about 1 s before it raised
    certified = 0
    for mode in MODES:
        for exponent in np.arange(-307.0, -299.99, 0.25):
            gamma_bar = 10.0**exponent
            start = time.perf_counter()
            try:
                value = analytic.throughput_quadrature(mode, gamma_bar)
            except QuadratureError as exc:
                assert "the rule can certify" in str(exc), (mode, exponent)
                value = None
            assert time.perf_counter() - start < 0.5, (mode, exponent)
            if value is not None:
                certified += 1
                want = gamma_bar * analytic.mean_mode_snr(mode, 1.0)
                assert value == pytest.approx(want, rel=1e-10, abs=0.0), (mode, exponent)
    assert certified >= 174


def test_throughput_oracle_certifies_down_to_the_normal_floats():
    # R = gamma_bar E{X} to double precision this far down: every mode
    # certifies it on a quarter-decade grid until its box's kernel
    # arguments leave the normal floats
    for mode in MODES:
        for exponent in np.arange(-300.0, -308.51, -0.25):
            gamma_bar = 10.0**exponent
            want = gamma_bar * analytic.mean_mode_snr(mode, 1.0)
            value = analytic.throughput_quadrature(mode, gamma_bar)
            assert value == pytest.approx(want, rel=1e-13, abs=0.0), (mode, exponent)


def test_throughput_transmit_receive_symmetry():
    # the Mellin transform takes the eigenvalue product in one order
    for compensated in (False, True):
        a = analytic.throughput(Mode(1, 2, compensated), np.array(_ENGINE_GAMMAS))
        b = analytic.throughput(Mode(2, 1, compensated), np.array(_ENGINE_GAMMAS))
        assert np.array_equal(a, b)


def test_throughput_below_jensen_bound():
    for mode in MODES:
        for gamma_bar in _ENGINE_GAMMAS:
            bound = np.log1p(analytic.mean_mode_snr(mode, gamma_bar))
            assert analytic.throughput(mode, gamma_bar) < bound


def test_throughput_low_snr_slope_is_mean_snr():
    # E ln(1 + g X) = g E{X} - g^2 E{X^2}/2 + ...
    gamma_bar = 1e-6
    for mode in MODES:
        assert analytic.throughput(mode, gamma_bar) / gamma_bar == pytest.approx(
            analytic.mean_mode_snr(mode, 1.0), rel=1e-4
        )


def _integrated_lines(monkeypatch):
    """(transform, c) of every line the vertical-line rule integrates for
    the closed forms (their Meijer G families), both Mellin-Barnes columns
    and their contour fallbacks."""
    lines = set()
    integrate = special._line_integral

    def spy(transform, c, *args, **kwargs):
        lines.add((transform, c))
        return integrate(transform, c, *args, **kwargs)

    monkeypatch.setattr(special, "_line_integral", spy)
    monkeypatch.setattr(analytic, "_line_integral", spy)
    for mode in MODES:
        for x in (1e-3, 0.25, 2.0):
            analytic.outage_closed_form(mode, x)
        analytic.throughput(mode, np.logspace(-3.0, 5.0, 9))
        # outage's first line and both fallbacks, whichever x needs them
        pole = analytic.diversity_order(mode)
        for c in (0.5 * pole, pole - analytic._POLE_MARGIN, -0.5 * pole):
            analytic._outage_line(mode, c, np.log([1e-3, 10.0]))
    analytic.throughput_closed_r22_cmp(10.0)
    return lines


def test_log_gamma_on_every_integrated_line(monkeypatch):
    # exp(log_gamma) against mpmath at the nodes of the first two levels of
    # each line: the Gamma ratio of every Meijer G family and of every
    # composite closed-form term, and Gamma(1 - s) of the eigenvalue
    # transforms of the Mellin-Barnes columns
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    lines = _integrated_lines(monkeypatch)
    kinds = {type(transform).__name__ for transform, _ in lines}
    assert kinds == {"MeijerParams", "_KernelTransform", "_AlignedTransform"}
    mellin_abscissae = set()
    for transform, c in lines:
        t = np.concatenate([special._line_level(transform, c, level)[0] for level in (0, 1)])
        s = c + 1j * t
        params = transform.params if isinstance(transform, analytic._AlignedTransform) else transform
        if isinstance(params, MeijerParams):
            m, n = params.m, params.n

            def ratio(v):
                g = mp.gamma
                num = mp.fprod([g(b - v) for b in params.b[:m]] + [g(1 - a + v) for a in params.a[:n]])
                den = mp.fprod([g(1 - b + v) for b in params.b[m:]] + [g(a - v) for a in params.a[n:]])
                return complex(num / den)

            ref = np.array([ratio(mp.mpc(v.real, v.imag)) for v in s])
            assert params(s) == pytest.approx(ref, rel=1e-12, abs=0.0), (transform, c)
        elif c not in mellin_abscissae:
            mellin_abscissae.add(c)
            s = s[s != 1.0]  # the pole of Gamma(1 - s) the eigenvalue bracket cancels
            ref = np.array([complex(mp.gamma(1 - mp.mpc(v.real, v.imag))) for v in s])
            assert np.exp(special.log_gamma(1.0 - s)) == pytest.approx(ref, rel=1e-12, abs=0.0), c
    # outage's three contours (p = 1 and 2) and throughput's
    assert mellin_abscissae == {0.5, 0.85, -0.5, 1.0, 1.85, -1.0}


def test_laguerre_stieltjes_is_exp_e1_to_the_last_digits():
    # e^x E1(x): the series up to x = 1, then each band of the continued
    # fraction from its lower end
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    edges = np.array([1.0] + [upper for upper, _ in analytic._LAGUERRE_BANDS[:-1]])
    x = np.concatenate([
        np.logspace(-300.0, np.log10(60.0), 200),
        np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), np.linspace(0.9, 60.0, 100),
    ])
    ref = np.array([float(mp.exp(v) * mp.e1(v)) for v in x])
    value, second = analytic._laguerre_stieltjes(x)
    assert value == pytest.approx(ref, rel=1e-14, abs=0.0)
    # beyond x = 1 the fraction gives f_2 = 1 - x + x^2 e^x E1(x) itself
    ref = [float(1 - mp.mpf(v) + mp.mpf(v) ** 2 * mp.exp(v) * mp.e1(v)) for v in x]
    assert second == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_z_rule_is_scipys_gauss_legendre_bit_for_bit():
    # held as constants so that no run solves an eigenproblem, but with the
    # very bits of roots_legendre, so that no CSV byte moves
    from scipy.special import roots_legendre

    x, w = analytic._z_gauss()
    want_x, want_w = roots_legendre(200)
    assert np.array_equal(x, want_x)
    assert np.array_equal(w, want_w)


def _doubled_z_rule(monkeypatch, fn, modes, grid):
    """fn(m, grid) for each mode, on the z rule of 200 and of 400 nodes
    (the cached rule, line factors and line nodes hold the rule they were
    built with, so the caches are cleared around the change)."""
    from scipy.special import roots_legendre

    caches = (special._line_level, analytic._line_factor, analytic._z_rule)
    special._line_level.cache_clear()
    base = [fn(m, grid) for m in modes]
    monkeypatch.setattr(analytic, "_z_gauss", lambda: roots_legendre(400))
    try:
        for cache in caches:
            cache.cache_clear()
        doubled = [fn(m, grid) for m in modes]
    finally:
        for cache in caches:
            cache.cache_clear()
    return np.concatenate(base), np.concatenate(doubled)


def test_outage_z_rule_is_converged(monkeypatch):
    # the same rule, near the pole of E{z^-s} at s = 2 (j1i1-cmp at small x)
    modes = [m for m in MODES if m.compensated]
    base, doubled = _doubled_z_rule(monkeypatch, analytic.outage, modes, np.logspace(-10.0, 2.0, 13))
    assert doubled == pytest.approx(base, rel=1e-10, abs=0.0)


def test_throughput_z_rule_is_converged(monkeypatch):
    # the Gauss-Legendre rule of the compensated E{z^-s}: doubling its
    # nodes must not move any throughput
    modes = [m for m in MODES if m.compensated]
    base, doubled = _doubled_z_rule(monkeypatch, analytic.throughput, modes, np.array(_ENGINE_GAMMAS))
    assert doubled == pytest.approx(base, rel=1e-12, abs=0.0)


def test_throughput_is_certified_from_minus_60_to_130_db():
    # from 130.5 dB on (j1i1-cmp) the sum cancels below the tolerance and
    # QuadratureError is raised; below it every mode returns a value
    grid = 10.0 ** (np.arange(-60.0, 131.0, 10.0) / 10.0)
    for mode in MODES:
        values = analytic.throughput(mode, grid)
        assert np.all(np.diff(values) > 0.0)
    with pytest.raises(QuadratureError, match="does not meet rel_tol"):
        analytic.throughput(Mode(1, 1, True), 10.0**14)
