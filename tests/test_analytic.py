import numpy as np
import pytest
from scipy.integrate import quad

from ris2x2 import analytic, special
from ris2x2.montecarlo import channel_statistics, scheme_snr_factor, throughput_from_stats
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


@pytest.mark.parametrize(
    "call",
    [
        lambda v: analytic.outage_quadrature(Mode(2, 2), v),
        lambda v: analytic.outage_closed_form(Mode(2, 2), v),
        analytic.throughput_closed_r22,
        analytic.throughput_closed_r22_cmp,
        lambda v: special.weighted_bessel_integral(0, 1, v, 1.0),
        lambda v: special.weighted_bessel_integral(0, 1, 1.0, v),
        lambda v: instantaneous_snr(np.eye(2), np.eye(2), np.ones(2), _E1, _E1, v),
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
def test_scalar_only_functions_refuse_arrays(call):
    # these take one value at a time; an array, even of one element, is
    # refused by name rather than by numpy's ambiguous truth value
    for value in (np.array([0.5, 2.0]), [0.5], np.ones((1, 1))):
        with pytest.raises(ValueError, match="must be a scalar"):
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
        assert analytic._capacity_kernel(c, which) == pytest.approx(ref, rel=1e-12, abs=0.0)


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
    # each line: the Gamma ratio of every Meijer G family, and Gamma(1 - s)
    # of the eigenvalue transforms of the Mellin-Barnes columns
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    lines = _integrated_lines(monkeypatch)
    kinds = {type(transform).__name__ for transform, _ in lines}
    assert kinds == {"MeijerParams", "_KernelTransform"}
    mellin_abscissae = set()
    for transform, c in lines:
        t = np.concatenate([special._line_level(transform, c, level)[0] for level in (0, 1)])
        s = c + 1j * t
        if isinstance(transform, MeijerParams):
            m, n = transform.m, transform.n

            def ratio(v):
                g = mp.gamma
                num = mp.fprod([g(b - v) for b in transform.b[:m]] + [g(1 - a + v) for a in transform.a[:n]])
                den = mp.fprod([g(1 - b + v) for b in transform.b[m:]] + [g(a - v) for a in transform.a[n:]])
                return complex(num / den)

            ref = np.array([ratio(mp.mpc(v.real, v.imag)) for v in s])
            assert transform(s) == pytest.approx(ref, rel=1e-12, abs=0.0), (transform, c)
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
    (value,) = analytic._laguerre_stieltjes(x, (0,))
    assert value == pytest.approx(ref, rel=1e-14, abs=0.0)


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
    (the cached rule and line nodes hold the rule they were built with, so
    both caches are cleared around the change)."""
    from scipy.special import roots_legendre

    caches = (special._line_level, analytic._z_rule)
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
    # past about 136 dB (j1i1-cmp) the sum cancels below the tolerance and
    # QuadratureError is raised; below it every mode returns a value
    grid = 10.0 ** (np.arange(-60.0, 131.0, 10.0) / 10.0)
    for mode in MODES:
        values = analytic.throughput(mode, grid)
        assert np.all(np.diff(values) > 0.0)
    with pytest.raises(QuadratureError, match="does not meet rel_tol"):
        analytic.throughput(Mode(1, 1, True), 10.0**14)
