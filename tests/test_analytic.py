import numpy as np
import pytest
from scipy.integrate import quad

from ris2x2 import analytic
from ris2x2.montecarlo import channel_statistics, scheme_snr_factor, throughput_from_stats
from ris2x2.special import QuadratureSpec
from ris2x2.sysmodel import MODES, Mode


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
    for fn in (analytic.outage_quadrature, analytic.outage_closed_form):
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


def test_outage_quadrature_step_halving_is_converged():
    tight = QuadratureSpec(rel_tol=1e-13)
    for mode in MODES:
        for x in np.logspace(-6.0, 2.0, 9):
            assert analytic.outage_quadrature(mode, x) == pytest.approx(
                analytic.outage_quadrature(mode, x, tight), rel=1e-10, abs=0.0
            )


def test_outage_transmit_receive_symmetry():
    for compensated in (False, True):
        a = analytic.outage_quadrature(Mode(2, 1, compensated), 0.5)
        b = analytic.outage_quadrature(Mode(1, 2, compensated), 0.5)
        assert a == pytest.approx(b, abs=1e-8)
        # the closed forms share one expression for both index orders
        ca = analytic.outage_closed_form(Mode(2, 1, compensated), 0.5)
        cb = analytic.outage_closed_form(Mode(1, 2, compensated), 0.5)
        assert ca == cb


def test_closed_form_matches_quadrature_spot_checks():
    # full 8-point grid runs in the acceptance suite
    for mode in (Mode(1, 1, True), Mode(2, 2, False), Mode(1, 2, True), Mode(1, 1, False)):
        for x in (0.01, 0.25, 2.0):
            cf = analytic.outage_closed_form(mode, x)
            qd = analytic.outage_quadrature(mode, x)
            assert cf == pytest.approx(qd, abs=1e-9)


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
    for mode in MODES:
        for gamma_bar in _ENGINE_GAMMAS:
            assert analytic.throughput(mode, gamma_bar) == pytest.approx(
                analytic.throughput_quadrature(mode, gamma_bar), rel=1e-8
            )


def test_throughput_transmit_receive_symmetry():
    for compensated in (False, True):
        for gamma_bar in _ENGINE_GAMMAS:
            a = analytic.throughput(Mode(1, 2, compensated), gamma_bar)
            b = analytic.throughput(Mode(2, 1, compensated), gamma_bar)
            assert a == pytest.approx(b, rel=1e-15, abs=0.0)


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


def test_throughput_z_rule_is_converged(monkeypatch):
    # the Gauss-Legendre rule of the compensated E{z^-s}: doubling its
    # nodes must not move any throughput
    modes = [m for m in MODES if m.compensated]
    base = [analytic.throughput(m, g) for m in modes for g in _ENGINE_GAMMAS]
    monkeypatch.setattr(analytic, "_Z_NODES", 2 * analytic._Z_NODES)
    doubled = [analytic.throughput(m, g) for m in modes for g in _ENGINE_GAMMAS]
    assert doubled == pytest.approx(base, rel=1e-12, abs=0.0)
