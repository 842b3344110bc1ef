import numpy as np
import pytest

from ris2x2.altopt import optimal_configuration, optimize_batch
from ris2x2.linalg2 import svd2
from ris2x2.montecarlo import ALT, estimate_outage, estimate_throughput
from ris2x2.sampling import ChannelRealization, RngState, channel_realizations
from ris2x2.sysmodel import instantaneous_snr, mode_z_factors

STATE = RngState(31337, 0)


def _realization(g, h):
    return ChannelRealization(g=g, h=h, svd_g=svd2(g), svd_h=svd2(h))


def _config_factor(ch, phasors, a, b):
    """|b^H G Phi H a|^2 of a (stacked) configuration."""
    return instantaneous_snr(ch.g, ch.h, phasors, a, b, 1.0)


def test_identity_channels():
    eye = np.eye(2, dtype=complex)
    ch = _realization(eye, eye)
    assert optimize_batch(ch).snr_factor == pytest.approx(1.0, rel=1e-15)
    phasors, a, b = optimal_configuration(ch)
    assert np.array_equal(phasors, [1.0, 1.0])
    assert abs(np.abs(a[0]) - 1.0) < 1e-12 and abs(a[1]) < 1e-12
    assert abs(np.abs(b[0]) - 1.0) < 1e-12 and abs(b[1]) < 1e-12


def test_rank_one_g():
    # G = x y^H makes M = x (y^H Phi H) rank one, so sigma_max^2 = ||M||_F^2
    # = ||x||^2 ||conj(y1) exp(j phi1) h1 + conj(y2) exp(j phi2) h2||^2,
    # largest when the two row terms are phase aligned
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ch = _realization(np.outer(x, np.conjugate(y)), h)
    t1 = np.abs(y[0]) ** 2 * np.vdot(h[0], h[0]).real
    t2 = np.abs(y[1]) ** 2 * np.vdot(h[1], h[1]).real
    cross = 2.0 * np.abs(y[0] * y[1]) * np.abs(np.vdot(h[0], h[1]))
    expected = np.vdot(x, x).real * (t1 + t2 + cross)
    got = optimize_batch(ch).snr_factor
    assert got == pytest.approx(expected, rel=1e-13)
    assert _config_factor(ch, *optimal_configuration(ch)) == pytest.approx(expected, rel=1e-13)


def test_pointwise_dominance_over_compensated_mode():
    ch = channel_realizations(STATE.child(1), 10_000)
    res = optimize_batch(ch)
    z_plain, z_comp = mode_z_factors(ch)
    lam1 = ch.svd_g.sigma[:, 0] ** 2
    om1 = ch.svd_h.sigma[:, 0] ** 2
    g_cmp = lam1 * om1 * z_comp[:, 0, 0]
    g_unc = lam1 * om1 * z_plain[:, 0, 0]
    assert np.all(res.snr_factor >= g_cmp * (1.0 - 1e-12))
    assert np.all(g_cmp >= g_unc * (1.0 - 1e-12))
    assert not res.iterations.any()


def test_final_configuration_is_consistent():
    ch = channel_realizations(STATE.child(3), 2000)
    phasors, a, b = optimal_configuration(ch)
    assert np.allclose(np.abs(phasors), 1.0, rtol=0, atol=1e-15)
    assert np.all(phasors[:, 0] == 1.0)
    assert np.allclose(np.linalg.norm(a, axis=-1), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(np.linalg.norm(b, axis=-1), 1.0, rtol=0, atol=1e-12)
    factor = _config_factor(ch, phasors, a, b)
    assert np.allclose(factor, optimize_batch(ch).snr_factor, rtol=1e-12, atol=0)
    # a single realization goes through the same code path
    one = channel_realizations(STATE.child(3), 1, start=17)
    cfg = optimal_configuration(one)
    assert _config_factor(one, *cfg) == pytest.approx([factor[17]], rel=1e-12)


def test_phase_sweep_never_beats_optimum():
    # brute-force oracle: sigma_max^2 of G diag(1, exp(j t)) H on a fine grid
    ch = channel_realizations(STATE.child(4), 1000)
    best = optimize_batch(ch).snr_factor
    sweep = np.zeros_like(best)
    for t in 2.0 * np.pi * np.arange(720) / 720:
        tiles = np.array([1.0, np.exp(1j * t)])
        sweep = np.maximum(sweep, svd2(ch.g * tiles @ ch.h).sigma[:, 0] ** 2)
    assert np.all(sweep <= best * (1.0 + 1e-12))
    # the grid step of 0.5 degree gets within a relative 1e-4 of the optimum
    assert np.all(sweep >= best * (1.0 - 1e-4))


def test_alt_outage_mc_zero_threshold():
    est = estimate_outage(ALT, 10.0, 0.0, trials=500, seed=5)
    assert est.value == 0.0
    assert est.ci_half_width > 0.0


def test_alt_outage_mc_ci_scaling():
    # quadrupling the trials roughly halves the interval
    half1 = estimate_outage(ALT, 1.0, 1.0, trials=2000, seed=6).ci_half_width
    half2 = estimate_outage(ALT, 1.0, 1.0, trials=8000, seed=6).ci_half_width
    assert abs(half1 / half2 / 2.0 - 1.0) < 0.2


def test_alt_throughput_mc():
    a = estimate_throughput(ALT, 10.0, trials=4000, seed=8)
    b = estimate_throughput(ALT, 10.0, trials=4000, seed=8)
    assert a == b  # fixed seed reproducibility
    assert estimate_throughput(ALT, 1e-4, trials=4000, seed=8).value < 1e-2
