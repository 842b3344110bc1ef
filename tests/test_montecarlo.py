import numpy as np
import pytest

from ris2x2 import analytic
from ris2x2.montecarlo import (
    ALT,
    AltScheme,
    channel_statistics,
    empirical_cdf,
    estimate_outage,
    estimate_throughput,
    parse_scheme,
    scheme_label,
    scheme_snr_factor,
    throughput_from_stats,
    wilson_halfwidth,
)
from ris2x2.sysmodel import MODES, Mode

SEED = 2718


def test_outage_zero_threshold_is_zero():
    est = estimate_outage(Mode(1, 1), 10.0, 0.0, trials=1000, seed=SEED)
    assert est.value == 0.0
    assert est.ci_half_width > 0.0


def test_fixed_seed_bit_exact():
    a = estimate_outage(Mode(2, 2), 10.0, 1.0, trials=5000, seed=SEED)
    b = estimate_outage(Mode(2, 2), 10.0, 1.0, trials=5000, seed=SEED)
    assert a == b


def test_worker_and_chunk_invariance():
    base = channel_statistics(SEED, 20_000, include_alt=True)
    for workers, chunk in ((4, 1 << 11), (16, 1 << 9)):
        other = channel_statistics(
            SEED, 20_000, include_alt=True, workers=workers, chunk_size=chunk
        )
        assert np.array_equal(base.lam, other.lam)
        assert np.array_equal(base.om, other.om)
        assert np.array_equal(base.z_plain, other.z_plain)
        assert np.array_equal(base.z_comp, other.z_comp)
        assert np.array_equal(base.alt_factor, other.alt_factor)


def test_outage_matches_closed_form():
    est = estimate_outage(Mode(2, 2), 10.0, 1.0, trials=100_000, seed=SEED)
    ana = analytic.outage_closed_form(Mode(2, 2), 0.1)
    assert abs(est.value - ana) <= 3.0 * est.ci_half_width


def test_throughput_matches_analytic():
    est = estimate_throughput(Mode(2, 2), 10.0, trials=100_000, seed=SEED)
    ana = analytic.throughput(Mode(2, 2), 10.0)
    assert abs(est.value - ana) <= 3.0 * est.ci_half_width


def test_compensation_improves_every_mode():
    stats = channel_statistics(SEED, 50_000)
    for tx in (1, 2):
        for rx in (1, 2):
            plain = throughput_from_stats(stats, Mode(tx, rx, False), 10.0)
            comp = throughput_from_stats(stats, Mode(tx, rx, True), 10.0)
            assert comp.value > plain.value


def test_small_snr_throughput_bound():
    est = estimate_throughput(Mode(1, 1), 1e-3, trials=20_000, seed=SEED)
    assert est.value < 0.01


def test_scheme_snr_factor_requires_alt_pass():
    stats = channel_statistics(SEED, 1000)
    with pytest.raises(ValueError):
        scheme_snr_factor(stats, ALT)


def test_trials_validation():
    with pytest.raises(ValueError):
        estimate_outage(Mode(1, 1), 1.0, 1.0, trials=50, seed=1)
    with pytest.raises(ValueError):
        channel_statistics(1, 0)


def test_wilson_interval():
    assert wilson_halfwidth(0, 10**6) == pytest.approx(1.92e-6, rel=0.01)
    assert wilson_halfwidth(500, 1000) == pytest.approx(
        1.96 * np.sqrt(0.25 / 1000), rel=0.01
    )
    p_half = wilson_halfwidth(50, 100)
    p_all = wilson_halfwidth(100, 100)
    assert p_all < p_half


def test_empirical_cdf_point_mass():
    cdf = empirical_cdf([2.0, 2.0, 2.0])
    assert cdf(1.9) == 0.0
    assert cdf(2.0) == 1.0
    assert cdf(2.1) == 1.0


def test_empirical_cdf_uniform_ks():
    rng = np.random.default_rng(4)
    samples = rng.random(1_000_000)
    ks = empirical_cdf(samples).ks_distance(lambda x: np.clip(x, 0.0, 1.0))
    assert ks < 0.002


def test_alignment_factor_laws_from_channels():
    stats = channel_statistics(SEED, 300_000)
    ks_c = empirical_cdf(stats.z_comp[:, 0, 0]).ks_distance(
        lambda z: analytic.z_factor_cdf(z, True)
    )
    ks_p = empirical_cdf(stats.z_plain[:, 0, 1]).ks_distance(
        lambda z: analytic.z_factor_cdf(z, False)
    )
    assert ks_c < 0.0037  # 0.002 * sqrt(1e6 / 3e5)
    assert ks_p < 0.0037


def test_scheme_parsing_round_trip():
    for mode in MODES:
        assert parse_scheme(scheme_label(mode)) == mode
    assert isinstance(parse_scheme("alt"), AltScheme)
    with pytest.raises(ValueError):
        parse_scheme("j3i1")
    with pytest.raises(ValueError):
        parse_scheme("j1i1-xyz")


def test_mean_reduction_is_chunk_order_independent():
    # assembled per-trial arrays reduce identically however they were built
    stats_a = channel_statistics(SEED, 30_000, chunk_size=1 << 9)
    stats_b = channel_statistics(SEED, 30_000, chunk_size=1 << 15)
    va = throughput_from_stats(stats_a, Mode(1, 1, True), 10.0)
    vb = throughput_from_stats(stats_b, Mode(1, 1, True), 10.0)
    assert va == vb
