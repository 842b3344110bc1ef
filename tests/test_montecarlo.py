import tracemalloc

import numpy as np
import pytest

from ris2x2 import analytic, linalg2, montecarlo
from ris2x2.altopt import optimize_batch
from ris2x2.montecarlo import (
    ALT,
    AltScheme,
    EmpiricalCdf,
    TrialStats,
    channel_statistics,
    estimate_outage,
    estimate_throughput,
    outage_from_stats,
    parse_scheme,
    scheme_label,
    scheme_snr_factor,
    throughput_from_stats,
    wilson_halfwidth,
)
from ris2x2.sampling import RngState, channel_realizations
from ris2x2.sysmodel import MODES, Mode, mode_z_factors

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


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("chunk", [1 << 15, 1000, 1 << 9])
def test_pass_is_the_realization_pipeline(workers, chunk):
    # the lean pass is the public pipeline over the same draws, bit for bit
    trials = 5000
    stats = channel_statistics(SEED, trials, include_alt=True, workers=workers, chunk_size=chunk)
    ch = channel_realizations(RngState(SEED), trials)
    z_plain, z_comp = mode_z_factors(ch)
    assert np.array_equal(stats.lam, ch.svd_g.sigma**2)
    assert np.array_equal(stats.om, ch.svd_h.sigma**2)
    assert np.array_equal(stats.z_plain, z_plain)
    assert np.array_equal(stats.z_comp, z_comp)
    assert np.array_equal(stats.alt_factor, optimize_batch(ch).snr_factor)


def test_pass_forms_only_the_bases_it_reads(monkeypatch):
    # the z factors read the right basis of G and the left basis of H
    drawn, formed = [], []
    draw, left_basis = montecarlo.channel_realizations, linalg2._left_basis

    def recorded_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    def recorded_left_basis(m, *args):
        formed.append(m)
        return left_basis(m, *args)

    monkeypatch.setattr(montecarlo, "channel_realizations", recorded_draw)
    monkeypatch.setattr(linalg2, "_left_basis", recorded_left_basis)
    channel_statistics(SEED, 3000, include_alt=True, chunk_size=1000)
    assert len(drawn) == 3
    assert all(any(m is ch.svd_h._m for m in formed) for ch in drawn)
    assert not any(m is ch.svd_g._m for ch in drawn for m in formed)
    assert all(ch.svd_h._v is None for ch in drawn)


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
    cdf = EmpiricalCdf([2.0, 2.0, 2.0])
    assert cdf(1.9) == 0.0
    assert cdf(2.0) == 1.0
    assert cdf(2.1) == 1.0


def test_empirical_cdf_uniform_ks():
    rng = np.random.default_rng(4)
    samples = rng.random(1_000_000)
    ks = EmpiricalCdf(samples).ks_distance(lambda x: np.clip(x, 0.0, 1.0))
    assert ks < 0.002


def test_alignment_factor_laws_from_channels():
    stats = channel_statistics(SEED, 300_000)
    ks_c = EmpiricalCdf(stats.z_comp[:, 0, 0]).ks_distance(
        lambda z: analytic.z_factor_cdf(z, True)
    )
    ks_p = EmpiricalCdf(stats.z_plain[:, 0, 1]).ks_distance(
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


def _factor_stats(f):
    """Statistics whose alt factor and j1i1 factor are both exactly ``f``."""
    f = np.asarray(f, dtype=np.float64)
    n = f.size
    lam = np.ones((n, 2))
    lam[:, 0] = f
    return TrialStats(
        seed=0, stream=0, trials=n, lam=lam, om=np.ones((n, 2)),
        z_plain=np.ones((n, 2, 2)), z_comp=np.ones((n, 2, 2)), alt_factor=f,
    )


def test_sorted_outage_counts_are_exact_at_the_boundary():
    # factors at th/gamma_bar and one and two ulps either side, with ties
    # and zeros; at some gamma_bar fl(gamma_bar * f) rounds across th
    th = 7.155094189435861
    gammas = np.concatenate([[0.0], np.geomspace(0.5, 700.0, 300)])
    c = th / gammas[1:]
    f = np.concatenate([
        c, c, c,
        np.nextafter(c, 0.0), np.nextafter(np.nextafter(c, 0.0), 0.0),
        np.nextafter(c, np.inf), np.nextafter(np.nextafter(c, np.inf), np.inf),
        np.full(50, c[7]), np.zeros(20),
    ])
    rng = np.random.default_rng(5)
    f = f[rng.permutation(f.size)]
    # the binary search alone would be off in both directions
    assert np.any(gammas[1:] * c > th)
    assert np.any(gammas[1:] * np.nextafter(c, np.inf) <= th)
    stats = _factor_stats(f)
    for threshold in (th, 1.0, 0.0, -1.0, np.inf):
        want = [np.count_nonzero(g * f <= threshold) / f.size for g in gammas]
        for scheme in (ALT, Mode(1, 1)):
            got = outage_from_stats(stats, scheme, gammas, threshold)
            assert [e.value for e in got] == want
            assert [outage_from_stats(stats, scheme, g, threshold) for g in gammas] == got


def test_sequence_reductions_equal_per_point_calls():
    stats = channel_statistics(SEED, 5000, include_alt=True)
    gammas = [10.0 ** (db / 10.0) for db in range(-5, 26, 3)]
    for scheme in (*MODES, ALT):
        f = scheme_snr_factor(stats, scheme)
        seq = throughput_from_stats(stats, scheme, gammas)
        assert seq == [throughput_from_stats(stats, scheme, g) for g in gammas]
        assert [e.value for e in seq] == [float(np.log1p(g * f).mean()) for g in gammas]
        outs = outage_from_stats(stats, scheme, gammas, 1.0)
        assert [e.value for e in outs] == [
            np.count_nonzero(g * f <= 1.0) / stats.trials for g in gammas
        ]


def test_reduction_input_validation():
    stats = channel_statistics(SEED, 1000)
    for bad in (-1.0, np.inf, np.nan, [[1.0]]):
        with pytest.raises(ValueError, match="gamma_bar"):
            outage_from_stats(stats, Mode(1, 1), bad, 1.0)
        with pytest.raises(ValueError, match="gamma_bar"):
            throughput_from_stats(stats, Mode(1, 1), bad)
    with pytest.raises(ValueError, match="gamma_th"):
        outage_from_stats(stats, Mode(1, 1), 1.0, np.nan)
    assert outage_from_stats(stats, Mode(1, 1), [], 1.0) == []


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stats_nbytes(stats):
    return sum(a.nbytes for a in (stats.lam, stats.om, stats.z_plain, stats.z_comp))


def test_pass_memory_is_the_statistics_plus_a_few_chunks():
    # the pass writes into preallocated arrays: its traced peak is the
    # statistics plus a bounded number of chunk temporaries, not a second
    # copy of the statistics or a few large chunks
    one, one_peak = _traced_peak(lambda: channel_statistics(SEED, 1 << 15, workers=1))
    chunk_temporaries = one_peak - _stats_nbytes(one)
    stats, peak = _traced_peak(lambda: channel_statistics(SEED, 1 << 18, workers=1))
    assert peak < _stats_nbytes(stats) + 2 * chunk_temporaries
