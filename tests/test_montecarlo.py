import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

import ris2x2.montecarlo
from ris2x2 import analytic
from ris2x2.acceptance import curve_rows
from ris2x2.linalg2 import channel_eigen, svd2
from ris2x2.montecarlo import (
    ALL_SCHEME_LABELS,
    ALT,
    SCHEMES,
    AltScheme,
    EmpiricalCdf,
    OutageCounter,
    TrialStats,
    channel_statistics,
    estimate_outage,
    estimate_throughput,
    gain_ratio,
    mode_gap_ratio,
    outage_from_stats,
    parse_scheme,
    scheme_snr_factor,
    throughput_from_stats,
    trial_statistics,
    wilson_halfwidth,
)
from ris2x2.sampling import RngState, channel_matrices, eigen_draws
from ris2x2.sysmodel import MODES, Mode, alignment_factors

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
    base = channel_statistics(SEED, 20_000)
    for workers, chunk in ((4, 1 << 11), (16, 1 << 9)):
        other = channel_statistics(SEED, 20_000, workers=workers, chunk_size=chunk)
        assert np.array_equal(base.lam, other.lam)
        assert np.array_equal(base.om, other.om)
        assert np.array_equal(base.z_plain, other.z_plain)
        assert np.array_equal(base.z_comp, other.z_comp)
        assert np.array_equal(base.alt_factor, other.alt_factor)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("chunk", [1 << 15, 1000, 1 << 9])
def test_pass_is_the_realization_pipeline(workers, chunk):
    # the pass is trial_statistics of the eigen draws, bit for bit, however
    # it is chunked; that channel_eigen reduces channel matrices to those
    # inputs is held on Gaussian channels by the large-stack test below
    trials = 5000
    stats = channel_statistics(SEED, trials, workers=workers, chunk_size=chunk)
    want = trial_statistics(*eigen_draws(RngState(SEED), trials))
    for name, column in zip(("lam", "om", "z_plain", "z_comp", "alt_factor"), want):
        assert np.array_equal(getattr(stats, name), column), name


def test_gram_factors_match_the_singular_bases_on_a_large_stack():
    g, h = channel_matrices(RngState(SEED, 5), 100_000)
    lam, om, z_plain, z_comp, _ = trial_statistics(*channel_eigen(g, h))
    svd_g, svd_h = svd2(g), svd2(h)
    full = alignment_factors(svd_g.v, svd_h.u)
    for pair, z in zip((z_plain, z_comp), full):
        for j in (0, 1):
            for i in (0, 1):
                assert np.abs(pair[:, int(i != j)] - z[:, j, i]).max() <= 1e-12
    assert np.allclose(lam, svd_g.sigma**2, rtol=2e-15, atol=0)
    assert np.allclose(om, svd_h.sigma**2, rtol=2e-15, atol=0)


def _ks_two_sample(x, y):
    """Two-sample Kolmogorov-Smirnov distance of two 1-D samples."""
    x, y = np.sort(x), np.sort(y)
    points = np.concatenate([x, y])
    fx = np.searchsorted(x, points, side="right") / x.size
    fy = np.searchsorted(y, points, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def test_eigen_pass_matches_gaussian_channel_draws():
    # the pass draws eigen-decompositions, never channels; its statistics
    # must have the law of those of CN(0, 1) channel draws, here on a stream
    # of their own (the pass runs on stream 0)
    n = 200_000
    stats = channel_statistics(SEED, n)
    gauss = trial_statistics(*channel_eigen(*channel_matrices(RngState(SEED, 32), n)))
    ours = (stats.lam, stats.om, stats.z_plain, stats.z_comp, stats.alt_factor[:, None])
    alpha = 1e-4
    critical = np.sqrt(-np.log(alpha / 2.0) / 2.0) * np.sqrt(2.0 / n)  # 0.0070
    for name, x, y in zip(("lam", "om", "z_plain", "z_comp", "alt"), ours, gauss):
        y = y.reshape(n, -1)
        for k in range(y.shape[1]):
            d = _ks_two_sample(x[:, k], y[:, k])
            assert d < critical, (name, k, d, critical)


def test_statistics_read_only_moduli_and_the_relative_phase():
    # independent phases on the columns of G and the rows of H (G^H G and
    # H H^H conjugated by diagonal unitaries) move no statistic but the
    # fixed-surface z factors; one diagonal unitary on both, G D and D^H H,
    # leaves G Phi H and so every statistic as it was
    g, h = channel_matrices(RngState(SEED, 33), 20_000)
    phases = np.exp(2j * np.pi * np.random.default_rng(5).random((3, 20_000, 1, 2)))
    base = trial_statistics(*channel_eigen(g, h))
    turned = trial_statistics(*channel_eigen(g * phases[0], phases[1].swapaxes(-1, -2) * h))
    common = trial_statistics(
        *channel_eigen(g * phases[2], np.conjugate(phases[2]).swapaxes(-1, -2) * h)
    )
    # lam and om against the trace: on Gaussian channels |det|^2, and so
    # the smaller eigenvalue det / l1, cancels to about eps * trace
    for k in (0, 1):
        assert np.all(np.abs(turned[k] - base[k]) <= 1e-14 * base[k].sum(axis=1, keepdims=True))
    assert np.allclose(turned[4], base[4], rtol=1e-14, atol=0)  # alt_factor
    assert np.abs(turned[3] - base[3]).max() <= 1e-12  # z_comp
    assert np.abs(common[2] - base[2]).max() <= 1e-12  # z_plain
    assert np.abs(turned[2] - base[2]).max() > 0.5


def _mp_trial_statistics(mp, g, h):
    """(lam, om, z_plain, z_comp, alt, kappa) of one pair from a 40-digit
    eigendecomposition of G^H G and H H^H: z pairs the leading eigenvector
    of G^H G with the leading (matched) and the second (crossed)
    eigenvector of H H^H.  A Gram matrix that is a multiple of the identity
    takes the canonical basis, whose e_1 the pass takes too.  kappa = 1 +
    sum of (e1 + e2) / (e1 - e2) over the other Gram matrices bounds the
    growth of rounding errors in the leading vectors."""
    with mp.workdps(40):
        gm = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in g])
        hm = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in h])
        a, b = gm.H * gm, hm * hm.H
        kappa = 1
        pairs, bases = [], []
        for m in (a, b):
            e, q = mp.eighe(m)  # ascending eigenvalues
            pairs.append([e[1], e[0]])
            if m[0, 1] == 0 and m[0, 0] == m[1, 1]:
                bases.append([(mp.mpc(1), mp.mpc(0)), (mp.mpc(0), mp.mpc(1))])
            else:
                bases.append([(q[0, 1], q[1, 1]), (q[0, 0], q[1, 0])])
                kappa += (e[1] + e[0]) / (e[1] - e[0])
        (vx, vy), _ = bases[0]
        z_plain = [abs(mp.conj(vx) * wx + mp.conj(vy) * wy) ** 2 for wx, wy in bases[1]]
        z_comp = [(abs(vx) * abs(wx) + abs(vy) * abs(wy)) ** 2 for wx, wy in bases[1]]
        # the optimum from its definition: sigma_max^2 of G Phi* H
        c = a[0, 1] * mp.conj(b[0, 1])
        rel = mp.conj(c) / abs(c) if c != 0 else mp.mpc(1)
        m = gm * mp.diag([1, rel]) * hm
        alt = max(mp.eighe(m.H * m)[0])
        return [np.array([float(x) for x in v]) for v in (*pairs, z_plain, z_comp, [alt], [kappa])]


def _near_degenerate_cases():
    rng = np.random.default_rng(11)

    def draws(n, gen=rng):
        return (gen.standard_normal((n, 2, 2)) + 1j * gen.standard_normal((n, 2, 2))) / np.sqrt(2)

    # Gram matrices that are exact multiples of the identity
    scaled_unitary = np.array([[[1, 1j], [1j, 1]], [[2, 0], [0, 2]]], dtype=complex)
    other = np.array([[[1, -1], [1, 1]], [[0, 3j], [3, 0]]], dtype=complex)
    yield scaled_unitary, draws(2)
    yield draws(2), other
    yield scaled_unitary, other
    # singular values 1 and 1 + delta
    u, v = (np.linalg.qr(draws(4, np.random.default_rng(seed))).Q for seed in (6, 7))
    for delta in (1e-2, 1e-4, 1e-6, 1e-8):
        near = u * np.array([1.0, 1.0 + delta]) @ np.conjugate(v).swapaxes(-1, -2)
        yield near, draws(4)
        yield draws(4), near
    # z -> 0: v = e_1 and w at angle s from e_2
    s = np.array([1e-3, 1e-6, 1e-9])
    yield (
        np.broadcast_to(np.diag([2.0, 1.0]).astype(complex), (3, 2, 2)),
        np.array([[[1, -3 * x], [x, 3]] for x in s], dtype=complex),
    )
    # the smallest matched and crossed z_plain of 2^15 draws (5.6e-7 to 7.7e-5)
    g, h = channel_matrices(RngState(1729), 1 << 15)
    z = trial_statistics(*channel_eigen(g, h))[2]
    pick = np.concatenate([np.argsort(z[:, 0])[:4], np.argsort(z[:, 1])[:4]])
    yield g[pick], h[pick]
    # zero entries, diagonal Gram matrices either way round
    g, h = draws(4), draws(4)
    g[0, 0, 1] = g[1, 1, 0] = h[0, 1, 0] = h[1, 0, 0] = h[2, 0, 1] = 0.0
    g[2], g[3] = np.diag([0.5, 2.0]), np.diag([2.0, 0.5j])
    yield g, h


def test_gram_factors_match_a_40_digit_eigendecomposition():
    # rounding moves a leading eigenvector by about eps * kappa, so z moves
    # by about eps * sqrt(z) * kappa; measured up to 2e-16 * sqrt(z) * kappa
    mp = pytest.importorskip("mpmath").mp
    checked = 0
    for g, h in _near_degenerate_cases():
        got = trial_statistics(*channel_eigen(g, h))
        for k in range(g.shape[0]):
            lam, om, z_plain, z_comp, alt, kappa = _mp_trial_statistics(mp, g[k], h[k])
            for value, ref in ((got[0][k], lam), (got[1][k], om), (got[4][k], alt)):
                assert np.all(np.abs(value - ref) <= 2e-15 * ref), (k, value, ref)
            for value, ref in ((got[2][k], z_plain), (got[3][k], z_comp)):
                assert np.all(np.abs(value - ref) <= 2e-15 * np.sqrt(ref) * kappa), (k, value, ref)
            checked += 1
    assert checked == 53


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


def test_trials_validation():
    with pytest.raises(ValueError):
        estimate_outage(Mode(1, 1), 1.0, 1.0, trials=50, seed=1)
    with pytest.raises(ValueError):
        channel_statistics(1, 0)
    # a chunk size below 1 would leave the stored pass uninitialized
    for chunk in (0, -1):
        with pytest.raises(ValueError, match="chunk_size"):
            channel_statistics(1, 100, chunk_size=chunk)


def test_seeds_outside_64_bits_are_rejected_before_any_trial():
    for bad in (-1, 2**64 + 5, 1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer in"):
            channel_statistics(bad, 100)


def test_worker_counts_below_one_are_rejected():
    # they used to run the pass serially without a word
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            channel_statistics(1, 100, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            estimate_outage(Mode(1, 1), 1.0, 1.0, trials=100, seed=1, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            estimate_throughput(Mode(1, 1), 1.0, trials=100, seed=1, workers=workers)


def test_non_integer_trials_are_rejected():
    # a float count used to fail with a bare TypeError from range()
    for trials in (1000.0, 1e3, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            channel_statistics(1, trials)
        with pytest.raises(ValueError, match="trials must be an integer"):
            estimate_outage(Mode(1, 1), 1.0, 1.0, trials=trials, seed=1)
        with pytest.raises(ValueError, match="trials must be an integer"):
            estimate_throughput(Mode(1, 1), 1.0, trials=trials, seed=1)
    # numpy integers are counts too
    assert channel_statistics(1, np.int64(100)).trials == 100


def test_wilson_rejects_hits_outside_the_trials():
    # wilson_halfwidth(5, 3) used to return NaN with a RuntimeWarning
    for hits, trials in ((5, 3), (-1, 10)):
        with pytest.raises(ValueError, match="hits must be in"):
            wilson_halfwidth(hits, trials)
    assert wilson_halfwidth(3, 3) > 0.0


def test_throughput_needs_two_stored_trials():
    # a one-trial pass used to give a NaN half-width and numpy's "Degrees of
    # freedom <= 0" warning; the half-width is a float, like outage's
    with pytest.raises(ValueError, match="at least 2 trials"):
        throughput_from_stats(channel_statistics(1, 1), Mode(1, 1), 10.0)
    stats = channel_statistics(1, 2)
    for estimate in (throughput_from_stats(stats, Mode(1, 1), 10.0),
                     outage_from_stats(stats, Mode(1, 1), 10.0, 1.0)):
        assert type(estimate.ci_half_width) is float and np.isfinite(estimate.ci_half_width)
    assert all(type(e.ci_half_width) is float for e in throughput_from_stats(stats, ALT, [1.0, 10.0]))


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


def test_empirical_cdf_rejects_nan_samples():
    # a NaN sorted to the end and skewed the CDF and the KS distance
    with pytest.raises(ValueError, match="NaN"):
        EmpiricalCdf([0.1, np.nan, 0.5])


def test_empirical_cdf_is_nan_at_nan():
    # NaN sorts past every sample, so the search put it at 1.0
    cdf = EmpiricalCdf([1.0, 2.0])
    assert np.isnan(cdf(np.nan))
    values = cdf([0.5, np.nan, 1.5, 3.0])
    assert np.array_equal(values, [0.0, np.nan, 0.5, 1.0], equal_nan=True)


def test_empirical_cdf_uniform_ks():
    rng = np.random.default_rng(4)
    samples = rng.random(1_000_000)
    ks = EmpiricalCdf(samples).ks_distance(lambda x: np.clip(x, 0.0, 1.0))
    assert ks < 0.002


def test_blocked_ks_distance_is_the_whole_array_distance():
    # three whole blocks and a short one; the maximum over the blocks is
    # the maximum of the whole-array formula, bit for bit
    n = 3 * ris2x2.montecarlo._KS_BLOCK + 5
    samples = np.random.default_rng(8).random(n)

    def law(z):
        return analytic.z_factor_cdf(z, True)

    ref = law(np.sort(samples))
    steps = np.arange(n + 1) / n
    want = float(max(np.max(steps[1:] - ref), np.max(ref - steps[:-1])))
    assert EmpiricalCdf(samples).ks_distance(law) == want


def test_ks_distance_memory_does_not_grow_with_the_sample():
    # the reference is evaluated a block of sorted samples at a time: on
    # 10^6 samples the compensated law's temporaries held about 85 MB at
    # once, and now hold about 13 block-length columns
    cdf = EmpiricalCdf(np.random.default_rng(9).random(1_000_000))
    column = np.dtype(np.float64).itemsize * ris2x2.montecarlo._KS_BLOCK
    _, peak = _traced_peak(lambda: cdf.ks_distance(lambda z: analytic.z_factor_cdf(z, True)))
    assert peak <= 24 * column, peak / column


def test_alignment_factor_laws_from_channels():
    stats = channel_statistics(SEED, 300_000)
    ks_c = EmpiricalCdf(stats.z_comp[:, 0]).ks_distance(
        lambda z: analytic.z_factor_cdf(z, True)
    )
    ks_p = EmpiricalCdf(stats.z_plain[:, 1]).ks_distance(
        lambda z: analytic.z_factor_cdf(z, False)
    )
    assert ks_c < 0.0037  # 0.002 * sqrt(1e6 / 3e5)
    assert ks_p < 0.0037


def test_scheme_parsing_round_trip():
    assert list(SCHEMES.values()) == [*MODES, ALT]
    assert ALL_SCHEME_LABELS == tuple(SCHEMES)
    for label, scheme in SCHEMES.items():
        assert scheme.label == label
        assert parse_scheme(scheme.label) is scheme
    assert parse_scheme(" J2I1-CMP ") == Mode(tx=1, rx=2, compensated=True)
    assert isinstance(parse_scheme("ALT"), AltScheme)
    for bad in ("j1i1-", "j3i1", "j1i1-xyz"):
        with pytest.raises(ValueError, match="unknown scheme name"):
            parse_scheme(bad)
    # a non-string raised AttributeError from .strip()
    for bad in (3, None):
        with pytest.raises(ValueError, match="scheme name must be a string"):
            parse_scheme(bad)


def test_gain_ratio_interval_is_the_covariance_delta_method():
    # the residual form of the delta method equals the textbook one from
    # the 2x2 sample covariance of the two means, up to rounding
    stats = channel_statistics(SEED, 50_000)
    zc, zp = stats.z_comp[:, 0], stats.z_plain[:, 0]
    ratio = zc.mean() / zp.mean()
    cov = np.cov(zc, zp, ddof=1) / stats.trials
    var = ratio**2 * (
        cov[0, 0] / zc.mean() ** 2
        + cov[1, 1] / zp.mean() ** 2
        - 2.0 * cov[0, 1] / (zc.mean() * zp.mean())
    )
    gain = gain_ratio(stats)
    assert gain.value == float(ratio)
    assert gain.ci_half_width == pytest.approx(1.959963984540054 * np.sqrt(var), rel=1e-12)
    with pytest.raises(ValueError, match="at least 2 trials"):
        gain_ratio(channel_statistics(SEED, 1))
    g11 = scheme_snr_factor(stats, Mode(1, 1))
    assert mode_gap_ratio(stats) == float(g11.mean() / scheme_snr_factor(stats, Mode(1, 2)).mean())


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
        trials=n, lam=lam, om=np.ones((n, 2)),
        z_plain=np.ones((n, 2)), z_comp=np.ones((n, 2)), alt_factor=f,
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


def _boundary_pass(th, gammas, schemes, block=4096, seed=11):
    """A hand-made pass in which each scheme's factor sits, on its own block
    of trials, at th / gamma_bar for its own share of ``gammas`` (every
    len(schemes)-th point), one and two ulps either side, on ties and at
    zero, over lognormal filler; every other scheme's factor there is 0.
    Trials are shuffled, so that every chunk holds some of each block."""
    rng = np.random.default_rng(seed)
    n = len(schemes) * block
    stats = TrialStats(n, *[np.zeros((n, 2)) for _ in range(4)], np.zeros(n))
    for r, scheme in enumerate(schemes):
        c = th / gammas[1 + r :: len(schemes)]
        down, up = np.nextafter(c, 0.0), np.nextafter(c, np.inf)
        f = np.concatenate([
            c, c, down, np.nextafter(down, 0.0), up, np.nextafter(up, np.inf),
            np.full(40, c[r % c.size]), np.zeros(10),
        ])
        f = np.concatenate([f, rng.lognormal(0.0, 1.5, block - f.size)])
        rows = slice(r * block, (r + 1) * block)
        if isinstance(scheme, AltScheme):
            stats.alt_factor[rows] = f
            continue
        j, i = scheme.rx - 1, scheme.tx - 1
        z = stats.z_comp if scheme.compensated else stats.z_plain
        stats.lam[rows, j] = f
        stats.om[rows, i] = 1.0
        z[rows, int(i != j)] = 1.0
    order = rng.permutation(n)
    return TrialStats(n, *[getattr(stats, name)[order] for name in ris2x2.montecarlo._COLUMNS])


@pytest.mark.parametrize("chunk", [1 << 11, 1 << 13, 1 << 14])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_block_counts_are_exact_at_every_rows_own_boundary(chunk, workers):
    # all nine schemes counted in one block per chunk: the exactness check
    # and the steps across ties must each read their own row
    th = 7.155094189435861
    gammas = np.concatenate([[0.0], np.geomspace(0.5, 700.0, 540)])
    schemes = [*MODES, ALT]
    stats = _boundary_pass(th, gammas, schemes)
    factors = [scheme_snr_factor(stats, s) for s in schemes]
    # the rows' blocks are disjoint; the binary search alone would be off
    # on every row, and in both directions on some
    assert np.all(np.count_nonzero(factors, axis=0) <= 1)
    shares = [gammas[1 + r :: len(schemes)] for r in range(len(schemes))]
    assert all(np.any(g * (th / g) > th) for g in shares)
    assert sum(np.any(g * np.nextafter(th / g, np.inf) <= th) for g in shares) >= 3
    counter = OutageCounter(schemes, gammas, th)

    def count(lo):
        part = [getattr(stats, name)[lo : lo + chunk] for name in ris2x2.montecarlo._COLUMNS]
        counter(lo, TrialStats(min(chunk, stats.trials - lo), *part))

    ris2x2.montecarlo._thread_map(count, range(0, stats.trials, chunk), workers)
    assert counter.trials == stats.trials
    want = np.array([[np.count_nonzero(g * f <= th) for g in gammas] for f in factors])
    assert np.array_equal(counter.hits, want)
    for scheme, row in zip(schemes, counter.hits):
        single = OutageCounter([scheme], gammas, th)
        single(0, stats)
        assert np.array_equal(single.hits[0], row)


def test_outage_counts_at_extreme_gamma_bars_raise_no_warning():
    # th / gamma_bar overflows (1 / 5e-324), divides by zero (1 / 0) and is
    # 0 / 0 here; the search lands at an end and the counts stay exact
    stats = channel_statistics(SEED, 1000)
    gammas = [0.0, 5e-324, 1e-320, 1e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in (ALT, Mode(1, 1)):
            f = scheme_snr_factor(stats, scheme)
            for threshold in (-1.0, 0.0, 1.0, np.inf):
                got = outage_from_stats(stats, scheme, gammas, threshold)
                want = [np.count_nonzero(g * f <= threshold) / f.size for g in gammas]
                assert [e.value for e in got] == want


def test_sequence_reductions_equal_per_point_calls():
    stats = channel_statistics(SEED, 5000)
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
    arrays = (stats.lam, stats.om, stats.z_plain, stats.z_comp, stats.alt_factor)
    return sum(a.nbytes for a in arrays)


def test_pass_memory_is_the_statistics_plus_a_few_chunks():
    # the pass writes into preallocated arrays: its traced peak is the
    # statistics plus a bounded number of chunk temporaries, not a second
    # copy of the statistics or a few large chunks
    one, one_peak = _traced_peak(lambda: channel_statistics(SEED, 1 << 15, workers=1))
    chunk_temporaries = one_peak - _stats_nbytes(one)
    stats, peak = _traced_peak(lambda: channel_statistics(SEED, 1 << 18, workers=1))
    assert peak < _stats_nbytes(stats) + 2 * chunk_temporaries


def test_streamed_outage_sweep_memory_does_not_grow_with_trials():
    # the outage sweep counts each chunk and keeps only the counts: its
    # traced peak is the chunks in flight, not the statistics of the pass.
    # On one worker one chunk is in flight at a time, so the peak must not
    # grow with the trials; on two, at most two are, but how far their
    # peaks overlap depends on thread timing, so that sweep is bounded by
    # twice the one-worker peak
    def sweep(trials, workers):
        run = partial(channel_statistics, SEED, trials, workers=workers)
        return curve_rows(run, ALL_SCHEME_LABELS, range(-5, 26, 5), 1.0, "outage")

    sweep(1 << 12, 1)  # the analytic column builds its cached nodes once
    _, small = _traced_peak(lambda: sweep(1 << 17, 1))
    _, large = _traced_peak(lambda: sweep(1 << 19, 1))
    assert large <= 1.15 * small, (large, small)
    _, two = _traced_peak(lambda: sweep(1 << 19, 2))
    assert two <= 1.15 * 2 * small, (two, small)


def test_streamed_sweep_peaks_at_a_few_chunk_columns():
    # a one-worker streamed sweep of all 9 schemes draws, reduces and
    # counts one chunk at a time in plain numpy temporaries, so its traced
    # peak is a bounded number of chunk-length float64 columns at any
    # number of trials (24 at chunks of 2^14 and of 2^13 trials when this
    # was written)
    column = np.dtype(np.float64).itemsize * ris2x2.montecarlo._CHUNK_SIZE
    gammas = [10.0 ** (db / 10.0) for db in range(-5, 26)]
    for trials in (1 << 17, 1 << 19):
        counter = OutageCounter([*MODES, ALT], gammas, 1.0)
        _, peak = _traced_peak(
            lambda: channel_statistics(SEED, trials, workers=1, consume=counter)
        )
        assert counter.trials == trials
        assert peak <= 36 * column, (trials, peak / column)


def test_counting_leaves_a_stored_pass_unchanged():
    # the alt factor is the stored column itself: a counter that sorted it
    # in place would reorder alt_factor for the checks that read it next
    columns = ("lam", "om", "z_plain", "z_comp", "alt_factor")
    chunks = []
    channel_statistics(SEED, 5000, chunk_size=1 << 10, consume=lambda lo, c: chunks.append(c))
    assert len(chunks) == 5
    assert all(getattr(c, name).dtype == np.float64 for c in chunks for name in columns)
    stats = channel_statistics(SEED, 5000)
    before = [getattr(stats, name).tobytes() for name in columns]
    OutageCounter([*MODES, ALT], [1.0, 10.0], 1.0)(0, stats)
    assert [getattr(stats, name).tobytes() for name in columns] == before


def test_counter_refuses_estimates_before_any_trial():
    counter = OutageCounter([*MODES, ALT], [1.0, 10.0], 1.0)
    with pytest.raises(ValueError, match="no trials were counted"):
        counter.estimates()


def test_streamed_counts_equal_the_stored_pass():
    trials = 20_000
    gammas = [10.0 ** (db / 10.0) for db in range(-5, 26, 3)]
    schemes = [*MODES, ALT]
    stats = channel_statistics(SEED, trials)
    want = [outage_from_stats(stats, scheme, gammas, 1.0) for scheme in schemes]
    counter = OutageCounter(schemes, gammas, 1.0)
    assert channel_statistics(SEED, trials, workers=16, chunk_size=1 << 9, consume=counter) is None
    assert counter.trials == trials
    assert counter.estimates() == want
    assert estimate_outage(MODES[3], gammas, 1.0, trials, SEED, workers=3) == want[3]


def test_counter_totals_survive_thread_contention():
    # one small chunk counted 2000 times on 16 threads that switch every
    # microsecond: a lost update of the shared totals shows in either
    chunk = channel_statistics(SEED, 64)
    gammas = [10.0 ** (db / 10.0) for db in range(-5, 26, 3)]
    once = OutageCounter([*MODES, ALT], gammas, 1.0)
    once(0, chunk)
    counter = OutageCounter([*MODES, ALT], gammas, 1.0)
    calls = 2000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(lambda lo: counter(lo, chunk), range(calls)))
    finally:
        sys.setswitchinterval(interval)
    assert counter.trials == calls * chunk.trials
    assert np.array_equal(counter.hits, calls * once.hits)


def test_throughput_sweep_does_not_depend_on_its_threads(monkeypatch):
    stats = channel_statistics(SEED, 5000)
    rows = []
    for cpus in (1, 4):
        monkeypatch.setattr(ris2x2.montecarlo, "_cpu_count", lambda cpus=cpus: cpus)
        rows.append(curve_rows(stats, ALL_SCHEME_LABELS, range(-5, 26, 10), 0.0, "throughput"))
    assert rows[0] == rows[1]


def test_thread_map_works_on_the_caller_and_keeps_input_order():
    # one barrier party per item: the items run at once, each on its own
    # thread, the calling one among them, and no more threads than items
    # are started however many workers are asked for
    before = threading.active_count()
    caller = threading.get_ident()
    items = list(range(4))
    barrier = threading.Barrier(len(items), timeout=10)
    seen, counts = [], []

    def fn(x):
        seen.append(threading.get_ident())
        counts.append(threading.active_count())
        barrier.wait()
        return x * x

    for workers in (len(items), len(items) + 3):
        seen.clear()
        counts.clear()
        assert ris2x2.montecarlo._thread_map(fn, iter(items), workers) == [x * x for x in items]
        assert len(set(seen)) == len(items) and caller in seen
        assert max(counts) == before + len(items) - 1
        assert threading.active_count() == before
    # one worker runs inline, in order
    order = []
    out = ris2x2.montecarlo._thread_map(lambda x: order.append(threading.get_ident()) or -x, items, 1)
    assert out == [-x for x in items]
    assert order == [caller] * len(items)


class _ItemFailed(Exception):
    pass


@pytest.mark.parametrize("on_caller", [False, True], ids=["helper", "caller"])
def test_thread_map_reraises_a_failure_once_its_helpers_have_joined(on_caller):
    # the failing item runs on the helper or on the caller; the other
    # thread's items wait until it has raised, so each thread takes one,
    # and the failure stops both from taking the rest
    before = threading.active_count()
    caller = threading.get_ident()
    raised = threading.Event()
    calls = []

    def fn(x):
        calls.append(x)
        if (threading.get_ident() == caller) == on_caller:
            raised.set()
            raise _ItemFailed(x)
        assert raised.wait(10)
        return x

    items = range(100_000)
    with pytest.raises(_ItemFailed):
        ris2x2.montecarlo._thread_map(fn, items, workers=2)
    assert threading.active_count() == before
    assert len(calls) < len(items)
