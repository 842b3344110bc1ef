import hashlib

import numpy as np
import pytest

from ris2x2.montecarlo import EmpiricalCdf
from ris2x2.sampling import RngState, channel_matrices, channel_realizations, eigen_draws

STATE = RngState(20240514, 0)


def test_fixed_seed_reproducible():
    g, h = channel_matrices(STATE, 1, start=5)
    assert g.shape == h.shape == (1, 2, 2)
    again = channel_matrices(STATE, 1, start=5)
    assert np.array_equal(g, again[0]) and np.array_equal(h, again[1])
    assert not np.array_equal(g, channel_matrices(STATE, 1, start=6)[0])


def test_chunked_generation_is_identical():
    whole = channel_matrices(STATE, 1000)
    parts = zip(channel_matrices(STATE, 300), channel_matrices(STATE, 700, start=300))
    for w, (a, b) in zip(whole, parts):
        assert np.array_equal(w, np.concatenate([a, b]))


def test_streams_are_distinct():
    a = channel_matrices(RngState(1, 0), 10)
    b = channel_matrices(RngState(1, 1), 10)
    assert not np.array_equal(a[0], b[0]) and not np.array_equal(a[1], b[1])


def test_seeds_and_streams_outside_64_bits_are_rejected():
    # they used to be masked to 64 bits, so 2^64 + 5 drew the trials of 5
    # and -1 those of 2^64 - 1; a float failed deep inside with a TypeError
    for bad in (-1, 2**64 + 5, 2**64, 1.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="seed must be an integer in"):
            RngState(bad)
        with pytest.raises(ValueError, match="stream must be an integer in"):
            RngState(1, bad)
    for good in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)):
        assert channel_matrices(RngState(good, good), 1)[0].shape == (1, 2, 2)


def test_sampler_windows_must_be_non_negative_integers():
    # a fractional window starts mid-draw: start=1.5 of the Gaussian draw is
    # counter block 6, whose first G would be pair 1's H; start=True would
    # read draw 1
    for sampler in (channel_matrices, channel_realizations, eigen_draws):
        for bad in (1.5, 0.5, True, -1, np.float64(2.0), "1", None):
            with pytest.raises(ValueError, match="start must be a non-negative integer"):
                sampler(STATE, 2, start=bad)
        for bad in (1.5, False, -2, np.float64(3.0)):
            with pytest.raises(ValueError, match="n must be a non-negative integer"):
                sampler(STATE, bad)
    for n, start in ((np.int64(3), np.uint64(2)), (3, np.int32(2))):
        assert np.array_equal(channel_matrices(STATE, n, start)[0], channel_matrices(STATE, 3, 2)[0])
        assert np.array_equal(eigen_draws(STATE, n, start)[2], eigen_draws(STATE, 3, 2)[2])


@pytest.mark.parametrize(
    "n, start, sha256",
    [
        (1000, 0, "a27180f6991e1857d864f44d9a8a105c926ef724471433984e7e737f2bdca86a"),
        (300_000, 7, "ea97e9511451174da399ac6529e0367afa09f0e3bd6a3208b927db09683d8a48"),
    ],
)
def test_channel_matrices_bits_are_pinned(n, start, sha256):
    # pinned bytes of the Box-Muller draw (g then h, C order): the demos and
    # the checks on simulated channels must see the same channels however
    # the formula is written
    g, h = channel_matrices(STATE, n, start=start)
    assert hashlib.sha256(g.tobytes() + h.tobytes()).hexdigest() == sha256


def test_gaussian_moments_large_sample():
    g = np.concatenate(channel_matrices(STATE, 500_000))
    assert np.abs(g.mean(axis=0)).max() < 4e-3
    assert np.abs((np.abs(g) ** 2).mean(axis=0) - 1.0).max() < 5e-3
    trace = (np.abs(g) ** 2).sum(axis=(1, 2)).mean()
    assert abs(trace - 4.0) < 2e-2


def _eigen_arrays(draw):
    """(l1, l2, c, s) of G^H G and of H H^H, then cos and sin of the
    relative phase, of an eigen_draws draw."""
    g, h, cos, sin = draw
    return (*g, *h, cos, sin)


def test_eigen_draws_are_windowed_and_keyed_by_stream():
    whole = _eigen_arrays(eigen_draws(STATE, 1000))
    parts = zip(
        _eigen_arrays(eigen_draws(STATE, 300)),
        _eigen_arrays(eigen_draws(STATE, 700, start=300)),
    )
    for w, (x, y) in zip(whole, parts):
        assert np.array_equal(w, np.concatenate([x, y]))
    assert not np.array_equal(whole[2], _eigen_arrays(eigen_draws(STATE.child(1), 1000))[2])


def test_eigen_draws_follow_the_wishart_eigen_laws():
    # per link 2 l2 ~ Exp(1), l1 - l2 ~ Gamma(3) and c^2 ~ U(0, 1), and the
    # relative phase is uniform, at the alpha = 1e-4 critical value
    n = 200_000
    (l1, l2, c, _), (w1, w2, ch, _), cos, sin = eigen_draws(STATE.child(41), n)
    alpha = 1e-4
    critical = np.sqrt(-np.log(alpha / 2.0) / 2.0) / np.sqrt(n)  # 0.0050

    def exp1(x):
        return -np.expm1(-x)

    def gamma3(x):
        return 1.0 - np.exp(-x) * (1.0 + x + x * x / 2.0)

    def uniform(x):
        return x

    theta = np.arctan2(sin, cos) / (2.0 * np.pi) % 1.0
    for name, x, cdf in (
        ("2 l2", 2.0 * l2, exp1),
        ("l1 - l2", l1 - l2, gamma3),
        ("cg^2", c * c, uniform),
        ("2 w2", 2.0 * w2, exp1),
        ("w1 - w2", w1 - w2, gamma3),
        ("ch^2", ch * ch, uniform),
        ("theta / 2 pi", theta, uniform),
    ):
        d = EmpiricalCdf(x).ks_distance(cdf)
        assert d < critical, (name, d, critical)


def test_channel_realization_caches_svd():
    ch = channel_realizations(STATE, 1, start=3)
    rec = ch.svd_g.u * ch.svd_g.sigma[..., None, :] @ ch.svd_g.v.conj().swapaxes(-1, -2)
    assert np.allclose(rec, ch.g, rtol=0, atol=1e-13)
    batch = channel_realizations(STATE, 10)
    assert np.array_equal(batch.g[3], ch.g[0])
    assert np.array_equal(batch.h[3], ch.h[0])

