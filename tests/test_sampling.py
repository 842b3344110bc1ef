import hashlib

import numpy as np
import pytest
from scipy.integrate import quad

from ris2x2.linalg2 import gram2, unitary_from_angles
from ris2x2.montecarlo import EmpiricalCdf
from ris2x2.sampling import (
    RngState,
    angle_diff_cdf,
    angle_diff_pdf,
    angle_sum_pdf,
    channel_matrices,
    channel_realizations,
    eigen_draws,
    eigen_realizations,
    haar_angles,
    haar_unitaries,
)

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
    samplers = (channel_matrices, channel_realizations, eigen_draws, eigen_realizations,
                haar_angles, haar_unitaries)
    for sampler in samplers:
        for bad in (1.5, 0.5, True, -1, np.float64(2.0), "1", None):
            with pytest.raises(ValueError, match="start must be a non-negative integer"):
                sampler(STATE, 2, start=bad)
        for bad in (1.5, False, -2, np.float64(3.0)):
            with pytest.raises(ValueError, match="n must be a non-negative integer"):
                sampler(STATE, bad)
    for n, start in ((np.int64(3), np.uint64(2)), (3, np.int32(2))):
        assert np.array_equal(channel_matrices(STATE, n, start)[0], channel_matrices(STATE, 3, 2)[0])
        assert np.array_equal(haar_angles(STATE, n, start).theta12, haar_angles(STATE, 3, 2).theta12)


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


def test_eigen_realizations_have_the_drawn_eigen_decompositions():
    # G = diag(sqrt l) V^H and H = W diag(sqrt w) with unitary V and W, so
    # G G^H = diag(l1, l2) and H^H H = diag(w1, w2); the drawn unit vectors
    # (cg, sg e^{-j theta}) and (ch, sh) are leading eigenvectors of G^H G
    # and H H^H.  Errors are measured against the trace, the size of the
    # matrices; the phase of a01 = (l1 - l2) cg sg e^{j theta} is as
    # accurate as (l1 - l2) relative to the trace.
    ch = eigen_realizations(STATE, 5000, start=7)
    g, h = ch.g, ch.h
    (l1, l2, cg, sg), (w1, w2, chh, sh), cos, sin = eigen_draws(STATE, 5000, start=7)
    phase = cos + 1j * sin
    for m, (e1, e2) in ((g @ np.conjugate(g).swapaxes(-1, -2), (l1, l2)),
                        (np.conjugate(h).swapaxes(-1, -2) @ h, (w1, w2))):
        want = np.zeros_like(m)
        want[:, 0, 0], want[:, 1, 1] = e1, e2
        assert np.all(np.abs(m - want).max(axis=(-1, -2)) <= 1e-15 * (e1 + e2))
    (a00, a11, a01), (b00, b11, b01) = gram2(g), gram2(h, left=True)
    for (x00, x11, x01), e1, e2, v in (
        ((a00, a11, a01), l1, l2, (cg, sg * np.conjugate(phase))),
        ((b00, b11, b01), w1, w2, (chh, sh)),
    ):
        r0 = x00 * v[0] + x01 * v[1] - e1 * v[0]
        r1 = np.conjugate(x01) * v[0] + x11 * v[1] - e1 * v[1]
        assert np.all(np.hypot(np.abs(r0), np.abs(r1)) <= 2e-15 * (e1 + e2))
    c = a01 * np.conjugate(b01)
    assert np.all(np.abs(c / np.abs(c) - phase) * (l1 - l2) <= 1e-15 * (l1 + l2))
    assert np.all(h.imag == 0.0)


def test_channel_realization_caches_svd():
    ch = channel_realizations(STATE, 1, start=3)
    rec = ch.svd_g.u * ch.svd_g.sigma[..., None, :] @ ch.svd_g.v.conj().swapaxes(-1, -2)
    assert np.allclose(rec, ch.g, rtol=0, atol=1e-13)
    batch = channel_realizations(STATE, 10)
    assert np.array_equal(batch.g[3], ch.g[0])
    assert np.array_equal(batch.h[3], ch.h[0])


def test_haar_draws_are_unitary():
    s = haar_unitaries(STATE.child(2), 1000)
    gram = np.einsum("nki,nkj->nij", np.conjugate(s), s) - np.eye(2)
    assert np.abs(gram).max() < 1e-13


def test_haar_mixing_angle_distribution():
    ang = haar_angles(STATE.child(2), 1_000_000)
    ks = EmpiricalCdf(ang.theta12).ks_distance(lambda t: np.sin(t) ** 2)
    assert ks < 0.0017


def test_haar_entry_moment():
    s = haar_unitaries(STATE.child(2), 1_000_000)
    assert abs((np.abs(s[:, 0, 0]) ** 2).mean() - 0.5) < 3e-3


def test_haar_left_invariance():
    # |(T S)_11|^2 must stay uniform on [0, 1] for any fixed unitary T
    from ris2x2.linalg2 import UnitaryAngles

    t = unitary_from_angles(UnitaryAngles(0.9, 0.6, 4.0, 2.5))
    s = haar_unitaries(STATE.child(9), 1_000_000)
    ts = np.einsum("ij,njk->nik", t, s)
    ks = EmpiricalCdf(np.abs(ts[:, 0, 0]) ** 2).ks_distance(
        lambda z: np.clip(z, 0.0, 1.0)
    )
    assert ks < 0.002


def test_angle_diff_pdf_values():
    assert angle_diff_pdf(0.0) == pytest.approx(np.pi / 4)
    x = np.linspace(-np.pi / 2, np.pi / 2, 101)
    assert np.allclose(angle_diff_pdf(x), angle_diff_pdf(-x))
    total, _ = quad(angle_diff_pdf, -np.pi / 2, np.pi / 2, epsabs=1e-12)
    assert abs(total - 1.0) < 1e-10
    assert angle_diff_pdf(2.0) == 0.0


def test_angle_sum_pdf_values():
    assert angle_sum_pdf(0.0) == 0.0
    # both branches meet at pi/2
    eps = 1e-9
    assert angle_sum_pdf(np.pi / 2 - eps) == pytest.approx(np.pi / 4, abs=1e-6)
    assert angle_sum_pdf(np.pi / 2) == pytest.approx(np.pi / 4, abs=1e-12)
    total, _ = quad(angle_sum_pdf, 0.0, np.pi, epsabs=1e-12)
    assert abs(total - 1.0) < 1e-10
    assert angle_sum_pdf(-0.5) == 0.0 and angle_sum_pdf(4.0) == 0.0


def test_angle_diff_cdf_matches_pdf():
    xs = np.linspace(-np.pi / 2, np.pi / 2, 41)
    for x in xs:
        # integrate piecewise: the density has a kink at zero
        if x <= 0.0:
            num, _ = quad(angle_diff_pdf, -np.pi / 2, x, epsabs=1e-13)
        else:
            lo, _ = quad(angle_diff_pdf, -np.pi / 2, 0.0, epsabs=1e-13)
            hi, _ = quad(angle_diff_pdf, 0.0, x, epsabs=1e-13)
            num = lo + hi
        assert angle_diff_cdf(x) == pytest.approx(num, abs=1e-10)


def test_empirical_angle_difference_law():
    a = haar_angles(STATE.child(21), 1_000_000).theta12
    b = haar_angles(STATE.child(22), 1_000_000).theta12
    ks = EmpiricalCdf(a - b).ks_distance(angle_diff_cdf)
    assert ks < 0.002


def test_empirical_angle_sum_law():
    a = haar_angles(STATE.child(23), 500_000).theta12
    b = haar_angles(STATE.child(24), 500_000).theta12
    grid = np.linspace(0.0, np.pi, 2049)
    pdf = angle_sum_pdf(grid)
    cdf_grid = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    ks = EmpiricalCdf(a + b).ks_distance(
        lambda x: np.interp(x, grid, cdf_grid / cdf_grid[-1])
    )
    assert ks < 0.003
