import numpy as np
import pytest
from scipy.integrate import quad

from ris2x2.linalg2 import unitary_from_angles
from ris2x2.montecarlo import EmpiricalCdf
from ris2x2.sampling import (
    RngState,
    _matrices_from_uniforms,
    angle_diff_cdf,
    angle_diff_pdf,
    angle_sum_pdf,
    channel_realizations,
    gaussian_channels,
    haar_angles,
    haar_unitaries,
)

STATE = RngState(20240514, 0)


def test_fixed_seed_reproducible():
    a = gaussian_channels(STATE, 1, start=5)
    b = gaussian_channels(STATE, 1, start=5)
    assert a.shape == (1, 2, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gaussian_channels(STATE, 1, start=6))


def test_chunked_generation_is_identical():
    whole = gaussian_channels(STATE, 1000)
    parts = np.concatenate(
        [gaussian_channels(STATE, 300), gaussian_channels(STATE, 700, start=300)]
    )
    assert np.array_equal(whole, parts)


def test_streams_are_distinct():
    a = gaussian_channels(RngState(1, 0), 10)
    b = gaussian_channels(RngState(1, 1), 10)
    assert not np.array_equal(a, b)


def test_gaussian_moments_large_sample():
    g = gaussian_channels(STATE, 1_000_000)
    assert np.abs(g.mean(axis=0)).max() < 4e-3
    assert np.abs((np.abs(g) ** 2).mean(axis=0) - 1.0).max() < 5e-3
    trace = (np.abs(g) ** 2).sum(axis=(1, 2)).mean()
    assert abs(trace - 4.0) < 2e-2


def test_channel_realization_caches_svd():
    ch = channel_realizations(STATE, 1, start=3)
    rec = ch.svd_g.u * ch.svd_g.sigma[..., None, :] @ ch.svd_g.v.conj().swapaxes(-1, -2)
    assert np.allclose(rec, ch.g, rtol=0, atol=1e-13)
    batch = channel_realizations(STATE, 10)
    assert np.array_equal(batch.g[3], ch.g[0])
    assert np.array_equal(batch.h[3], ch.h[0])


def test_box_muller_entries_are_the_complex_sum_bit_for_bit():
    # the entries are written part by part; they must equal the former
    # construction (x + 1j y) / sqrt(2) from interleaved normals, signs of
    # zero included: a zero radius (u1 = 0) gave +0 in both parts even where
    # cos or sin of the angle is negative
    rng = np.random.default_rng(3)
    u = rng.random((20_000, 8))
    u[:40, 0::2] = 0.0
    u[:40, 1::2] = np.array([0.0, 0.3, 0.6, 0.9])  # all four sign patterns
    u[40:50, 1::2] = 0.0
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    ang = 2.0 * np.pi * u[:, 1::2]
    want = (r * np.cos(ang) + 1j * (r * np.sin(ang))) / np.sqrt(2.0)
    got = _matrices_from_uniforms(u).reshape(-1, 4)
    for part in ("real", "imag"):
        a, b = getattr(got, part), getattr(want, part)
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    zero = got[:40]
    assert np.all(zero == 0.0)
    assert not np.signbit(zero.real).any() and not np.signbit(zero.imag).any()


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
