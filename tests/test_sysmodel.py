import numpy as np
import pytest

from ris2x2.linalg2 import svd2
from ris2x2.sampling import ChannelRealization, RngState, channel_realizations
from ris2x2.sysmodel import (
    MODES,
    Mode,
    alignment_factors,
    compensated_phases,
    instantaneous_snr,
    mode_vectors,
    mode_z_factors,
)

STATE = RngState(808, 0)
IDENTITY = np.ones(2, dtype=complex)


def _realization(g, h):
    return ChannelRealization(g=g, h=h, svd_g=svd2(g), svd_h=svd2(h))


def test_mode_vectors_diagonal_channels():
    ch = _realization(np.diag([3.0, 1.0]).astype(complex), np.diag([2.0, 1.0]).astype(complex))
    a, b = mode_vectors(ch, Mode(tx=1, rx=1))
    assert np.allclose(a, [1.0, 0.0])
    assert np.allclose(b, [1.0, 0.0])
    a2, b2 = mode_vectors(ch, Mode(tx=2, rx=2))
    assert np.allclose(a2, [0.0, 1.0])
    assert np.allclose(b2, [0.0, 1.0])


def test_mode_vectors_unit_norm():
    ch = channel_realizations(STATE, 500)
    for mode in (Mode(1, 1), Mode(2, 1), Mode(1, 2), Mode(2, 2)):
        a = ch.svd_h.v[:, :, mode.tx - 1]
        b = ch.svd_g.u[:, :, mode.rx - 1]
        assert np.abs((np.abs(a) ** 2).sum(axis=1) - 1.0).max() < 1e-13
        assert np.abs((np.abs(b) ** 2).sum(axis=1) - 1.0).max() < 1e-13


def test_compensated_phases_real_positive():
    phasors = compensated_phases(np.array([0.6, 0.8]), np.array([0.8, 0.6]))
    assert np.array_equal(phasors, IDENTITY)


def test_compensated_phases_direct_argument():
    v = np.array([1.0, 0.0])
    w = np.array([np.exp(1j * np.pi / 3), 0.0])
    phasors = compensated_phases(v, w)
    assert phasors[0] == pytest.approx(np.exp(-1j * np.pi / 3), abs=1e-15)
    assert phasors[1] == 1.0


def test_compensated_phases_achieve_triangle_bound():
    # the vectors a mode's phases align: a right singular vector of G and a
    # left singular vector of H
    ch = channel_realizations(STATE.child(1), 100_000)
    v, w = ch.svd_g.v[:, :, 0], ch.svd_h.u[:, :, 0]
    phasors = compensated_phases(v, w)
    assert np.abs(np.abs(phasors) - 1.0).max() < 1e-15
    achieved = np.abs(np.einsum("nk,nk,nk->n", np.conjugate(v), phasors, w)) ** 2
    bound = (np.abs(v) * np.abs(w)).sum(axis=1) ** 2
    assert np.abs(achieved - bound).max() < 1e-12


def test_instantaneous_snr_identity_chain():
    e1 = np.array([1.0, 0.0], dtype=complex)
    eye = np.eye(2, dtype=complex)
    val = instantaneous_snr(eye, eye, IDENTITY, e1, e1, gamma_bar=1.0)
    assert val == pytest.approx(1.0)


def test_instantaneous_snr_scales_linearly():
    ch = channel_realizations(STATE, 1)
    a, b = mode_vectors(ch, Mode(1, 1))
    phasors = np.exp(1j * np.array([0.3, -1.2]))
    one = instantaneous_snr(ch.g, ch.h, phasors, a, b, 1.0)
    two = instantaneous_snr(ch.g, ch.h, phasors, a, b, 2.0)
    assert one.shape == (1,)
    assert np.array_equal(two, 2.0 * one)


def test_instantaneous_snr_rejects_non_unit():
    eye = np.eye(2, dtype=complex)
    e1 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="unit vectors"):
        instantaneous_snr(eye, eye, IDENTITY, np.array([1.0, 1.0]), e1, 1.0)
    with pytest.raises(ValueError, match="unit vectors"):
        instantaneous_snr(eye, eye, IDENTITY, e1, np.array([[1.0, 0.0], [0.0, 2.0]]), 1.0)
    for phasors in ([1.0, 0.5], [1.0, np.nan]):
        with pytest.raises(ValueError, match="unit modulus"):
            instantaneous_snr(eye, eye, np.array(phasors), e1, e1, 1.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma_bar"):
            instantaneous_snr(eye, eye, IDENTITY, e1, e1, bad)


def test_snr_sum_form_identity():
    # |b^H G Phi H a|^2 equals the expansion over singular triplets
    ch = channel_realizations(STATE.child(3), 200)
    rng = np.random.default_rng(5)
    phasors = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(200, 2)))
    a, b = mode_vectors(ch, Mode(1, 1))
    direct = instantaneous_snr(ch.g, ch.h, phasors, a, b, 1.0)
    sg, sh = ch.svd_g, ch.svd_h
    left = np.einsum("nc,nck->nk", np.conjugate(b), sg.u) * sg.sigma  # b^H U_G S_G
    mid = np.einsum("nck,nc,ncl->nkl", np.conjugate(sg.v), phasors, sh.u)  # V_G^H Phi U_H
    right = sh.sigma * np.einsum("nck,nc->nk", np.conjugate(sh.v), a)  # S_H V_H^H a
    total = np.einsum("nk,nkl,nl->n", left, mid, right)
    assert np.all(np.abs(np.abs(total) ** 2 - direct) <= 1e-12 * np.maximum(direct, 1.0))


def _mode_configuration(ch, mode):
    """Tile phasors of a mode: identity, or matched to (v_j, w_i)."""
    if not mode.compensated:
        return IDENTITY
    return compensated_phases(ch.svd_g.v[..., :, mode.rx - 1], ch.svd_h.u[..., :, mode.tx - 1])


def test_snr_factorization_identity_on_a_stack():
    # gamma = gamma_bar * lambda_j * omega_i * z_ji, the SNR factorization of
    # the paper, for all eight modes on one stack of realizations
    gamma_bar = 2.0
    ch = channel_realizations(STATE.child(4), 10_000)
    lam = ch.svd_g.sigma**2
    om = ch.svd_h.sigma**2
    z_plain, z_comp = mode_z_factors(ch)
    for z in (z_plain, z_comp):
        assert z.min() >= 0.0 and z.max() <= 1.0
    # compensation never hurts, mode by mode
    assert np.all(z_comp >= z_plain - 1e-15)
    # |b^H G Phi H a|^2 carries the rounding of an amplitude of scale
    # sqrt(gamma_bar lambda_1 omega_1): every mode, j = 2 included, agrees to
    # 2.1e-15 * sqrt(factored * scale) at worst here (j = 2 reached 1.1e-14
    # while u_2 was formed as G v_2 / sigma_2)
    scale = gamma_bar * lam[:, 0] * om[:, 0]
    for mode in MODES:
        j, i = mode.rx - 1, mode.tx - 1
        z = z_comp if mode.compensated else z_plain
        factored = gamma_bar * lam[:, j] * om[:, i] * z[:, j, i]
        a, b = mode_vectors(ch, mode)
        direct = instantaneous_snr(ch.g, ch.h, _mode_configuration(ch, mode), a, b, gamma_bar)
        bound = 5e-15 * np.sqrt(factored * scale)
        assert np.all(np.abs(direct - factored) <= bound), mode.label
        if j == 0:
            assert np.allclose(direct, factored, rtol=1e-12, atol=0), mode.label
    # a stack of one is row k of the larger stack, bit for bit
    k = 1234
    one = channel_realizations(STATE.child(4), 1, start=k)
    z_one = mode_z_factors(one)
    assert np.array_equal(z_one[0][0], z_plain[k]) and np.array_equal(z_one[1][0], z_comp[k])
    for mode in MODES:
        row = instantaneous_snr(
            one.g, one.h, _mode_configuration(one, mode), *mode_vectors(one, mode), 1.0
        )
        full = instantaneous_snr(
            ch.g, ch.h, _mode_configuration(ch, mode), *mode_vectors(ch, mode), 1.0
        )
        assert np.array_equal(row, full[k : k + 1]), mode.label


def test_gauge_invariance_of_z_factors():
    # re-phasing singular-vector columns jointly keeps G and H, and so every
    # alignment factor and every mode SNR
    ch = channel_realizations(STATE.child(6), 10_000)
    rng = np.random.default_rng(0)
    pg = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(10_000, 1, 2)))
    ph = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(10_000, 1, 2)))
    base = mode_z_factors(ch)
    rotated = alignment_factors(ch.svd_g.v * pg, ch.svd_h.u * ph)
    for z0, z1 in zip(base, rotated):
        assert np.abs(z1 - z0).max() < 1e-14


def test_compensated_z_equals_angle_identity():
    ch = channel_realizations(STATE.child(7), 100_000)
    _, z_comp = mode_z_factors(ch)
    # the mixing angles of the singular bases, from the moduli of their
    # first columns
    xi = np.arctan2(np.abs(ch.svd_g.v[:, 1, 0]), np.abs(ch.svd_g.v[:, 0, 0]))
    psi = np.arctan2(np.abs(ch.svd_h.u[:, 1, 0]), np.abs(ch.svd_h.u[:, 0, 0]))
    same = np.cos(xi - psi) ** 2
    cross = np.sin(xi + psi) ** 2
    assert np.abs(z_comp[:, 0, 0] - same).max() < 1e-10
    assert np.abs(z_comp[:, 1, 1] - same).max() < 1e-10
    assert np.abs(z_comp[:, 1, 0] - cross).max() < 1e-10
    assert np.abs(z_comp[:, 0, 1] - cross).max() < 1e-10


def test_leading_mode_maximizes_average_snr():
    ch = channel_realizations(STATE.child(8), 100_000)
    z_plain, _ = mode_z_factors(ch)
    lam1 = ch.svd_g.sigma[:, 0] ** 2
    om1 = ch.svd_h.sigma[:, 0] ** 2
    best = (lam1 * om1 * z_plain[:, 0, 0]).mean()
    rng = np.random.default_rng(99)
    for _ in range(10):
        # channel-adapted competitor: fixed coefficients in the singular bases
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha /= np.linalg.norm(alpha)
        beta /= np.linalg.norm(beta)
        b = np.einsum("nij,j->ni", ch.svd_g.u, alpha)
        a = np.einsum("nij,j->ni", ch.svd_h.v, beta)
        competitor = instantaneous_snr(ch.g, ch.h, IDENTITY, a, b, 1.0).mean()
        assert best > competitor


def test_mean_orderings_monte_carlo():
    ch = channel_realizations(STATE.child(9), 200_000)
    z_plain, z_comp = mode_z_factors(ch)
    lam = ch.svd_g.sigma**2
    om = ch.svd_h.sigma**2
    n = lam.shape[0]
    for z in (z_plain, z_comp):
        g = {(j, i): lam[:, j - 1] * om[:, i - 1] * z[:, j - 1, i - 1] for j in (1, 2) for i in (1, 2)}
        d_top = g[(1, 1)] - g[(2, 1)]
        d_mid = g[(2, 1)] - g[(1, 2)]
        d_bot = g[(1, 2)] - g[(2, 2)]
        assert d_top.mean() > 3 * d_top.std(ddof=1) / np.sqrt(n)
        assert abs(d_mid.mean()) <= 3 * d_mid.std(ddof=1) / np.sqrt(n)
        assert d_bot.mean() > 3 * d_bot.std(ddof=1) / np.sqrt(n)


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode(0, 1)
    assert Mode(1, 2, True).label == "j2i1-cmp"
    # a bool or a float index would equal an int one and label another
    for bad in (True, 1.0, 2.0, "1", None):
        with pytest.raises(ValueError, match="integers 1 or 2"):
            Mode(bad, 1)
        with pytest.raises(ValueError, match="integers 1 or 2"):
            Mode(1, bad)
    mode = Mode(np.int64(2), np.int32(1))
    assert mode == Mode(2, 1) and mode.label == "j1i2"
    # a truthy string would be labelled and analysed as compensated
    for bad in ("no", "", 1, 0.0, None):
        with pytest.raises(ValueError, match="compensated must be a bool"):
            Mode(1, 1, bad)
    assert Mode(1, 1, np.bool_(True)).label == "j1i1-cmp"
