import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from ris2x2 import special
from ris2x2.analytic import throughput_closed_r22, throughput_closed_r22_cmp, weighted_bessel_integral
from ris2x2.special import (
    MeijerParams,
    QuadratureError,
    bessel_k,
    log_gamma,
    meijer_g,
)


def _bessel_integral_oracle(order, x):
    """K_order(x) = int_0^inf exp(-x cosh t) cosh(order t) dt."""
    import warnings
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        # the oracle asks for near-machine tolerances; roundoff chatter is fine
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda t: np.exp(-x * np.cosh(t)) * np.cosh(order * t),
            0.0,
            40.0,
            epsabs=1e-15,
            epsrel=1e-14,
            limit=400,
        )
    return val


# The closed forms take K_n from special.bessel_k; these checks pin the
# values their Bessel terms are built from.


def test_bessel_k_against_integral_representation():
    for order, x in [(0, 1.0), (1, 1.0), (2, 0.5), (0, 0.1), (1, 10.0), (2, 3.0)]:
        oracle = _bessel_integral_oracle(order, x)
        assert bessel_k(order, x) == pytest.approx(oracle, rel=1e-12)


def test_bessel_k0_at_one():
    # frozen from the integral-representation oracle
    assert bessel_k(0, 1.0) == pytest.approx(0.42102443824070834, rel=1e-13)


def test_bessel_recurrence():
    for x in (0.1, 1.0, 10.0):
        lhs = bessel_k(2, x)
        rhs = bessel_k(0, x) + (2.0 / x) * bessel_k(1, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_bessel_asymptotic_form():
    # K0(x) ~ sqrt(pi/(2x)) e^{-x} (1 - 1/(8x) + ...); at x = 20 the
    # leading-order product deviates by 1/(8x) ~ 6.1e-3 (oracle-computed)
    prod20 = bessel_k(0, 20.0) * np.exp(20.0) * np.sqrt(40.0 / np.pi)
    assert prod20 == pytest.approx(1.0, abs=1e-2)
    assert prod20 == pytest.approx(1.0 - 1.0 / 160.0, abs=2e-4)
    prod200 = bessel_k(0, 200.0) * np.exp(200.0) * np.sqrt(400.0 / np.pi)
    assert prod200 == pytest.approx(1.0, abs=1e-3)


def test_bessel_monotone_positive():
    xs = np.linspace(0.05, 12.0, 200)
    vals = np.array([bessel_k(1, x) for x in xs])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    # log-convex: midpoint inequality on the grid
    lv = np.log(vals)
    assert np.all(lv[:-2] + lv[2:] >= 2.0 * lv[1:-1])


def test_bessel_k_against_mpmath():
    # every order the closed forms take, over the arguments they reach
    # before K underflows, one array call per order
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    x = np.concatenate([np.logspace(-12.0, np.log10(700.0), 120), np.linspace(0.5, 30.0, 60)])
    for order in (-1, 0, 1, 2, 3):
        ref = np.array([float(mp.besselk(order, mp.mpf(v))) for v in x])
        assert bessel_k(order, x) == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert bessel_k(order, float(x[7])) == pytest.approx(ref[7], rel=1e-13, abs=0.0)
    # exactly 0 once K underflows; shapes follow x
    assert np.all(bessel_k(1, np.array([746.0, 1e300])) == 0.0)
    assert bessel_k(2, np.ones((2, 3))).shape == (2, 3)


def test_bessel_k_rejects_what_it_does_not_compute():
    for order in (4, -4, 0.5):
        with pytest.raises(ValueError, match="order"):
            bessel_k(order, 1.0)
    with pytest.raises(ValueError, match="positive"):
        bessel_k(0, np.array([1.0, 0.0]))


def test_log_gamma_refuses_where_its_shift_could_overflow():
    # its one shift to Re z >= 10 multiplies N factors, N = 10 - min Re z
    assert np.exp(log_gamma(np.array([-49.5]))) == pytest.approx(
        np.pi / (np.sin(np.pi * -49.5) * np.exp(log_gamma(np.array([50.5])))), rel=1e-12
    )
    with pytest.raises(ValueError, match="Re z >= -50"):
        log_gamma(np.array([1.0, -50.5]))


def test_meijer_g_bessel_reduction():
    # G^{2,0}_{0,2}(z | b1, b2) = 2 z^{(b1+b2)/2} K_{b1-b2}(2 sqrt z)
    for b1, b2, z in [(0.5, -0.5, 1.0), (1.0, 0.0, 1.0), (0.0, 0.0, 0.25), (1.5, -0.5, 4.0)]:
        params = MeijerParams(2, 0, 0, 2, (), (b1, b2))
        mine = meijer_g(params, z)
        ref = 2.0 * z ** ((b1 + b2) / 2.0) * kv(b1 - b2, 2.0 * np.sqrt(z))
        assert mine == pytest.approx(ref, rel=1e-9)


_G30 = lambda a: MeijerParams(3, 0, 1, 3, (0.0,), (-1.0, -float(a), -2.0))
_G31 = MeijerParams(3, 1, 1, 3, (0.0,), (0.0, 1.0, 0.0))
_G41 = MeijerParams(4, 1, 2, 4, (-2.0, 0.0), (-2.0, -1.0, -1.0, -2.0))


def test_meijer_g_contour_shift_invariance():
    # the same integral on the vertical-line rule at c +- 0.2, still clear
    # of both pole ladders, where the rule certifies it
    for params, z in [
        (_G30(1), 0.25),
        (_G30(1), 4.0),
        (_G30(-1), 1.0),
        (_G31, 10.0),
        (_G41, 0.4),
    ]:
        base = meijer_g(params, z)
        c = special._contour_abscissa(params)
        for shift in (-0.2, 0.2):
            value, ok = special._line_integral(
                params, c + shift, np.log([z]), floor=special._ABS_TOL
            )
            assert ok.all()
            assert value[0] == pytest.approx(base, rel=1e-9)


def test_phasor_tables_give_the_per_node_sum():
    # sum_k e^(j omega t_k) v_k from the two phasor tables of a node set,
    # against a cos and a sin per node, on both ladders (t0, d) = (0, h) and
    # (h / 2^l, h / 2^(l-1)), for 1 to 3000 nodes and |omega| = |ln x| up
    # to 700.  With omega rounded to 40 bits every phase omega t is exact on
    # both sides and the tables' product adds a rounding per term: within
    # 4 eps sum|v|.  With omega as it comes each side also rounds its
    # phases, the per-node one by eps/2 |omega t_k| and the tables by as
    # much again (their two phases add up to omega t_k).
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(35)
    counts = [1, 2, 3, 4, 63, 64, 65, 97, 1000, 2999, 3000, *rng.integers(5, 3000, 8)]
    for level in (0, 1, 8):
        for count in counts:
            t = special._line_nodes(level, count)
            omega = np.concatenate(
                ([-700.0, 0.0, 700.0], rng.uniform(-700.0, 700.0, 5), rng.uniform(-3.0, 3.0, 3))
            )
            v = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            for exact in (True, False):
                w = np.round(omega * 2.0**30) / 2.0**30 if exact else omega
                phase = np.multiply.outer(w, t)
                direct = ((np.cos(phase) + 1j * np.sin(phase)) * v).sum(axis=-1)
                got = special._phasor_sum((0.5, level, count), w, v)
                bound = 4.0 * eps * np.abs(v).sum()
                if not exact:
                    bound = bound + eps * (np.abs(phase) * np.abs(v)).sum(axis=-1)
                assert np.all(np.abs(got - direct) <= bound), (level, count, exact)


def test_line_rule_refuses_a_transform_that_does_not_decay():
    # the truncation search gives up after a bounded number of growths (a
    # transform takes the nodes and the key of their node set)
    with pytest.raises(QuadratureError, match="does not decay"):
        special._line_integral(lambda s, line: 1.0 / (1.0 + s * s) ** 0.25, 0.5, np.zeros(3))


def test_meijer_g_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    cases = [
        (_G30(1), [[], [0]], [[-1, -1, -2], []], 0.25),
        (_G30(1), [[], [0]], [[-1, -1, -2], []], 20.0),
        (_G30(-1), [[], [0]], [[-1, 1, -2], []], 1.0),
        (_G31, [[0], []], [[0, 1, 0], []], 0.1),
        (_G31, [[0], []], [[0, 1, 0], []], 1000.0),
        (_G41, [[-2], [0]], [[-2, -1, -1, -2], []], 0.0126),
        (_G41, [[-2], [0]], [[-2, -1, -1, -2], []], 12.6),
    ]
    for params, a_spec, b_spec, z in cases:
        ref = float(mp.meijerg(a_spec, b_spec, z))
        assert meijer_g(params, z) == pytest.approx(ref, rel=1e-9)


def test_meijer_g_small_argument_limit():
    # 16 z^2 G^{3,0}_{1,3}(4z | 0; -1,-1,-2) -> 1 as z -> 0+, at the rate
    # set by the saturating outage it represents (~ z log^2 z); the value
    # at z = 1e-8 is pinned by the independent quadrature oracle.
    from ris2x2.analytic import outage_quadrature
    from ris2x2.sysmodel import Mode

    deviations = []
    for z in (1e-8, 1e-9, 1e-10):
        val = 16.0 * z**2 * meijer_g(_G30(1), 4.0 * z)
        deviations.append(abs(val - 1.0))
    assert deviations == sorted(deviations, reverse=True)
    assert deviations[-1] < 1e-6
    val8 = 16.0 * 1e-16 * meijer_g(_G30(1), 4e-8)
    oracle = 1.0 - outage_quadrature(Mode(2, 2, False), 1e-8)
    assert val8 == pytest.approx(oracle, abs=1e-9)


def test_meijer_g_takes_an_array_of_z():
    # one contour for every z equals one call per z, on the C4 and C6 terms
    cases = [
        (_G30(1), np.array([1e-3, 0.01, 0.25, 2.0, 4.0, 20.0])),
        (_G30(-1), np.array([[2e-3, 0.5], [4.0, 10.0]])),
        (_G31, 4.0 * (1.0 + np.logspace(-4.0, 4.0, 9) ** 2) / 10.0),
        (_G41, 4.0 / 10.0 ** (np.arange(-5.0, 26.0, 10.0) / 10.0)),
    ]
    for params, z in cases:
        values = meijer_g(params, z)
        assert values.shape == z.shape
        scalar = np.array([meijer_g(params, float(v)) for v in z.ravel()])
        assert values.ravel() == pytest.approx(scalar, rel=1e-10, abs=1e-12)
    assert isinstance(meijer_g(_G31, 1.0), float)
    with pytest.raises(ValueError):
        meijer_g(_G31, np.array([1.0, 0.0]))


def test_weighted_bessel_integral_meets_its_tolerance():
    # scipy's adaptive quad over z = sin^2 t of the closed-form inner
    # integral, 2 (x/(z gam))^(alpha/2) K_alpha(2 sqrt(gam x / z)) z^-a,
    # against the compensated density: every (a, alpha) is within its
    # certified max(1e-12, 1e-10 |W|)
    import warnings
    from scipy.integrate import IntegrationWarning

    def reference(a, alpha, gam, x):
        def inner(t):
            z = np.sin(t) ** 2
            bessel = kv(alpha, 2.0 * np.sqrt(gam * x / z))
            return 2.0 * (x / (z * gam)) ** (alpha / 2.0) * bessel * z ** (-a) * _alignment_weight(t)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(inner, 0.0, np.pi / 2, epsabs=1e-15, epsrel=1e-13, limit=500)[0]

    for a in (0, 2):
        for alpha in (-1, 0, 1, 2, 3):
            for gam in (1.0, 2.0):
                for x in (1e-3, 0.01, 0.25, 2.0, 10.0):
                    want = reference(a, alpha, gam, x)
                    got = weighted_bessel_integral(a, alpha, gam, x)
                    assert abs(got - want) <= max(1e-12, 1e-10 * abs(want)), (a, alpha, gam, x)


def test_compensated_r22_throughput_matches_its_meijer_tail():
    # half the tail int_0^inf 2(1 - u^2) asin(t^-1/2) / t^2 G(4t / gamma_bar)
    # du, t = 1 + u^2, by scipy's adaptive quad over one G per node, plus
    # half the plain-surface closed form
    for gamma_bar in (10.0**-0.5, 10.0**2.5):

        def tail(u):
            t = 1.0 + u * u
            g = meijer_g(_G31, 4.0 * t / gamma_bar)
            return 2.0 * (1.0 - u * u) / t**2 * np.arcsin(1.0 / np.sqrt(t)) * g

        ref, _ = quad(tail, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=200)
        want = 0.5 * ref + 0.5 * throughput_closed_r22(gamma_bar)
        assert throughput_closed_r22_cmp(gamma_bar) == pytest.approx(want, rel=1e-8)


def test_meijer_g_refuses_what_it_cannot_certify():
    # at z = 4e-30 the sum on the line cancels below the tolerance; a call
    # raises for its every z rather than return the ones it does certify
    with pytest.raises(QuadratureError, match="does not meet its tolerance at z = 4e-30"):
        meijer_g(_G30(1), np.array([1.0, 4e-30]))


def test_meijer_g_rejects_unsupported():
    with pytest.raises(ValueError):
        meijer_g(_G31, -1.0)
    # no decaying vertical contour for this order combination
    with pytest.raises(ValueError, match="does not decay"):
        meijer_g(MeijerParams(1, 0, 1, 1, (0.0,), (0.0,)), 1.0)
    # no separating line when a pole ladders overlap
    with pytest.raises(ValueError, match="pole ladders"):
        meijer_g(MeijerParams(2, 1, 1, 2, (3.0,), (0.0, 1.0)), 1.0)


def _alignment_weight(th):
    return 0.5 * np.sin(2.0 * th) - th * np.cos(2.0 * th)


def _weighted_integral_oracle(a, alpha, gam, x):
    """Brute-force double quadrature of the defining integral over the
    compensated alignment density and an exponential weight."""

    def inner(th):
        u = np.sin(th) ** 2
        val, _ = quad(
            lambda w: u ** (-a) * w ** (alpha - 1) * np.exp(-x / (u * w) - gam * w),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-11,
            limit=300,
        )
        return val * _alignment_weight(th)

    total, _ = quad(inner, 0.0, np.pi / 2, epsabs=1e-12, epsrel=1e-9, limit=300)
    return total


def test_weighted_bessel_integral_against_double_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = int(rng.choice([0, 2]))
        alpha = int(rng.choice([-1, 0, 1, 2, 3]))
        gam = float(rng.choice([1.0, 2.0]))
        x = float(rng.uniform(0.05, 2.0))
        mine = weighted_bessel_integral(a, alpha, gam, x)
        oracle = _weighted_integral_oracle(a, alpha, gam, x)
        assert mine == pytest.approx(oracle, rel=1e-6, abs=1e-9)


def test_weighted_bessel_integral_vanishes_for_large_argument():
    # Bessel decay kills both terms, roughly like exp(-2 sqrt(x))
    v100 = weighted_bessel_integral(0, 1, 1.0, 100.0)
    v200 = weighted_bessel_integral(0, 1, 1.0, 200.0)
    assert 0.0 < v200 < v100 < 1e-8
    assert v200 < 1e-11


def test_weighted_bessel_integral_validation():
    with pytest.raises(ValueError):
        weighted_bessel_integral(1, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        weighted_bessel_integral(0, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        weighted_bessel_integral(0, 1, 1.0, -1.0)
