"""Closed-form statistics of the mode SNRs and their quadrature oracles.

The mode SNR factors as gamma = gamma_bar * lambda_j * omega_i * z with
independent pieces, so every distributional quantity reduces to integrals
over three known laws:

* z with the surface compensated:  F(z) = z - sqrt(z(1-z)) asin(sqrt z);
* z with a fixed surface:          F(z) = z (uniform on [0, 1]);
* squared singular values of a 2x2 complex Gaussian matrix:
      F_largest(y)  = 1 - 2 e^{-y} - y^2 e^{-y} + e^{-2y},
      F_smallest(y) = 1 - e^{-2y},
  with means 7/2 and 1/2.

Outage is computed twice on purpose: ``outage_closed_form`` assembles the
Bessel/Meijer-G expressions, and ``outage_quadrature`` integrates the
defining expectation E{F_lambda(x / (omega z))} directly, with no Bessel,
Meijer-G or Mellin step (the reference implementation); the two routes are
required to agree to well below 1e-6.  The oracle is one 2-D trapezoid rule
in s = ln omega and a logistic variable of the alignment factor, in which
the integrand is analytic on a strip, so halving the step converges
geometrically.  Its tails are cut by closed-form bounds relative to a lower
bound of P, and the eigenvalue laws and the alignment weight are evaluated
without cancellation, so it is accurate in relative terms, not only
absolute ones, far into the high-SNR tail.

Throughput R = E ln(1 + gamma) is also computed twice.  ``throughput`` uses
the independence directly: the Mellin transform E{X^-s} of
X = lambda_j omega_i z is the product of three one-dimensional transforms
(closed forms for the eigenvalues and the fixed surface, a fixed
Gauss-Legendre rule for the compensated z), and R is one Mellin-Barnes
line integral of it against pi/(s sin pi s), the transform of ln(1 + y),
on the trapezoid rule that also evaluates the Meijer G-functions.
``throughput_quadrature`` is its independent oracle: it integrates the
eigenvalue law analytically (an exponential-integral kernel) and the
other two dimensions by nested adaptive quadrature.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import exp1, expit, kv, loggamma

from .special import (
    DEFAULT_QUADRATURE,
    MeijerParams,
    QuadratureError,
    QuadratureSpec,
    _g30,
    _integrate_quad,
    _vertical_line_integral,
    meijer_g,
    weighted_bessel_integral,
)
from .sysmodel import Mode

__all__ = [
    "GAIN_LINEAR",
    "REPORTED_GAP_DB",
    "z_factor_cdf",
    "eigenvalue_cdf",
    "eigenvalue_pdf",
    "eigenvalue_mean",
    "mean_z",
    "snr_gain_linear",
    "snr_gain_db",
    "consecutive_mode_gap_db",
    "mean_mode_snr",
    "outage_quadrature",
    "outage_closed_form",
    "throughput",
    "throughput_quadrature",
    "throughput_closed_r22",
    "throughput_closed_r22_cmp",
]

# Mean-SNR improvement of phase compensation, E{z_comp} / E{z_plain}.
GAIN_LINEAR = 1.0 + np.pi**2 / 16.0

# 10*log10(6) ~ 7.78 dB is sometimes quoted for the gap between
# consecutive modes; the eigenvalue means above give 10*log10(7) ~ 8.45 dB.
# Kept as a display-only reference, never asserted.
REPORTED_GAP_DB = 10.0 * np.log10(6.0)

# Abscissa of the Mellin-Barnes throughput line, mid-strip between the
# poles of pi/(s sin pi s) at s = -1 and s = 0, and the half-span its
# truncation starts from: the integrand is below 1e-19 of its peak beyond
# |Im s| ~ 7, and the tail test widens the span wherever that is not enough.
_MELLIN_ABSCISSA = -0.5
_MELLIN_SPAN = 8.0

# Gauss-Legendre nodes in t of the compensated E{z^-s}.  Doubling them
# moves no throughput by more than 1e-13 relative (checked in the tests).
_Z_NODES = 64

# Both eigenvalue laws are saturated in double precision beyond this
# argument; clipping there also keeps an infinite argument from giving inf*0.
_EIG_SATURATION = 1e3

# Taylor coefficients of the small-argument branches, each taken where the
# direct expression loses more than a few digits to cancellation:
# (sinh v - v)/v^3 in v^2 (v < 1), (2 - 2y + y^2 - 2e^-y)/y^3 in y (y < 1)
# and (sin a - a cos a)/(2a^3) in a^2 (a < 1).
_SINH_SERIES = tuple(1.0 / factorial(2 * n + 1) for n in range(1, 11))
_PDF_SERIES = tuple(2.0 * (-1) ** m / factorial(m + 3) for m in range(17))
_Z_WEIGHT_SERIES = tuple(
    (-1) ** (k + 1) * k / factorial(2 * k + 1) for k in range(1, 11)
)

# The outage oracle's rule: the share of rel_tol * P that each of its four
# truncated tails may leave out, the step of its first level, the nodes
# evaluated at once (64 kB per array) and the most nodes a level may have
# (a few seconds of work; no x in [1e-8, 1e4] needs more than 4e5).
_OUTAGE_TAIL_SHARE = 2.5e-4
_OUTAGE_FIRST_STEP = 1.0
_OUTAGE_BLOCK = 1 << 13
_OUTAGE_MAX_NODES = 1 << 25


def z_factor_cdf(z, compensated: bool = True):
    """CDF of the alignment factor z, clamped outside [0, 1].

    With compensation it is z - sqrt(z(1-z)) arcsin(sqrt z), which cancels
    like z^2/3 near 0; in z = sin^2 t it is sin t (sin t - t cos t), taken
    as 2 sqrt(z) _z_weight(t/2), accurate in relative terms down to z -> 0.
    """
    z = np.asarray(z, dtype=np.float64)
    zc = np.clip(z, 0.0, 1.0)
    if compensated:
        # arctan2 keeps t accurate near z = 1, where arcsin(sqrt z) is not
        t = np.arctan2(np.sqrt(zc), np.sqrt(1.0 - zc))
        val = 2.0 * np.sqrt(zc) * _z_weight(0.5 * t)
    else:
        val = zc
    return val if val.ndim else float(val)


def eigenvalue_cdf(y, which: str = "largest"):
    """CDF of the largest/smallest squared singular value of a 2x2
    complex Gaussian matrix (unit-variance entries), accurate in relative
    terms down to y -> 0, where the largest law goes like y^4/12."""
    y = np.asarray(y, dtype=np.float64)
    yc = np.clip(y, 0.0, _EIG_SATURATION).ravel()
    if which == "largest":
        # 1 - 2e^-y - y^2 e^-y + e^-2y = (1 - e^-y)^2 - (y e^(-y/2))^2, and
        # the factor 1 - e^-y - y e^(-y/2) that vanishes is 2 e^-v (sinh v - v)
        # with v = y/2; head holds e^-v (sinh v - v)
        v = 0.5 * yc
        decay = np.exp(-v)
        rise = -np.expm1(-yc)
        head = 0.5 * rise - v * decay
        small = v < 1.0
        vs = v[small]
        head[small] = decay[small] * vs**3 * polyval(vs * vs, _SINH_SERIES)
        val = 2.0 * head * (rise + yc * decay)
    elif which == "smallest":
        val = -np.expm1(-2.0 * yc)
    else:
        raise ValueError("which must be 'largest' or 'smallest'")
    val = np.where(y < 0.0, 0.0, val.reshape(y.shape))
    return val if val.ndim else float(val)


def eigenvalue_pdf(y, which: str = "largest"):
    """Density of the largest/smallest squared singular value, accurate in
    relative terms down to y -> 0, where the largest law goes like y^3/3."""
    y = np.asarray(y, dtype=np.float64)
    yc = np.clip(y, 0.0, _EIG_SATURATION).ravel()
    if which == "largest":
        # e^-y (2 - 2y + y^2 - 2e^-y); the bracket is 2 y^3/3! - 2 y^4/4! + ...
        decay = np.exp(-yc)
        bracket = 2.0 - 2.0 * yc + yc * yc - 2.0 * decay
        small = yc < 1.0
        ys = yc[small]
        bracket[small] = ys**3 * polyval(ys, _PDF_SERIES)
        val = decay * bracket
    elif which == "smallest":
        val = 2.0 * np.exp(-2.0 * yc)
    else:
        raise ValueError("which must be 'largest' or 'smallest'")
    val = np.where(y < 0.0, 0.0, val.reshape(y.shape))
    return val if val.ndim else float(val)


def eigenvalue_mean(which: str = "largest") -> float:
    """Exact means: integrating the survival functions gives 7/2 and 1/2."""
    if which == "largest":
        return 3.5
    if which == "smallest":
        return 0.5
    raise ValueError("which must be 'largest' or 'smallest'")


def mean_z(compensated: bool = True) -> float:
    return 0.5 * GAIN_LINEAR if compensated else 0.5


def snr_gain_linear() -> float:
    return GAIN_LINEAR


def snr_gain_db() -> float:
    return 10.0 * np.log10(GAIN_LINEAR)


def consecutive_mode_gap_db():
    """Mean-SNR gap between consecutive modes, as (derived_db, reported_db).

    The ratio of consecutive mean SNRs equals the ratio of the eigenvalue
    means, 3.5 / 0.5 = 7, hence 10*log10(7); the quoted reference value
    10*log10(6) is returned alongside for display.
    """
    ratio = eigenvalue_mean("largest") / eigenvalue_mean("smallest")
    return 10.0 * np.log10(ratio), REPORTED_GAP_DB


def mean_mode_snr(mode: Mode, gamma_bar: float) -> float:
    """E{gamma} of a mode: (gamma_bar) * E{lambda_j} E{omega_i} E{z}."""
    lam = eigenvalue_mean("largest" if mode.rx == 1 else "smallest")
    om = eigenvalue_mean("largest" if mode.tx == 1 else "smallest")
    return gamma_bar * lam * om * mean_z(mode.compensated)


def _outer_substituted(inner, which: str, spec: QuadratureSpec, what: str) -> float:
    """int_0^inf f_omega(w) inner(w) dw via w = u/(1-u)."""

    def integrand(u):
        if u >= 1.0:
            return 0.0
        w = u / (1.0 - u)
        density = eigenvalue_pdf(w, which)
        if density == 0.0:
            return 0.0
        return density * inner(w) / (1.0 - u) ** 2

    return _integrate_quad(integrand, 0.0, 1.0, spec, what)


def _z_average(fn, compensated: bool, spec: QuadratureSpec, what: str) -> float:
    """E over the alignment law of fn(z).

    The compensated density is singular at z = 1; substituting z = sin^2 t
    turns the weight into the smooth sin(2t)/2 - t cos(2t).
    """
    if compensated:

        def integrand(t):
            # quad asks for one t at a time, where the array form
            # _z_weight costs 10x; the cancellation near t = 0 it avoids
            # is far below this quadrature's absolute tolerance
            weight = 0.5 * np.sin(2.0 * t) - t * np.cos(2.0 * t)
            return fn(np.sin(t) ** 2) * weight

        return _integrate_quad(integrand, 0.0, np.pi / 2.0, spec, what)
    return _integrate_quad(fn, 0.0, 1.0, spec, what)


def _z_weight(t):
    """sin(2t)/2 - t cos(2t), the alignment density in z = sin^2 t with
    compensation, accurate in relative terms down to t -> 0 (~ 4t^3/3)."""
    a = 2.0 * np.asarray(t, dtype=np.float64)
    direct = 0.5 * (np.sin(a) - a * np.cos(a))
    return np.where(a < 1.0, a**3 * polyval(a * a, _Z_WEIGHT_SERIES), direct)


def _outage_tail_mass(
    lam_law: str, om_law: str, compensated: bool, x: float, rel_tol: float
) -> float:
    """The probability mass each truncated tail of the oracle may drop:
    a share of rel_tol times a lower bound of P(x).

    Since the three events together imply lambda omega z <= x, P is at
    least P{lambda <= a} P{omega <= b} P{z <= c} whenever abc = x; the
    bound gives all of x <= 1 to the factor with the heaviest lower tail
    (with compensation F_z(c) >= c^2/3), and sqrt(x) to each eigenvalue
    above.  The mass is floored at the smallest normal float, which keeps
    the nodes finite; relative accuracy holds while P is above about 1e-290.
    """
    if x > 1.0:
        bound = eigenvalue_cdf(np.sqrt(x), lam_law) * eigenvalue_cdf(np.sqrt(x), om_law)
    else:
        f_lam = eigenvalue_cdf(np.array([x, 1.0]), lam_law)
        f_om = eigenvalue_cdf(np.array([x, 1.0]), om_law)
        f_z = x * x / 3.0 if compensated else x
        bound = max(f_lam[0] * f_om[1], f_lam[1] * f_om[0], f_lam[1] * f_om[1] * f_z)
    return max(_OUTAGE_TAIL_SHARE * rel_tol * bound, np.finfo(np.float64).tiny)


def _omega_log_range(which: str, mass: float):
    """[ln w_lo, ln w_hi] with P{omega < w_lo} and P{omega > w_hi} at most
    ``mass``, from F(w) <= 2w, S(w) = e^-2w (smallest) and
    F(w) <= w^4/12, S(w) <= (2 + w^2) e^-w (largest)."""
    if which == "smallest":
        return np.log(0.5 * mass), np.log(-0.5 * np.log(mass))
    w_hi = -np.log(mass)
    for _ in range(8):  # w = ln((2 + w^2)/mass) is a contraction
        w_hi = np.log(2.0 + w_hi * w_hi) - np.log(mass)
    return 0.25 * np.log(12.0 * mass), np.log(w_hi)


def _alignment_log_range(compensated: bool, mass: float):
    """[u_lo, u_hi] of the logistic variable of the alignment factor with
    at most ``mass`` of probability beyond either end.

    Without compensation z = expit(u) and P{z < expit(ln m)} <= m.  With
    it t = (pi/2) expit(u) and z = sin^2 t, whose weight is at most 4t^3/3
    below and at most pi/2 everywhere, so P{t < t_lo} <= t_lo^4/3 and
    P{t > pi/2 - d} <= pi d/2.
    """
    if not compensated:
        return np.log(mass), -np.log(mass)
    t_lo = (3.0 * mass) ** 0.25
    return np.log(2.0 * t_lo / np.pi), np.log(0.25 * np.pi**2 / mass)


def _alignment_nodes(u, compensated: bool):
    """1/z and the weight of the alignment law per unit u at logistic
    nodes u."""
    up, down = expit(u), expit(-u)
    if not compensated:
        return 1.0 + np.exp(-u), up * down
    half_pi = 0.5 * np.pi
    t = half_pi * up
    return 1.0 / np.sin(t) ** 2, _z_weight(t) * half_pi * up * down


def outage_quadrature(
    mode: Mode, x: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Outage probability P{lambda_j omega_i z <= x} by direct quadrature
    of E{F_lambda(x / (omega z))}; the reference implementation.

    The expectation is one 2-D trapezoid rule in s = ln omega and the
    logistic variable u of the alignment factor (z = expit(u), or with
    compensation t = (pi/2) expit(u) in z = sin^2 t, weighted by
    sin(2t)/2 - t cos(2t)).  The integrand is analytic on a strip around
    both real axes, so the rule converges geometrically.  ``spec.rel_tol``
    sets both of its knobs: each of the four truncated tails leaves out at
    most 2.5e-4 rel_tol times a closed-form lower bound of P, and the step
    is halved from 1, reusing the nodes of the level before, until two
    levels agree to rel_tol relative.  The CDF of lambda and the densities
    are evaluated without cancellation, so P is accurate in relative terms
    while it is above about 1e-290; further down, where the tails can no
    longer be cut that finely, QuadratureError is raised.  ``abs_tol`` and
    ``max_subdivisions`` belong to the adaptive quadratures and play no
    part here.
    """
    if not 0.0 <= x < np.inf:
        raise ValueError("x must be nonnegative and finite")
    if x == 0.0:
        return 0.0
    x = float(x)
    # P is symmetric in the two eigenvalues; the outer one, omega, is the
    # largest whenever one is, since its lower tail (F ~ w^4/12) is short
    lam_law = "largest" if max(mode.rx, mode.tx) == 1 else "smallest"
    om_law = "largest" if min(mode.rx, mode.tx) == 1 else "smallest"
    mass = _outage_tail_mass(lam_law, om_law, mode.compensated, x, spec.rel_tol)
    s_lo, s_hi = _omega_log_range(om_law, mass)
    u_lo, u_hi = _alignment_log_range(mode.compensated, mass)

    def rows(k, step):
        omega = np.exp(s_lo + k * step)
        return x / omega, eigenvalue_pdf(omega, om_law) * omega

    def cols(k, step):
        return _alignment_nodes(u_lo + k * step, mode.compensated)

    def node_sum(row_nodes, col_nodes):
        (x_over_omega, row_weight), (inv_z, col_weight) = row_nodes, col_nodes
        block = max(1, _OUTAGE_BLOCK // inv_z.size)
        total = 0.0
        for i in range(0, x_over_omega.size, block):
            y = np.multiply.outer(x_over_omega[i : i + block], inv_z)
            cdf = eigenvalue_cdf(y, lam_law)
            total += row_weight[i : i + block] @ (cdf @ col_weight)
        return total

    step = _OUTAGE_FIRST_STEP
    n_s = int(np.ceil((s_hi - s_lo) / step)) + 1
    n_u = int(np.ceil((u_hi - u_lo) / step)) + 1
    # an x/(omega z) that overflows to inf just saturates the CDF
    with np.errstate(over="ignore"):
        total = node_sum(rows(np.arange(n_s), step), cols(np.arange(n_u), step))
        estimate, change = step * step * total, np.inf
        while (2 * n_s - 1) * (2 * n_u - 1) <= _OUTAGE_MAX_NODES:
            step *= 0.5
            n_s, n_u = 2 * n_s - 1, 2 * n_u - 1
            # the new nodes: odd rows at all columns, even rows at odd columns
            odd_rows = rows(np.arange(1, n_s, 2), step)
            even_rows = rows(np.arange(0, n_s, 2), step)
            total += node_sum(odd_rows, cols(np.arange(n_u), step))
            total += node_sum(even_rows, cols(np.arange(1, n_u, 2), step))
            previous, estimate = estimate, step * step * total
            change = abs(estimate - previous)
            if change <= spec.rel_tol * estimate:
                return float(estimate)
    raise QuadratureError(
        f"outage({mode.label}) at x={x:g}: trapezoid not converged at step "
        f"{step:g} on {n_s}x{n_u} nodes (estimate {estimate:.6e}, last change "
        f"{change:.3e})"
    )


def outage_closed_form(
    mode: Mode, x: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Closed-form outage, mode-by-mode assembly of the Bessel and
    Meijer-G expressions; validated against :func:`outage_quadrature`."""
    if not 0.0 <= x < np.inf:
        raise ValueError("x must be nonnegative and finite")
    if x == 0.0:
        return 0.0
    z = float(x)
    j, i = mode.rx, mode.tx
    if mode.compensated:
        cal = lambda a, alpha, gam, arg: weighted_bessel_integral(a, alpha, gam, arg, spec)
        if (j, i) == (1, 1):
            return (
                1.0
                - 4.0 * cal(0, 1, 1.0, z)
                + 4.0 * cal(0, 2, 1.0, z)
                - 2.0 * cal(0, 3, 1.0, z)
                + 4.0 * cal(0, 1, 2.0, z)
                - 2.0 * z**2 * cal(2, -1, 1.0, z)
                + 2.0 * z**2 * cal(2, 0, 1.0, z)
                - z**2 * cal(2, 1, 1.0, z)
                + 2.0 * z**2 * cal(2, -1, 2.0, z)
                + 2.0 * cal(0, 1, 1.0, 2.0 * z)
                - 2.0 * cal(0, 2, 1.0, 2.0 * z)
                + cal(0, 3, 1.0, 2.0 * z)
                - 2.0 * cal(0, 1, 2.0, 2.0 * z)
            )
        if (j, i) in ((2, 1), (1, 2)):
            return (
                1.0
                - 4.0 * cal(0, 1, 2.0, z)
                - 2.0 * z**2 * cal(2, -1, 2.0, z)
                + 2.0 * cal(0, 1, 2.0, 2.0 * z)
            )
        return 1.0 - 2.0 * cal(0, 1, 2.0, 2.0 * z)

    sz = np.sqrt(z)
    if (j, i) == (1, 1):
        return (
            1.0
            - 4.0 * z**2 * _g30(z, -1.0, -2.0, spec)
            + 8.0 * sz * kv(1, 2.0 * sz)
            - 2.0 * z**2 * _g30(z, 1.0, -2.0, spec)
            + 8.0 * z**2 * _g30(2.0 * z, -1.0, -2.0, spec)
            - 4.0 * z * kv(0, 2.0 * sz)
            + 4.0 * z * sz * kv(1, 2.0 * sz)
            - 2.0 * z**2 * kv(2, 2.0 * sz)
            + 4.0 * z * kv(0, 2.0 * np.sqrt(2.0 * z))
            + 8.0 * z**2 * _g30(2.0 * z, -1.0, -2.0, spec)
            - 4.0 * np.sqrt(2.0 * z) * kv(1, 2.0 * np.sqrt(2.0 * z))
            + 4.0 * z**2 * _g30(2.0 * z, 1.0, -2.0, spec)
            - 16.0 * z**2 * _g30(4.0 * z, -1.0, -2.0, spec)
        )
    if (j, i) in ((2, 1), (1, 2)):
        return (
            1.0
            - 8.0 * z**2 * _g30(2.0 * z, -1.0, -2.0, spec)
            - 4.0 * z * kv(0, np.sqrt(8.0 * z))
            + 16.0 * z**2 * _g30(4.0 * z, -1.0, -2.0, spec)
        )
    return 1.0 - 16.0 * z**2 * _g30(4.0 * z, -1.0, -2.0, spec)


def _laguerre_stieltjes(x: float, alpha: int) -> float:
    """int_0^inf u^alpha e^-u / (x + u) du for x > 0, alpha in {0, 2}.

    alpha = 0 is exp(x) E1(x) and alpha = 2 is 1 - x + x^2 exp(x) E1(x).
    Past x = 50 the first product overflows (x ~ 700) and the second
    cancels, so both come from the Jacobi continued fraction of the
    Laguerre weight u^alpha e^-u there.
    """
    if x <= 50.0:
        a0 = float(np.exp(x) * exp1(x))
        return a0 if alpha == 0 else 1.0 - x + x * x * a0
    cf = 0.0
    for k in range(60, 0, -1):
        cf = k * (k + alpha) / (x + 2.0 * k + alpha + 1.0 - cf)
    return (1.0 if alpha == 0 else 2.0) / (x + alpha + 1.0 - cf)


def _capacity_kernel(c: float, which: str) -> float:
    """int_0^inf S_lambda(u) * c / (1 + c u) du, the per-eigenvalue part of
    E ln(1 + gamma) after exchanging the order of integration; with
    S_largest(u) = 2 e^-u + u^2 e^-u - e^-2u and S_smallest(u) = e^-2u."""
    if c <= 0.0:
        return 0.0
    if which == "smallest":
        return _laguerre_stieltjes(2.0 / c, 0)
    return (
        2.0 * _laguerre_stieltjes(1.0 / c, 0)
        + _laguerre_stieltjes(1.0 / c, 2)
        - _laguerre_stieltjes(2.0 / c, 0)
    )


def _mellin_eigenvalue(s, which: str):
    """E{lambda^-s} of the largest/smallest squared singular value, Re s < 1,
    term by term from the densities."""
    g = np.exp(loggamma(1.0 - s))
    if which == "smallest":
        return 2.0**s * g
    return g * (2.0 - 2.0 * (1.0 - s) + (2.0 - s) * (1.0 - s) - 2.0**s)


def _mellin_z(compensated: bool):
    """s -> E{z^-s} of the alignment factor, Re s < 1.

    With compensation this is int_0^{pi/2} (sin t)^{-2s} w(t) dt with the
    smooth weight of :func:`_z_average`, taken by one fixed Gauss-Legendre
    rule in t at every s at once.
    """
    if not compensated:
        return lambda s: 1.0 / (1.0 - s)
    x, w = np.polynomial.legendre.leggauss(_Z_NODES)
    t = 0.25 * np.pi * (x + 1.0)
    minus_log_z = -2.0 * np.log(np.sin(t))
    weight = 0.25 * np.pi * w * _z_weight(t)

    def transform(s):
        powers = np.outer(s, minus_log_z)
        return np.exp(powers, out=powers) @ weight

    return transform


def throughput(
    mode: Mode, gamma_bar: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Average throughput E ln(1 + gamma) in nats/s/Hz, by Mellin-Barnes.

    With M(s) = E{X^-s} and X = lambda_j omega_i z,

        R = (1/2 pi j) int_{c-j inf}^{c+j inf} pi/(s sin pi s) gamma_bar^-s
                                               M_lambda M_omega M_z ds

    on the line c = -1/2, inside the strip -1 < Re s < 0 where
    pi/(s sin pi s) is the Mellin transform of ln(1 + y).  The integrand
    decays like exp(-2 pi |Im s|).  :func:`throughput_quadrature` is the
    independent oracle.
    """
    if not 0.0 < gamma_bar < np.inf:
        raise ValueError("gamma_bar must be positive and finite")
    lam_law = "largest" if mode.rx == 1 else "smallest"
    om_law = "largest" if mode.tx == 1 else "smallest"
    log_gamma_bar = float(np.log(gamma_bar))
    mellin_z = _mellin_z(mode.compensated)

    def integrand(s):
        # the eigenvalue product first, so that swapping tx and rx gives
        # bit-identical values
        eig = _mellin_eigenvalue(s, lam_law) * _mellin_eigenvalue(s, om_law)
        kernel = np.pi / (s * np.sin(np.pi * s)) * np.exp(-s * log_gamma_bar)
        return kernel * eig * mellin_z(s)

    return _vertical_line_integral(
        integrand,
        _MELLIN_ABSCISSA,
        2.0 * np.pi,
        spec,
        f"throughput({mode.label})",
        start_span=_MELLIN_SPAN,
    )


def throughput_quadrature(
    mode: Mode, gamma_bar: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Average throughput E ln(1 + gamma) by quadrature; the oracle of
    :func:`throughput`.

    The eigenvalue law is integrated analytically (an exponential-integral
    kernel, the identity R = int (1 - P(z/gamma_bar))/(1+z) dz with the
    order of integration exchanged) and the remaining two dimensions by
    nested adaptive quadrature.
    """
    if not 0.0 < gamma_bar < np.inf:
        raise ValueError("gamma_bar must be positive and finite")
    lam_law = "largest" if mode.rx == 1 else "smallest"
    om_law = "largest" if mode.tx == 1 else "smallest"
    inner_spec = QuadratureSpec(
        spec.abs_tol / 10.0, spec.rel_tol, spec.max_subdivisions
    )

    def inner(w):
        return _z_average(
            lambda z: _capacity_kernel(gamma_bar * w * z, lam_law),
            mode.compensated,
            inner_spec,
            "throughput inner",
        )

    return _outer_substituted(inner, om_law, spec, f"throughput({mode.label})")


def throughput_closed_r22(
    gamma_bar: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Closed form of the plain-surface (2,2)-mode throughput,
    (16/gamma_bar^2) G^{4,1}_{2,4}(4/gamma_bar | -2,0; -2,-1,-1,-2)."""
    if not 0.0 < gamma_bar < np.inf:
        raise ValueError("gamma_bar must be positive and finite")
    params = MeijerParams(4, 1, 2, 4, (-2.0, 0.0), (-2.0, -1.0, -1.0, -2.0))
    return 16.0 / gamma_bar**2 * meijer_g(params, 4.0 / gamma_bar, spec)


def throughput_closed_r22_cmp(
    gamma_bar: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Closed form of the compensated (2,2)-mode throughput: a single
    G^{3,1}_{1,3} tail integral plus half the plain-surface value."""
    if not 0.0 < gamma_bar < np.inf:
        raise ValueError("gamma_bar must be positive and finite")
    params = MeijerParams(3, 1, 1, 3, (0.0,), (0.0, 1.0, 0.0))

    def tail(u):
        t = 1.0 + u * u
        return (
            2.0
            * (1.0 - u * u)
            / t**2
            * np.arcsin(1.0 / np.sqrt(t))
            * meijer_g(params, 4.0 * t / gamma_bar, spec)
        )

    integral = _integrate_quad(tail, 0.0, np.inf, spec, "throughput_closed_r22_cmp")
    return 0.5 * integral + 0.5 * throughput_closed_r22(gamma_bar, spec)
