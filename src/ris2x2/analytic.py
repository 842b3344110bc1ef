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

``outage`` and ``throughput`` are Mellin-Barnes line integrals of the
transform E{X^-s} of X = lambda_j omega_i z, a product of three
one-dimensional transforms, against a kernel (1/s, or pi/(s sin pi s) for
ln(1 + y)).  Both run on the vertical-line rule of ``special``, the one the
Meijer G functions of the closed forms run on: a step-halved trapezoid rule
on cached contour nodes, over a whole grid at once, certifying each value
in relative terms.

Outage is computed three ways on purpose.  ``outage_closed_form``
assembles the paper's Bessel/Meijer-G expressions, the reproduced artifact,
whose "1 - sum" form cancels at high SNR; ``outage`` is the analytic column
of the sweeps; ``outage_quadrature`` integrates E{F_lambda(x / (omega z))}
directly, with no Bessel, Meijer-G or Mellin step.  Throughput has
``throughput`` and its oracle ``throughput_quadrature``, which takes
E ln(1 + c lambda) as an exponential-integral kernel.  Both oracles run in
the real domain on one 2-D trapezoid rule in s = ln omega and a logistic
variable of the alignment factor, where the integrand is analytic on a
strip, so halving the step converges geometrically; their tails are cut
by closed-form bounds relative to P or R, and the laws are evaluated
without cancellation, so they are accurate in relative terms far into the
high-SNR tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.polynomial import polyval

from .special import (
    _ABS_TOL,
    _EPS,
    _REL_TOL,
    MeijerParams,
    QuadratureError,
    _g30,
    _half_line_integral,
    _line_integral,
    _require_scalar,
    bessel_k,
    log_gamma,
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
    "diversity_order",
    "outage",
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
# poles of pi/(s sin pi s) at s = -1 and s = 0.
_THROUGHPUT_ABSCISSA = -0.5

# Distance from the leading pole of the abscissa small outage x fall back to.
_POLE_MARGIN = 0.15

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

# The power series of E1(x) + euler_gamma + ln x, over x: the coefficients
# (-1)^(k+1) / (k k!), k = 1..20, summed for x <= 1.
_E1_SERIES = tuple((-1) ** (k + 1) / (k * factorial(k)) for k in range(1, 21))

# (upper end, depth) of the bands of x > 1 over which the Laguerre continued
# fractions run; each depth is within a few ulp at its band's lower end.
_LAGUERRE_BANDS = ((1.5, 100), (2.0, 72), (3.0, 56), (5.0, 40), (10.0, 30), (20.0, 24), (np.inf, 12))

# The oracles' rule: the share of _REL_TOL times P or R that each of its four
# truncated tails may leave out, the step of its first level, the nodes
# evaluated at once (64 kB per array) and the most nodes a level may have
# (a few seconds of work; no outage x in [1e-8, 1e4] needs more than 4e5).
_ORACLE_TAIL_SHARE = 2.5e-4
_ORACLE_FIRST_STEP = 1.0
_ORACLE_BLOCK = 1 << 13
_ORACLE_MAX_NODES = 1 << 25


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
    lam, om = (eigenvalue_mean(law) for law in _mode_laws(mode))
    return gamma_bar * lam * om * mean_z(mode.compensated)


def _z_weight(t):
    """sin(2t)/2 - t cos(2t), the alignment density in z = sin^2 t with
    compensation, accurate in relative terms down to t -> 0 (~ 4t^3/3)."""
    a = 2.0 * np.asarray(t, dtype=np.float64)
    direct = 0.5 * (np.sin(a) - a * np.cos(a))
    return np.where(a < 1.0, a**3 * polyval(a * a, _Z_WEIGHT_SERIES), direct)


def _outage_tail_mass(mode: Mode, x: float) -> float:
    """The probability mass each truncated tail of the outage oracle may
    drop: a share of _REL_TOL times a lower bound of P(x).

    Since the three events together imply lambda omega z <= x, P is at
    least P{lambda <= a} P{omega <= b} P{z <= c} whenever abc = x; the
    bound gives all of x <= 1 to the factor with the heaviest lower tail
    (with compensation F_z(c) >= c^2/3), and sqrt(x) to each eigenvalue
    above.  The mass is floored at the smallest normal float, which keeps
    the nodes finite; relative accuracy holds while P is above about 1e-290.
    """
    lam_law, om_law = _mode_laws(mode)
    if x > 1.0:
        bound = eigenvalue_cdf(np.sqrt(x), lam_law) * eigenvalue_cdf(np.sqrt(x), om_law)
    else:
        f_lam = eigenvalue_cdf(np.array([x, 1.0]), lam_law)
        f_om = eigenvalue_cdf(np.array([x, 1.0]), om_law)
        f_z = x * x / 3.0 if mode.compensated else x
        bound = max(f_lam[0] * f_om[1], f_lam[1] * f_om[0], f_lam[1] * f_om[1] * f_z)
    return max(_ORACLE_TAIL_SHARE * _REL_TOL * bound, np.finfo(np.float64).tiny)


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
    # the logistic expit(u) = 1 / (1 + e^-u), z itself without compensation
    inv_z = 1.0 + np.exp(-u)
    up, down = 1.0 / inv_z, 1.0 / (1.0 + np.exp(u))
    if not compensated:
        return inv_z, up * down
    half_pi = 0.5 * np.pi
    t = half_pi * up
    return 1.0 / np.sin(t) ** 2, _z_weight(t) * half_pi * up * down


def _oracle_rule(mode: Mode, scales, inverse: bool, kernel, mass: float):
    """int int kernel(y, lam_law) f_omega(e^s) e^s w(u) ds du at every a of
    ``scales``, y = a e^s z(u) (a e^-s / z(u) if ``inverse``), with the laws
    of :func:`_mode_laws`: the 2-D trapezoid rule of both oracles.

    s = ln omega and the logistic variable u of the alignment factor (z =
    expit(u), or with compensation t = (pi/2) expit(u) in z = sin^2 t,
    weighted by sin(2t)/2 - t cos(2t)) are cut where at most ``mass`` of
    probability lies beyond either end.  The step is halved from 1, reusing
    the nodes of the level before, until two levels agree to _REL_TOL
    relative at an a, which then drops out; QuadratureError is raised once
    a level would exceed _ORACLE_MAX_NODES.
    """
    lam_law, om_law = _mode_laws(mode)
    s_lo, s_hi = _omega_log_range(om_law, mass)
    u_lo, u_hi = _alignment_log_range(mode.compensated, mass)
    outer = np.divide.outer if inverse else np.multiply.outer

    def node_sum(k_s, k_u, step, a):
        # the rule's sum over the nodes (s_lo + k_s step, u_lo + k_u step) at every a
        omega = np.exp(s_lo + k_s * step)
        row_weight = eigenvalue_pdf(omega, om_law) * omega
        inv_z, col_weight = _alignment_nodes(u_lo + k_u * step, mode.compensated)
        rows, cols = outer(a, omega), (inv_z if inverse else 1.0 / inv_z)
        block = max(1, _ORACLE_BLOCK // (a.size * cols.size))
        total = np.zeros(a.size)
        for i in range(0, omega.size, block):
            y = np.multiply.outer(rows[:, i : i + block], cols)
            total += (kernel(y, lam_law) @ col_weight) @ row_weight[i : i + block]
        return total

    step = _ORACLE_FIRST_STEP
    n_s = int(np.ceil((s_hi - s_lo) / step)) + 1
    n_u = int(np.ceil((u_hi - u_lo) / step)) + 1
    result = np.empty(scales.shape)
    active = np.arange(scales.size)
    # a y that overflows to inf just saturates the outage kernel
    with np.errstate(over="ignore"):
        total = node_sum(np.arange(n_s), np.arange(n_u), step, scales)
        estimate, change = step * step * total, np.full(scales.shape, np.inf)
        while (2 * n_s - 1) * (2 * n_u - 1) <= _ORACLE_MAX_NODES:
            step *= 0.5
            n_s, n_u = 2 * n_s - 1, 2 * n_u - 1
            # the new nodes: odd rows at all columns, even rows at odd columns
            a = scales[active]
            total += node_sum(np.arange(1, n_s, 2), np.arange(n_u), step, a)
            total += node_sum(np.arange(0, n_s, 2), np.arange(1, n_u, 2), step, a)
            previous, estimate = estimate, step * step * total
            change = np.abs(estimate - previous)
            done = change <= _REL_TOL * estimate
            result[active[done]] = estimate[done]
            active, total, estimate, change = (v[~done] for v in (active, total, estimate, change))
            if active.size == 0:
                return result
    raise QuadratureError(
        f"{'outage' if inverse else 'throughput'}_quadrature({mode.label}) at "
        f"{scales[active[0]]:g}: trapezoid not converged at step "
        f"{step:g} on {n_s}x{n_u} nodes (estimate {estimate[0]:.6e}, last "
        f"change {change[0]:.3e})"
    )


def outage_quadrature(mode: Mode, x: float) -> float:
    """Outage probability P{lambda_j omega_i z <= x} by direct quadrature
    of E{F_lambda(x / (omega z))}; the reference implementation.

    It runs on the oracles' rule (:func:`_oracle_rule`), whose four tails
    each leave out at most 2.5e-4 ``special._REL_TOL`` times a closed-form
    lower bound of P, until two levels agree to that relative tolerance.  P
    is accurate in relative terms while it is above about 1e-290; further
    down, where the tails can no longer be cut that finely, QuadratureError
    is raised.
    """
    _require_scalar("x", x)
    if not 0.0 <= x < np.inf:
        raise ValueError("x must be nonnegative and finite")
    if x == 0.0:
        return 0.0
    mass = _outage_tail_mass(mode, float(x))
    return float(_oracle_rule(mode, np.array([x]), True, eigenvalue_cdf, mass)[0])


def outage_closed_form(mode: Mode, x: float) -> float:
    """Closed-form outage, mode-by-mode assembly of the Bessel and
    Meijer-G expressions; validated against :func:`outage_quadrature`.

    Each Meijer-G and Bessel-tail term is certified to about max(_ABS_TOL,
    _REL_TOL |term|), so P = 1 + sum of the terms carries an error budget of
    _ABS_TOL times their |coefficients| plus _REL_TOL times their |values|,
    plus eps times all |terms|.  Where that is not below |P|, QuadratureError
    is raised: for j1i1-cmp below x ~ 3e-4, P ~ 0.0172 x^2 drowns in terms
    of order one.
    """
    _require_scalar("x", x)
    if not 0.0 <= x < np.inf:
        raise ValueError("x must be nonnegative and finite")
    if x == 0.0:
        return 0.0
    z = float(x)
    j, i = mode.rx, mode.tx
    zz, sz, s2z = z**2, np.sqrt(z), np.sqrt(2.0 * z)
    # (coefficient, value, from a quadrature) of every term after the leading 1
    if mode.compensated:
        cal = lambda c, a, alpha, gam, arg: (
            c, weighted_bessel_integral(a, alpha, gam, arg), True
        )
        if (j, i) == (1, 1):
            terms = [
                cal(-4.0, 0, 1, 1.0, z), cal(4.0, 0, 2, 1.0, z), cal(-2.0, 0, 3, 1.0, z),
                cal(4.0, 0, 1, 2.0, z), cal(-2.0 * zz, 2, -1, 1.0, z), cal(2.0 * zz, 2, 0, 1.0, z),
                cal(-zz, 2, 1, 1.0, z), cal(2.0 * zz, 2, -1, 2.0, z), cal(2.0, 0, 1, 1.0, 2.0 * z),
                cal(-2.0, 0, 2, 1.0, 2.0 * z), cal(1.0, 0, 3, 1.0, 2.0 * z),
                cal(-2.0, 0, 1, 2.0, 2.0 * z),
            ]
        elif (j, i) in ((2, 1), (1, 2)):
            terms = [cal(-4.0, 0, 1, 2.0, z), cal(-2.0 * zz, 2, -1, 2.0, z),
                     cal(2.0, 0, 1, 2.0, 2.0 * z)]
        else:
            terms = [cal(-2.0, 0, 1, 2.0, 2.0 * z)]
    else:
        g30 = lambda c, arg, b2: (c, _g30(arg, b2, -2.0), True)
        bessel = lambda c, order, arg: (c, bessel_k(order, arg), False)
        if (j, i) == (1, 1):
            terms = [
                g30(-4.0 * zz, z, -1.0), bessel(8.0 * sz, 1, 2.0 * sz), g30(-2.0 * zz, z, 1.0),
                g30(16.0 * zz, 2.0 * z, -1.0), bessel(-4.0 * z, 0, 2.0 * sz),
                bessel(4.0 * z * sz, 1, 2.0 * sz), bessel(-2.0 * zz, 2, 2.0 * sz),
                bessel(4.0 * z, 0, 2.0 * s2z), bessel(-4.0 * s2z, 1, 2.0 * s2z),
                g30(4.0 * zz, 2.0 * z, 1.0), g30(-16.0 * zz, 4.0 * z, -1.0),
            ]
        elif (j, i) in ((2, 1), (1, 2)):
            terms = [
                g30(-8.0 * zz, 2.0 * z, -1.0), bessel(-4.0 * z, 0, np.sqrt(8.0 * z)),
                g30(16.0 * zz, 4.0 * z, -1.0),
            ]
        else:
            terms = [g30(-16.0 * zz, 4.0 * z, -1.0)]
    value = 1.0
    for c, term, _ in terms:
        value += c * term
    budget = _EPS + sum(
        (_ABS_TOL * abs(c) + _REL_TOL * abs(c * t)) * quad + _EPS * abs(c * t)
        for c, t, quad in terms
    )
    if not budget < abs(value):
        raise QuadratureError(
            f"outage_closed_form({mode.label}) at x = {z:g}: error budget "
            f"{budget:.3e} not below |P| = {abs(value):.3e}"
        )
    return value


def _laguerre_stieltjes(x, alphas):
    """int_0^inf u^alpha e^-u / (x + u) du at every x > 0 of an array, for
    each alpha of ``alphas`` (0 or 2).

    alpha = 0 is exp(x) E1(x) and alpha = 2 is 1 - x + x^2 exp(x) E1(x).  Up
    to x = 1 the first is exp(x) times the power series of E1, and the second
    follows from it.  Beyond, where the series cancels and the second form
    loses digits like x^2, both are the Jacobi continued fraction of the
    Laguerre weight u^alpha e^-u at a depth banded by x
    (:data:`_LAGUERRE_BANDS`).  Its depth-n convergent is the n-point Gauss
    rule of that weight applied to 1/(x + u), which evaluates a band as one
    array product.
    """
    series = x <= 1.0
    xs = x[series]
    a0 = np.exp(xs) * (-np.euler_gamma - np.log(xs) + xs * polyval(xs, _E1_SERIES))
    values = []
    for alpha in alphas:
        value = np.empty(x.shape)
        value[series] = a0 if alpha == 0 else 1.0 - xs + xs * xs * a0
        lower = 1.0
        for upper, depth in _LAGUERRE_BANDS:
            band = (x > lower) & (x <= upper)
            nodes, weights = _gauss_laguerre(alpha, depth)
            kernel = np.add.outer(x[band], nodes)
            value[band] = np.reciprocal(kernel, out=kernel) @ weights
            lower = upper
        values.append(value)
    return values


@lru_cache(maxsize=16)
def _gauss_laguerre(alpha: int, n: int):
    """Nodes and weights of the n-point Gauss rule of the weight
    u^alpha e^-u on [0, inf), by Golub-Welsch: the eigenvalues of the Jacobi
    matrix of the generalized Laguerre recurrence and Gamma(alpha + 1) times
    the squared first components of its eigenvectors.  Cached, read-only."""
    k = np.arange(n)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1))
    weights = factorial(alpha) * vectors[0] ** 2
    for arr in (nodes, weights):
        arr.setflags(write=False)
    return nodes, weights


def _capacity_kernel(c, which: str):
    """int_0^inf S_lambda(u) * c / (1 + c u) du = E ln(1 + c lambda) at every
    c > 0 of an array, the per-eigenvalue part of E ln(1 + gamma) after
    exchanging the order of integration; with S_largest(u) = 2 e^-u +
    u^2 e^-u - e^-2u and S_smallest(u) = e^-2u."""
    (half,) = _laguerre_stieltjes(2.0 / c, (0,))
    if which == "smallest":
        return half
    zeroth, second = _laguerre_stieltjes(1.0 / c, (0, 2))
    return 2.0 * zeroth + second - half


def _mellin_eigenvalue(s, which: str, g):
    """E{lambda^-s} of the largest/smallest squared singular value, Re s < 1
    (smallest) or Re s < 4 (largest), term by term from the densities, given
    g = Gamma(1 - s)."""
    if which == "smallest":
        return 2.0**s * g
    # The bracket 2 - 2(1 - s) + (2 - s)(1 - s) - 2^s, which cancels the
    # poles of Gamma(1 - s) at s = 1, 2, 3, as u + u^2 - 2 (2^u - 1) with
    # u = s - 1 and 2^u - 1 = e^a cos b - 1 + j e^a sin b (a + jb = u ln 2)
    # formed without cancellation: near s = 1, where the contour c = 1
    # passes and the terms are largest, the direct form loses digits like
    # 1/|s - 1|.
    u = s - 1.0
    a, b = np.log(2.0) * np.real(u), np.log(2.0) * np.imag(u)
    power_m1 = np.expm1(a) * np.cos(b) - 2.0 * np.sin(0.5 * b) ** 2 + 1j * np.exp(a) * np.sin(b)
    with np.errstate(invalid="ignore"):
        val = g * (u + u * u - 2.0 * power_m1)
    # the only pole a contour crosses is s = 1, where the limit is E{1/lambda}
    return np.where(s == 1.0, 2.0 * np.log(2.0) - 1.0, val)


def _z_gauss():
    """The 200-point Gauss-Legendre rule (x, w) on [-1, 1] of the
    compensated E{z^-s}: the nonnegative half held in :mod:`_gauss200`, the
    bits of ``scipy.special.roots_legendre(200)``, and its mirror image, so
    that no run solves an eigenproblem.  Doubling the nodes moves no
    throughput by more than 1e-12 relative and no outage by more than 1e-10
    (checked in the tests)."""
    # imported on first use: compiling its literals takes a millisecond
    from . import _gauss200

    x, w = np.array(_gauss200.NODES), np.array(_gauss200.WEIGHTS)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


@lru_cache(maxsize=1)
def _z_rule():
    """The rule of :func:`_z_gauss` for the compensated alignment law in u,
    with z = sin^2 t and t = (pi/2) u^2, u = (x + 1)/2 in [0, 1].

    Returns (-ln z, weight, -ln t^2, onset): E{f(z)} ~ weight @ f(z), and
    onset @ t^-2s is the rule's value of int_0^{pi/2} (4/3) t^(3-2s) dt,
    the leading term of the law at t -> 0 (see :func:`_mellin_z`).  The
    factor pi u of dt flattens the weight's t^3 onset to u^7.  Built on
    first use and shared by every caller; the arrays are read-only.
    """
    x, w = _z_gauss()
    u = 0.5 * (x + 1.0)
    t = 0.5 * np.pi * u * u
    jacobian = 0.5 * np.pi * u * w
    rule = (
        -2.0 * np.log(np.sin(t)),
        jacobian * _z_weight(t),
        -2.0 * np.log(t),
        jacobian * (4.0 / 3.0) * t**3,
    )
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _mellin_z(s, compensated: bool):
    """E{z^-s} of the alignment factor at complex s, Re s < 1 (fixed
    surface) or Re s < 2 (compensated).

    With compensation it is int_0^{pi/2} (sin t)^-2s w(t) dt, w(t) =
    4t^3/3 + O(t^5), on the rule of :func:`_z_rule`.  Near the pole at
    s = 2 the integrand goes like t^(3-2s), which no fixed rule resolves;
    so where some Re s exceeds 1, the onset (4/3) t^(3-2s) is integrated
    exactly, (4/3)(pi/2)^(4-2s)/(4-2s), and the rule takes only the rest,
    of order t^(5-2s).
    """
    if not compensated:
        return 1.0 / (1.0 - s)
    minus_log_z, weight, minus_log_t2, onset = _z_rule()
    value = _weighted_powers(s, minus_log_z, weight)
    if np.max(np.real(s)) > 1.0:
        exact = (4.0 / 3.0) * np.exp((4.0 - 2.0 * s) * np.log(0.5 * np.pi)) / (4.0 - 2.0 * s)
        value += exact - _weighted_powers(s, minus_log_t2, onset)
    return value


def _weighted_powers(s, log_base, weight):
    """sum_k weight_k exp(s log_base_k) for every s, from real moduli and
    phases (twice as fast as numpy's complex exp)."""
    modulus = np.exp(np.multiply.outer(np.real(s), log_base))
    modulus *= weight
    phase = np.multiply.outer(np.imag(s), log_base)
    return (modulus * np.cos(phase)).sum(axis=-1) + 1j * (modulus * np.sin(phase)).sum(axis=-1)


def _mode_laws(mode: Mode):
    """Laws of a mode's two eigenvalues, "largest" for index 1, the smallest
    first.  Every result is symmetric in the two; the oracles take the
    second as omega, the outer one, whose short lower tail (F ~ w^4/12) is
    then used whenever the mode has one."""
    return sorted(("largest" if k == 1 else "smallest" for k in (mode.rx, mode.tx)), reverse=True)


def _mellin_transform(mode: Mode, s):
    """E{X^-s} of X = lambda_j omega_i z at complex s."""
    # numpy's complex product does not commute bit for bit; one order of
    # the eigenvalue laws keeps M bit-identical when tx and rx swap
    first, second = sorted(_mode_laws(mode))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.exp(log_gamma(1.0 - s))
    eig = _mellin_eigenvalue(s, first, g) * _mellin_eigenvalue(s, second, g)
    return eig * _mellin_z(s, mode.compensated)


def diversity_order(mode: Mode) -> float:
    """Leading pole p of E{X^-s}, X = lambda_j omega_i z: the outage goes
    like x^p (times powers of ln x) as x -> 0.

    It is the smallest of the factors' poles: 1 for the smallest eigenvalue
    (density 2 at 0), 4 for the largest (density ~ y^3/3), 1 for the fixed
    surface's uniform z and 2 with compensation (F(z) ~ z^2/3).  So it is 2
    for the compensated (1,1) mode and 1 for every other mode.
    """
    lam_law, om_law = _mode_laws(mode)
    poles = {"smallest": 1.0, "largest": 4.0}
    return min(poles[lam_law], poles[om_law], 2.0 if mode.compensated else 1.0)


@dataclass(frozen=True)
class _KernelTransform:
    """K(s) M(s), s complex, the transform of the vertical-line rule of
    ``special`` for a mode's Mellin-Barnes column: K is 1/s for "outage" and
    pi/(s sin pi s), the transform of ln(1 + y), for "throughput".  Hashable,
    so the rule caches its nodes per kernel and pair of eigenvalue laws."""

    mode: Mode
    kernel: str

    def __post_init__(self):
        # M(s) reads a mode only through its laws, bit for bit alike when tx
        # and rx swap (see _mellin_transform): keyed by the canonical mode
        # of those laws, j2i1 shares the cached nodes of j1i2
        tx, rx = sorted((self.mode.tx, self.mode.rx), reverse=True)
        object.__setattr__(self, "mode", Mode(tx, rx, self.mode.compensated))

    def __call__(self, s):
        m = _mellin_transform(self.mode, s)
        return m / s if self.kernel == "outage" else np.pi * m / (s * np.sin(np.pi * s))


def _outage_line(mode: Mode, c: float, log_x: np.ndarray):
    """P at x = exp(log_x) from the line Re s = c, and which x it certifies:
    the vertical-line rule with K = 1/s, held also to the alias bound below.
    For c < 0 the line has passed the pole of 1/s at 0, whose residue 1 is
    added."""
    # The rule's error is the sum of its aliases, S at x e^(2 pi m/h) times
    # e^(2 pi m c/h), m != 0 (Poisson summation).  Halving removes only the
    # odd m, so it cannot see aliases that grow with |m|; these bounds can.
    # Toward 0 (x' > x for c > 0, x' < x for c < 0) P or 1 - P is at most
    # 1, and beyond the line Markov's inequality gives P(x') <= M(sigma)
    # x'^sigma for c < sigma < p (1 - P(x') for sigma < c < 0), so that
    # relative to |P| the aliases add up to at most
    #     [q(c) + M(sigma) x^sigma q(sigma - c)] / |P|,
    # with q(a) = e^(-2 pi |a| / h) / (1 - e^(-2 pi |a| / h)), and the
    # tightest of a few sigma is taken.
    pole = diversity_order(mode)
    if c > 0.0:
        sigmas = pole - (pole - c) * 0.5 ** np.arange(1, 9)
    else:
        sigmas = c * 2.0 ** np.arange(1, 5)
    moments = _mellin_transform(mode, sigmas.astype(np.complex128)).real
    log_moments = np.log(moments) + np.multiply.outer(log_x, sigmas)

    def alias(step, scaled):
        near = np.min(log_moments + _log_geometric(sigmas - c, step), axis=1)
        # a sum that cancels to exactly 0 has no relative bound (+inf)
        with np.errstate(divide="ignore"):
            log_scaled = np.log(scaled)
        return np.logaddexp(_log_geometric(c, step), near) - (c * log_x + log_scaled)

    return _line_integral(_KernelTransform(mode, "outage"), c, log_x, float(c < 0.0), alias)


def _log_geometric(a, step: float):
    """ln of q / (1 - q) with q = e^(-2 pi |a| / step)."""
    log_q = -2.0 * np.pi * np.abs(a) / step
    return log_q - np.log1p(-np.exp(log_q))


def outage(mode: Mode, x):
    """Outage probability P{lambda_j omega_i z <= x} at every x of an array
    at once, by Mellin-Barnes.

    With M(s) = E{X^-s} and X = lambda_j omega_i z, the product of three
    one-dimensional transforms,

        P(x) = (1/2 pi j) int_{c-j inf}^{c+j inf} x^s M(s) / s ds,

    for 0 < c < p, with p = :func:`diversity_order` the leading pole of
    M: 2 for the compensated (1,1) mode and 1 for the others.  M is
    evaluated once per node of a contour, and x^s over all x is one outer
    product.  On the line the integrand is of size x^c while P goes like
    x^p as x -> 0, so the sum cancels by about x^(c-p) for small x, and by
    x^c for large x.  Each x therefore takes the first of these lines that
    meets the relative tolerance ``special._REL_TOL`` (1e-10):
    c = p/2; then, below x = 1, c = p - 0.15, and from x = 1 on c = -p/2,
    where the line has crossed the pole at 0 and P = 1 + (the line
    integral).  A line meets the tolerance at x when its trapezoid rule,
    halved step by step, has converged there, its alias bound is within
    the tolerance, and so is its cancellation bound eps * sum|terms| / |P|.
    An x that no line certifies raises QuadratureError: step-halving
    agreement cannot detect cancellation.

    Returns a float for a scalar x, else an array of x's shape.
    :func:`outage_quadrature` is the independent oracle, and
    :func:`outage_closed_form` the paper's expressions.
    """
    xs = np.asarray(x, dtype=np.float64)
    if not np.all((xs >= 0.0) & (xs < np.inf)):
        raise ValueError("x must be nonnegative and finite")
    pole = diversity_order(mode)
    flat = xs.ravel()
    result = np.zeros(flat.shape)
    pending = flat > 0.0
    with np.errstate(divide="ignore"):
        log_x = np.log(flat)
    contours = (0.5 * pole, pole - _POLE_MARGIN, -0.5 * pole)
    for c in contours:
        where = np.flatnonzero(pending)
        if c != contours[0]:
            # the fallbacks: c = p - 0.15 below x = 1, c = -p/2 from x = 1 on
            where = where[(log_x[where] < 0.0) == (c > 0.0)]
        if where.size == 0:
            continue
        value, ok = _outage_line(mode, c, log_x[where])
        result[where[ok]] = value[ok]
        pending[where[ok]] = False
    todo = np.flatnonzero(pending)
    if todo.size:
        raise QuadratureError(
            f"outage({mode.label}): no Mellin-Barnes line meets rel_tol "
            f"{_REL_TOL:g} at x = {flat[todo[0]]:g} ({todo.size} of {flat.size} x)"
        )
    result = result.reshape(xs.shape)
    return result if result.ndim else float(result)


def throughput(mode: Mode, gamma_bar):
    """Average throughput E ln(1 + gamma) in nats/s/Hz at every gamma_bar
    of an array at once, by Mellin-Barnes.

    With M(s) = E{X^-s}, X = lambda_j omega_i z, and y = 1/gamma_bar,

        R(y) = (1/2 pi j) int_{c-j inf}^{c+j inf} y^s pi/(s sin pi s) M(s) ds

    on the line c = -1/2, inside the strip -1 < Re s < 0 where
    pi/(s sin pi s) is the Mellin transform of ln(1 + y).  The integrand
    decays like exp(-2 pi |Im s|).  It runs on the rule and the cached
    nodes of :func:`outage`, so y^s over all gamma_bar is one outer product.
    Each value is certified, by step halving and the cancellation bound
    eps * sum|terms| y^c / R, to ``special._REL_TOL`` (1e-10), or
    QuadratureError is raised: from 136.5 dB on for j1i1-cmp, 155.5 dB for
    j2i2-cmp.

    Returns a float for a scalar gamma_bar, else an array of its shape.
    :func:`throughput_quadrature` is the independent oracle.
    """
    gammas = np.asarray(gamma_bar, dtype=np.float64)
    if not np.all((gammas > 0.0) & (gammas < np.inf)):
        raise ValueError("gamma_bar must be positive and finite")
    flat = gammas.ravel()
    # No alias bound, unlike outage: at c = -1/2 the alias m of step h is R
    # at y e^(2 pi m/h) times e^(pi m/h); R falls like 1/y one way and grows
    # like ln(1/y) the other, so the aliases shrink like e^(-pi |m| / h) on
    # both sides and halving the step sees the leading one.
    value, ok = _line_integral(
        _KernelTransform(mode, "throughput"), _THROUGHPUT_ABSCISSA, -np.log(flat)
    )
    if not ok.all():
        raise QuadratureError(
            f"throughput({mode.label}): the Mellin-Barnes line does not meet rel_tol "
            f"{_REL_TOL:g} at gamma_bar = {flat[~ok][0]:g} "
            f"({np.count_nonzero(~ok)} of {flat.size} gamma_bar)"
        )
    result = value.reshape(gammas.shape)
    return result if result.ndim else float(result)


def _throughput_tail_mass(mode: Mode, gamma_bar) -> float:
    """The probability mass each truncated tail of the throughput oracle may
    drop on a grid of gamma_bar: a share of _REL_TOL times a lower bound of
    R, R >= P{lambda, omega, z >= 1/2} ln(1 + gamma_bar/8), over what a unit
    of mass can carry.  A tail A of (omega, z) of mass m drops at most
    m ln(1 + 3.5 gamma_bar) + E[omega; A] (ln(1 + ab) <= ln(1 + a) + b, and
    Jensen over lambda), and E[omega; A] <= (w_hi + 3.5) m, w_hi the upper
    cut of omega, which grows like ln(1/m); so m is solved for twice and
    halved."""
    lam_law, om_law = _mode_laws(mode)
    survival = (1.0 - eigenvalue_cdf(0.5, lam_law)) * (1.0 - eigenvalue_cdf(0.5, om_law))
    survival *= 1.0 - z_factor_cdf(0.5, mode.compensated)
    budget = _ORACLE_TAIL_SHARE * _REL_TOL * survival * np.log1p(gamma_bar / 8.0)
    carry = np.log1p(3.5 * gamma_bar) + 3.5
    mass = budget / carry
    for _ in range(2):
        mass = 0.5 * budget / (carry + np.exp(_omega_log_range(om_law, mass)[1]))
    return max(float(np.min(mass)), np.finfo(np.float64).tiny)


def throughput_quadrature(mode: Mode, gamma_bar):
    """Average throughput E ln(1 + gamma) by quadrature at every gamma_bar
    of an array at once (a float for a scalar); the oracle of
    :func:`throughput`.

    E ln(1 + c lambda) is an exponential-integral kernel
    (:func:`_capacity_kernel`), and omega and z run on the oracles' rule
    (:func:`_oracle_rule`), with no Mellin step.  Each of its four tails
    leaves out at most 2.5e-4 ``special._REL_TOL`` times a closed-form lower
    bound of R, and each value is certified by step halving to that relative
    tolerance, or QuadratureError is raised.
    """
    gammas = np.asarray(gamma_bar, dtype=np.float64)
    if not np.all((gammas > 0.0) & (gammas < np.inf)):
        raise ValueError("gamma_bar must be positive and finite")
    flat = gammas.ravel()
    mass = _throughput_tail_mass(mode, flat)
    result = _oracle_rule(mode, flat, False, _capacity_kernel, mass)
    result = result.reshape(gammas.shape)
    return result if result.ndim else float(result)


def throughput_closed_r22(gamma_bar: float) -> float:
    """Closed form of the plain-surface (2,2)-mode throughput,
    (16/gamma_bar^2) G^{4,1}_{2,4}(4/gamma_bar | -2,0; -2,-1,-1,-2)."""
    _require_scalar("gamma_bar", gamma_bar)
    if not 0.0 < gamma_bar < np.inf:
        raise ValueError("gamma_bar must be positive and finite")
    params = MeijerParams(4, 1, 2, 4, (-2.0, 0.0), (-2.0, -1.0, -1.0, -2.0))
    return 16.0 / gamma_bar**2 * meijer_g(params, 4.0 / gamma_bar)


def throughput_closed_r22_cmp(gamma_bar: float) -> float:
    """Closed form of the compensated (2,2)-mode throughput: a single
    G^{3,1}_{1,3} tail integral plus half the plain-surface value."""
    _require_scalar("gamma_bar", gamma_bar)
    if not 0.0 < gamma_bar < np.inf:
        raise ValueError("gamma_bar must be positive and finite")
    params = MeijerParams(3, 1, 1, 3, (0.0,), (0.0, 1.0, 0.0))

    def tail(u):
        # one G evaluation, on one contour, for every node of a level
        t = 1.0 + u * u
        g = meijer_g(params, 4.0 * t / gamma_bar)
        return 2.0 * (1.0 - u * u) / t**2 * np.arcsin(1.0 / np.sqrt(t)) * g

    integral = _half_line_integral(tail, "throughput_closed_r22_cmp")
    return 0.5 * integral + 0.5 * throughput_closed_r22(gamma_bar)
