"""Closed-form statistics of the mode SNRs and their quadrature oracles.

The mode SNR factors as gamma = gamma_bar * lambda_j * omega_i * z with
independent pieces, so every distributional quantity reduces to integrals
over four known laws:

* squared singular values of a 2x2 complex Gaussian matrix:
      F_largest(y)  = 1 - 2 e^{-y} - y^2 e^{-y} + e^{-2y},
      F_smallest(y) = 1 - e^{-2y},
  with means 7/2 and 1/2;
* z with a fixed surface:          F(z) = z (uniform on [0, 1]);
* z with the surface compensated:  F(z) = z - sqrt(z(1-z)) asin(sqrt z).

Every fact of a law that a result reads lives in one row of one table, a
:class:`_Law` each in ``_EIGENVALUE_LAWS`` and ``_Z_LAWS``: its mean, the
leading pole of its transform, its CDF and density, E{X^-s}, the capacity
kernel and the bounds and node maps of the oracles.  :func:`_mode_laws` is
the one place a mode is mapped to its rows; everything else reads fields.

``outage`` and ``throughput`` are Mellin-Barnes line integrals of the
transform E{X^-s} of X = lambda_j omega_i z, a product of three
one-dimensional transforms (Springer, The Algebra of Random Variables,
1979), against a kernel (1/s, or pi/(s sin pi s) for ln(1 + y)).  Both
run on the vertical-line rule of ``special``, the one the Meijer G
functions of the closed forms run on: a step-halved trapezoid rule on
cached contour nodes, over a whole grid at once from phasor tables that
``special`` builds, caches and sums, certifying each value in relative
terms.  Each factor of the transform depends only on its law and
the node, so each is evaluated once per node set of a contour and shared
by every mode and both kernels.

Outage is computed three ways on purpose.  ``outage_closed_form``
assembles the paper's Bessel/Meijer-G expressions, the reproduced artifact,
whose "1 - sum" form cancels at high SNR; ``outage`` is the analytic column
of the sweeps; ``outage_quadrature`` integrates E{F_lambda(x / (omega z))}
directly, with no Bessel, Meijer-G or Mellin step.  Throughput has
``throughput`` and its oracle ``throughput_quadrature``, which takes
E ln(1 + c lambda) as an exponential-integral kernel.  Both oracles run in
the real domain on one 2-D trapezoid rule in s = ln omega and a logistic
variable u of the alignment factor, where the integrand is analytic on a
strip, taken uniform in sinh-mapped variables (s = c + 4 sinh v, u = 4
sinh w) that space the nodes out in the tails, so halving the step
converges geometrically on fewer nodes.  Where the outage kernel turns
far below the bulk of omega, at tiny x, the maps centre on that band and
widen with it, so the rule stays near uniform there.  Each of the four
tails of a rule is cut where it leaves out at most 2.5e-4 of the relative
tolerance: a tail toward which the integrand falls by its mass alone, the
upper tails of omega and z in outage and their lower tails in throughput;
the lower outage tails by a closed-form lower bound of P; and the upper
throughput tails by ln(1 + c z) >= z ln(1 + c) on z in [0, 1] and
ln(1 + c omega) <= omega ln(1 + c) for omega >= 1.  The laws are
evaluated without cancellation, so both oracles are accurate in relative
terms far into the high-SNR tail.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .special import (
    _ABS_TOL,
    _EPS,
    _REL_TOL,
    MeijerParams,
    QuadratureError,
    _certified_line,
    _contour_abscissa,
    _frequency_sum,
    _g30,
    _line_integral,
    _line_nodes,
    bessel_k,
    log_gamma,
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
    "weighted_bessel_integral",
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

# (upper end, depth) of the two bands of x > 1 of _laguerre_stieltjes: the
# continued fraction at its depth gives f_2 at the centers of its Taylor
# polynomials over the first band and f_2 itself over the second, within an
# ulp from the band's lower end on.  The polynomials have degree
# _LAGUERRE_DEGREE, at _LAGUERRE_STEPS centers c per unit of ln x, and each
# is within an ulp at |h| <= c / 512.
_LAGUERRE_BANDS = ((128.0, 120), (np.inf, 5))
_LAGUERRE_STEPS = 256
_LAGUERRE_DEGREE = 6

# The argument of the capacity kernels below which E ln(1 + c X) = c E{X}
# to double precision: the next term, c E{X^2} / (2 E{X}), is at most 2.3 c
# relative for both eigenvalue laws.
_KERNEL_LINEAR = 1e-17

# The oracles' rule: the share of _REL_TOL times P or R that each of its four
# truncated tails may leave out, the node spacing of its first level at the
# centres of its sinh maps, the scale of the maps centred on the bulk of
# omega, the widest band of the outage kernel's turn they are used for (they
# space the nodes at its far end at most 4.1 times as far apart as at the
# bulk), the nodes evaluated at once (64 kB per array) and the most nodes a
# level may have (a few seconds of work; no outage x in [1e-8, 1e4] needs
# more than 4e5).
_ORACLE_TAIL_SHARE = 2.5e-4
_ORACLE_FIRST_SPACING = 1.0
_ORACLE_SINH_SCALE = 4.0
_ORACLE_NEAR = 16.0
_ORACLE_BLOCK = 1 << 13
_ORACLE_MAX_NODES = 1 << 25


def z_factor_cdf(z, compensated: bool = True):
    """CDF of the alignment factor z, clamped outside [0, 1].

    With compensation it is z - sqrt(z(1-z)) arcsin(sqrt z), which cancels
    like z^2/3 near 0; in z = sin^2 t it is sin t (sin t - t cos t), taken
    as 2 sqrt(z) _z_weight(t/2), accurate in relative terms down to z -> 0.
    """
    return _z_law(compensated).cdf(z)


def eigenvalue_cdf(y, which: str = "largest"):
    """CDF of the largest/smallest squared singular value of a 2x2
    complex Gaussian matrix (unit-variance entries), accurate in relative
    terms down to y -> 0, where the largest law goes like y^4/12."""
    return _eigenvalue_law(which).cdf(y)


def eigenvalue_pdf(y, which: str = "largest"):
    """Density of the largest/smallest squared singular value, accurate in
    relative terms down to y -> 0, where the largest law goes like y^3/3."""
    return _eigenvalue_law(which).pdf(y)


def eigenvalue_mean(which: str = "largest") -> float:
    """Exact means: integrating the survival functions gives 7/2 and 1/2."""
    return _eigenvalue_law(which).mean


def mean_z(compensated: bool = True) -> float:
    return _z_law(compensated).mean


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
    lam, om, z = _mode_laws(mode)
    return gamma_bar * lam.mean * om.mean * z.mean


def _z_weight(t):
    """sin(2t)/2 - t cos(2t), the alignment density in z = sin^2 t with
    compensation, accurate in relative terms down to t -> 0 (~ 4t^3/3)."""
    a = 2.0 * np.asarray(t, dtype=np.float64)
    direct = 0.5 * (np.sin(a) - a * np.cos(a))
    return np.where(a < 1.0, a**3 * _horner(a * a, _Z_WEIGHT_SERIES), direct)


def _horner(x, coefficients):
    """sum_n coefficients[n] x^n, the lowest order first, by Horner's rule
    in the order of operations of numpy's ``polyval`` (bit for bit alike);
    a coefficient may be an array of x's shape."""
    value = coefficients[-1]
    for c in coefficients[-2::-1]:
        value = c + value * x
    return value


def _at_thresholds(x, values):
    """``values`` of the flat x > 0 of an array x, and 0 at x = 0, in the
    shape of x (a float for a scalar); ValueError unless x is finite, >= 0."""
    xs = np.asarray(x, dtype=np.float64)
    if not np.all((xs >= 0.0) & (xs < np.inf)):
        raise ValueError("x must be nonnegative and finite")
    flat = xs.ravel()
    result = np.zeros(flat.shape)
    live = flat > 0.0
    if live.any():
        result[live] = values(flat[live])
    result = result.reshape(xs.shape)
    return result if result.ndim else float(result)


def _at_gamma_bars(gamma_bar, values):
    """``values`` of the flat array of gamma_bar, in its shape (a float for
    a scalar); ValueError unless every gamma_bar is positive and finite."""
    gammas = np.asarray(gamma_bar, dtype=np.float64)
    if not np.all((gammas > 0.0) & (gammas < np.inf)):
        raise ValueError("gamma_bar must be positive and finite")
    result = values(gammas.ravel()).reshape(gammas.shape)
    return result if result.ndim else float(result)


def _outage_tail_mass(mode: Mode, x: float) -> float:
    """The probability mass each lower tail of the outage oracle may drop: a
    share of _REL_TOL times a lower bound of P(x), which grows with x, so
    that the smallest x of a grid sets the mass of the grid.  Where omega or
    z is small, x / (omega z) is large and F_lambda near 1, so a lower tail
    drops up to its mass.

    Since the three events together imply lambda omega z <= x, P is at
    least P{lambda <= a} P{omega <= b} P{z <= c} whenever abc = x; the
    bound gives all of x <= 1 to the factor with the heaviest lower tail
    (the z row's lower bound of F on [0, 1]), and sqrt(x) to each
    eigenvalue above.  The mass is floored at the smallest normal float,
    which keeps the nodes finite; relative accuracy holds while P is above
    about 1e-290.
    """
    lam, om, z = _mode_laws(mode)
    if x > 1.0:
        bound = lam.cdf(np.sqrt(x)) * om.cdf(np.sqrt(x))
    else:
        f_lam, f_om = lam.cdf(np.array([x, 1.0])), om.cdf(np.array([x, 1.0]))
        bound = max(f_lam[0] * f_om[1], f_lam[1] * f_om[0], f_lam[1] * f_om[1] * z.floor(x))
    return max(_ORACLE_TAIL_SHARE * _REL_TOL * bound, np.finfo(np.float64).tiny)


def _omega_log_range(om: _Law, lo_mass: float, hi_moment: float):
    """[ln w_lo, ln w_hi] with P{omega < w_lo} <= ``lo_mass`` and
    E[omega; omega > w_hi] <= ``hi_moment``, which bounds P{omega > w_hi}
    as well (w_hi > 1 for a moment below 0.2), from the tail bounds of the
    row ``om``: F(w) <= w^pole / onset and E[omega; omega > w] <= moment(w)
    e^(-rate w)."""
    rate, moment = om.tail
    w_hi = -np.log(hi_moment) / rate
    for _ in range(8):  # w = ln(moment(w) / hi_moment) / rate is a contraction
        w_hi = (np.log(_horner(w_hi, moment)) - np.log(hi_moment)) / rate
    return np.log((om.onset * lo_mass) ** (1.0 / om.pole)), np.log(w_hi)


def _falling_tail_mass() -> float:
    """The mass m of a tail over which the integrand is at most its value at
    the cut: the tail drops at most m times that value, the rest at least
    1 - m times it, so at most m / (1 - m) of the integral is left out, and
    this m leaves out _ORACLE_TAIL_SHARE _REL_TOL of it."""
    share = _ORACLE_TAIL_SHARE * _REL_TOL
    return share / (1.0 + share)


def _outage_box(mode: Mode, x: float):
    """((s_lo, s_hi), (u_lo, u_hi)), the outage oracle's cuts of s = ln
    omega and of the logistic variable u of z for a grid whose smallest x
    is ``x``, each tail leaving out at most _ORACLE_TAIL_SHARE _REL_TOL of
    P at every x of the grid.

    The lower tails drop up to their mass (:func:`_outage_tail_mass`).
    The upper ones need no bound of P: F_lambda(x / (omega z)) falls as
    omega and z grow (:func:`_falling_tail_mass`).
    """
    _, om, z = _mode_laws(mode)
    low, high = _outage_tail_mass(mode, x), _falling_tail_mass()
    return _omega_log_range(om, low, high), z.cuts(low, high)


def _outage_band(mode: Mode, x: float) -> float:
    """The width of the band of s = ln omega over which the outage kernel
    turns for a grid whose smallest x is ``x``, if wider than _ORACLE_NEAR
    (0 otherwise): F_lambda(x / (omega z)) turns along s + ln z = ln x,
    from s = ln x, where z is near 1, up to the bulk of omega, the centre
    of its row."""
    width = _mode_laws(mode)[1].centre - np.log(x)
    return width if width > _ORACLE_NEAR else 0.0


def _oracle_sum(mode: Mode, scales, inverse: bool, s, u, s_weight=1.0, u_weight=1.0):
    """sum_{s, u} K(y) f_omega(e^s) e^s w(u) over the nodes s x u at every
    a of ``scales``, y = a e^s z(u) and K the capacity kernel of lambda's
    row (with ``inverse``, y = a e^-s / z(u) and K its CDF), with the rows of
    :func:`_mode_laws` and each node weighted by ``s_weight`` and
    ``u_weight`` (the Jacobians of a change of variables): the node sum of
    both oracles' rule, _ORACLE_BLOCK nodes at a time."""
    lam, om, z = _mode_laws(mode)
    kernel = lam.cdf if inverse else lam.kernel
    omega = np.exp(s)
    row_weight = om.pdf(omega) * omega * s_weight
    inv_z, col_weight = z.nodes(u)
    col_weight = col_weight * u_weight
    outer = np.divide.outer if inverse else np.multiply.outer
    rows, cols = outer(scales, omega), (inv_z if inverse else 1.0 / inv_z)
    block = max(1, _ORACLE_BLOCK // (scales.size * cols.size))
    total = np.zeros(scales.size)
    for i in range(0, omega.size, block):
        y = np.multiply.outer(rows[:, i : i + block], cols)
        total += (kernel(y) @ col_weight) @ row_weight[i : i + block]
    return total


def _oracle_rule(mode: Mode, scales, inverse: bool, box, band=0.0):
    """int int K(y) f_omega(e^s) e^s w(u) ds du at every a of ``scales``
    over ``box`` = ((s_lo, s_hi), (u_lo, u_hi)), K and y as in
    :func:`_oracle_sum`: the 2-D trapezoid rule of both oracles.

    s = ln omega and the logistic variable u of the alignment factor (z =
    expit(u), or with compensation t = (pi/2) expit(u) in z = sin^2 t,
    weighted by sin(2t)/2 - t cos(2t)) run from the lower cuts of ``box``
    to at least its upper ones, on a uniform grid in the mapped variables
    s = c_s + S_s sinh v and u = c_u + S_u sinh w, the Jacobians as node
    weights, each node on a lower cut at half weight, as an end of the
    trapezoid.  The map keeps the rule's geometric convergence, and its node
    spacing grows with the distance from its centre, so the tails, where
    the integrand decays exponentially over tens of units, take few nodes
    (Trefethen & Weideman, SIAM Review 2014).

    With no ``band`` the maps centre on the bulk, c_s the centre of
    omega's row (+1 for the largest law, -1 for the smallest) and c_u = 0,
    at scale _ORACLE_SINH_SCALE.  A ``band`` (:func:`_outage_band`), where
    the kernel turns far below the bulk, centres the s map on [c_s - band,
    c_s] at twice its width, so the Jacobian varies by at most 3% across
    it and the rule is near uniform there, as it must be for tiny outage
    x; the u map centres on the band's image in u, ln z ~ u / squeeze of
    z's row (2u with compensation), likewise.

    The node spacing at the maps' centres is halved from
    _ORACLE_FIRST_SPACING, reusing the nodes of the level before, until two
    levels agree to _REL_TOL relative at an a, which then drops out;
    QuadratureError is raised once a level would exceed _ORACLE_MAX_NODES,
    and at once if even the largest y of the box at the smallest a is not a
    normal float, where no node carries a digit the sum could certify, or if
    the first level's estimate there is below the least value the rule can
    certify: 2^-1074 / _REL_TOL, and for outage what its two lower tails
    may drop at the smallest normal float, 2 tiny F_lambda(top), over
    _REL_TOL.
    """
    (s_lo, s_hi), (u_lo, u_hi) = box
    lam, om, z = _mode_laws(mode)
    (s_centre, s_scale), (u_centre, u_scale) = (
        (centre - 0.5 * width, max(_ORACLE_SINH_SCALE, 2.0 * width))
        for centre, width in ((om.centre, band), (0.0, z.squeeze * band))
    )
    v_lo, v_hi = np.arcsinh((s_lo - s_centre) / s_scale), np.arcsinh((s_hi - s_centre) / s_scale)
    w_lo, w_hi = np.arcsinh((u_lo - u_centre) / u_scale), np.arcsinh((u_hi - u_centre) / u_scale)
    label = f"{'outage' if inverse else 'throughput'}_quadrature({mode.label})"
    # y is largest at the box's upper omega and z corner, or with the
    # inverse at its lower one
    inv_z = z.nodes(np.array([u_lo, u_hi]))[0]
    with np.errstate(over="ignore"):
        top = scales.min() * (np.exp(-s_lo) * inv_z[0] if inverse else np.exp(s_hi) / inv_z[1])
    tiny = np.finfo(np.float64).tiny
    if not top >= tiny:
        raise QuadratureError(
            f"{label} at {scales.min():g}: every kernel argument of the box is below "
            f"the normal floats (at most {top:.3e})"
        )

    def node_sum(k_v, k_w, spacing, a):
        # the sum over the nodes (v_lo + k_v h_v, w_lo + k_w h_w) at every a,
        # h the step in each mapped variable that gives ``spacing`` at the
        # maps' centres; a node on a lower cut (k = 0) is an end of the
        # trapezoid and weighs half
        v, w = v_lo + k_v * (spacing / s_scale), w_lo + k_w * (spacing / u_scale)
        return _oracle_sum(
            mode, a, inverse, s_centre + s_scale * np.sinh(v), u_centre + u_scale * np.sinh(w),
            s_scale * np.cosh(v) * np.where(k_v == 0, 0.5, 1.0),
            u_scale * np.cosh(w) * np.where(k_w == 0, 0.5, 1.0),
        )

    spacing = _ORACLE_FIRST_SPACING
    n_s = int(np.ceil((v_hi - v_lo) / (spacing / s_scale))) + 1
    n_u = int(np.ceil((w_hi - w_lo) / (spacing / u_scale))) + 1
    result = np.empty(scales.shape)
    active = np.arange(scales.size)
    # a y that overflows to inf just saturates the outage kernel, and one
    # that underflows to 0 zeroes the throughput kernel
    with np.errstate(over="ignore"):
        total = node_sum(np.arange(n_s), np.arange(n_u), spacing, scales)
        cell = (spacing / s_scale) * (spacing / u_scale)
        estimate, change = cell * total, np.full(scales.shape, np.inf)
        # below this first estimate the step halving cannot certify _REL_TOL:
        # where the outage box's lower cuts sit at the smallest normal float,
        # its two lower tails drop up to tiny F_lambda(top) each, and no value
        # below 2^-1074 / _REL_TOL carries _REL_TOL
        floor = max(
            2.0 * tiny * lam.cdf(top) / _REL_TOL if inverse else 0.0,
            np.finfo(np.float64).smallest_subnormal / _REL_TOL,
        )
        if not estimate.min() > floor:
            raise QuadratureError(
                f"{label} at {scales.min():g}: the first estimate {estimate.min():.3e} is "
                f"below the {floor:.3e} the rule can certify"
            )
        while (2 * n_s - 1) * (2 * n_u - 1) <= _ORACLE_MAX_NODES:
            spacing *= 0.5
            n_s, n_u = 2 * n_s - 1, 2 * n_u - 1
            # the new nodes: odd rows at all columns, even rows at odd columns
            a = scales[active]
            total += node_sum(np.arange(1, n_s, 2), np.arange(n_u), spacing, a)
            total += node_sum(np.arange(0, n_s, 2), np.arange(1, n_u, 2), spacing, a)
            cell *= 0.25
            previous, estimate = estimate, cell * total
            change = np.abs(estimate - previous)
            # a sum that underflows to 0 certifies nothing in relative terms
            done = (change <= _REL_TOL * estimate) & (estimate > 0.0)
            result[active[done]] = estimate[done]
            active, total, estimate, change = (v[~done] for v in (active, total, estimate, change))
            if active.size == 0:
                return result
    raise QuadratureError(
        f"{label} at {scales[active[0]]:g}: trapezoid not converged at spacing "
        f"{spacing:g} on {n_s}x{n_u} nodes (estimate {estimate[0]:.6e}, last "
        f"change {change[0]:.3e})"
    )


def outage_quadrature(mode: Mode, x):
    """Outage probability P{lambda_j omega_i z <= x} by direct quadrature
    of E{F_lambda(x / (omega z))} at every x of an array at once (a float
    for a scalar); the reference implementation.

    It runs on the oracles' rule (:func:`_oracle_rule`) once over the grid,
    uniform in the sinh-mapped variables of s = ln omega and the logistic
    variable of z, on the cuts of :func:`_outage_box`: each of the four
    tails leaves out at most 2.5e-4 ``special._REL_TOL`` of P at every x,
    the lower ones by a closed-form lower bound of P at the smallest x, the
    upper ones, where the integrand falls, by their mass alone.  Once the
    band where F_lambda turns, s + ln z = ln x, reaches far below the bulk
    of omega (:func:`_outage_band`: x below about 3e-7, or 4e-8 for the
    smallest omega law), the maps centre on it and the rule is near
    uniform over it.  It halves its node spacing until two levels agree to
    that relative tolerance at each x.  Far down the lower tails cannot be
    cut that finely, and each drops up to the smallest normal float, so
    QuadratureError is raised at once where the first level's estimate is
    below what they drop over that tolerance, at most 4.5e-298
    (:func:`_oracle_rule`): j1i1 from x = 1e-297 on.
    """
    _mode_laws(mode)  # a scheme that is not a mode fails whatever the x
    return _at_thresholds(
        x,
        lambda z: _oracle_rule(mode, z, True, _outage_box(mode, z.min()), _outage_band(mode, z.min())),
    )


def outage_closed_form(mode: Mode, x):
    """Closed-form outage at every x of an array at once (a float for a
    scalar), mode-by-mode assembly of the Bessel and Meijer-G expressions;
    validated against :func:`outage_quadrature`.

    Each Meijer-G and composite term (:func:`weighted_bessel_integral`) is
    one call over the grid, certified to about max(_ABS_TOL, _REL_TOL
    |term|) at every x, so P = 1 + sum of the terms carries an error
    budget of _ABS_TOL times their |coefficients| plus _REL_TOL times their
    |values|, plus eps times all |terms|.  Where that is not below |P|,
    QuadratureError is raised at the first such x: for j1i1-cmp below
    x ~ 3e-4, P ~ 0.0172 x^2 drowns in terms of order one.
    """
    _mode_laws(mode)  # a scheme that is not a mode fails whatever the x
    return _at_thresholds(x, lambda z: _closed_form_sum(mode, z))


def _closed_form_sum(mode: Mode, z):
    """P of :func:`outage_closed_form` at every x = z > 0 of a flat array."""
    # the coefficients reach 16 x^2, which overflows from x ~ 3.4e153 on
    big = z > np.sqrt(np.finfo(np.float64).max / 16.0)
    if big.any():
        raise QuadratureError(
            f"outage_closed_form({mode.label}) at x = {z[big][0]:g}: its coefficients overflow"
        )
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
        (_ABS_TOL * np.abs(c) + _REL_TOL * np.abs(c * t)) * quad + _EPS * np.abs(c * t)
        for c, t, quad in terms
    )
    k = np.argmin(budget < np.abs(value))  # the first x that fails, if any
    if not budget[k] < abs(value[k]):
        raise QuadratureError(
            f"outage_closed_form({mode.label}) at x = {z[k]:g}: error budget "
            f"{budget[k]:.3e} not below |P| = {abs(value[k]):.3e}"
        )
    return value


def weighted_bessel_integral(a: int, alpha: int, gamma_param, x):
    """The composite term of the compensated outage expressions, at every
    pair of ``gamma_param`` and ``x`` (arrays broadcast together; a float
    for scalars).

    Equal to the double integral over the compensated alignment density
    f(u) and an exponential weight,

        W = int_0^1 int_0^inf u^{-a} w^{alpha-1} exp(-x/(u w) - gamma_param*w)
                f(u) dw du.

    With exp(-y) the Mellin-Barnes integral of Gamma(-s) y^s on Re s < 0,
    the w integral gives Gamma(alpha - s) gamma_param^(s - alpha) and the u
    integral E{z^-(s+a)} of the compensated law, so

        W = gamma_param^-alpha (1/2 pi j) int Gamma(-s) Gamma(alpha - s)
                E{z^-(s+a)} (gamma_param x)^s ds

    on the line Re s = min(0, alpha, 2 - a) - 1/2, left of the poles of
    all three factors: one call of the vertical-line rule over the grid,
    certified to max(_ABS_TOL, _REL_TOL |W|) at every point.
    """
    if a not in (0, 2):
        raise ValueError("a must be 0 or 2")
    if alpha not in (-1, 0, 1, 2, 3):
        raise ValueError("alpha must be in -1..3")
    gam, x = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (gamma_param, x)))
    if not np.all((gam > 0.0) & (x > 0.0) & (gam < np.inf) & (x < np.inf)):
        raise ValueError("gamma_param and x must be positive and finite")
    params = MeijerParams(2, 0, 0, 2, (), (0.0, float(alpha)))
    transform = _AlignedTransform(params, float(a), (0.0, 1.0))
    scale = gam.ravel() ** alpha
    what = f"weighted_bessel_integral(a={a}, alpha={alpha})"
    values = _certified_line(
        transform, min(0, alpha, 2 - a) - 0.5, (gam * x).ravel(), _ABS_TOL * scale, what
    )
    value = (values / scale).reshape(gam.shape)
    return value if value.ndim else float(value)


def _laguerre_stieltjes(x):
    """(f_0, f_2), f_a(x) = int_0^inf u^a e^-u / (x + u) du, at every x > 0
    of an array; f_0 is exp(x) E1(x), and f_a = (a - 1)! - x f_(a-1).

    Up to x = 1, f_0 is exp(x) times the power series of E1, and f_2 = 1 - x
    + x^2 f_0 follows.  Beyond, where the series cancels and that form of f_2
    loses digits like x^2, f_2 comes first and f_0 = (x - 1 + f_2) / x^2 adds
    positive terms (taken as (1 - (1 - f_2) / x) / x: x^2 overflows from x
    ~ 1e154 on).  f_2 is the Taylor polynomial at the nearest center of
    :func:`_laguerre_taylor` over the first band of :data:`_LAGUERRE_BANDS`
    and the continued fraction :func:`_laguerre_fraction` over the second.
    Either takes a fixed number of array operations, whatever the x.
    """
    flat = x.ravel()
    f0, f2 = np.empty(flat.shape), np.empty(flat.shape)
    series = flat <= 1.0
    xs = flat[series]
    f0[series] = np.exp(xs) * (-np.euler_gamma - np.log(xs) + xs * _horner(xs, _E1_SERIES))
    f2[series] = 1.0 - xs + xs * xs * f0[series]
    (table_end, _), (_, depth) = _LAGUERRE_BANDS
    far = flat > table_end
    near = ~series & ~far
    xn = flat[near]
    centers, coefficients = _laguerre_taylor()
    j = np.rint(np.log(xn) * _LAGUERRE_STEPS).astype(np.intp)
    h = xn - centers[j]  # exact: x and its center are within a factor of 2
    f2[near] = _horner(h, coefficients[j].T)
    f2[far] = _laguerre_fraction(flat[far], depth)
    xb = flat[~series]
    f0[~series] = (1.0 - (1.0 - f2[~series]) / xb) / xb
    return f0.reshape(x.shape), f2.reshape(x.shape)


def _laguerre_fraction(x, depth: int):
    """f_2 of :func:`_laguerre_stieltjes` at every x > 1 of an array by the
    Jacobi continued fraction of the Laguerre weight u^2 e^-u, 2 / (x + 3 -
    1*3 / (x + 5 - 2*4 / (x + 7 - ...))), at ``depth``: a backward
    recurrence.  The depth-n convergent is the n-point Gauss rule of the
    weight at 1/(x + u)."""
    tail, denominator = np.zeros(x.shape), np.empty(x.shape)
    for k in range(depth - 1, 0, -1):
        np.add(x, 2 * k + 3, out=denominator)
        np.subtract(denominator, tail, out=denominator)
        np.divide(k * (k + 2), denominator, out=tail)
    return 2.0 / (x + 3.0 - tail)


@lru_cache(maxsize=1)
def _laguerre_taylor():
    """(centers, coefficients) of the Taylor polynomials of f_2 of
    :func:`_laguerre_stieltjes` over the first band of :data:`_LAGUERRE_BANDS`:
    centers c = e^(j / _LAGUERRE_STEPS) from 1 to past the band's end, and
    at each the coefficients d_n of f_2(c + h) = sum d_n h^n up to
    _LAGUERRE_DEGREE, a row each.

    d_0 is the continued fraction at the band's depth.  f_2 solves x f_2' =
    (x + 2) f_2 - 2, so c (n + 1) d_(n+1) = (c + 2 - n) d_n + d_(n-1) - 2
    [n = 0].  The recurrence is stable: the equation's other solution, x^2
    e^x, is entire and its coefficients fall like 1/n!, and at |h| <= c / 512
    its growth keeps an error of d_0 within e^|h| of itself.  Built on first
    use and shared by every caller; the arrays are read-only.
    """
    (table_end, depth), _ = _LAGUERRE_BANDS
    count = int(np.ceil(_LAGUERRE_STEPS * np.log(table_end))) + 1
    centers = np.exp(np.arange(count) / _LAGUERRE_STEPS)
    d = [_laguerre_fraction(centers, depth)]
    for n in range(_LAGUERRE_DEGREE):
        lower = d[n - 1] if n else -2.0
        d.append(((centers + (2.0 - n)) * d[n] + lower) / (centers * (n + 1)))
    coefficients = np.stack(d, axis=-1)
    for arr in (centers, coefficients):
        arr.setflags(write=False)
    return centers, coefficients


def _largest_cdf(y):
    """F of the largest law at every y of a flat array in [0, _EIG_SATURATION]."""
    # 1 - 2e^-y - y^2 e^-y + e^-2y = (1 - e^-y)^2 - (y e^(-y/2))^2, and
    # the factor 1 - e^-y - y e^(-y/2) that vanishes is 2 e^-v (sinh v - v)
    # with v = y/2; head holds e^-v (sinh v - v)
    v = 0.5 * y
    decay = np.exp(-v)
    rise = -np.expm1(-y)
    head = 0.5 * rise - v * decay
    small = v < 1.0
    vs = v[small]
    head[small] = decay[small] * vs**3 * _horner(vs * vs, _SINH_SERIES)
    return 2.0 * head * (rise + y * decay)


def _largest_pdf(y):
    """The density of the largest law at every y of a flat array in [0,
    _EIG_SATURATION]."""
    # e^-y (2 - 2y + y^2 - 2e^-y); the bracket is 2 y^3/3! - 2 y^4/4! + ...
    decay = np.exp(-y)
    bracket = 2.0 - 2.0 * y + y * y - 2.0 * decay
    small = y < 1.0
    ys = y[small]
    bracket[small] = ys**3 * _horner(ys, _PDF_SERIES)
    return decay * bracket


def _capacity_kernel(exact, mean: float):
    """The capacity kernel E ln(1 + c X) of a law of mean ``mean`` at every
    c of an array: ``exact`` from _KERNEL_LINEAR up, and c E{X} below, where
    ln(1 + c X) = c X to double precision and 2/c in ``exact`` would
    overflow from c ~ 1.1e-308 down."""

    def kernel(c):
        out = c * mean
        large = c >= _KERNEL_LINEAR
        out[large] = exact(c[large])
        return out

    return kernel


def _largest_kernel(c):
    """E ln(1 + c lambda) of the largest law, 2 f_0(1/c) + f_2(1/c) - f_0(2/c)
    in the terms of :func:`_laguerre_stieltjes`."""
    f0, f2 = _laguerre_stieltjes(np.stack((2.0 / c, 1.0 / c)))
    return 2.0 * f0[1] + f2[1] - f0[0]


def _mellin_largest(s, re, g, line=None):
    """E{lambda^-s} of the largest law, Re s < 4, term by term from the
    density, given g = Gamma(1 - s)."""
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
    the leading term of the law at t -> 0 (see
    :func:`_mellin_compensated`).  The factor pi u of dt flattens the
    weight's t^3 onset to u^7.  Built on first use and shared by every
    caller; the arrays are read-only.
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


def _compensated_cdf(z):
    """F of the compensated alignment law at every z of a flat array in
    [0, 1] (see :func:`z_factor_cdf`)."""
    # arctan2 keeps t accurate near z = 1, where arcsin(sqrt z) is not
    t = np.arctan2(np.sqrt(z), np.sqrt(1.0 - z))
    return 2.0 * np.sqrt(z) * _z_weight(0.5 * t)


def _mellin_compensated(s, re, g, line=None):
    """E{z^-s} of the compensated alignment law at complex s, Re s < 2,
    given its real part ``re``.

    It is int_0^{pi/2} (sin t)^-2s w(t) dt, w(t) = 4t^3/3 + O(t^5), on the
    rule of :func:`_z_rule`.  Near the pole at s = 2 the integrand goes
    like t^(3-2s), which no fixed rule resolves; so where some Re s exceeds
    1, the onset (4/3) t^(3-2s) is integrated exactly, (4/3)(pi/2)^(4-2s)/
    (4-2s), and the rule takes only the rest, of order t^(5-2s).  Given one
    real part c for the nodes s = c + jt of a contour, the rule's modulus
    rows are formed once for all of them, and at the nodes of a node set
    ``line`` of the vertical-line rule its phases come from the set's
    phasor tables (see :func:`_weighted_powers`); the value at the nodes of
    a line is shared by every mode and kernel through :func:`_line_factor`.
    """
    minus_log_z, weight, minus_log_t2, onset = _z_rule()
    value = _weighted_powers(re, np.imag(s), minus_log_z, weight, line)
    if np.max(re) > 1.0:
        exact = (4.0 / 3.0) * np.exp((4.0 - 2.0 * s) * np.log(0.5 * np.pi)) / (4.0 - 2.0 * s)
        value += exact - _weighted_powers(re, np.imag(s), minus_log_t2, onset, line)
    return value


def _weighted_powers(re, im, log_base, weight, line=None):
    """sum_k weight_k exp(s log_base_k) at every s = re + j im, from real
    moduli and phases.  ``re`` is an array of im's shape, or one real part
    for all s: the contour of a line, whose one modulus row exp(re
    log_base_k) weight_k serves every node.

    At the nodes of a node set ``line`` of the vertical-line rule (one real
    part) ``special._frequency_sum`` sums the modulus row over the
    frequencies log_base at every node, from the set's phasor tables.
    Elsewhere (a direct transform) each s takes its own cos and sin, and
    real moments none: cos 0 = 1 and sin 0 = 0.
    """
    modulus = np.exp(np.multiply.outer(re, log_base))
    modulus *= weight
    if line is not None:
        return _frequency_sum(line, log_base, modulus)
    if not np.any(im):
        return modulus.sum(axis=-1) + 0j
    phase = np.multiply.outer(im, log_base)
    return (modulus * np.cos(phase)).sum(axis=-1) + 1j * (modulus * np.sin(phase)).sum(axis=-1)


def _plain_nodes(u):
    """1/z and the weight per unit u of the plain alignment law at nodes u
    of its logistic variable, z = expit(u) = 1 / (1 + e^-u)."""
    inv_z = 1.0 + np.exp(-u)
    return inv_z, (1.0 / inv_z) * (1.0 / (1.0 + np.exp(u)))


def _compensated_nodes(u):
    """1/z and the weight per unit u of the compensated alignment law at
    nodes u of its logistic variable, t = (pi/2) expit(u) in z = sin^2 t."""
    half_pi = 0.5 * np.pi
    up, down = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))
    t = half_pi * up
    return 1.0 / np.sin(t) ** 2, _z_weight(t) * half_pi * up * down


def _clipped(fact, top: float):
    """A law's ``fact``, its CDF or density at a flat array in [0, top], at
    every x of an array: x clamped to [0, top] and the value 0 below 0 (a
    float for a scalar)."""

    def at(x):
        x = np.asarray(x, dtype=np.float64)
        val = fact(np.clip(x, 0.0, top).ravel())
        val = np.where(x < 0.0, 0.0, val.reshape(x.shape))
        return val if val.ndim else float(val)

    return at


@dataclass(frozen=True, eq=False)
class _Law:
    """One row of the table of the laws of a mode SNR's factors: every fact
    of a law that a result reads.  Rows compare and hash by identity, so a
    row keys the caches of its transforms, and print as their names.

    Every row has a name, its mean, the leading pole of its transform
    E{X^-s} (F(x) goes like x^pole as x -> 0), ``cdf``, F at every x of an
    array (clamped to the law's support, a float for a scalar), and
    ``mellin``, E{X^-s} at complex s given Re s (one number for the nodes of
    a contour), g = Gamma(1 - s) and, at the nodes of a node set of the
    vertical-line rule, the set's key ``line`` (None elsewhere).

    A squared singular value, the lambda and omega of a mode, also has its
    density ``pdf``, the ``onset`` of F(w) <= w^pole / onset, the capacity
    ``kernel`` E ln(1 + c X), the ``centre`` of the bulk of ln X and its
    upper ``tail`` (rate, moment): E[X; X > w] <= moment(w) e^(-rate w), the
    polynomial's lowest order first.  An alignment factor has a lower bound
    ``floor`` of F on [0, 1], its node map ``nodes``, 1/z and the weight
    per unit u at nodes u of its logistic variable, its ``cuts``, [u_lo,
    u_hi] with at most the given masses below and above, and its
    ``squeeze``: ln z ~ u / squeeze far down.
    """

    name: str
    mean: float
    pole: float
    cdf: Callable
    mellin: Callable
    onset: float | None = None
    pdf: Callable | None = None
    kernel: Callable | None = None
    centre: float | None = None
    tail: tuple | None = None
    floor: Callable | None = None
    nodes: Callable | None = None
    cuts: Callable | None = None
    squeeze: float | None = None

    def __repr__(self):
        return self.name


# The eigenvalue laws, by a mode's index (1 the largest).  F_smallest(w) =
# 1 - e^-2w <= 2w and E[X; X > w] = (w + 1/2) e^-2w.  F_largest(w) <=
# w^4/12, and with S = 1 - F <= (2 + w^2) e^-w, E[X; X > w] = w S(w) +
# int_w^inf S <= (w^3 + w^2 + 4w + 4) e^-w.  The capacity kernels are
# int_0^inf S(u) c / (1 + c u) du, with S_largest(u) = 2 e^-u + u^2 e^-u -
# e^-2u and S_smallest(u) = e^-2u.  The bulk of ln X is near +1 and -1.
_EIGENVALUE_LAWS = (
    _Law(
        "largest", 3.5, 4.0, _clipped(_largest_cdf, _EIG_SATURATION), _mellin_largest,
        onset=12.0, pdf=_clipped(_largest_pdf, _EIG_SATURATION),
        kernel=_capacity_kernel(_largest_kernel, 3.5),
        centre=1.0, tail=(1.0, (4.0, 4.0, 1.0, 1.0)),
    ),
    _Law(
        "smallest", 0.5, 1.0, _clipped(lambda y: -np.expm1(-2.0 * y), _EIG_SATURATION),
        lambda s, re, g, line=None: 2.0**s * g, onset=0.5,
        pdf=_clipped(lambda y: 2.0 * np.exp(-2.0 * y), _EIG_SATURATION),
        kernel=_capacity_kernel(lambda c: _laguerre_stieltjes(2.0 / c)[0], 0.5), centre=-1.0,
        tail=(2.0, (0.5, 1.0)),
    ),
)

# The alignment laws, without and with compensation.  Without it z =
# expit(u) is uniform, P{z < expit(ln m)} <= m and ln z ~ u.  With it
# F(z) >= z^2/3 on [0, 1] and ln z ~ 2u, with t = (pi/2) expit(u) in z =
# sin^2 t, whose weight is at most 4t^3/3 below and at most pi/2
# everywhere, so P{t < t_lo} <= t_lo^4/3 and P{t > pi/2 - d} <= pi d/2.
_Z_LAWS = (
    _Law(
        "plain z", 0.5, 1.0, _clipped(lambda z: z, 1.0),
        lambda s, re, g, line=None: 1.0 / (1.0 - s),
        floor=lambda c: c, nodes=_plain_nodes, cuts=lambda lo, hi: (np.log(lo), -np.log(hi)),
        squeeze=1.0,
    ),
    _Law(
        "compensated z", 0.5 * GAIN_LINEAR, 2.0, _clipped(_compensated_cdf, 1.0),
        _mellin_compensated, floor=lambda c: c * c / 3.0, nodes=_compensated_nodes, squeeze=0.5,
        cuts=lambda lo, hi: (np.log(2.0 * (3.0 * lo) ** 0.25 / np.pi), np.log(np.pi**2 / 4.0 / hi)),
    ),
)


def _eigenvalue_law(which: str) -> _Law:
    """The row of the "largest" or "smallest" eigenvalue law."""
    for law in _EIGENVALUE_LAWS:
        if law.name == which:
            return law
    raise ValueError("which must be 'largest' or 'smallest'")


def _z_law(compensated: bool) -> _Law:
    """The row of the alignment law with or without compensation;
    ValueError for anything but a bool."""
    if not isinstance(compensated, (bool, np.bool_)):
        raise ValueError(f"compensated must be a bool, not {compensated!r}")
    return _Z_LAWS[bool(compensated)]


def _mode_laws(mode: Mode):
    """The rows (lam, om, z) of a mode's laws, the one place a mode is
    mapped to them: each eigenvalue's row by its index, the smallest law
    first, and the alignment row by the mode's compensation.  Every result
    is symmetric in the two eigenvalues; the oracles take the second as
    omega, the outer one, whose short lower tail (F ~ w^4/12) is then used
    whenever the mode has one.  ValueError for a scheme that is not a mode,
    such as the joint optimum, which has no such factors."""
    if not isinstance(mode, Mode):
        raise ValueError(f"mode must be a Mode, not {mode!r}")
    lam, om = (_EIGENVALUE_LAWS[k - 1] for k in sorted((mode.rx, mode.tx), reverse=True))
    return lam, om, _z_law(mode.compensated)


def _gamma_one_minus(s):
    """Gamma(1 - s) at complex s (inf at the poles s = 1, 2, ...)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(log_gamma(1.0 - s))


@lru_cache(maxsize=256)
def _line_factor(law, c: float, level: int, count: int):
    """One factor of E{X^-s} at the nodes s = c + jt of a node set of the
    vertical-line rule (``special._line_nodes(level, count)``): the
    transform of the row ``law``, or with ``law`` None Gamma(1 - s), which
    the eigenvalue rows' transforms take.

    Each is the row's transform given the key (c, level, count) of the node
    set, so its bits are those of a direct call with that key (the
    compensated E{z^-s} takes the set's phasor tables).  Cached per node set,
    values only and read-only: every mode and both kernels on a contour
    share them, and outage's c = -p/2 fallback meets throughput's line at
    c = -1/2.
    """
    s = c + 1j * _line_nodes(level, count)
    if law is None:
        value = _gamma_one_minus(s)
    else:
        value = law.mellin(s, c, _line_factor(None, c, level, count), (c, level, count))
    value.setflags(write=False)
    return value


def _mellin_transform(laws, s, line=None):
    """E{X^-s} of X = lambda_j omega_i z at complex s, for the rows
    ``laws`` = (lam, om, z) of :func:`_mode_laws`; at the nodes of a node
    set ``line`` = (c, level, count) of the vertical-line rule, from the
    factors :func:`_line_factor` shares across modes and kernels."""
    # numpy's complex product does not commute bit for bit: M is taken as
    # M_omega M_lambda M_z, omega the largest law whenever the mode has one
    lam, om, z = laws
    if line is None:
        re, g = np.real(s), _gamma_one_minus(s)
        return om.mellin(s, re, g) * lam.mellin(s, re, g) * z.mellin(s, re, g)
    return _line_factor(om, *line) * _line_factor(lam, *line) * _line_factor(z, *line)


def diversity_order(mode: Mode) -> float:
    """Leading pole p of E{X^-s}, X = lambda_j omega_i z: the outage goes
    like x^p (times powers of ln x) as x -> 0.

    It is the smallest pole of the mode's three rows: 1 for the smallest
    eigenvalue (density 2 at 0), 4 for the largest (density ~ y^3/3), 1 for
    the fixed surface's uniform z and 2 with compensation (F(z) ~ z^2/3).
    So it is 2 for the compensated (1,1) mode and 1 for every other mode.
    """
    return min(law.pole for law in _mode_laws(mode))


@dataclass(frozen=True)
class _KernelTransform:
    """K(s) M(s), s complex, the transform of the vertical-line rule of
    ``special`` for a mode's Mellin-Barnes column: K is 1/s for "outage" and
    pi/(s sin pi s), the transform of ln(1 + y), for "throughput", and M the
    transform of the mode's rows ``laws`` (:func:`_mode_laws`).  Hashable,
    so the rule caches its nodes per kernel and rows, which j2i1 shares
    with j1i2; M comes from the factors shared per node set
    (:func:`_line_factor`), whose key ``line`` the rule passes with the
    nodes."""

    laws: tuple
    kernel: str

    def __call__(self, s, line=None):
        m = _mellin_transform(self.laws, s, line)
        return m / s if self.kernel == "outage" else np.pi * m / (s * np.sin(np.pi * s))


@dataclass(frozen=True)
class _AlignedTransform:
    """T(s) sum_k w_k E{z_k^-(s + shift)}, s complex, the transform of the
    vertical-line rule for the composite terms of the compensated closed
    forms: T the Gamma ratio ``params`` and z_k the alignment rows of
    ``_Z_LAWS`` (plain, compensated), weighted by ``weights``.  Hashable,
    like :class:`_KernelTransform`; at the nodes of a node set ``line`` =
    (c, level, count) each E{z^-s} is the factor :func:`_line_factor`
    shares at real part c + shift, on the same nodes."""

    params: MeijerParams
    shift: float
    weights: tuple

    def __call__(self, s, line):
        c, level, count = line
        mix = sum(
            w * _line_factor(law, c + self.shift, level, count)
            for law, w in zip(_Z_LAWS, self.weights)
            if w
        )
        return self.params(s) * mix


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
    laws, pole = _mode_laws(mode), diversity_order(mode)
    if c > 0.0:
        sigmas = pole - (pole - c) * 0.5 ** np.arange(1, 9)
    else:
        sigmas = c * 2.0 ** np.arange(1, 5)
    moments = _mellin_transform(laws, sigmas.astype(np.complex128)).real
    log_moments = np.log(moments) + np.multiply.outer(log_x, sigmas)

    def alias(step, scaled):
        near = np.min(log_moments + _log_geometric(sigmas - c, step), axis=1)
        # a sum that cancels to exactly 0 has no relative bound (+inf)
        with np.errstate(divide="ignore"):
            log_scaled = np.log(scaled)
        return np.logaddexp(_log_geometric(c, step), near) - (c * log_x + log_scaled)

    return _line_integral(_KernelTransform(laws, "outage"), c, log_x, float(c < 0.0), alias)


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
    evaluated once per node of a contour, and x^s over all x comes from the
    phasor tables of its node sets (``special._phasor_sum``).  On the line
    the integrand is of size x^c while P goes like x^p as x -> 0, so the
    sum cancels by about x^(c-p) for small x, and by x^c for large x.
    Each x therefore takes the first of these lines that meets the
    relative tolerance ``special._REL_TOL`` (1e-10): c = p/2; then, below
    x = 1, c = p - 0.15, and from x = 1 on c = -p/2, where the line has
    crossed the pole at 0 and P = 1 + (the line integral).  A line meets
    the tolerance at x when its trapezoid rule, halved step by step, has
    converged there, its alias bound is within the tolerance, and so is its
    cancellation bound 2 eps * sum|terms| / |P|.  An x that no line
    certifies raises QuadratureError: step-halving agreement cannot detect
    cancellation.

    Returns a float for a scalar x, else an array of x's shape.
    :func:`outage_quadrature` is the independent oracle, and
    :func:`outage_closed_form` the paper's expressions.
    """
    pole = diversity_order(mode)
    contours = (0.5 * pole, pole - _POLE_MARGIN, -0.5 * pole)

    def lines(z):
        log_x = np.log(z)
        result, pending = np.empty(z.shape), np.ones(z.shape, dtype=bool)
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
                f"{_REL_TOL:g} at x = {z[todo[0]]:g} ({todo.size} of {z.size} x)"
            )
        return result

    return _at_thresholds(x, lines)


def throughput(mode: Mode, gamma_bar):
    """Average throughput E ln(1 + gamma) in nats/s/Hz at every gamma_bar
    of an array at once, by Mellin-Barnes.

    With M(s) = E{X^-s}, X = lambda_j omega_i z, and y = 1/gamma_bar,

        R(y) = (1/2 pi j) int_{c-j inf}^{c+j inf} y^s pi/(s sin pi s) M(s) ds

    on the line c = -1/2, inside the strip -1 < Re s < 0 where
    pi/(s sin pi s) is the Mellin transform of ln(1 + y).  The integrand
    decays like exp(-2 pi |Im s|).  It runs on the rule and the cached
    nodes of :func:`outage`, with y^s over all gamma_bar from the phasor
    tables of its node sets.  Each value is certified, by step halving and
    the cancellation bound 2 eps * sum|terms| y^c / R, to
    ``special._REL_TOL`` (1e-10), or QuadratureError is raised: from
    130.5 dB on for j1i1-cmp, 149.5 dB for j2i2-cmp.

    Returns a float for a scalar gamma_bar, else an array of its shape.
    :func:`throughput_quadrature` is the independent oracle.
    """
    # No alias bound, unlike outage: at c = -1/2 the alias m of step h is R
    # at y e^(2 pi m/h) times e^(pi m/h); R falls like 1/y one way and grows
    # like ln(1/y) the other, so the aliases shrink like e^(-pi |m| / h) on
    # both sides and halving the step sees the leading one.
    def line(flat):
        value, ok = _line_integral(
            _KernelTransform(_mode_laws(mode), "throughput"), _THROUGHPUT_ABSCISSA, -np.log(flat)
        )
        if not ok.all():
            raise QuadratureError(
                f"throughput({mode.label}): the Mellin-Barnes line does not meet rel_tol "
                f"{_REL_TOL:g} at gamma_bar = {flat[~ok][0]:g} "
                f"({np.count_nonzero(~ok)} of {flat.size} gamma_bar)"
            )
        return value

    return _at_gamma_bars(gamma_bar, line)


def _throughput_box(mode: Mode):
    """((s_lo, s_hi), (u_lo, u_hi)), the throughput oracle's cuts of s =
    ln omega and of the logistic variable u of z, each tail leaving out at
    most _ORACLE_TAIL_SHARE _REL_TOL of R at every gamma_bar.

    R is an integral of ln(1 + gamma_bar lambda omega z), which rises with
    omega and z, so each bound is a ratio of the tail to R that holds
    whatever gamma_bar:
    * the integrand falls toward a lower tail (:func:`_falling_tail_mass`);
    * ln(1 + c z) lies between z ln(1 + c) and ln(1 + c) for z in [0, 1],
      so the upper z tail of mass m drops at most m / E{z} of R;
    * ln(1 + c omega) <= omega ln(1 + c) for omega >= 1, so the upper
      omega tail drops at most E[omega; omega > w_hi] / P{omega >= 1} of R.
    """
    _, om, z = _mode_laws(mode)
    share = _ORACLE_TAIL_SHARE * _REL_TOL
    low = _falling_tail_mass()
    return _omega_log_range(om, low, share * (1.0 - om.cdf(1.0))), z.cuts(low, share * z.mean)


def throughput_quadrature(mode: Mode, gamma_bar):
    """Average throughput E ln(1 + gamma) by quadrature at every gamma_bar
    of an array at once (a float for a scalar); the oracle of
    :func:`throughput`.

    E ln(1 + c lambda) is an exponential-integral kernel (the capacity
    kernel of lambda's row), and omega and z run on the oracles' rule
    (:func:`_oracle_rule`), uniform in the sinh-mapped variables of s = ln
    omega and the logistic variable of z, with no Mellin step, on the cuts
    of :func:`_throughput_box`: each of the four tails leaves out at most
    2.5e-4 ``special._REL_TOL`` of R, by a bound of the tail relative to R
    that holds at every gamma_bar.  Each value is certified by step halving
    to that relative tolerance, or QuadratureError is raised: at once where
    every kernel argument of the box is below the normal floats (from
    gamma_bar ~ 10^-309.5 down, 10^-309 for j2i2 and j2i2-cmp).
    """
    return _at_gamma_bars(
        gamma_bar, lambda g: _oracle_rule(mode, g, False, _throughput_box(mode))
    )


def throughput_closed_r22(gamma_bar):
    """Closed form of the plain-surface (2,2)-mode throughput,
    (16/gamma_bar^2) G^{4,1}_{2,4}(4/gamma_bar | -2,0; -2,-1,-1,-2), at
    every gamma_bar of an array at once (a float for a scalar).

    G is certified in relative terms alone, to _REL_TOL |G|: an absolute
    floor on G would be scaled by 16/gamma_bar^2 at low SNR.  Its line
    cancels as gamma_bar falls: measured on 1 dB steps, the value is within
    5e-10 of :func:`throughput_quadrature` down to -103 dB, and
    QuadratureError is raised from -104 dB down.
    """
    params = MeijerParams(4, 1, 2, 4, (-2.0, 0.0), (-2.0, -1.0, -1.0, -2.0))

    def closed(gammas):
        what = "throughput_closed_r22"
        g = _certified_line(params, _contour_abscissa(params), 4.0 / gammas, None, what)
        return 16.0 / gammas**2 * g

    return _at_gamma_bars(gamma_bar, closed)


def throughput_closed_r22_cmp(gamma_bar):
    """Closed form of the compensated (2,2)-mode throughput: half a
    G^{3,1}_{1,3} tail integral plus half the plain-surface value, at every
    gamma_bar of an array at once (a float for a scalar).

    The tail, int_0^inf 2(1 - u^2) asin(t^-1/2) / t^2 G(4t / gamma_bar) du
    with t = 1 + u^2 and G = G^{3,1}_{1,3}( . | 0; 0, 1, 0), is in z = 1/t
    int_0^1 (2 f(z) - 1) G(4 / (gamma_bar z)) dz, f the compensated
    alignment density and 1 the plain (uniform) one.  So it is G at
    4/gamma_bar with 2 E{z^-s} - E{z^-s} of the compensated and the plain
    law in its Mellin-Barnes integrand, on G's own line, certified like
    the plain value in relative terms alone, to _REL_TOL |tail|.  Like the
    plain value it is within 5e-10 of the oracle down to -103 dB and raises
    QuadratureError from -104 dB down.
    """
    params = MeijerParams(3, 1, 1, 3, (0.0,), (0.0, 1.0, 0.0))
    tail = _AlignedTransform(params, 0.0, (-1.0, 2.0))

    def closed(gammas):
        what = "throughput_closed_r22_cmp"
        integral = _certified_line(tail, _contour_abscissa(params), 4.0 / gammas, None, what)
        return 0.5 * integral + 0.5 * throughput_closed_r22(gammas)

    return _at_gamma_bars(gamma_bar, closed)
