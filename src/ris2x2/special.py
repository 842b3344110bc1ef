"""Special functions behind the closed-form outage and throughput results.

Three things live here: the modified Bessel function K of integer order,
a numerical Meijer G evaluator for the handful of parameter families the
closed forms need, and the composite Bessel/Meijer integral that the
compensated outage expressions are built from.

The G-function is evaluated by direct quadrature of its Mellin-Barnes
definition

    G(z) = (1/2*pi*j) * int_L  prod Gamma(b_j - s) * prod Gamma(1 - a_j + s)
                               ---------------------------------------------  z^s ds
                               prod Gamma(1 - b_j + s) * prod Gamma(a_j - s)

along a vertical line Re(s) = c separating the two pole ladders.  For the
families used here the integrand decays like exp(-mu*|Im s|) with
mu = (2(m+n) - p - q) * pi / 2 > 0, so a trapezoid rule with step halving
converges geometrically; one contour serves a whole array of z.  Repeated
b parameters (the ladder b = (-1, -1, -2) appears throughout) are
harmless on this route since the contour never touches a pole.  Integrals
over a half-line run on a trapezoid rule in the exp-sinh variable
u = exp((pi/2) sinh tau), which converges geometrically too (Takahasi &
Mori, Publ. RIMS 1974).  Both rules certify each value by step halving to
a :class:`QuadratureSpec`, or raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import kv, loggamma

__all__ = [
    "QuadratureSpec",
    "MeijerParams",
    "MeijerGError",
    "QuadratureError",
    "DEFAULT_QUADRATURE",
    "bessel_k",
    "meijer_g",
    "weighted_bessel_integral",
]


class MeijerGError(RuntimeError):
    """Raised when the Mellin-Barnes line integral of a G-function cannot
    meet its tolerances."""


class QuadratureError(RuntimeError):
    """Raised when a half-line integral, an oracle, a closed form or a
    Mellin-Barnes outage or throughput of ``analytic`` cannot be certified."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the step-halved rules: a value is accepted once two
    levels agree to max(abs_tol, rel_tol |value|) (the oracles: rel_tol)."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class MeijerParams:
    """Orders and parameters of G^{m,n}_{p,q}(z | a; b)."""

    m: int
    n: int
    p: int
    q: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if not (0 <= self.n <= self.p and 0 <= self.m <= self.q):
            raise ValueError("need n <= p and m <= q")
        if len(self.a) != self.p or len(self.b) != self.q:
            raise ValueError("parameter lengths must match p and q")


def bessel_k(order: int, x: float) -> float:
    """Modified Bessel function of the second kind, integer order 0..2."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if not x > 0.0:
        raise ValueError("x must be positive")
    return float(kv(order, x))


def _contour_abscissa(params: MeijerParams, shift: float) -> float:
    """Real part of the integration line, between the pole ladders."""
    right_edge = min(params.b[: params.m])
    if params.n > 0:
        left_edge = max(params.a[: params.n]) - 1.0
        if left_edge >= right_edge:
            raise MeijerGError(
                f"no separating vertical contour for a={params.a}, b={params.b}"
            )
        c = 0.5 * (left_edge + right_edge) + shift
        margin = min(right_edge - c, c - left_edge)
    else:
        c = right_edge - 0.5 + shift
        margin = right_edge - c
    if margin < 0.2:
        raise MeijerGError(f"contour shift {shift} leaves margin {margin:.3f} < 0.2")
    return c


def _contour_integrand(params: MeijerParams, s: np.ndarray) -> np.ndarray:
    """The Gamma ratio of the Mellin-Barnes integrand, without z^s."""
    lg = np.zeros_like(s)
    for b in params.b[: params.m]:
        lg += loggamma(b - s)
    for a in params.a[: params.n]:
        lg += loggamma(1.0 - a + s)
    for b in params.b[params.m :]:
        lg -= loggamma(1.0 - b + s)
    for a in params.a[params.n :]:
        lg -= loggamma(a - s)
    return np.exp(lg)


def _vertical_line_integral(
    integrand, c: float, mu: float, log_z: np.ndarray, spec: QuadratureSpec
) -> np.ndarray:
    """(1/2*pi*j) * int_{c-j*inf}^{c+j*inf} integrand(s) z^s ds at every
    z = exp(log_z), for an integrand that is real on the real axis, analytic
    on a strip around Re(s) = c and decaying like exp(-mu*|Im s|) times a
    power of |Im s|.

    ``integrand`` maps an array of complex s to an array of values.  The
    integral is (z^c/pi) int_0^inf Re[integrand(c + jt) z^jt] dt, so the
    integrand is evaluated once per node for all z, and z^jt is one outer
    product.  The line is cut where the tail bound at the largest z^c falls
    below 1% of ``abs_tol``, and the step is halved until two levels agree
    at every z.
    """
    scale = np.exp(c * log_z)
    half_span = max(28.0, 80.0 / mu)
    for _ in range(12):
        tail = abs(integrand(np.array([c + 1j * half_span]))[0]) * scale.max()
        if tail * (2.0 / mu) <= 0.01 * spec.abs_tol:
            break
        half_span *= 1.5
    else:
        raise MeijerGError(f"meijer_g: contour tail does not decay (T={half_span:.1f})")

    step = 0.25
    intervals = int(round(half_span / step))
    t = step * np.arange(intervals + 1)
    total = estimate = 0.0
    for level in range(6):
        values = integrand(c + 1j * t)
        if level == 0:
            values[0] *= 0.5
        phase = np.multiply.outer(log_z, t)
        total += np.cos(phase) @ values.real - np.sin(phase) @ values.imag
        previous, estimate = estimate, scale * step * total / np.pi
        change = np.abs(estimate - previous)
        ok = change <= 0.5 * np.maximum(spec.abs_tol, spec.rel_tol * np.abs(estimate))
        if level and ok.all():
            return estimate
        # the next level adds the odd multiples of half the step
        step *= 0.5
        intervals *= 2
        t = step * np.arange(1, intervals, 2)
    bad = np.flatnonzero(~ok)[0]
    raise MeijerGError(
        f"meijer_g: contour refinement stalled at step {2.0 * step:.4g} at "
        f"z = {np.exp(log_z[bad]):g} (last two estimates {previous[bad]:.6e}, "
        f"{estimate[bad]:.6e})"
    )


def meijer_g(
    params: MeijerParams, z, spec: QuadratureSpec = DEFAULT_QUADRATURE, contour_shift: float = 0.0
):
    """Evaluate G^{m,n}_{p,q}(z | a; b) for real parameters at every z > 0
    of an array at once, on one contour; a float for a scalar z.

    ``contour_shift`` moves the vertical line off its default abscissa
    (staying clear of both pole ladders); the result must not depend on it,
    which makes it a cheap independent consistency check.
    """
    zs = np.asarray(z, dtype=np.float64)
    if not np.all(zs > 0.0):
        raise ValueError("z must be positive")
    mu = (2.0 * (params.m + params.n) - params.p - params.q) * np.pi / 2.0
    if mu <= 0.0:
        raise MeijerGError("integrand does not decay on a vertical contour")
    c = _contour_abscissa(params, contour_shift)
    values = _vertical_line_integral(
        lambda s: _contour_integrand(params, s), c, mu, np.log(zs.ravel()), spec
    )
    result = values.reshape(zs.shape)
    return result if result.ndim else float(result)


def _half_line_integral(f, spec: QuadratureSpec, what: str) -> float:
    """int_0^inf f(u) du for an integrand analytic on a neighbourhood of the
    half-line that decays at infinity at least like a power u^-(1+d), d > 0.

    ``f`` maps an array of u to an array of values.  In the exp-sinh
    variable, u = exp((pi/2) sinh tau), f(u) du/dtau decays double
    exponentially both ways, so the trapezoid rule in tau converges
    geometrically as its step is halved from 1/2, up to six times.  Every
    level spans |tau| <= 5 (u = e^{+-116}, where no power of u the
    integrands take overflows), where the terms at either end must be below
    1% of the tolerance (a span cut where a coarse level's terms are small
    could miss a narrow bump between them), and evaluates its new midpoints
    as one array.  The value is certified once two levels agree to
    0.5 max(abs_tol, rel_tol |value|); otherwise, or if a term is not
    finite, QuadratureError is raised.
    """

    def terms(tau):
        u = np.exp(0.5 * np.pi * np.sinh(tau))
        values = f(u) * u * (0.5 * np.pi * np.cosh(tau))
        if not np.all(np.isfinite(values)):
            raise QuadratureError(f"{what}: integrand not finite on the half-line")
        return values

    step, last = 0.5, 10
    values = terms(step * np.arange(-last, last + 1))
    total = values.sum()
    estimate = step * total
    ends = step * max(abs(values[0]), abs(values[-1]))
    if ends > 0.01 * max(spec.abs_tol, spec.rel_tol * abs(estimate)):
        raise QuadratureError(f"{what}: integrand does not decay on the half-line")
    for _ in range(6):
        # the next level adds the odd multiples of half the step
        step *= 0.5
        last *= 2
        total += terms(step * np.arange(1 - last, last, 2)).sum()
        previous, estimate = estimate, step * total
        if abs(estimate - previous) <= 0.5 * max(spec.abs_tol, spec.rel_tol * abs(estimate)):
            return float(estimate)
    raise QuadratureError(
        f"{what}: half-line rule not converged at step {step:g} (last two "
        f"estimates {previous:.6e}, {estimate:.6e})"
    )


# Distinct closed-form terms kept per cached function.  An SNR sweep
# repeats terms across modes and within one expression (the default
# 31-point outage sweep needs 341 distinct G blocks and 372 distinct
# composite terms); the functions are pure, so a cached value is the value.
_TERM_CACHE_SIZE = 1024


@lru_cache(maxsize=_TERM_CACHE_SIZE)
def _g30(z: float, b2: float, b3: float, spec: QuadratureSpec) -> float:
    """G^{3,0}_{1,3}(z | 0; -1, b2, b3), the Meijer block of the outage
    closed forms."""
    return meijer_g(MeijerParams(3, 0, 1, 3, (0.0,), (-1.0, b2, b3)), z, spec)


@lru_cache(maxsize=_TERM_CACHE_SIZE)
def weighted_bessel_integral(
    a: int,
    alpha: int,
    gamma_param: float,
    x: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """The composite term of the compensated outage expressions.

    Equal to the double integral over the unit-interval alignment density
    f(u) and an exponential weight,

        int_0^1 int_0^inf u^{-a} w^{alpha-1} exp(-x/(u w) - gamma_param*w)
                f(u) dw du,

    evaluated as a Meijer G term plus a one-dimensional Bessel tail
    integral.  The endpoint singularity 1/sqrt(t-1) of the tail is removed
    by substituting t = 1 + u^2.  Values are cached by argument.
    """
    if a not in (0, 2):
        raise ValueError("a must be 0 or 2")
    if alpha not in (-1, 0, 1, 2, 3):
        raise ValueError("alpha must be in -1..3")
    if not (gamma_param > 0.0 and x > 0.0):
        raise ValueError("gamma_param and x must be positive")
    gam = float(gamma_param)
    x = float(x)

    g30 = _g30(gam * x, alpha + a - 2.0, a - 2.0, spec)
    g_term = x ** (2 - a) / (2.0 * gam ** (alpha + a - 2)) * g30
    w = 2.0 * np.sqrt(gam * x)
    exponent = a + alpha / 2.0 - 2.0

    def tail(u):
        t = 1.0 + u * u
        bessel = kv(alpha, w * np.sqrt(t))
        return 2.0 * t**exponent * (1.0 - u * u) * bessel * np.arcsin(1.0 / np.sqrt(t))

    what = f"weighted_bessel_integral(a={a}, alpha={alpha})"
    return g_term + (x / gam) ** (alpha / 2.0) * _half_line_integral(tail, spec, what)
