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
converges geometrically.  Repeated b parameters (they do occur: the ladder
b = (-1, -1, -2) appears throughout) are harmless on this route since the
contour never touches a pole; no residue bookkeeping is needed.  The same
truncated, step-halved trapezoid (``_vertical_line_integral``) also
evaluates the Mellin-Barnes throughput integral of ``analytic.throughput``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import kv, loggamma

__all__ = [
    "QuadratureSpec",
    "MeijerParams",
    "MeijerGError",
    "QuadratureError",
    "DEFAULT_QUADRATURE",
    "CURVE_QUADRATURE",
    "bessel_k",
    "meijer_g",
    "weighted_bessel_integral",
]


class MeijerGError(RuntimeError):
    """Raised when a Mellin-Barnes line integral (a G-function, or the
    Mellin throughput of ``analytic``) cannot meet its tolerances."""


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature reports an unusable result."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive (Gauss-Kronrod style) quadratures."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()
# Tolerances of the SNR sweeps: the CLI curves and the acceptance checks
# that reproduce them.
CURVE_QUADRATURE = QuadratureSpec(1e-9, 1e-7, 200)


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


def _integrate_quad(f, lo, hi, spec: QuadratureSpec, what: str) -> float:
    """scipy.integrate.quad with the requested tolerances; raises if the
    reported error estimate is far outside what was asked for."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(
            f,
            lo,
            hi,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
        )
    if not np.isfinite(val):
        raise QuadratureError(f"{what}: non-finite quadrature result")
    # QUADPACK error estimates are conservative; flag only results whose
    # reported error makes them unusable against the requested tolerances.
    ceiling = max(100.0 * spec.abs_tol, 1e-3 * abs(val), 100.0 * spec.rel_tol * abs(val))
    if err > ceiling:
        raise QuadratureError(
            f"{what}: error estimate {err:.3e} exceeds tolerance for value {val:.6e}"
        )
    return val


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


def _contour_integrand(params: MeijerParams, s: np.ndarray, log_z: float) -> np.ndarray:
    lg = np.zeros_like(s)
    for j in range(params.m):
        lg += loggamma(params.b[j] - s)
    for j in range(params.n):
        lg += loggamma(1.0 - params.a[j] + s)
    for j in range(params.m, params.q):
        lg -= loggamma(1.0 - params.b[j] + s)
    for j in range(params.n, params.p):
        lg -= loggamma(params.a[j] - s)
    return np.exp(lg + s * log_z)


def _vertical_line_integral(
    integrand,
    c: float,
    mu: float,
    spec: QuadratureSpec,
    what: str,
    start_span: float | None = None,
) -> float:
    """(1/2*pi*j) * int_{c-j*inf}^{c+j*inf} integrand(s) ds for an integrand
    that is real on the real axis, analytic on a strip around Re(s) = c and
    decaying like exp(-mu*|Im s|) times a power of |Im s|.

    ``integrand`` maps an array of complex s to an array of values.  The
    line is truncated where the tail bound falls below 1% of ``abs_tol``,
    widening from ``start_span`` (default max(28, 80/mu)), and a trapezoid
    rule on the truncated line is refined by step halving until two
    estimates agree; the rule converges geometrically because the integrand
    is analytic on a strip.
    """
    # Truncation: the integrand decays like exp(-mu*t) times a power of t.
    half_span = max(28.0, 80.0 / mu) if start_span is None else start_span
    for _ in range(12):
        tail = abs(integrand(np.array([c + 1j * half_span]))[0])
        if tail * (2.0 / mu) <= 0.01 * spec.abs_tol:
            break
        half_span *= 1.5
    else:
        raise MeijerGError(f"{what}: contour tail does not decay (T={half_span:.1f})")

    # Trapezoid with step halving; geometric convergence for analytic
    # integrands on a strip.
    step = 0.25
    previous = None
    for _ in range(6):
        count = 2 * int(round(half_span / step)) + 1
        t = (np.arange(count) - (count - 1) / 2.0) * step
        vals = integrand(c + 1j * t)
        estimate = step * np.sum(vals.real) / (2.0 * np.pi)
        if previous is not None:
            if abs(estimate - previous) <= 0.5 * max(
                spec.abs_tol, spec.rel_tol * abs(estimate)
            ):
                return float(estimate)
        previous = estimate
        step *= 0.5
    raise MeijerGError(
        f"{what}: contour refinement stalled at step {step:.4g} "
        f"(last two estimates {previous:.6e})"
    )


def meijer_g(
    params: MeijerParams,
    z: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    contour_shift: float = 0.0,
) -> float:
    """Evaluate G^{m,n}_{p,q}(z | a; b) for real parameters and z > 0.

    ``contour_shift`` moves the vertical line off its default abscissa
    (staying clear of both pole ladders); the result must not depend on it,
    which makes it a cheap independent consistency check.
    """
    if not z > 0.0:
        raise ValueError("z must be positive")
    mu = (2.0 * (params.m + params.n) - params.p - params.q) * np.pi / 2.0
    if mu <= 0.0:
        raise MeijerGError("integrand does not decay on a vertical contour")
    c = _contour_abscissa(params, contour_shift)
    log_z = float(np.log(z))
    return _vertical_line_integral(
        lambda s: _contour_integrand(params, s, log_z), c, mu, spec, "meijer_g"
    )


def _g30(z: float, b2: float, b3: float, spec: QuadratureSpec) -> float:
    """G^{3,0}_{1,3}(z | 0; -1, b2, b3), the Meijer block of the outage
    closed forms."""
    return meijer_g(MeijerParams(3, 0, 1, 3, (0.0,), (-1.0, b2, b3)), z, spec)


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
    by substituting t = 1 + u^2.
    """
    if a not in (0, 2):
        raise ValueError("a must be 0 or 2")
    if alpha not in (-1, 0, 1, 2, 3):
        raise ValueError("alpha must be in -1..3")
    if not (gamma_param > 0.0 and x > 0.0):
        raise ValueError("gamma_param and x must be positive")
    gam = float(gamma_param)
    x = float(x)

    g_term = (
        x ** (2 - a)
        / (2.0 * gam ** (alpha + a - 2))
        * _g30(gam * x, alpha + a - 2.0, a - 2.0, spec)
    )

    w = 2.0 * np.sqrt(gam * x)
    exponent = a + alpha / 2.0 - 2.0

    def tail(u):
        t = 1.0 + u * u
        return (
            2.0
            * t**exponent
            * (1.0 - u * u)
            * kv(alpha, w * np.sqrt(t))
            * np.arcsin(1.0 / np.sqrt(t))
        )

    tail_term = _integrate_quad(
        tail, 0.0, np.inf, spec, f"weighted_bessel_integral(a={a}, alpha={alpha})"
    )
    return g_term + (x / gam) ** (alpha / 2.0) * tail_term
