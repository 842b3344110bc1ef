"""Special functions behind the closed-form outage and throughput results.

Two rules live here, with the terms the closed forms are built from: the
package's one vertical-line rule, behind both :func:`meijer_g` and the
Mellin-Barnes outage and throughput of ``analytic``, and a half-line rule,
behind the composite Bessel/Meijer integral of the compensated outage
expressions.  So do the two special functions they take, in numpy alone:

* :func:`log_gamma`, complex ln Gamma up to 2 pi j: Stirling's series after
  one recurrence shift of the whole array to Re z >= 10;
* :func:`bessel_k`, K_n(x) of integer order |n| <= 3: the trapezoid rule
  on its integral representation in exp(-2x sinh^2(t/2)) cosh(nt).

(``analytic`` holds the other three the package needs, each next to its
one caller: e^x E1(x), the logistic and the Legendre recurrence.)

A Meijer G function and a Mellin-Barnes column are the same object,

    V(x) = (1/2*pi*j) * int_L  T(s) x^s ds,

along a vertical line Re(s) = c, for a transform T that is real on the real
axis, analytic on a strip around the line and decays exponentially along
it.  For G^{m,n}_{p,q}(x | a; b) T is the Gamma ratio

    prod Gamma(b_j - s) * prod Gamma(1 - a_j + s)
    ---------------------------------------------
    prod Gamma(1 - b_j + s) * prod Gamma(a_j - s),

which decays like exp(-mu*|Im s|) with mu = (2(m+n) - p - q) * pi / 2 > 0
on a line between the two pole ladders; repeated b parameters (the ladder
b = (-1, -1, -2) appears throughout) are harmless since the line never
touches a pole.  On such a line the trapezoid rule converges geometrically
as its step is halved (Trefethen & Weideman, SIAM Review 2014); the nodes of
a transform and a line are evaluated once and cached, and one contour serves
a whole array of x.  Integrals over a half-line run on a trapezoid rule in
the exp-sinh variable u = exp((pi/2) sinh tau), which converges
geometrically too (Takahasi & Mori, Publ. RIMS 1974).  Both rules certify
each value by step halving, or raise :class:`QuadratureError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MeijerParams",
    "QuadratureError",
    "bessel_k",
    "log_gamma",
    "meijer_g",
    "weighted_bessel_integral",
]


def _require_scalar(name: str, value) -> None:
    """ValueError unless ``value`` is a scalar, for one-value functions."""
    if np.ndim(value):
        raise ValueError(f"{name} must be a scalar, not of shape {np.shape(value)}")


class QuadratureError(RuntimeError):
    """Raised when a vertical-line or half-line integral, an oracle or a
    closed form cannot be certified to its tolerance."""


# The tolerances of every certified value: two levels of a step-halved rule
# agree to max(_ABS_TOL, _REL_TOL |value|); the Mellin-Barnes columns and
# the oracles use _REL_TOL alone.
_ABS_TOL = 1e-12
_REL_TOL = 1e-10

# The vertical-line rule: the first step of its trapezoid rule and how often
# it may be halved, the half-span its truncation starts from and how often
# that may grow by half, and the share of eps * sum|terms| its truncated tail
# may leave out.
_LINE_FIRST_STEP = 0.25
_LINE_HALVINGS = 8
_LINE_SPAN = 16.0
_LINE_GROWTHS = 12
_LINE_TAIL_SHARE = 1e-2
_EPS = np.finfo(np.float64).eps

# Stirling's series of ln Gamma(z), taken at Re z >= _STIRLING_SHIFT: its
# coefficients B_2k / (2k (2k - 1)), k = 1..6, whose first omitted term is
# below 1e-15 there.
_STIRLING_SHIFT = 10.0
_STIRLING_SERIES = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0, -691.0 / 360360.0,
)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# The trapezoid rule of bessel_k: its step, at most _BESSEL_STEP and
# _BESSEL_STEP_SCALE / sqrt(x), and the exponent its last term is below.
# From x = _BESSEL_UNDERFLOW on, K_n(x) is 0 in double precision.
_BESSEL_STEP = 0.2
_BESSEL_STEP_SCALE = 0.5
_BESSEL_CUT = 40.0
_BESSEL_UNDERFLOW = 746.0


def log_gamma(z):
    """ln Gamma(z) at every complex z of an array, up to a multiple of 2 pi j.

    Every caller takes exp of a sum of these, so the branch does not matter.
    The whole array is shifted by one N to Re z >= 10 by the recurrence
    Gamma(z) = Gamma(z + N) / (z (z + 1) ... (z + N - 1)), and Stirling's
    series serves it there.  A shift shared by every z needs no mask, which
    makes it faster than shifting only the z of small modulus.  exp of the
    result is within a few 1e-14 of Gamma in relative terms on the package's
    lines (the phase error grows like eps |z ln z|).  ValueError below
    Re z = -50, where the shift's product could overflow.
    """
    z = np.asarray(z, dtype=np.complex128)
    lowest = z.real.min(initial=_STIRLING_SHIFT)
    if lowest < -50.0:
        raise ValueError("log_gamma takes Re z >= -50")
    shift = int(np.ceil(_STIRLING_SHIFT - lowest))
    w = z + shift
    rise = np.ones_like(z)
    for k in range(shift):
        rise *= z + k
    inv = 1.0 / w
    inv2 = inv * inv
    series = _STIRLING_SERIES[-1]
    for c in _STIRLING_SERIES[-2::-1]:
        series = series * inv2 + c
    return (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + series * inv - np.log(rise)


def bessel_k(n: int, x):
    """K_n(x), the modified Bessel function of the second kind, for an
    integer order |n| <= 3 at every x > 0 of an array (a float for a scalar
    x), accurate to a few eps in relative terms while K_n(x) is a normal
    float (x below about 700), and 0 from x = 746 on.

    The trapezoid rule on

        K_n(x) = e^-x int_0^inf exp(-2x sinh^2(t/2)) cosh(n t) dt,

    the integral of exp(-x cosh t) cosh(n t) without its cancellation, is
    geometrically convergent (Trefethen & Weideman, SIAM Review 2014).  Its
    step shrinks like 1/sqrt(x), the width of the integrand's peak, and its
    terms run until 2x sinh^2(t/2) - |n| t passes _BESSEL_CUT.
    """
    if n != int(n) or abs(n) > 3:
        raise ValueError("bessel_k takes an integer order |n| <= 3")
    xs = np.asarray(x, dtype=np.float64)
    if not (xs > 0.0).all():
        raise ValueError("x must be positive")
    order = abs(int(n))
    flat = xs.ravel()
    live = flat < _BESSEL_UNDERFLOW
    x = flat[live]
    step = np.minimum(_BESSEL_STEP, _BESSEL_STEP_SCALE / np.sqrt(x))
    # where 2x sinh^2(t/2) = _BESSEL_CUT + |n| t, past it by one fixed-point
    # step from t = 2 t0, an upper bound, with 2x sinh^2(t0/2) = _BESSEL_CUT
    end = np.arcsinh(np.sqrt(_BESSEL_CUT * 0.5 / x))
    end = 2.0 * np.arcsinh(np.sqrt((_BESSEL_CUT + 4.0 * order * end) * 0.5 / x))
    count = int(np.ceil((end / step).max())) if x.size else 0
    t = step[:, None] * np.arange(count + 1)
    terms = np.exp(-2.0 * x[:, None] * np.sinh(0.5 * t) ** 2)
    if order:
        terms *= np.cosh(order * t)
    terms[:, 0] *= 0.5
    result = np.zeros(flat.shape)
    result[live] = np.exp(-x) * step * terms.sum(axis=1)
    result = result.reshape(xs.shape)
    return result if result.ndim else float(result)


@dataclass(frozen=True)
class MeijerParams:
    """Orders and parameters of G^{m,n}_{p,q}(z | a; b).

    Called at an array of complex s, it returns the Gamma ratio of the
    Mellin-Barnes integrand, without z^s: the transform that
    :func:`meijer_g` integrates on the vertical-line rule.
    """

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

    def __call__(self, s: np.ndarray) -> np.ndarray:
        # the numerator's Gamma arguments, then the denominator's: one array
        lg = log_gamma(
            [b - s for b in self.b[: self.m]]
            + [1.0 - a + s for a in self.a[: self.n]]
            + [1.0 - b + s for b in self.b[self.m :]]
            + [a - s for a in self.a[self.n :]]
        )
        upper = self.m + self.n
        return np.exp(lg[:upper].sum(axis=0) - lg[upper:].sum(axis=0))


@lru_cache(maxsize=64)
def _line_level(transform, c: float, level: int):
    """Nodes t >= 0 and terms transform(c + jt) that level ``level`` of the
    rule on Re s = c adds: every multiple of the first step up to the
    truncation span (the term at t = 0 halved) at level 0, the odd multiples
    of step / 2^level after.

    The span grows by half from _LINE_SPAN until the last term is below
    _LINE_TAIL_SHARE * eps * sum|terms|; wherever the cancellation bound of
    :func:`_line_integral` holds, the tail left out is then at most that
    share of the tolerance.  If _LINE_GROWTHS tries do not get there, the
    transform does not decay and QuadratureError is raised.

    ``transform`` is hashable (a :class:`MeijerParams`, or a kernel and a
    mode of ``analytic``).  Cached, read-only: the calls of one sweep and of
    the checks that reuse a line evaluate the transform once per node.
    """
    if level == 0:
        span = _LINE_SPAN
        for _ in range(_LINE_GROWTHS):
            t = _LINE_FIRST_STEP * np.arange(int(np.ceil(span / _LINE_FIRST_STEP)) + 1)
            values = transform(c + 1j * t)
            values[0] *= 0.5
            if np.abs(values[-1]) <= _LINE_TAIL_SHARE * _EPS * np.abs(values).sum():
                break
            span *= 1.5
        else:
            raise QuadratureError(
                f"{transform} does not decay on the line Re s = {c:g} (half-span {span:g})"
            )
    else:
        intervals = (len(_line_level(transform, c, 0)[0]) - 1) << (level - 1)
        t = _LINE_FIRST_STEP * 0.5**level * np.arange(1, 2 * intervals, 2)
        values = transform(c + 1j * t)
    for arr in (t, values):
        arr.setflags(write=False)
    return t, values


def _line_integral(transform, c: float, log_x, residue=0.0, alias=None, floor=0.0):
    """V = residue + (1/2 pi j) int x^s T(s) ds on Re s = c at x = exp(log_x),
    for T = ``transform``, and which x it certifies.

    With S(x) = (1/pi) int_0^inf Re[x^{jt} T(c + jt)] dt (Re of the integrand
    is even in t), V = residue + x^c S.  x^{jt} is one outer product per
    level (:func:`_line_level`), and each halving of the step adds only the
    odd nodes of the finer level.

    Returns (V, ok); ok marks the x at which the cancellation bound
    eps * sum|terms| and the last step-halving change are within the
    tolerance, and so is ``alias(step, scaled)``, the ln of a bound of the
    rule's aliases relative to V, if given (``scaled`` is |V| / x^c).  The
    tolerance is _REL_TOL |V|, raised to an absolute ``floor`` if one is
    given (:func:`meijer_g`'s).  The step is halved until ok marks every x
    the cancellation bound leaves, at most _LINE_HALVINGS times; the other x
    carry no usable value.
    """
    x_c = np.exp(c * log_x)
    total = magnitude = estimate = 0.0
    for level in range(_LINE_HALVINGS + 1):
        step = _LINE_FIRST_STEP * 0.5**level
        t, values = _line_level(transform, c, level)
        magnitude += np.abs(values).sum()
        # Re[x^{jt} T(c + jt)] summed over the nodes, one row per x
        phase = np.multiply.outer(log_x, t)
        total += np.cos(phase) @ values.real - np.sin(phase) @ values.imag
        previous, estimate = estimate, step * total / np.pi
        if level == 0:
            continue
        value = x_c * estimate + residue
        # |V| / x^c, the scale of the sums (x^c underflows for tiny x)
        scaled = np.abs(value) / x_c if residue else np.abs(estimate)
        tol = _REL_TOL * scaled
        if floor:
            tol = np.maximum(tol, floor / x_c)
        live = _EPS * step * magnitude / np.pi <= tol
        ok = live & (np.abs(estimate - previous) <= tol)
        if alias is not None:
            ok &= alias(step, scaled) <= np.log(_REL_TOL)
        if np.array_equal(ok, live):
            break
    return value, ok


def _contour_abscissa(params: MeijerParams) -> float:
    """Real part of the line of :func:`meijer_g`, between the pole ladders:
    mid-way, or 1/2 left of the right ladder when there is no left one.

    ValueError if the Gamma ratio does not decay on a vertical line, or the
    ladders leave no line at least 0.2 clear of both.
    """
    if 2 * (params.m + params.n) <= params.p + params.q:
        raise ValueError("the integrand does not decay on a vertical contour")
    right_edge = min(params.b[: params.m])
    if params.n == 0:
        return right_edge - 0.5
    left_edge = max(params.a[: params.n]) - 1.0
    if right_edge - left_edge < 0.4:
        raise ValueError(
            f"no vertical contour 0.2 clear of both pole ladders for a={params.a}, b={params.b}"
        )
    return 0.5 * (left_edge + right_edge)


def meijer_g(params: MeijerParams, z):
    """Evaluate G^{m,n}_{p,q}(z | a; b) for real parameters at every z > 0
    of an array at once, on one line; a float for a scalar z.

    The vertical-line rule (:func:`_line_integral`) integrates the Gamma
    ratio ``params`` on the line of :func:`_contour_abscissa` to
    max(_ABS_TOL, _REL_TOL |G|) at every z, or QuadratureError is raised.
    """
    zs = np.asarray(z, dtype=np.float64)
    if not np.all(zs > 0.0):
        raise ValueError("z must be positive")
    flat = zs.ravel()
    values, ok = _line_integral(params, _contour_abscissa(params), np.log(flat), floor=_ABS_TOL)
    if not ok.all():
        raise QuadratureError(
            f"meijer_g{params.m, params.n, params.p, params.q}: the vertical line does "
            f"not meet its tolerance at z = {flat[~ok][0]:g} ({np.count_nonzero(~ok)} "
            f"of {flat.size} z)"
        )
    result = values.reshape(zs.shape)
    return result if result.ndim else float(result)


def _half_line_integral(f, what: str) -> float:
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
    0.5 max(_ABS_TOL, _REL_TOL |value|); otherwise, or if a term is not
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
    if ends > 0.01 * max(_ABS_TOL, _REL_TOL * abs(estimate)):
        raise QuadratureError(f"{what}: integrand does not decay on the half-line")
    for _ in range(6):
        # the next level adds the odd multiples of half the step
        step *= 0.5
        last *= 2
        total += terms(step * np.arange(1 - last, last, 2)).sum()
        previous, estimate = estimate, step * total
        if abs(estimate - previous) <= 0.5 * max(_ABS_TOL, _REL_TOL * abs(estimate)):
            return float(estimate)
    raise QuadratureError(
        f"{what}: half-line rule not converged at step {step:g} (last two "
        f"estimates {previous:.6e}, {estimate:.6e})"
    )


def _g30(z: float, b2: float, b3: float) -> float:
    """G^{3,0}_{1,3}(z | 0; -1, b2, b3), the Meijer block of the outage
    closed forms."""
    return meijer_g(MeijerParams(3, 0, 1, 3, (0.0,), (-1.0, b2, b3)), z)


def weighted_bessel_integral(a: int, alpha: int, gamma_param: float, x: float) -> float:
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
    _require_scalar("gamma_param", gamma_param)
    _require_scalar("x", x)
    if not (gamma_param > 0.0 and x > 0.0):
        raise ValueError("gamma_param and x must be positive")
    gam = float(gamma_param)
    x = float(x)

    g30 = _g30(gam * x, alpha + a - 2.0, a - 2.0)
    g_term = x ** (2 - a) / (2.0 * gam ** (alpha + a - 2)) * g30
    w = 2.0 * np.sqrt(gam * x)
    exponent = a + alpha / 2.0 - 2.0

    def tail(u):
        t = 1.0 + u * u
        bessel = bessel_k(alpha, w * np.sqrt(t))
        return 2.0 * t**exponent * (1.0 - u * u) * bessel * np.arcsin(1.0 / np.sqrt(t))

    what = f"weighted_bessel_integral(a={a}, alpha={alpha})"
    return g_term + (x / gam) ** (alpha / 2.0) * _half_line_integral(tail, what)
