"""Special functions behind the closed-form outage and throughput results.

The package's one vertical-line rule lives here, behind :func:`meijer_g`,
the composite Bessel/Meijer terms of the compensated closed forms and the
Mellin-Barnes outage and throughput of ``analytic``, with the terms the
closed forms are built from.  So do the two special functions they take,
in numpy alone:

* :func:`log_gamma`, complex ln Gamma up to 2 pi j: Stirling's series after
  one recurrence shift of the whole array to Re z >= 10;
* :func:`bessel_k`, K_n(x) of integer order |n| <= 3: the trapezoid rule
  on its integral representation in exp(-2x sinh^2(t/2)) cosh(nt).

(``analytic`` holds the other two the package needs, each next to its one
caller: e^x E1(x), by series and continued fraction, and the logistic.)

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
a whole array of x.  The nodes of each level are a ladder t_k = t0 + d k,
so x^{jt} at n of them is the product of two phasor tables of about sqrt(n)
entries each, e^{j t_k ln x} = coarse[k // w] fine[k % w] with w = ceil
sqrt(n): about 2 sqrt(n) cos and sin per x instead of n.  The product
rounds once more per term, so the rule's cancellation bound counts 2 eps
of every |term| (the error of a term itself and of its phase t ln x are not
counted).  The rule certifies each value by step halving, or raises
:class:`QuadratureError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

__all__ = [
    "MeijerParams",
    "QuadratureError",
    "bessel_k",
    "log_gamma",
    "meijer_g",
]


class QuadratureError(RuntimeError):
    """Raised when a vertical-line integral, an oracle or a closed form
    cannot be certified to its tolerance."""


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

    def __call__(self, s: np.ndarray, line=None) -> np.ndarray:
        # (``line``, the key of the rule's node set, is not needed here)
        # the numerator's Gamma arguments, then the denominator's: one array
        lg = log_gamma(
            [b - s for b in self.b[: self.m]]
            + [1.0 - a + s for a in self.a[: self.n]]
            + [1.0 - b + s for b in self.b[self.m :]]
            + [a - s for a in self.a[self.n :]]
        )
        upper = self.m + self.n
        return np.exp(lg[:upper].sum(axis=0) - lg[upper:].sum(axis=0))


def _line_ladder(level: int):
    """(t0, d) of level ``level`` of the vertical-line rule, whose nodes are
    the ladder t_k = t0 + d k, k = 0, 1, ...: the multiples of the first
    step h at level 0, (t0, d) = (0, h), and the odd multiples of h / 2^level
    after, (h / 2^level, h / 2^(level - 1)).  Powers of two, so t0 + d k is
    exact."""
    if level == 0:
        return 0.0, _LINE_FIRST_STEP
    return _LINE_FIRST_STEP * 0.5**level, _LINE_FIRST_STEP * 0.5 ** (level - 1)


def _line_nodes(level: int, count: int):
    """The first ``count`` nodes t >= 0 of level ``level`` of the
    vertical-line rule (:func:`_line_ladder`)."""
    t0, d = _line_ladder(level)
    return t0 + d * np.arange(count)


def _line_phasors(line, omega):
    """(coarse, fine), the phasor tables of the node set ``line`` = (c,
    level, count) at every frequency of the array ``omega``: with the nodes
    t_k = t0 + d k of the level (:func:`_line_ladder`) and w = ceil(sqrt
    count), k = w q + r,

        e^(j omega t_k) = coarse[q] * fine[r],
        coarse[q] = e^(j omega (t0 + d w q)),  fine[r] = e^(j omega d r),

    each table one row per q or r in the shape of ``omega`` (two views of
    one array).  Its phases are exact ladder nodes times omega, so the
    tables take about 2 sqrt count cos and sin per frequency instead of
    count; their product adds a rounding per term.  ceil(count / w) w >=
    count: the caller drops the products past the last node."""
    _, level, count = line
    t0, d = _line_ladder(level)
    width = isqrt(count - 1) + 1
    rows = -(-count // width)
    ladder = np.concatenate((t0 + (d * width) * np.arange(rows), d * np.arange(width)))
    phase = np.multiply.outer(ladder, omega)
    table = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=table.real)
    np.sin(phase, out=table.imag)
    return table[:rows], table[rows:]


def _phasor_sum(line, omega, values):
    """sum_k e^(j omega t_k) values_k over the nodes t_k of the node set
    ``line`` at every frequency of the 1-D array ``omega``, from the set's
    phasor tables (:func:`_line_phasors`): sum_q coarse[q] sum_r fine[r]
    values_(wq+r), the values on a grid of rows q and columns r, zero past
    the last node.  Two sums of products (``einsum``, no BLAS)."""
    coarse, fine = _line_phasors(line, omega)
    width = fine.shape[0]
    grid = np.zeros(coarse.shape[0] * width, dtype=np.complex128)
    grid[: line[2]] = values
    # the fine table one row per frequency, so that the sum over r runs
    # along contiguous memory in both operands (twice as fast for 31 x)
    rows = np.einsum("xr,qr->xq", np.ascontiguousarray(fine.T), grid.reshape(-1, width))
    return np.einsum("qx,xq->x", coarse, rows)


@lru_cache(maxsize=64)
def _line_level(transform, c: float, level: int):
    """Nodes t >= 0 and terms transform(c + jt) that level ``level`` of the
    rule on Re s = c adds (:func:`_line_nodes`): every multiple of the first
    step up to the truncation span (the term at t = 0 halved) at level 0,
    the odd multiples of step / 2^level after.

    The span grows by half from _LINE_SPAN until the last term is below
    _LINE_TAIL_SHARE * eps * sum|terms|; wherever the cancellation bound of
    :func:`_line_integral` holds, the tail left out is then at most that
    share of the tolerance.  If _LINE_GROWTHS tries do not get there, the
    transform does not decay and QuadratureError is raised.

    ``transform`` is hashable (a :class:`MeijerParams`, or a kernel and a
    mode of ``analytic``, or a Gamma ratio and alignment laws of its
    composite closed-form terms) and is called as transform(s, line) with
    the key line = (c, level, count) of its node set, by which transforms
    on the same nodes may share factors.  Cached, read-only: the calls of one sweep
    and of the checks that reuse a line evaluate the transform once per
    node.
    """
    if level == 0:
        span = _LINE_SPAN
        for _ in range(_LINE_GROWTHS):
            count = int(np.ceil(span / _LINE_FIRST_STEP)) + 1
            t = _line_nodes(0, count)
            values = transform(c + 1j * t, (c, 0, count))
            values[0] *= 0.5
            if np.abs(values[-1]) <= _LINE_TAIL_SHARE * _EPS * np.abs(values).sum():
                break
            span *= 1.5
        else:
            raise QuadratureError(
                f"{transform} does not decay on the line Re s = {c:g} (half-span {span:g})"
            )
    else:
        count = (len(_line_level(transform, c, 0)[0]) - 1) << (level - 1)
        t = _line_nodes(level, count)
        values = transform(c + 1j * t, (c, level, count))
    for arr in (t, values):
        arr.setflags(write=False)
    return t, values


def _line_integral(transform, c: float, log_x, residue=0.0, alias=None, floor=None):
    """V = residue + (1/2 pi j) int x^s T(s) ds on Re s = c at x = exp(log_x),
    for T = ``transform``, and which x it certifies.

    With S(x) = (1/pi) int_0^inf Re[x^{jt} T(c + jt)] dt (Re of the integrand
    is even in t), V = residue + x^c S.  Each halving of the step adds only
    the odd nodes of the finer level (:func:`_line_level`), and the level's
    sum of x^{jt} T over them comes from its phasor tables at omega = ln x
    (:func:`_phasor_sum`), about 2 sqrt(n) cos and sin per x for n nodes.

    Returns (V, ok); ok marks the x at which the cancellation bound
    2 eps * step * sum|terms| and the last step-halving change are within
    the tolerance, and so is ``alias(step, scaled)``, the ln of a bound of
    the rule's aliases relative to V, if given (``scaled`` is |V| / x^c).
    The bound's error model: each term x^{jt} T carries 2 eps of |T|, the
    rounding of its phasor's cos and sin and that of the tables' product;
    the error of T itself and eps |t ln x| of the phase are left out.  The
    tolerance is _REL_TOL |V|, raised to an absolute ``floor`` if one is
    given, one number or one per x (:func:`_certified_line`).  The step is
    halved until ok marks every x the cancellation bound leaves, at most
    _LINE_HALVINGS times; the other x carry no usable value.
    """
    x_c = np.exp(c * log_x)
    total = magnitude = estimate = 0.0
    for level in range(_LINE_HALVINGS + 1):
        step = _LINE_FIRST_STEP * 0.5**level
        t, values = _line_level(transform, c, level)
        magnitude += np.abs(values).sum()
        # Re[x^{jt} T(c + jt)] summed over the nodes, one row per x
        total += _phasor_sum((c, level, t.size), log_x, values).real
        previous, estimate = estimate, step * total / np.pi
        if level == 0:
            continue
        value = x_c * estimate + residue
        # |V| / x^c, the scale of the sums (x^c underflows for tiny x)
        scaled = np.abs(value) / x_c if residue else np.abs(estimate)
        tol = _REL_TOL * scaled
        if floor is not None:
            tol = np.maximum(tol, floor / x_c)
        live = 2.0 * _EPS * step * magnitude / np.pi <= tol
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
    what = f"meijer_g{params.m, params.n, params.p, params.q}"
    values = _certified_line(params, _contour_abscissa(params), zs.ravel(), _ABS_TOL, what)
    result = values.reshape(zs.shape)
    return result if result.ndim else float(result)


def _certified_line(transform, c: float, z, floor, what: str):
    """V of :func:`_line_integral` for ``transform`` on Re s = c at every z
    > 0 of a flat array, certified to max(``floor``, _REL_TOL |V|) at each
    (``floor`` one number or one per z), or QuadratureError naming the
    first z it is not."""
    values, ok = _line_integral(transform, c, np.log(z), floor=floor)
    if not ok.all():
        raise QuadratureError(
            f"{what}: the vertical line does not meet its tolerance at z = "
            f"{z[~ok][0]:g} ({np.count_nonzero(~ok)} of {z.size} z)"
        )
    return values


def _g30(z: float, b2: float, b3: float) -> float:
    """G^{3,0}_{1,3}(z | 0; -1, b2, b3), the Meijer block of the outage
    closed forms."""
    return meijer_g(MeijerParams(3, 0, 1, 3, (0.0,), (-1.0, b2, b3)), z)
