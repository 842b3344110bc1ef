"""Seedable, counter-based random generation of channels and unitaries.

Randomness is keyed by ``RngState(seed, stream)`` and a draw index: draw k
of a given kind touches a fixed window of Philox counter blocks, so the
k-th draw is a pure function of (seed, stream, k).  Splitting a batch into
chunks or workers therefore cannot change any value, and every sequence is
bit-for-bit reproducible.  Every generator returns a stack; one draw is a
stack of one (``n=1, start=k``).

Channel matrices have CN(0, 1) entries, by Box-Muller applied to the raw
uniform stream (fixed consumption of uniforms per draw, no rejection):
:func:`channel_matrices` is the Gaussian path, which the demos and the
checks on simulated channels use; the statistics pass draws no channels.
Haar unitaries are assembled from the angle densities of the U(2)
parameterization (theta12 with density sin 2*theta via inverse CDF, the
three phase angles uniform on [0, 2*pi)).

The statistics pass reads G and H only through G^H G and H H^H, so
:func:`gram_matrices` draws those directly.  G^H G of a 2x2 CN(0, 1)
matrix is complex Wishart with 2 degrees of freedom (Goodman, Ann. Math.
Stat. 1963), and by Bartlett's decomposition (Edelman, MIT thesis 1989) it
equals L L^H in law, L lower triangular with independent l11^2 = p ~
Gamma(2), l22^2 = r ~ Exp(1) and l21 ~ CN(0, 1), |l21|^2 = q ~ Exp(1):

    a00 = p,  a11 = q + r,  a01 = sqrt(p q) e^{j theta},  |det G|^2 = p r.

H H^H has the same law, from its own (p, q, r).  Trial t consumes counter
blocks [3t, 3t+3), 12 uniforms of which it uses 9: four per Gram matrix
(p = e0 + e1 and q, r from exponentials -ln(1 - u)) and one phase theta.
One phase serves both matrices.  In law arg a01 and arg b01 are independent
uniform angles, independent of every modulus; the eigenvalues, the
compensated z factors and the joint optimum read only moduli, and the
fixed-surface z factors read only theta = arg a01 - arg b01 (conjugating
both matrices by one diagonal unitary moves neither), so the draw returns
four real invariants per matrix, (a00, a11, |a01|, |det|^2), and the one
relative phase theta as (cos theta, sin theta).
:func:`bartlett_realizations` gives channels with these invariants (to
rounding), G = L^H, whose a01 carries theta, and H = M (lower
triangular, b01 real), from the same counter blocks, with their SVDs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .linalg2 import Svd2, UnitaryAngles, svd2, unitary_from_angles
from .workspace import Workspace

__all__ = [
    "RngState",
    "ChannelRealization",
    "channel_matrices",
    "channel_realizations",
    "gram_matrices",
    "bartlett_realizations",
    "haar_unitaries",
    "haar_angles",
    "angle_diff_pdf",
    "angle_diff_cdf",
    "angle_sum_pdf",
]

# Philox-4x64 emits 4 raw uint64 words per counter increment.
_WORDS_PER_BLOCK = 4
# A (G, H) channel pair consumes 16 uniforms.
_BLOCKS_PER_PAIR = 4
# A trial of the Gram draw consumes 12 uniforms and uses the first 9.
_BLOCKS_PER_GRAM_TRIAL = 3


@dataclass(frozen=True)
class RngState:
    """Key of a counter-based random stream (64-bit seed and stream id).

    Each must be an integer in [0, 2^64) (a bool is not): a larger one
    would alias a smaller one, and a float names no stream.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, np.integer))
                or not 0 <= value < 1 << 64
            ):
                raise ValueError(f"{name} must be an integer in [0, 2**64), not {value!r}")

    def child(self, stream: int) -> "RngState":
        return RngState(self.seed, stream)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw (or a stack of draws) of the two Rayleigh channel matrices
    with their cached decompositions."""

    g: np.ndarray
    h: np.ndarray
    svd_g: Svd2
    svd_h: Svd2


def _uniform_blocks(state: RngState, start_block: int, n_blocks: int, work=None) -> np.ndarray:
    """Uniforms in [0, 1) from counter blocks [start_block, start_block+n),
    (word >> 11) * 2^-53 of each raw word, in the workspace array "u"."""
    work = Workspace() if work is None else work
    u = work.empty("u", (n_blocks * _WORDS_PER_BLOCK,))
    key = np.array([state.seed, state.stream], dtype=np.uint64)
    return Generator(Philox(key=key, counter=int(start_block))).random(out=u)


def channel_matrices(state: RngState, n: int, start: int = 0):
    """Draws start..start+n-1 of channel pairs (g, h), each (n, 2, 2).

    Pair t consumes counter blocks [4t, 4t+4): the first 8 uniforms build
    g, the next 8 build h, two per entry in row-major order.  Box-Muller
    takes the pair (u1, u2) to the entry (r cos t + j r sin t) / sqrt(2),
    r = sqrt(-2 ln(1 - u1)), t = 2 pi u2.
    """
    u = _uniform_blocks(state, _BLOCKS_PER_PAIR * start, _BLOCKS_PER_PAIR * n)
    u = u.reshape(n, 2, 2, 2, 2)  # pair, matrix, row, column, (u1, u2)
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))  # 1 - u1 in (0, 1], no log(0)
    t = (2.0 * np.pi) * u[..., 1]
    mats = (r * np.cos(t) + 1j * (r * np.sin(t))) / np.sqrt(2.0)
    return mats[:, 0], mats[:, 1]


def channel_realizations(state: RngState, n: int, start: int = 0) -> ChannelRealization:
    """The draws of :func:`channel_matrices` with their SVDs."""
    g, h = channel_matrices(state, n, start=start)
    return ChannelRealization(g=g, h=h, svd_g=svd2(g), svd_h=svd2(h))


def _bartlett_variables(state: RngState, n: int, start: int, work):
    """(e, theta) for trials start..start+n-1: the rows of e, (8, n), are the
    exponentials [e0, e1, q1, r1, e4, e5, q2, r2] (p1 = e0 + e1 and p2 =
    e4 + e5), theta is the relative phase (see the module docstring)."""
    u = _uniform_blocks(
        state, _BLOCKS_PER_GRAM_TRIAL * start, _BLOCKS_PER_GRAM_TRIAL * n, work
    ).reshape(n, _WORDS_PER_BLOCK * _BLOCKS_PER_GRAM_TRIAL)
    # eight exponentials -ln(1 - u), entry-major; 1 - u in (0, 1], no log(0)
    e = work.empty("e", (8, n))
    np.copyto(e, u[:, :8].T)
    np.negative(e, out=e)
    np.log1p(e, out=e)
    np.negative(e, out=e)
    return e, np.multiply(2.0 * np.pi, u[:, 8], out=work.empty("theta", (n,)))


def gram_matrices(state: RngState, n: int, start: int = 0, work=None):
    """Trials start..start+n-1 of (g, h, cos, sin): the invariants
    g = (a00, a11, |a01|, |det G|^2) of G^H G and h = (b00, b11, |b01|,
    |det H|^2) of H H^H, for independent 2x2 CN(0, 1) channels G and H in
    law, and the cosine and sine of the relative phase arg(a01 conj(b01)).

    Every array returned lives in ``work`` (see :mod:`workspace`).
    """
    work = Workspace() if work is None else work
    e, theta = _bartlett_variables(state, n, start, work)
    # each matrix's rows [e0, e1, q, r] become [p, sqrt(p q), q + r, p r] in place
    for k in (0, 4):
        p, s, q, r = e[k : k + 4]
        np.add(p, s, out=p)
        np.sqrt(np.multiply(p, q, out=s), out=s)
        np.add(q, r, out=q)
        np.multiply(p, r, out=r)
    cos = np.cos(theta, out=work.empty("cos", (n,)))
    return (e[0], e[2], e[1], e[3]), (e[4], e[6], e[5], e[7]), cos, np.sin(theta, out=theta)


def bartlett_realizations(state: RngState, n: int, start: int = 0) -> ChannelRealization:
    """Channel pairs (g, h), each (n, 2, 2), with their SVDs, whose G^H G
    and H H^H have the invariants and the relative phase of
    :func:`gram_matrices` at the same trials:
    G = [[sqrt p1, sqrt q1 e^{j theta}], [0, sqrt r1]] and
    H = [[sqrt p2, 0], [sqrt q2, sqrt r2]]."""
    e, theta = _bartlett_variables(state, n, start, Workspace())
    (p1, q1, r1), (p2, q2, r2) = (e[0] + e[1], e[2], e[3]), (e[4] + e[5], e[6], e[7])
    g = np.zeros((n, 2, 2), dtype=np.complex128)
    h = np.zeros((n, 2, 2), dtype=np.complex128)
    g[:, 0, 0], g[:, 1, 1] = np.sqrt(p1), np.sqrt(r1)
    g[:, 0, 1] = np.sqrt(q1) * np.exp(1j * theta)
    h[:, 0, 0], h[:, 1, 0], h[:, 1, 1] = np.sqrt(p2), np.sqrt(q2), np.sqrt(r2)
    return ChannelRealization(g=g, h=h, svd_g=svd2(g), svd_h=svd2(h))


def haar_angles(state: RngState, n: int, start: int = 0) -> UnitaryAngles:
    """Angles of n Haar draws; draw k consumes counter block start + k."""
    u = _uniform_blocks(state, start, n).reshape(n, 4)
    return UnitaryAngles(
        theta11=(2.0 * np.pi) * u[:, 0],
        theta12=np.arcsin(np.sqrt(u[:, 3])),  # inverse CDF of sin(2*theta)
        theta21=(2.0 * np.pi) * u[:, 1],
        theta22=(2.0 * np.pi) * u[:, 2],
    )


def haar_unitaries(state: RngState, n: int, start: int = 0) -> np.ndarray:
    """Haar-distributed U(2) draws start..start+n-1."""
    return unitary_from_angles(haar_angles(state, n, start=start))


def angle_diff_pdf(x):
    """Density of the difference of two independent angles with density
    sin(2*theta) on [0, pi/2]; supported on [-pi/2, pi/2], zero outside."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    val = 0.5 * (
        (np.pi / 2.0) * np.cos(2.0 * x)
        - ax * np.cos(2.0 * x)
        + 0.5 * np.sin(2.0 * ax)
    )
    out = np.where(ax <= np.pi / 2.0, val, 0.0)
    return out if out.ndim else float(out)


def angle_diff_cdf(x):
    """Antiderivative of :func:`angle_diff_pdf`, clamped to [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.clip(np.abs(x), 0.0, np.pi / 2.0)
    half = (
        (np.pi / 8.0) * np.sin(2.0 * ax)
        - (ax / 4.0) * np.sin(2.0 * ax)
        - 0.25 * np.cos(2.0 * ax)
        + 0.25
    )
    out = 0.5 + np.sign(x) * half
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def angle_sum_pdf(x):
    """Density of the sum of two independent angles with density
    sin(2*theta) on [0, pi/2]; supported on [0, pi], zero outside."""
    x = np.asarray(x, dtype=np.float64)
    low = 0.25 * np.sin(2.0 * x) - 0.5 * x * np.cos(2.0 * x)
    high = -0.25 * np.sin(2.0 * x) - 0.5 * (np.pi - x) * np.cos(2.0 * x)
    val = np.where(x < np.pi / 2.0, low, high)
    out = np.where((x >= 0.0) & (x <= np.pi), val, 0.0)
    return out if out.ndim else float(out)
