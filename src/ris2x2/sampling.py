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

The statistics pass reads G and H only through the eigen-decompositions
of G^H G and H H^H, so :func:`eigen_draws` draws those directly.  G^H G
of a 2x2 CN(0, 1) matrix is complex Wishart with 2 degrees of freedom
(Goodman, Ann. Math. Stat. 1963).  Its eigenvalues l1 >= l2 have the
joint density e^{-l1 - l2} (l1 - l2)^2 (James, Ann. Math. Stat. 1964;
Edelman, MIT thesis 1989), which factors: l2 ~ Exp(rate 2) and
d = l1 - l2 ~ Gamma(3) are independent.  Its eigenvectors are Haar
distributed and independent of the eigenvalues, so the squared modulus
c^2 of the first entry of the unit leading eigenvector is U(0, 1), and
the phases of the entries are uniform.  H H^H has the same law, and G
and H are independent.

Trial t consumes counter blocks [3t, 3t+3), 12 uniforms of which it uses
11: five per link, then one phase, the last word unused.  A link takes

    l2 = -ln(1 - u0) / 2,   d = -ln((1 - u1)(1 - u2)(1 - u3)),
    c = sqrt(u4),           s = sqrt(1 - u4),

and l1 = l2 + d.  Every 1 - u is exact on the 2^-53 grid of the
uniforms, and the product rounds twice, so the one logarithm gives a
Gamma(3) draw with an absolute error of about 2^-52: a relative error
of about 2^-53 (1 + 2 / d), worse than 1e-10 only for d < 2.2e-6, which
has probability 2e-18.  The z factors read the leading eigenvectors
v = (cg, sg e^{-j phi_g}) and w = (ch, sh e^{-j phi_h}) only through the
moduli and the relative phase theta = phi_g - phi_h, uniform on
[0, 2 pi) (conjugating both Gram matrices by one diagonal unitary moves
no z factor), so the draw returns (l1, l2, c, s) per link and theta as
(cos theta, sin theta).
:func:`eigen_realizations` gives channels with these eigen-decompositions
(to rounding), G = diag(sqrt l) V^H and H = W diag(sqrt w), from the
same counter blocks, with their SVDs.
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
    "eigen_draws",
    "eigen_realizations",
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
# A trial of the eigen draw consumes 12 uniforms and uses the first 11.
_BLOCKS_PER_EIGEN_TRIAL = 3


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
            if not _is_integer(value) or not 0 <= value < 1 << 64:
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


def eigen_draws(state: RngState, n: int, start: int = 0, work=None):
    """Trials start..start+n-1 of (g, h, cos, sin): g = (l1, l2, c, s),
    the eigenvalues l1 >= l2 of G^H G and the moduli (c, s) of its unit
    leading eigenvector, h the same of H H^H, for independent 2x2
    CN(0, 1) channels G and H in law, and the cosine and sine of the
    relative phase of the two eigenvectors (see the module docstring).

    Every array returned lives in ``work`` (see :mod:`workspace`).
    """
    work = Workspace() if work is None else work
    u = _uniform_blocks(
        state, _BLOCKS_PER_EIGEN_TRIAL * start, _BLOCKS_PER_EIGEN_TRIAL * n, work
    ).reshape(n, _WORDS_PER_BLOCK * _BLOCKS_PER_EIGEN_TRIAL)
    links = []
    for k, name in ((0, "g"), (5, "h")):
        l1, l2, c, s = (work.empty(f"{name}.{x}", (n,)) for x in ("l1", "l2", "c", "s"))
        # 1 - u is exact; one column at a time, as a 2-D strided pass is slow
        np.log(np.subtract(1.0, u[:, k], out=l2), out=l2)
        l2 *= -0.5
        np.subtract(1.0, u[:, k + 1], out=l1)
        for j in (k + 2, k + 3):
            l1 *= np.subtract(1.0, u[:, j], out=s)
        np.log(l1, out=l1)
        np.subtract(l2, l1, out=l1)  # l2 + d
        np.sqrt(u[:, k + 4], out=c)
        np.sqrt(np.subtract(1.0, u[:, k + 4], out=s), out=s)
        links.append((l1, l2, c, s))
    theta = np.multiply(2.0 * np.pi, u[:, 10], out=work.empty("sin", (n,)))
    cos = np.cos(theta, out=work.empty("cos", (n,)))
    return links[0], links[1], cos, np.sin(theta, out=theta)


def eigen_realizations(state: RngState, n: int, start: int = 0) -> ChannelRealization:
    """Channel pairs (g, h), each (n, 2, 2), with their SVDs, whose G^H G
    and H H^H have the eigen-decompositions and the relative phase of
    :func:`eigen_draws` at the same trials: G = diag(sqrt l1, sqrt l2) V^H
    and H = W diag(sqrt w1, sqrt w2) with the unitaries
    V = [[cg, -sg e^{j theta}], [sg e^{-j theta}, cg]] and
    W = [[ch, -sh], [sh, ch]], so a01 of G^H G carries theta and b01 of
    H H^H is real."""
    (l1, l2, cg, sg), (w1, w2, ch, sh), cos, sin = eigen_draws(state, n, start)
    phase = cos + 1j * sin
    g = np.empty((n, 2, 2), dtype=np.complex128)
    h = np.empty((n, 2, 2), dtype=np.complex128)
    r1, r2 = np.sqrt(l1), np.sqrt(l2)
    g[:, 0, 0], g[:, 0, 1] = r1 * cg, r1 * sg * phase
    g[:, 1, 0], g[:, 1, 1] = -r2 * sg * np.conjugate(phase), r2 * cg
    r1, r2 = np.sqrt(w1), np.sqrt(w2)
    h[:, 0, 0], h[:, 0, 1] = ch * r1, -sh * r2
    h[:, 1, 0], h[:, 1, 1] = sh * r1, ch * r2
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
