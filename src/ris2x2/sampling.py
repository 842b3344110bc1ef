"""Seedable, counter-based random generation of channels and their
Gram eigen-decompositions.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .linalg2 import Svd2, svd2

__all__ = [
    "RngState",
    "ChannelRealization",
    "channel_matrices",
    "channel_realizations",
    "eigen_draws",
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


def _uniform_blocks(state: RngState, start, n, blocks_per_draw: int) -> np.ndarray:
    """Uniforms in [0, 1) of draws start..start+n-1, draw k reading counter
    blocks [b k, b k + b) with b = ``blocks_per_draw``: (word >> 11) * 2^-53
    of each raw word.  ``start`` and ``n`` must be non-negative integers
    (a bool is not): a fractional window would start mid-draw."""
    for name, value in (("start", start), ("n", n)):
        if not _is_integer(value) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, not {value!r}")
    key = np.array([state.seed, state.stream], dtype=np.uint64)
    words = blocks_per_draw * int(n) * _WORDS_PER_BLOCK
    return Generator(Philox(key=key, counter=blocks_per_draw * int(start))).random(words)


def channel_matrices(state: RngState, n: int, start: int = 0):
    """Draws start..start+n-1 of channel pairs (g, h), each (n, 2, 2).

    Pair t consumes counter blocks [4t, 4t+4): the first 8 uniforms build
    g, the next 8 build h, two per entry in row-major order.  Box-Muller
    takes the pair (u1, u2) to the entry (r cos t + j r sin t) / sqrt(2),
    r = sqrt(-2 ln(1 - u1)), t = 2 pi u2.
    """
    u = _uniform_blocks(state, start, n, _BLOCKS_PER_PAIR)
    u = u.reshape(n, 2, 2, 2, 2)  # pair, matrix, row, column, (u1, u2)
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))  # 1 - u1 in (0, 1], no log(0)
    t = (2.0 * np.pi) * u[..., 1]
    mats = (r * np.cos(t) + 1j * (r * np.sin(t))) / np.sqrt(2.0)
    return mats[:, 0], mats[:, 1]


def channel_realizations(state: RngState, n: int, start: int = 0) -> ChannelRealization:
    """The draws of :func:`channel_matrices` with their SVDs."""
    g, h = channel_matrices(state, n, start=start)
    return ChannelRealization(g=g, h=h, svd_g=svd2(g), svd_h=svd2(h))


def eigen_draws(state: RngState, n: int, start: int = 0):
    """Trials start..start+n-1 of (g, h, cos, sin): g = (l1, l2, c, s),
    the eigenvalues l1 >= l2 of G^H G and the moduli (c, s) of its unit
    leading eigenvector, h the same of H H^H, for independent 2x2
    CN(0, 1) channels G and H in law, and the cosine and sine of the
    relative phase of the two eigenvectors (see the module docstring).
    """
    u = _uniform_blocks(state, start, n, _BLOCKS_PER_EIGEN_TRIAL).reshape(
        n, _WORDS_PER_BLOCK * _BLOCKS_PER_EIGEN_TRIAL
    )
    links = []
    for k in (0, 5):
        # 1 - u is exact; one column at a time, as a 2-D strided pass is slow
        l2 = np.log(1.0 - u[:, k]) * -0.5
        d = -np.log((1.0 - u[:, k + 1]) * (1.0 - u[:, k + 2]) * (1.0 - u[:, k + 3]))
        links.append((l2 + d, l2, np.sqrt(u[:, k + 4]), np.sqrt(1.0 - u[:, k + 4])))
    theta = (2.0 * np.pi) * u[:, 10]
    return links[0], links[1], np.cos(theta), np.sin(theta)
