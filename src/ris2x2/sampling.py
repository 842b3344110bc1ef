"""Seedable, counter-based random generation of channels and unitaries.

Randomness is keyed by ``RngState(seed, stream)`` and a draw index: draw k
of a given kind touches a fixed window of Philox counter blocks, so the
k-th draw is a pure function of (seed, stream, k).  Splitting a batch into
chunks or workers therefore cannot change any value, and every sequence is
bit-for-bit reproducible.  Every generator returns a stack; one draw is a
stack of one (``n=1, start=k``).

Matrix entries are CN(0, 1), by Box-Muller applied to the raw uniform
stream (fixed consumption of uniforms per draw, no rejection), and Haar
unitaries are assembled from the angle densities of the U(2)
parameterization (theta12 with density sin 2*theta via inverse CDF,
the three phase angles uniform on [0, 2*pi)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .linalg2 import Svd2, UnitaryAngles, svd2, unitary_from_angles

__all__ = [
    "RngState",
    "ChannelRealization",
    "gaussian_channels",
    "channel_matrices",
    "channel_realizations",
    "haar_unitaries",
    "haar_angles",
    "angle_diff_pdf",
    "angle_diff_cdf",
    "angle_sum_pdf",
]

# Philox-4x64 emits 4 raw uint64 words per counter increment.
_WORDS_PER_BLOCK = 4
# One 2x2 complex Gaussian matrix consumes 8 uniforms (16 normals / 2).
_BLOCKS_PER_MATRIX = 2
# A (G, H) channel pair consumes 16 uniforms.
_BLOCKS_PER_PAIR = 4


@dataclass(frozen=True)
class RngState:
    """Key of a counter-based random stream (64-bit seed and stream id)."""

    seed: int
    stream: int = 0

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


def _uniform_blocks(state: RngState, start_block: int, n_blocks: int) -> np.ndarray:
    """Uniforms in [0, 1) from counter blocks [start_block, start_block+n)."""
    key = np.array(
        [state.seed & 0xFFFFFFFFFFFFFFFF, state.stream & 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    )
    bitgen = Philox(key=key, counter=int(start_block))
    raw = bitgen.random_raw(n_blocks * _WORDS_PER_BLOCK)
    raw >>= np.uint64(11)
    # 53-bit integers convert exactly, and faster from int64 than from uint64
    return np.multiply(raw.view(np.int64), 2.0 ** -53)


# numpy's complex division by sqrt(2) multiplies by this reciprocal
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _matrices_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Map each row of 8k uniforms to k 2x2 CN(0,1) matrices (row-major
    entries), an (n, k, 2, 2) view of an entry-major array (each entry is
    contiguous across draws, as the elementwise stages after it read best).

    Box-Muller takes uniform pair (u1, u2) to the entry (r cos t + j r sin t)
    / sqrt(2), r = sqrt(-2 ln(1 - u1)), t = 2 pi u2, part by part.
    """
    u1 = u[:, 0::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], no log(0)
    ang = (2.0 * np.pi) * u[:, 1::2]
    out = np.empty(u1.shape[::-1], dtype=np.complex128)
    np.multiply((r * np.cos(ang)).T, _INV_SQRT2, out=out.real)
    np.multiply((r * np.sin(ang)).T, _INV_SQRT2, out=out.imag)
    # a zero radius (u1 = 0) gives +0 in both parts, as the complex sum did
    parts = out.view(np.float64)
    parts += 0.0
    return out.T.reshape(u.shape[0], -1, 2, 2)


def gaussian_channels(state: RngState, n: int, start: int = 0) -> np.ndarray:
    """Draws start..start+n-1 of a 2x2 matrix with i.i.d. CN(0,1) entries."""
    u = _uniform_blocks(state, _BLOCKS_PER_MATRIX * start, _BLOCKS_PER_MATRIX * n)
    return _matrices_from_uniforms(u.reshape(n, 8)).reshape(n, 2, 2)


def channel_matrices(state: RngState, n: int, start: int = 0):
    """Draws start..start+n-1 of channel pairs (g, h), each (n, 2, 2).

    Pair t consumes counter blocks [4t, 4t+4): the first 8 uniforms build
    g, the next 8 build h.
    """
    u = _uniform_blocks(state, _BLOCKS_PER_PAIR * start, _BLOCKS_PER_PAIR * n)
    mats = _matrices_from_uniforms(u.reshape(n, 16))
    return mats[:, 0], mats[:, 1]


def channel_realizations(state: RngState, n: int, start: int = 0) -> ChannelRealization:
    """The draws of :func:`channel_matrices` with their SVDs."""
    g, h = channel_matrices(state, n, start=start)
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
