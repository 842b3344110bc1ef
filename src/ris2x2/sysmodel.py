"""Transmission modes, instantaneous SNR, and surface phase compensation.

The link is y = G Phi H x + n with diagonal reflection matrix
Phi = diag(exp(j*phi1), exp(j*phi2)).  A tile configuration is the pair of
unit phasors (exp(j*phi1), exp(j*phi2)), an array whose last axis has
length 2.  A transmission mode (i, j) sends along the i-th right singular
vector of H and combines along the j-th left singular vector of G, which
factors the SNR as

    gamma = gamma_bar * lambda_j * omega_i * z,     z = |v_j^H Phi w_i|^2,

with lambda/omega the squared singular values of G/H, v_j a right singular
vector of G and w_i a left singular vector of H.  Compensation picks the
tile phases that align the two reflected paths, turning z into the squared
sum of moduli (the triangle-inequality bound).  Without compensation the
surface keeps the identity configuration; the law of z is the same for
any fixed configuration.

Every function takes one realization or a stack of them (leading axes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import ChannelRealization, _is_integer
from .special import _require_scalar
from .workspace import Workspace

__all__ = [
    "Mode",
    "MODES",
    "mode_vectors",
    "compensated_phases",
    "instantaneous_snr",
    "alignment_factors",
    "leading_z_factors",
    "mode_z_factors",
]

# Largest deviation from unit norm (vectors) or unit modulus (phasors)
# that instantaneous_snr accepts.
_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class Mode:
    """A transmission strategy: transmit index i, combine index j, and
    whether the surface phases track the channel."""

    tx: int  # i: column of the right singular basis of H
    rx: int  # j: column of the left singular basis of G
    compensated: bool = False

    def __post_init__(self):
        if not all(_is_integer(k) and k in (1, 2) for k in (self.tx, self.rx)):
            raise ValueError(f"mode indices must be integers 1 or 2: {self.tx!r}, {self.rx!r}")

    @property
    def label(self) -> str:
        return f"j{self.rx}i{self.tx}" + ("-cmp" if self.compensated else "")


MODES = tuple(
    Mode(tx=i, rx=j, compensated=c)
    for c in (False, True)
    for j in (1, 2)
    for i in (1, 2)
)


def mode_vectors(ch: ChannelRealization, mode: Mode):
    """Unit transmit and combining vectors (a, b) of a mode."""
    a = ch.svd_h.v[..., :, mode.tx - 1]
    b = ch.svd_g.u[..., :, mode.rx - 1]
    return a, b


def compensated_phases(v_j, w_i) -> np.ndarray:
    """Tile phasors aligning the two reflected paths for the given singular
    vector pair: exp(j*phi_k) with phi_k = -arg(conj(v_jk) * w_ik).

    A vanishing product leaves that tile at phasor 1 (the SNR does not
    depend on it there).
    """
    prod = np.conjugate(v_j) * np.asarray(w_i)
    mag = np.abs(prod)
    live = mag >= 1e-300
    return np.where(live, np.conjugate(prod) / np.where(live, mag, 1.0), 1.0 + 0.0j)


def instantaneous_snr(g, h, phasors, a, b, gamma_bar: float):
    """gamma_bar * |b^H G Phi H a|^2 for unit vectors a, b and unit tile
    phasors (Phi = diag(phasors)), one value per realization."""
    a, b, phasors = np.asarray(a), np.asarray(b), np.asarray(phasors)
    for vec in (a, b):
        if not np.all(np.abs(np.linalg.norm(vec, axis=-1) - 1.0) <= _UNIT_TOL):
            raise ValueError("a and b must be unit vectors")
    if not np.all(np.abs(np.abs(phasors) - 1.0) <= _UNIT_TOL):
        raise ValueError("tile phasors must have unit modulus")
    _require_scalar("gamma_bar", gamma_bar)
    if not 0.0 < gamma_bar < np.inf:
        raise ValueError("gamma_bar must be positive and finite")
    bg = np.einsum("...i,...ij->...j", np.conjugate(b), g)
    ha = np.einsum("...ij,...j->...i", h, a)
    amp = np.einsum("...k,...k,...k->...", bg, phasors, ha)
    out = float(gamma_bar) * (amp.real**2 + amp.imag**2)
    return out if out.ndim else float(out)


def alignment_factors(v, w):
    """All four alignment factors of the bases V (right singular vectors of
    G, as columns) and W (left singular vectors of H).

    Returns (z_plain, z_comp), each indexed [..., j-1, i-1]:
    z_plain = |(V^H W)_{ji}|^2 (identity surface) and
    z_comp = ((|V|^T |W|)_{ji})^2 (compensated surface).
    """
    cross = np.einsum("...kj,...ki->...ji", np.conjugate(v), w)
    z_plain = cross.real**2 + cross.imag**2
    amps = np.einsum("...kj,...ki->...ji", np.abs(v), np.abs(w))
    z_comp = amps**2
    return np.minimum(z_plain, 1.0), np.minimum(z_comp, 1.0)


def leading_z_factors(cg, sg, ch, sh, cos, sin, work=None):
    """All z factors from the moduli (cg, sg) of the unit leading
    eigenvector of G^H G and (ch, sh) of H H^H and the cosine and sine of
    the relative phase theta = arg(a01 conj(b01)) of their off-diagonal
    entries, as :func:`linalg2.channel_eigen` reduces channel matrices and
    :func:`sampling.eigen_draws` draws them.

    The leading vectors are v = (cg, sg e^{-j arg a01}) and w = (ch,
    sh e^{-j arg b01}), and the second singular vectors are their
    orthogonal complements, so z depends only on whether j = i.  Returns
    (z_plain, z_comp) with last axis [matched (1,1) = (2,2), crossed (1,2)
    = (2,1)]: with p = cg ch, q = sg sh (matched) or p = cg sh, q = sg ch
    (crossed), z_plain = |p +- q e^{j theta}|^2 (+ matched, - crossed) and
    z_comp = (p + q)^2.  Every array returned lives in ``work`` (see
    :mod:`workspace`).
    """
    work = Workspace() if work is None else work
    shape = np.broadcast_shapes(*map(np.shape, (cg, sg, ch, sh, cos, sin)))

    def buf(name, first=()):
        return work.empty(name, first + shape)

    # [matched, crossed] first, so that each factor is contiguous
    z_plain, z_comp = buf("z_plain", (2,)), buf("z_comp", (2,))
    p, q, t = buf("p"), buf("q"), buf("t")
    for k, (u, v, combine) in enumerate(((ch, sh, np.add), (sh, ch, np.subtract))):
        np.multiply(cg, u, out=p)
        np.multiply(sg, v, out=q)
        np.add(p, q, out=z_comp[k, ...])
        combine(p, np.multiply(q, cos, out=t), out=p)
        np.square(p, out=z_plain[k, ...])
        z_plain[k, ...] += np.square(np.multiply(q, sin, out=t), out=t)
    np.square(z_comp, out=z_comp)
    np.minimum(z_plain, 1.0, out=z_plain)
    np.minimum(z_comp, 1.0, out=z_comp)
    return np.moveaxis(z_plain, 0, -1), np.moveaxis(z_comp, 0, -1)


def mode_z_factors(ch: ChannelRealization):
    """All eight z factors of a (stacked) realization at once, as
    :func:`alignment_factors` of its singular bases."""
    return alignment_factors(ch.svd_g.v, ch.svd_h.u)
