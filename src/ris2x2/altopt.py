"""Joint optimum of (a, b, Phi) in closed form.

The benchmark scheme maximizes the instantaneous SNR
gamma_bar * |b^H G Phi H a|^2 over unit vectors a, b and the diagonal
unitary Phi = diag(exp(j*phi1), exp(j*phi2)).  For a fixed Phi the best
(b, a) are the leading left/right singular vectors of M = G Phi H, worth
sigma_max^2(M), so only the tile phases remain.  With g_k the columns of G
and h_k the rows of H,

    M = exp(j*phi1) g1 h1 + exp(j*phi2) g2 h2,

so |det M| = |det G| |det H| does not depend on Phi, and

    sigma_max^2(M) = F/2 + sqrt(F^2/4 - |det G|^2 |det H|^2)

grows with F = ||M||_F^2 = ||g1||^2 ||h1||^2 + ||g2||^2 ||h2||^2
+ 2 Re(exp(j*(phi2 - phi1)) c), where c = (g1^H g2)(h2 h1^H).  F peaks at

    F* = ||g1||^2 ||h1||^2 + ||g2||^2 ||h2||^2 + 2 |c|

for the relative phase phi2 - phi1 = -arg(c); the common phase is free.
Every mode, compensated or not, is one feasible (a, b, Phi), so the optimum
dominates each of them realization by realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg2 import abs_det2, gram2, svd2  # perfbench/child.py wraps svd2 here
from .sampling import ChannelRealization
from .workspace import Workspace

__all__ = ["BatchAltOpt", "joint_optimum", "optimize_batch", "optimal_configuration"]


@dataclass(frozen=True)
class BatchAltOpt:
    """Per-trial optimum SNR / gamma_bar (it does not depend on gamma_bar)."""

    snr_factor: np.ndarray
    iterations: np.ndarray  # all zero; perfbench/child.py sums it as altopt.trial_cycles


def joint_optimum(a, b, det2, work=None):
    """sigma_max^2 of G Phi* H from the Gram entries a = (a00, a11, a01) of
    G^H G and b = (b00, b11, b01) of H H^H (see :func:`linalg2.gram2`) and
    det2 = |det G|^2 |det H|^2, in the workspace array "f" (see
    :mod:`workspace`).

    ||g_k||^2 = a_kk, ||h_k||^2 = b_kk and c = a01 conj(b01), so
    F* = a00 b00 + a11 b11 + 2 |a01 conj(b01)|.
    """
    work = Workspace() if work is None else work
    shape = np.broadcast_shapes(*map(np.shape, (*a, *b, det2)))
    f = np.multiply(a[0], b[0], out=work.empty("f", shape))
    t = np.multiply(a[1], b[1], out=work.empty("t", shape))
    f += t
    # c = conj(b01) a01, its temporary on the left (see linalg2.gram2);
    # b01 is copied in first, as a ufunc casting a real b01 would buffer it
    c = work.empty("c", shape, np.complex128)
    np.copyto(c, b[2])
    np.conjugate(c, out=c)
    c *= a[2]
    t = np.abs(c, out=t)
    t *= 2.0
    f += t
    t = np.multiply(f, 0.25, out=t)
    t *= f
    t -= det2
    np.sqrt(np.maximum(t, 0.0, out=t), out=t)
    f *= 0.5
    f += t
    return f


def optimize_batch(ch: ChannelRealization) -> BatchAltOpt:
    """sigma_max^2 of G Phi* H for each realization of a (stacked) draw."""
    s = joint_optimum(gram2(ch.g), gram2(ch.h, left=True), abs_det2(ch.g) * abs_det2(ch.h))
    return BatchAltOpt(snr_factor=s, iterations=np.zeros(s.shape, dtype=np.int64))


def optimal_configuration(ch: ChannelRealization):
    """Optimal (phasors, a, b) of a (stacked) realization.

    ``phasors[..., k]`` is exp(j*phi_k), the tile configuration of
    :mod:`sysmodel`, with tile 1 held at phase 0; a and b are the leading
    right and left singular vectors of G Phi* H.
    """
    c = np.conjugate(gram2(ch.h, left=True)[2]) * gram2(ch.g)[2]
    mag = np.abs(c)
    rel = np.where(mag > 0.0, np.conjugate(c) / np.where(mag > 0.0, mag, 1.0), 1.0)
    phasors = np.stack([np.ones_like(rel), rel], axis=-1)
    dec = svd2(ch.g * phasors[..., None, :] @ ch.h)
    return phasors, dec.v[..., :, 0], dec.u[..., :, 0]
