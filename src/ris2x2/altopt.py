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

from .linalg2 import _phase, abs_det2, gram2, svd2  # perfbench/child.py wraps svd2 here
from .sampling import ChannelRealization
from .workspace import Workspace

__all__ = ["BatchAltOpt", "joint_optimum", "optimize_batch", "optimal_configuration"]


@dataclass(frozen=True)
class BatchAltOpt:
    """Per-trial optimum SNR / gamma_bar (it does not depend on gamma_bar)."""

    snr_factor: np.ndarray
    iterations: np.ndarray  # all zero; perfbench/child.py sums it as altopt.trial_cycles


def joint_optimum(g, h, work=None):
    """sigma_max^2 of G Phi* H from the invariants g = (a00, a11, |a01|,
    |det G|^2) of G^H G and h = (b00, b11, |b01|, |det H|^2) of H H^H
    (see :func:`sampling.gram_matrices`), in the workspace array "f" (see
    :mod:`workspace`).

    ||g_k||^2 = a_kk, ||h_k||^2 = b_kk and |c| = |a01| |b01|, so
    F* = a00 b00 + a11 b11 + 2 |a01| |b01|.
    """
    work = Workspace() if work is None else work
    (a00, a11, abs_a01, det_g), (b00, b11, abs_b01, det_h) = g, h
    shape = np.broadcast_shapes(*map(np.shape, (*g, *h)))
    f = np.multiply(a00, b00, out=work.empty("f", shape))
    t = np.multiply(a11, b11, out=work.empty("t", shape))
    f += t
    t = np.multiply(abs_a01, abs_b01, out=t)
    t *= 2.0
    f += t
    t = np.multiply(f, 0.25, out=t)
    t *= f
    t -= np.multiply(det_g, det_h, out=work.empty("det2", shape))
    np.sqrt(np.maximum(t, 0.0, out=t), out=t)
    f *= 0.5
    f += t
    return f


def optimize_batch(ch: ChannelRealization) -> BatchAltOpt:
    """sigma_max^2 of G Phi* H for each realization of a (stacked) draw."""
    (a00, a11, a01), (b00, b11, b01) = gram2(ch.g), gram2(ch.h, left=True)
    s = joint_optimum(
        (a00, a11, np.abs(a01), abs_det2(ch.g)), (b00, b11, np.abs(b01), abs_det2(ch.h))
    )
    return BatchAltOpt(snr_factor=s, iterations=np.zeros(s.shape, dtype=np.int64))


def optimal_configuration(ch: ChannelRealization):
    """Optimal (phasors, a, b) of a (stacked) realization.

    ``phasors[..., k]`` is exp(j*phi_k), the tile configuration of
    :mod:`sysmodel`, with tile 1 held at phase 0; a and b are the leading
    right and left singular vectors of G Phi* H.
    """
    c = np.conjugate(gram2(ch.h, left=True)[2]) * gram2(ch.g)[2]
    rel = _phase(np.conjugate(c))
    phasors = np.stack([np.ones_like(rel), rel], axis=-1)
    dec = svd2(ch.g * phasors[..., None, :] @ ch.h)
    return phasors, dec.v[..., :, 0], dec.u[..., :, 0]
