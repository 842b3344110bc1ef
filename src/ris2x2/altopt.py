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
In the eigen-decompositions G^H G = V diag(l1, l2) V^H and
H H^H = W diag(w1, w2) W^H this is

    F* = l1 w2 + l2 w1 + (l1 - l2)(w1 - w2) z,   |det G|^2 |det H|^2 = l1 l2 w1 w2,

with z = (|v11| |w11| + |v21| |w21|)^2 the compensated z factor of the
leading mode j1i1-cmp (expand a00 = l2 + (l1 - l2)|v11|^2 and the other
Gram entries), so the optimum is a function of five independent
variables with known laws: l2, l1 - l2, w2, w1 - w2 and z (see
:mod:`sampling` and :func:`analytic.z_factor_cdf`).  Every mode,
compensated or not, is one feasible (a, b, Phi), so the optimum
dominates each of them realization by realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg2 import _phase, abs_det2, gram2, hermitian_eigen2, svd2  # perfbench/child.py wraps svd2 here
from .sampling import ChannelRealization
from .sysmodel import leading_z_factors
from .workspace import Workspace

__all__ = ["BatchAltOpt", "joint_optimum", "optimize_batch", "optimal_configuration"]


@dataclass(frozen=True)
class BatchAltOpt:
    """Per-trial optimum SNR / gamma_bar (it does not depend on gamma_bar)."""

    snr_factor: np.ndarray
    iterations: np.ndarray  # all zero; perfbench/child.py sums it as altopt.trial_cycles


def joint_optimum(lam, om, z, work=None):
    """sigma_max^2 of G Phi* H from the eigenvalues lam = (l1, l2) of
    G^H G and om = (w1, w2) of H H^H and the compensated z factor ``z`` of
    the leading mode (see the module docstring), in the workspace array
    "f" (see :mod:`workspace`): F*/2 + sqrt(F*^2/4 - l1 l2 w1 w2).
    """
    work = Workspace() if work is None else work
    (l1, l2), (w1, w2) = lam, om
    shape = np.broadcast_shapes(*map(np.shape, (l1, l2, w1, w2, z)))
    f = np.multiply(l1, w2, out=work.empty("f", shape))
    t = np.multiply(l2, w1, out=work.empty("t", shape))
    f += t
    d = np.subtract(w1, w2, out=work.empty("d", shape))
    t = np.subtract(l1, l2, out=t)
    t *= d
    t *= z
    f += t
    t = np.multiply(f, 0.25, out=t)
    t *= f
    d = np.multiply(l1, l2, out=d)
    d *= w1
    d *= w2
    t -= d
    np.sqrt(np.maximum(t, 0.0, out=t), out=t)
    f *= 0.5
    f += t
    return f


def optimize_batch(ch: ChannelRealization) -> BatchAltOpt:
    """sigma_max^2 of G Phi* H for each realization of a (stacked) draw,
    from the eigen-decompositions of its Gram matrices."""
    (a00, a11, a01), (b00, b11, b01) = gram2(ch.g), gram2(ch.h, left=True)
    l1, l2, cg, sg = hermitian_eigen2(a00, a11, np.abs(a01), abs_det2(ch.g))
    w1, w2, cw, sw = hermitian_eigen2(b00, b11, np.abs(b01), abs_det2(ch.h))
    z = leading_z_factors(cg, sg, cw, sw, 1.0, 0.0)[1][..., 0]
    s = joint_optimum((l1, l2), (w1, w2), z)
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
