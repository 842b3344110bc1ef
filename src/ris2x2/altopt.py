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
Here c = a01 conj(b01) in the Gram entries: :func:`linalg2.channel_eigen`
returns its phase with the eigen-decompositions G^H G = V diag(l1, l2) V^H
and H H^H = W diag(w1, w2) W^H, in which

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

import numpy as np

from .linalg2 import channel_eigen, svd2  # perfbench/child.py wraps svd2 here
from .sampling import ChannelRealization
from .sysmodel import leading_z_factors

__all__ = ["joint_optimum", "optimize_batch", "optimal_configuration"]


def joint_optimum(lam, om, z):
    """sigma_max^2 of G Phi* H from the eigenvalues lam = (l1, l2) of
    G^H G and om = (w1, w2) of H H^H and the compensated z factor ``z`` of
    the leading mode (see the module docstring):
    F*/2 + sqrt(F*^2/4 - l1 l2 w1 w2).
    """
    (l1, l2), (w1, w2) = lam, om
    f = l1 * w2 + l2 * w1 + (l1 - l2) * (w1 - w2) * z
    return f * 0.5 + np.sqrt(np.maximum(f * 0.25 * f - l1 * l2 * w1 * w2, 0.0))


def optimize_batch(ch: ChannelRealization) -> np.ndarray:
    """sigma_max^2 of G Phi* H, the optimum SNR / gamma_bar, for each
    realization of a (stacked) draw, from :func:`linalg2.channel_eigen`."""
    g, h, cos, sin = channel_eigen(ch.g, ch.h)
    z = leading_z_factors(*g[2:], *h[2:], cos, sin)[1][..., 0]
    return joint_optimum(g[:2], h[:2], z)


def optimal_configuration(ch: ChannelRealization):
    """Optimal (phasors, a, b) of a (stacked) realization.

    ``phasors[..., k]`` is exp(j*phi_k), the tile configuration of
    :mod:`sysmodel`, with tile 1 held at phase 0 and tile 2 undoing the
    relative phase of :func:`linalg2.channel_eigen`; a and b are the
    leading right and left singular vectors of G Phi* H.
    """
    *_, cos, sin = channel_eigen(ch.g, ch.h)
    phasors = np.stack([np.ones_like(cos), cos - 1j * sin], axis=-1)
    dec = svd2(ch.g * phasors[..., None, :] @ ch.h)
    return phasors, dec.v[..., :, 0], dec.u[..., :, 0]
