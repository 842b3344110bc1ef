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

from .linalg2 import svd2  # looked up here by perfbench/child.py, which wraps it
from .sampling import ChannelRealization

__all__ = ["BatchAltOpt", "optimize_batch", "optimal_configuration"]


@dataclass(frozen=True)
class BatchAltOpt:
    """Per-trial optimum SNR / gamma_bar (it does not depend on gamma_bar)."""

    snr_factor: np.ndarray
    iterations: np.ndarray  # all zero; perfbench/child.py sums it as altopt.trial_cycles


def _cross_term(ch: ChannelRealization):
    """c = (g1^H g2)(h2 h1^H) and sum_k ||g_k||^2 ||h_k||^2, per realization."""
    g, h = ch.g, ch.h
    c = np.einsum("...k,...k->...", np.conjugate(g[..., :, 0]), g[..., :, 1]) * np.einsum(
        "...k,...k->...", np.conjugate(h[..., 0, :]), h[..., 1, :]
    )
    tiles = (np.abs(g) ** 2).sum(axis=-2) * (np.abs(h) ** 2).sum(axis=-1)
    return c, tiles.sum(axis=-1)


def optimize_batch(ch: ChannelRealization) -> BatchAltOpt:
    """sigma_max^2 of G Phi* H for each realization of a (stacked) draw."""
    c, tiles = _cross_term(ch)
    f = tiles + 2.0 * np.abs(c)
    det2 = np.prod(ch.svd_g.sigma * ch.svd_h.sigma, axis=-1) ** 2
    s = 0.5 * f + np.sqrt(np.maximum(0.25 * f * f - det2, 0.0))
    return BatchAltOpt(snr_factor=s, iterations=np.zeros(s.shape, dtype=np.int64))


def optimal_configuration(ch: ChannelRealization):
    """Optimal (phasors, a, b) of a (stacked) realization.

    ``phasors[..., k]`` is exp(j*phi_k), the tile configuration of
    :mod:`sysmodel`, with tile 1 held at phase 0; a and b are the leading
    right and left singular vectors of G Phi* H.
    """
    c, _ = _cross_term(ch)
    mag = np.abs(c)
    rel = np.where(mag > 0.0, np.conjugate(c) / np.where(mag > 0.0, mag, 1.0), 1.0)
    phasors = np.stack([np.ones_like(rel), rel], axis=-1)
    dec = svd2(ch.g * phasors[..., None, :] @ ch.h)
    return phasors, dec.v[..., :, 0], dec.u[..., :, 0]
