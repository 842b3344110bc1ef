"""Channels and the closed-form 2x2 SVD.

Draws Rayleigh channel matrices from the counter-based generator, checks
the analytic SVD against its defining properties, and shows that it
agrees with the Gram eigen-solution the statistics pass is built on.
"""

import numpy as np

from ris2x2 import RngState, channel_realizations
from ris2x2.linalg2 import channel_eigen

state = RngState(seed=2024, stream=0)

print("=== one channel pair ===")
ch = channel_realizations(state, 1)
print("G =\n", np.round(ch.g[0], 4))
print("squared singular values of G:", np.round(ch.svd_g.sigma[0] ** 2, 6))
print("squared singular values of H:", np.round(ch.svd_h.sigma[0] ** 2, 6))

print("\n=== SVD quality over 100k draws ===")
ch = channel_realizations(state, 100_000)
rec = np.einsum("nij,nj,nkj->nik", ch.svd_g.u, ch.svd_g.sigma, np.conjugate(ch.svd_g.v))
rel = np.linalg.norm(rec - ch.g, axis=(1, 2)) / np.linalg.norm(ch.g, axis=(1, 2))
print(f"worst reconstruction error : {rel.max():.3e}")
gram = np.einsum("nki,nkj->nij", np.conjugate(ch.svd_g.v), ch.svd_g.v) - np.eye(2)
print(f"worst V unitarity defect   : {np.abs(gram).max():.3e}")
frob = (ch.svd_g.sigma**2).sum(1) - (np.abs(ch.g) ** 2).sum((1, 2))
print(f"worst Frobenius defect     : {np.abs(frob).max():.3e}")

print("\n=== the SVD against the Gram eigen-solution of the statistics pass ===")
# channel_eigen gives the eigenvalues of G^H G and H H^H and the moduli of
# their leading eigenvectors: sigma^2 of G and H, |v_1| of G and |u_1| of H
(l1, l2, cg, sg), (w1, w2, ch_, sh), _, _ = channel_eigen(ch.g, ch.h)
for name, svd, (e1, e2, c, s), basis in (
    ("G", ch.svd_g, (l1, l2, cg, sg), ch.svd_g.v),
    ("H", ch.svd_h, (w1, w2, ch_, sh), ch.svd_h.u),
):
    eig = np.stack([e1, e2], axis=-1)
    gap = np.abs(svd.sigma**2 - eig).max(axis=1) / eig.sum(axis=1)
    moduli = np.abs(np.abs(basis[:, :, 0]) - np.stack([c, s], axis=-1)).max()
    print(f"{name}: worst eigenvalue gap / trace {gap.max():.3e}, "
          f"worst leading-vector modulus gap {moduli:.3e}")
