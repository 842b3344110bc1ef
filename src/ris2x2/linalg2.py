"""Closed-form 2x2 complex linear algebra.

Everything here operates on arrays whose trailing two axes form a 2x2
complex matrix, so a single code path serves one matrix or a stack of a
million.  The SVD is computed analytically (quadratic eigenvalues of the
2x2 Hermitian Gram matrix) rather than iteratively, and singular vectors
are gauge fixed so repeated calls are bit-for-bit reproducible.  Both it
and :func:`channel_eigen`, which reduces channel matrices to the inputs
of the Monte Carlo statistics pass (that draws those directly), rest on
one per-link eigen-decomposition of the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Svd2",
    "UnitaryAngles",
    "gram2",
    "abs_det2",
    "hermitian_eigen2",
    "channel_eigen",
    "svd2",
    "unitary_from_angles",
    "angles_from_unitary",
]

TWO_PI = 2.0 * np.pi

# Largest entry of S^H S - I that angles_from_unitary accepts.
_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class Svd2:
    """Decomposition m = u @ diag(sigma) @ v^H with sigma[0] >= sigma[1] >= 0.

    Fields may carry leading batch axes: u, v are (..., 2, 2), sigma is
    (..., 2).  Columns of v are phase fixed so that the largest-modulus
    component of each column is real and nonnegative (ties resolved toward
    the first row); u_1 = m v_1 / sigma_1 inherits that gauge, and u_2 is
    the orthogonal complement of u_1 phased so that u_2^H m v_2 >= 0.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class UnitaryAngles:
    """Angles of the standard U(2) parameterization.

    theta11, theta21, theta22 live in [0, 2*pi); theta12 in [0, pi/2].
    The matrix they encode is

        [ exp(j*t11) cos t12            -exp(j*(t11+t21)) sin t12 ]
        [ exp(j*t22) sin t12             exp(j*(t22+t21)) cos t12 ]
    """

    theta11: np.ndarray | float
    theta12: np.ndarray | float
    theta21: np.ndarray | float
    theta22: np.ndarray | float


def _abs2(z):
    """re^2 + im^2 of a real or complex array."""
    return np.square(z.real) + np.square(z.imag)


def _orthogonal_complement(x, y):
    """Unit vector orthogonal to (x, y) in C^2, as components."""
    return -np.conjugate(y), np.conjugate(x)


def _phase(z):
    """The unit phasor z / |z|, and 1 where z = 0."""
    mag = np.abs(z)
    live = mag > 0.0
    return np.where(live, z / np.where(live, mag, 1.0), 1.0 + 0.0j)


def _gauge_column(x, y):
    """Rotate the column (x, y) by a unit phase making its largest-modulus
    component real nonnegative; ties pick the first component."""
    phase = _phase(np.conjugate(np.where(np.abs(x) >= np.abs(y), x, y)))
    return x * phase, y * phase


def gram2(m: np.ndarray, left: bool = False):
    """Entries (a00, a11, a01) of the Hermitian Gram matrix m^H m of
    (stacked) 2x2 matrices, or of m m^H with ``left=True``; a10 = conj(a01).

    Each complex product keeps its temporary as the left operand: numpy
    may compute ``x * tmp`` as ``tmp *= x`` for large arrays only, and
    complex products in swapped order can differ in the last bit, which
    would make results depend on the stack size.
    """
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    if left:  # m m^H is the conjugate of the Gram matrix of m^T
        m01, m10 = m10, m01
    a01 = np.conjugate(m00) * m01 + np.conjugate(m10) * m11
    return _abs2(m00) + _abs2(m10), _abs2(m01) + _abs2(m11), np.conjugate(a01) if left else a01


def abs_det2(m: np.ndarray) -> np.ndarray:
    """|det m|^2 of (stacked) 2x2 matrices."""
    return _abs2(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])


def hermitian_eigen2(a00, a11, abs_a01, det):
    """Eigenvalues e1 >= e2 >= 0 of the positive semidefinite matrix
    [[a00, a01], [conj(a01), a11]] with |a01| = ``abs_a01`` and determinant
    ``det``, and the moduli (c, s) of its unit leading eigenvector
    (c, s conj(a01) / |a01|).

    With h = (a00 - a11) / 2 and r = sqrt(h^2 + |a01|^2), e1 = (a00 + a11)
    / 2 + r is the exact quadratic root and e2 = det / e1 (0 where e1 = 0)
    avoids the cancellation of the smaller root.  The larger modulus is
    sqrt((r + |h|) / (2 r)) = 1 / sqrt(1 + t^2) and the smaller is t times
    it, t = |a01| / (r + |h|); c is the larger where h >= 0.  Neither
    cancels, and a01 = 0 gives exactly 0 and 1.  A multiple of the
    identity (r = 0), where every vector is an eigenvector, takes t = 0 and
    so (1, 0).
    """
    h = (a00 - a11) * 0.5
    r = np.sqrt(np.square(h) + np.square(abs_a01))
    e1 = (a00 + a11) * 0.5 + r
    e2 = np.divide(det, e1, out=np.zeros_like(e1), where=e1 > 0.0)
    rh = r + np.abs(h)  # 0 only where r = 0
    t = np.divide(abs_a01, rh, out=np.zeros_like(rh), where=rh > 0.0)
    larger = 1.0 / np.sqrt(np.square(t) + 1.0)
    # each modulus is t or 1 times the larger: c takes 1 where h >= 0, s where h < 0
    first = np.heaviside(h, 1.0)
    return e1, e2, np.maximum(t, first) * larger, larger * np.maximum(t, 1.0 - first)


def _gram_eigen(m, left: bool = False):
    """:func:`hermitian_eigen2` of the Gram matrix m^H m (m m^H with
    ``left=True``) of finite (stacked) 2x2 matrices ``m``, and its a01."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[-2:] != (2, 2) or not np.all(np.isfinite(m)):
        raise ValueError(f"expected finite matrices of shape (..., 2, 2), got {m.shape}")
    a00, a11, a01 = gram2(m, left)
    return hermitian_eigen2(a00, a11, np.abs(a01), abs_det2(m)), a01


def channel_eigen(g, h):
    """(g, h, cos, sin) of (stacked) channel matrices G and H, as
    :func:`sampling.eigen_draws` returns them: per link (l1, l2, c, s) of
    G^H G or H H^H, then the phase of a01 conj(b01), so that
    ``trial_statistics(*channel_eigen(g, h))`` is the pass on them."""
    (eig_g, a01), (eig_h, b01) = _gram_eigen(g), _gram_eigen(h, left=True)
    phase = _phase(a01 * np.conjugate(b01))
    return eig_g, eig_h, phase.real, phase.imag


def svd2(m: np.ndarray) -> Svd2:
    """Singular value decomposition of (stacked) 2x2 complex matrices.

    Uses the analytic eigen-decomposition of m^H m
    (:func:`hermitian_eigen2`): v_1 = (c, s conj(a01) / |a01|) in its
    gauge (the larger modulus real, ties to the first row), left vector
    u_1 = m v_1 / sigma_1 and u_2 completing it by orthogonality.
    Deterministic for identical input.
    """
    m = np.asarray(m, dtype=np.complex128)
    (e1, e2, c, s), a01 = _gram_eigen(m)
    phase = _phase(a01)
    first = c >= s
    vx = np.where(first, c, c * phase)
    vy = np.where(first, s * np.conjugate(phase), s)
    wx, wy = _gauge_column(*_orthogonal_complement(vx, vy))
    return Svd2(
        u=_left_basis(m, vx, vy, wx, wy),
        sigma=np.sqrt(np.stack([e1, e2], axis=-1)),
        v=_basis(vx, vy, wx, wy),
    )


def _basis(x1, y1, x2, y2):
    """(..., 2, 2) matrix with columns (x1, y1) and (x2, y2)."""
    return np.stack([np.stack([x1, x2], axis=-1), np.stack([y1, y2], axis=-1)], axis=-2)


def _left_basis(m, vx, vy, wx, wy):
    """Left vectors: u_1 = m v_1 normalized (e_1 where m = 0), and u_2 the
    orthogonal complement of u_1 with the phase that makes u_2^H m v_2 real
    and nonnegative.  Unlike m v_2 / sigma_2, the complement is orthogonal
    to u_1 to rounding however small sigma_2 is."""
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    ux = m00 * vx + m01 * vy
    uy = m10 * vx + m11 * vy
    n = np.sqrt(_abs2(ux) + _abs2(uy))
    good = n > 0.0
    n = np.where(good, n, 1.0)
    ux = np.where(good, ux / n, 1.0 + 0.0j)
    uy = np.where(good, uy / n, 0.0 + 0.0j)
    cx, cy = _orthogonal_complement(ux, uy)
    t = np.conjugate(cx) * (m00 * wx + m01 * wy) + np.conjugate(cy) * (m10 * wx + m11 * wy)
    phase = _phase(t)
    return _basis(ux, uy, cx * phase, cy * phase)


def unitary_from_angles(angles: UnitaryAngles) -> np.ndarray:
    """Assemble the U(2) matrix encoded by ``angles`` (broadcastable)."""
    t11 = np.asarray(angles.theta11, dtype=np.float64)
    t12 = np.asarray(angles.theta12, dtype=np.float64)
    t21 = np.asarray(angles.theta21, dtype=np.float64)
    t22 = np.asarray(angles.theta22, dtype=np.float64)
    for name, t, hi in (
        ("theta11", t11, TWO_PI),
        ("theta21", t21, TWO_PI),
        ("theta22", t22, TWO_PI),
        ("theta12", t12, np.pi / 2),
    ):
        if np.any(t < 0.0) or np.any(t > hi) or (hi == TWO_PI and np.any(t == hi)):
            raise ValueError(f"{name} out of range")
    c = np.cos(t12)
    s = np.sin(t12)
    e11 = np.exp(1j * t11)
    e22 = np.exp(1j * t22)
    e21 = np.exp(1j * t21)
    row0 = np.stack([e11 * c, -e11 * e21 * s], axis=-1)
    row1 = np.stack([e22 * s, e22 * e21 * c], axis=-1)
    return np.stack([row0, row1], axis=-2)


def angles_from_unitary(s: np.ndarray) -> UnitaryAngles:
    """Recover the canonical angles of a (stacked) unitary matrix.

    theta12 comes from the moduli of the first column, the phases from the
    entries directly; theta21 is read off whichever second-column entry has
    the larger modulus.  Inverse of :func:`unitary_from_angles` away from
    the theta12 endpoints, where absent phases default to zero.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.shape[-2:] != (2, 2):
        raise ValueError(f"expected trailing (2, 2) shape, got {s.shape}")
    gram = np.einsum("...ki,...kj->...ij", np.conjugate(s), s)
    eye = np.eye(2)
    if np.max(np.abs(gram - eye)) > _UNITARY_TOL:
        raise ValueError("input is not unitary within tolerance")

    s00 = s[..., 0, 0]
    s01 = s[..., 0, 1]
    s10 = s[..., 1, 0]
    s11 = s[..., 1, 1]
    t12 = np.arctan2(np.abs(s10), np.abs(s00))
    t11 = np.where(np.abs(s00) > 0.0, np.angle(s00), 0.0) % TWO_PI
    t22 = np.where(np.abs(s10) > 0.0, np.angle(s10), 0.0) % TWO_PI
    # theta21 lives in both second-column entries; read the bigger one.
    from_s11 = np.abs(s11) >= np.abs(s01)
    t21_a = (np.angle(s11) - t22) % TWO_PI
    t21_b = (np.angle(-s01) - t11) % TWO_PI
    second_col_zero = (np.abs(s11) == 0.0) & (np.abs(s01) == 0.0)
    t21 = np.where(from_s11, t21_a, t21_b)
    t21 = np.where(second_col_zero, 0.0, t21)
    if t12.ndim == 0:
        return UnitaryAngles(float(t11), float(t12), float(t21), float(t22))
    return UnitaryAngles(t11, t12, t21, t22)
