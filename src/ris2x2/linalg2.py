"""Closed-form 2x2 complex linear algebra.

Everything here operates on arrays whose trailing two axes form a 2x2
complex matrix, so a single code path serves one matrix or a stack of a
million.  The SVD is computed analytically (quadratic eigenvalues of the
2x2 Hermitian Gram matrix) rather than iteratively, and singular vectors
are gauge fixed so repeated calls are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Svd2",
    "UnitaryAngles",
    "svd2",
    "unitary_from_angles",
    "angles_from_unitary",
]

TWO_PI = 2.0 * np.pi

# Relative threshold below which the smaller singular value is treated as
# rank deficient and the second left vector is completed by orthogonality.
_RANK_EPS = 1e-14


class Svd2:
    """Decomposition m = u @ diag(sigma) @ v^H with sigma[0] >= sigma[1] >= 0.

    Fields may carry leading batch axes: u, v are (..., 2, 2), sigma is
    (..., 2).  Columns of v are phase fixed so that the largest-modulus
    component of each column is real and nonnegative (ties resolved toward
    the first row); u inherits the same gauge through u_i = m v_i / sigma_i.

    ``sigma`` and the columns of v are formed by :func:`svd2`; the stacks
    ``v`` and ``u`` are formed on first read, so a caller pays only for the
    bases it reads.  ``u`` is formed from :func:`svd2`'s own copy of m, so
    later writes to the caller's array do not reach it.  Threads that read
    a basis at the same time may each form it, with the same bits.
    """

    __slots__ = ("sigma", "_m", "_columns", "_v", "_u")

    def __init__(self, m, sigma, columns):
        self.sigma = sigma
        self._m = m
        self._columns = columns  # (vx, vy, wx, wy): the two columns of v
        self._v = None
        self._u = None

    @property
    def v(self) -> np.ndarray:
        if self._v is None:
            vx, vy, wx, wy = self._columns
            self._v = _basis(vx, vy, wx, wy)
        return self._v

    @property
    def u(self) -> np.ndarray:
        if self._u is None:
            self._u = _left_basis(self._m, self.sigma, *self._columns)
        return self._u


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


def _orthogonal_complement(x, y):
    """Unit vector orthogonal to (x, y) in C^2, as components."""
    return -np.conjugate(y), np.conjugate(x)


def _gauge_column(x, y):
    """Rotate the column (x, y) by a unit phase making its largest-modulus
    component real nonnegative; ties pick the first component."""
    ax = np.abs(x)
    ay = np.abs(y)
    ref = np.where(ax >= ay, x, y)
    aref = np.abs(ref)
    safe = np.where(aref > 0.0, aref, 1.0)
    phase = np.where(aref > 0.0, np.conjugate(ref) / safe, 1.0 + 0.0j)
    return x * phase, y * phase


def svd2(m: np.ndarray) -> Svd2:
    """Singular value decomposition of (stacked) 2x2 complex matrices.

    Uses the analytic eigen-decomposition of m^H m: exact quadratic roots
    for the squared singular values (the smaller one recovered from
    |det m|^2 / sigma1^2, which avoids cancellation), eigenvectors from
    whichever row of the shifted Gram matrix is better conditioned, and
    left vectors from m v / sigma (on first read of ``u``).  Deterministic
    for identical input.
    """
    # a copy: ``u`` is formed from m after this returns
    m = np.array(m, dtype=np.complex128)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected trailing (2, 2) shape, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")

    m00 = m[..., 0, 0]
    m01 = m[..., 0, 1]
    m10 = m[..., 1, 0]
    m11 = m[..., 1, 1]

    # Hermitian Gram matrix a = m^H m (a10 = conj(a01)).
    a00 = m00.real**2 + m00.imag**2 + m10.real**2 + m10.imag**2
    a11 = m01.real**2 + m01.imag**2 + m11.real**2 + m11.imag**2
    a01 = np.conjugate(m00) * m01 + np.conjugate(m10) * m11
    abs_a01_sq = a01.real**2 + a01.imag**2

    half_gap = np.sqrt(0.25 * (a00 - a11) ** 2 + abs_a01_sq)
    e1 = 0.5 * (a00 + a11) + half_gap
    det_m = m00 * m11 - m01 * m10
    e2_raw = det_m.real**2 + det_m.imag**2  # = det(a) = e1 * e2
    pos = e1 > 0.0
    e2 = np.where(pos, e2_raw / np.where(pos, e1, 1.0), 0.0)
    s1 = np.sqrt(e1)
    s2 = np.sqrt(e2)

    # Leading eigenvector of the Gram matrix: two algebraically equivalent
    # candidates; the larger-norm one is the numerically reliable one.
    c1x, c1y = a01, (e1 - a00).astype(np.complex128)
    c2x, c2y = (e1 - a11).astype(np.complex128), np.conjugate(a01)
    n1 = abs_a01_sq + (e1 - a00) ** 2
    n2 = (e1 - a11) ** 2 + abs_a01_sq
    use1 = n1 >= n2
    vx = np.where(use1, c1x, c2x)
    vy = np.where(use1, c1y, c2y)
    nrm = np.sqrt(vx.real**2 + vx.imag**2 + vy.real**2 + vy.imag**2)
    # Both candidates vanish only when the Gram matrix is a multiple of the
    # identity (degenerate equal singular values); any orthonormal pair is
    # then an eigenbasis and we pick the canonical one.
    degenerate = nrm == 0.0
    safe_nrm = np.where(degenerate, 1.0, nrm)
    vx = np.where(degenerate, 1.0 + 0.0j, vx / safe_nrm)
    vy = np.where(degenerate, 0.0 + 0.0j, vy / safe_nrm)

    vx, vy = _gauge_column(vx, vy)
    wx, wy = _orthogonal_complement(vx, vy)
    wx, wy = _gauge_column(wx, wy)
    return Svd2(m, np.stack([s1, s2], axis=-1), (vx, vy, wx, wy))


def _basis(x1, y1, x2, y2):
    """(..., 2, 2) matrix with columns (x1, y1) and (x2, y2)."""
    return np.stack([np.stack([x1, x2], axis=-1), np.stack([y1, y2], axis=-1)], axis=-2)


def _left_basis(m, sigma, vx, vy, wx, wy):
    """Left vectors u_i = m v_i / sigma_i, renormalized against rounding;
    the second is completed by orthogonality where m is rank deficient."""
    m00 = m[..., 0, 0]
    m01 = m[..., 0, 1]
    m10 = m[..., 1, 0]
    m11 = m[..., 1, 1]
    s1 = sigma[..., 0]
    s2 = sigma[..., 1]

    def _left(colx, coly, s):
        ux = m00 * colx + m01 * coly
        uy = m10 * colx + m11 * coly
        ok = s > 0.0
        inv = np.where(ok, 1.0 / np.where(ok, s, 1.0), 0.0)
        ux = ux * inv
        uy = uy * inv
        n = np.sqrt(ux.real**2 + ux.imag**2 + uy.real**2 + uy.imag**2)
        good = n > 0.0
        sn = np.where(good, n, 1.0)
        return np.where(good, ux / sn, 0.0), np.where(good, uy / sn, 0.0), good

    u1x, u1y, ok1 = _left(vx, vy, s1)
    u1x = np.where(ok1, u1x, 1.0 + 0.0j)
    u1y = np.where(ok1, u1y, 0.0 + 0.0j)

    u2x, u2y, ok2 = _left(wx, wy, np.where(s2 > _RANK_EPS * s1, s2, 0.0))
    cx, cy = _orthogonal_complement(u1x, u1y)
    u2x = np.where(ok2, u2x, cx)
    u2y = np.where(ok2, u2y, cy)
    return _basis(u1x, u1y, u2x, u2y)


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


def angles_from_unitary(s: np.ndarray, tol: float = 1e-10) -> UnitaryAngles:
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
    if np.max(np.abs(gram - eye)) > tol:
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
