import numpy as np
import pytest

from ris2x2.linalg2 import (
    UnitaryAngles,
    angles_from_unitary,
    channel_eigen,
    gram2,
    hermitian_eigen2,
    svd2,
    unitary_from_angles,
)


def _random_matrices(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / np.sqrt(2)


def test_identity_matrix():
    r = svd2(np.eye(2, dtype=complex))
    assert np.allclose(r.sigma, [1.0, 1.0])
    assert np.allclose(r.u, np.eye(2))
    assert np.allclose(r.v, np.eye(2))


def test_ordered_diagonal():
    r = svd2(np.diag([2.0, 1.0]).astype(complex))
    assert np.allclose(r.sigma, [2.0, 1.0])
    assert np.allclose(r.u, np.eye(2))
    assert np.allclose(r.v, np.eye(2))


def test_unordered_diagonal_swaps():
    r = svd2(np.diag([1.0, 3.0]).astype(complex))
    assert np.allclose(r.sigma, [3.0, 1.0])
    rec = r.u @ np.diag(r.sigma) @ r.v.conj().T
    assert np.allclose(rec, np.diag([1.0, 3.0]))


def test_reconstruction_oracle_seeded_draws():
    m = _random_matrices(10_000, seed=20240401)
    r = svd2(m)
    rec = np.einsum("nij,nj,nkj->nik", r.u, r.sigma, np.conjugate(r.v))
    rel = np.linalg.norm(rec - m, axis=(1, 2)) / np.linalg.norm(m, axis=(1, 2))
    assert rel.max() < 1e-12


def test_unitarity_and_ordering_invariants():
    m = _random_matrices(10_000, seed=7)
    r = svd2(m)
    eye = np.eye(2)
    uu = np.einsum("nki,nkj->nij", np.conjugate(r.u), r.u) - eye
    vv = np.einsum("nki,nkj->nij", np.conjugate(r.v), r.v) - eye
    assert np.abs(uu).max() < 1e-12
    assert np.abs(vv).max() < 1e-12
    assert np.all(r.sigma[:, 0] >= r.sigma[:, 1])
    assert np.all(r.sigma[:, 1] >= 0.0)


def test_frobenius_identity():
    m = _random_matrices(5_000, seed=3)
    r = svd2(m)
    lhs = (r.sigma**2).sum(axis=1)
    rhs = (np.abs(m) ** 2).sum(axis=(1, 2))
    assert np.abs(lhs / rhs - 1.0).max() < 1e-12


def test_gauge_rule_and_determinism():
    m = _random_matrices(2_000, seed=11)
    r1 = svd2(m)
    r2 = svd2(m)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.v, r2.v)
    assert np.array_equal(r1.sigma, r2.sigma)
    # largest-modulus component of each right singular column real, >= 0
    for col in (0, 1):
        idx = np.argmax(np.abs(r1.v[:, :, col]), axis=1)
        lead = r1.v[np.arange(m.shape[0]), idx, col]
        assert np.abs(lead.imag).max() == 0.0
        assert lead.real.min() >= 0.0


def test_bases_do_not_see_later_writes_to_the_input():
    # a write to the input after svd2 returns must not reach the bases
    m = _random_matrices(100, seed=5)
    expected = svd2(m.copy()).u
    r = svd2(m)
    m[...] = 0.0
    assert np.array_equal(r.u, expected)


def test_degenerate_equal_singular_values():
    # exactly degenerate Gram: canonical basis returned deterministically
    r0 = svd2(2.0 * np.eye(2, dtype=complex))
    assert np.allclose(r0.sigma, [2.0, 2.0])
    assert np.allclose(r0.v, np.eye(2))
    # scaled unitary: equal singular values up to rounding; the basis is
    # arbitrary there but the decomposition must still be exact and stable
    s = unitary_from_angles(UnitaryAngles(0.3, 0.7, 1.1, 2.0)) * 2.0
    r = svd2(s)
    assert np.allclose(r.sigma, [2.0, 2.0])
    rec = r.u @ np.diag(r.sigma) @ r.v.conj().T
    assert np.allclose(rec, s, atol=1e-13)
    assert np.allclose(r.v.conj().T @ r.v, np.eye(2), atol=1e-13)
    again = svd2(s)
    assert np.array_equal(again.v, r.v)


def test_second_left_vector_is_completed_by_orthogonality():
    # u_2 = m v_2 / sigma_2 lost orthogonality like eps (sigma_1 / sigma_2)^2
    # (8e-14 on these draws, 1e-5 at sigma_2 / sigma_1 ~ 1e-9); the
    # complement of u_1 keeps it to rounding, and its phase makes
    # u_2^H m v_2 = sigma_2
    rng = np.random.default_rng(19)
    x = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    y = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    nearly_rank_one = np.einsum("ni,nj->nij", x, np.conjugate(y)) + 1e-9 * _random_matrices(1000, 23)
    for m in (_random_matrices(100_000, seed=21), nearly_rank_one):
        r = svd2(m)
        u1, u2, v2 = r.u[:, :, 0], r.u[:, :, 1], r.v[:, :, 1]
        assert np.abs(np.einsum("ni,ni->n", np.conjugate(u1), u2)).max() <= 1e-15
        t = np.einsum("ni,nij,nj->n", np.conjugate(u2), m, v2)
        s1, s2 = r.sigma[:, 0], r.sigma[:, 1]
        assert np.all(np.abs(t.imag) <= 1e-15 * s1)
        assert np.all(np.abs(t.real - s2) <= 2e-15 * s1)


def test_eigen_solution_of_a_multiple_of_the_identity():
    # every vector is an eigenvector there; the solver returns e_1
    a00, a11, a01 = gram2(np.array([[1, 1j], [1j, 1]], dtype=complex))
    assert (a00, a11, a01) == (2.0, 2.0, 0.0)
    assert hermitian_eigen2(a00, a11, abs(a01), 4.0) == (2.0, 2.0, 1.0, 0.0)
    # a diagonal matrix with the larger entry second has e_2 exactly
    assert hermitian_eigen2(1.0, 3.0, 0.0, 3.0) == (3.0, 1.0, 0.0, 1.0)


def test_left_gram_is_the_gram_of_the_conjugate_transpose():
    m = _random_matrices(1000, seed=29)
    left = gram2(m, left=True)
    right = gram2(np.conjugate(m).swapaxes(-1, -2))
    for a, b in zip(left, right):
        assert np.abs(a - b).max() <= 1e-14


def test_rank_deficient_completion():
    m = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    r = svd2(m)
    assert r.sigma[1] < 1e-15
    rec = r.u @ np.diag(r.sigma) @ r.v.conj().T
    assert np.allclose(rec, m, atol=1e-14)
    assert np.allclose(r.u.conj().T @ r.u, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("scale", [1e-160, 2.0**-540, 1e160, 2.0**540])
def test_tiny_and_huge_matrices(scale):
    # unscaled, the Gram entries of these underflow (|entry|^2 < 1e-300)
    # or overflow (> 1e300); a power-of-two scale moves no bit
    m = np.array([[1.0, 2.0j], [3.0, 1.0]])
    ref, r = svd2(m), svd2(m * scale)
    rec = r.u @ np.diag(r.sigma) @ r.v.conj().T
    np.testing.assert_allclose(rec / scale, m, rtol=0.0, atol=1e-14)
    with np.errstate(over="ignore"):  # eigenvalues above 1e308 are inf
        (_, _, c, s), _, cos, sin = channel_eigen(m * scale, m.T * scale)
    (_, _, c0, s0), _, cos0, sin0 = channel_eigen(m, m.T)
    if np.frexp(scale)[0] == 0.5:
        assert np.array_equal(r.sigma, ref.sigma * scale)
        assert np.array_equal(r.u, ref.u) and np.array_equal(r.v, ref.v)
        assert (c, s, cos, sin) == (c0, s0, cos0, sin0)
    else:
        np.testing.assert_allclose(r.sigma, ref.sigma * scale, rtol=1e-15)
        np.testing.assert_allclose([c, s, cos, sin], [c0, s0, cos0, sin0], rtol=1e-15)


def test_nonfinite_rejected():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        svd2(bad)


def test_angles_zero_is_identity():
    s = unitary_from_angles(UnitaryAngles(0.0, 0.0, 0.0, 0.0))
    assert np.allclose(s, np.eye(2))


def test_angles_quarter_rotation():
    s = unitary_from_angles(UnitaryAngles(0.0, np.pi / 2, 0.0, 0.0))
    assert np.allclose(s, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_unitary_property_random_angles():
    rng = np.random.default_rng(13)
    u = rng.uniform(size=(100_000, 4))
    ang = UnitaryAngles(
        theta11=2 * np.pi * u[:, 0],
        theta12=(np.pi / 2) * u[:, 1],
        theta21=2 * np.pi * u[:, 2],
        theta22=2 * np.pi * u[:, 3],
    )
    s = unitary_from_angles(ang)
    gram = np.einsum("nki,nkj->nij", np.conjugate(s), s) - np.eye(2)
    assert np.abs(gram).max() < 1e-14
    det = np.linalg.det(s)
    assert np.abs(np.abs(det) - 1.0).max() < 1e-13


def test_angle_range_rejected():
    with pytest.raises(ValueError):
        unitary_from_angles(UnitaryAngles(-0.1, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        unitary_from_angles(UnitaryAngles(0.0, 2.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        unitary_from_angles(UnitaryAngles(0.0, 0.0, 2 * np.pi, 0.0))


def test_nonfinite_angles_and_unitaries_rejected():
    # NaN fails every comparison, so a range or tolerance check alone lets
    # it through
    for k in range(4):
        angles = [0.1, 0.2, 0.3, 0.4]
        for bad in (np.nan, np.inf):
            angles[k] = bad
            with pytest.raises(ValueError, match="out of range"):
                unitary_from_angles(UnitaryAngles(*angles))
    stack = np.stack([np.eye(2, dtype=complex)] * 3)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        s = stack.copy()
        s[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            angles_from_unitary(s)
    with pytest.raises(ValueError, match="finite"):
        angles_from_unitary(np.full((2, 2), np.nan, dtype=complex))


def test_angles_from_unitary_canonical_cases():
    a = angles_from_unitary(np.eye(2, dtype=complex))
    assert (a.theta11, a.theta12, a.theta21, a.theta22) == (0.0, 0.0, 0.0, 0.0)
    b = angles_from_unitary(np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))
    assert b.theta12 == pytest.approx(np.pi / 2)
    assert b.theta11 == 0.0 and b.theta21 == 0.0 and b.theta22 == 0.0


def test_angles_round_trip_haar():
    rng = np.random.default_rng(17)
    u = rng.uniform(size=(100_000, 4))
    ang = UnitaryAngles(
        theta11=2 * np.pi * u[:, 0],
        theta12=np.arcsin(np.sqrt(u[:, 1])),
        theta21=2 * np.pi * u[:, 2],
        theta22=2 * np.pi * u[:, 3],
    )
    s = unitary_from_angles(ang)
    back = angles_from_unitary(s)
    s2 = unitary_from_angles(back)
    assert np.abs(s2 - s).max() < 1e-10
    for name in ("theta11", "theta12", "theta21", "theta22"):
        got = np.asarray(getattr(back, name))
        want = np.asarray(getattr(ang, name))
        # compare angles modulo 2*pi
        d = np.abs(np.exp(1j * got) - np.exp(1j * want)).max()
        assert d < 1e-10


def test_non_unitary_rejected():
    with pytest.raises(ValueError):
        angles_from_unitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))
