import numpy as np
import pytest

from ris2x2.linalg2 import channel_eigen, gram2, hermitian_eigen2, svd2


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
    s = np.array([
        [1.4613632998710249 + 0.45205264249924604j, -0.21899167941118264 - 1.2696882918843457j],
        [-0.5361783051833631 + 1.1715709706416486j, -1.5283614274556623 + 0.06360528960843166j],
    ])
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

