import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lors.errors import NumericError
from lors.matrix import DenseMatrix
from lors.svd import SvdResult, svd


def check_factorization(a, res, tol=1e-10):
    """u s v^T reconstructs a, factors orthonormal, s sorted nonincreasing."""
    scale = max(1.0, np.abs(a).max())
    recon = res.u.data @ np.diag(res.s) @ res.v.data.T
    assert np.max(np.abs(recon - a)) <= tol * scale
    k = res.s.shape[0]
    assert np.max(np.abs(res.u.data.T @ res.u.data - np.eye(k))) <= tol
    assert np.max(np.abs(res.v.data.T @ res.v.data - np.eye(k))) <= tol
    assert np.all(np.diff(res.s) <= 0)
    assert np.all(res.s >= 0)


def test_random_square_and_rect_against_numpy():
    rng = np.random.default_rng(0)
    for trial in range(40):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(m, n))
        res = svd(DenseMatrix(a))
        check_factorization(a, res)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(res.s, ref, rtol=1e-10, atol=1e-12)


def test_wide_matrix_shapes():
    a = np.random.default_rng(1).normal(size=(3, 8))
    res = svd(DenseMatrix(a))
    assert res.u.shape == (3, 3)
    assert res.s.shape == (3,)
    assert res.v.shape == (8, 3)
    check_factorization(a, res)


def test_tall_matrix_shapes():
    a = np.random.default_rng(2).normal(size=(8, 3))
    res = svd(DenseMatrix(a))
    assert res.u.shape == (8, 3)
    assert res.v.shape == (3, 3)
    check_factorization(a, res)


def test_sign_convention_first_nonzero_of_v_nonnegative():
    rng = np.random.default_rng(3)
    for trial in range(10):
        a = rng.normal(size=(5, 4))
        res = svd(DenseMatrix(a))
        for j in range(res.v.cols):
            col = res.v.data[:, j]
            nz = np.nonzero(col)[0]
            assert nz.size == 0 or col[nz[0]] >= 0.0


def test_deterministic_across_calls():
    a = np.random.default_rng(4).normal(size=(6, 6))
    r1 = svd(DenseMatrix(a))
    r2 = svd(DenseMatrix(a))
    assert np.array_equal(r1.s, r2.s)
    assert np.array_equal(r1.u.data, r2.u.data)
    assert np.array_equal(r1.v.data, r2.v.data)


def test_rank_deficient_exact_zero_tail():
    # rank-k products of Gaussian factors; tail singular values must come out
    # exactly zero and the completed u columns must stay orthonormal
    rng = np.random.default_rng(5)
    for m, n, k in ((64, 64, 4), (16, 12, 3), (8, 8, 1), (12, 16, 2)):
        a = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
        res = svd(DenseMatrix(a))
        check_factorization(a, res, tol=1e-9)
        assert np.all(res.s[k:] == 0.0)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(res.s[:k], ref[:k], rtol=1e-9, atol=1e-9)


def test_rank_deficient_column_space_aligned_with_axes():
    """Completion must survive a column space that eats canonical directions."""
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(np.eye(64)[:, :4] + 0.3 * rng.normal(size=(64, 4)))
    a = q @ rng.normal(size=(4, 64))
    res = svd(DenseMatrix(a))
    check_factorization(a, res, tol=1e-9)


def test_zero_matrix():
    res = svd(DenseMatrix(np.zeros((4, 3))))
    assert np.all(res.s == 0.0)
    assert np.allclose(res.u.data.T @ res.u.data, np.eye(3), atol=1e-12)
    assert np.allclose(res.v.data.T @ res.v.data, np.eye(3), atol=1e-12)


def test_single_entry():
    res = svd(DenseMatrix([[-7.0]]))
    assert res.s[0] == 7.0
    assert abs(abs(res.u.data[0, 0]) - 1.0) < 1e-15


def test_duplicate_singular_values():
    # orthogonal matrix: all singular values 1
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    res = svd(DenseMatrix(q))
    assert np.allclose(res.s, 1.0, atol=1e-12)
    check_factorization(q, res)


def test_huge_dynamic_range():
    a = np.diag([1e8, 1.0, 1e-8]) @ np.random.default_rng(8).normal(size=(3, 4))
    res = svd(DenseMatrix(a))
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(res.s, ref, rtol=1e-9)
    check_factorization(a, res, tol=1e-9)


def test_nonconvergence_raises_numeric_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    a = DenseMatrix(np.random.default_rng(9).normal(size=(6, 6)))
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericError):
        svd(a)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_input_raises_numeric_error(bad):
    """np.linalg.svd returns NaNs without raising on such input."""
    m = DenseMatrix(np.eye(3))
    m.data[1, 2] = bad
    with pytest.raises(NumericError, match="non-finite svd input"):
        svd(m)


def test_reconstruct_helper():
    a = np.random.default_rng(10).normal(size=(4, 5))
    res = svd(DenseMatrix(a))
    assert np.max(np.abs(res.reconstruct().data - a)) < 1e-10


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_property_shapes_and_ranks(data):
    m = data.draw(st.integers(1, 12), label="rows")
    n = data.draw(st.integers(1, 12), label="cols")
    k = data.draw(st.integers(0, min(m, n)), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
    res = svd(DenseMatrix(a))
    check_factorization(a, res, tol=1e-9)
    assert np.all(res.s[:k] > 0.0)
    assert np.all(res.s[k:] == 0.0)
    for j in range(res.v.cols):
        col = res.v.data[:, j]
        assert col[np.nonzero(col)[0][0]] >= 0.0
