import numpy as np
import pytest

from lors.errors import ArgumentError, ShapeError
from lors.matrix import DenseMatrix
from lors.prune import (
    CalibrationBatch,
    SparseWeight,
    prune_activation_scaled,
    prune_magnitude,
    prune_two_four,
    sparsity,
    two_four_valid,
)


def test_magnitude_keeps_the_largest_entries():
    rng = np.random.default_rng(0)
    for trial in range(25):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        w = rng.normal(size=(r, c))
        ratio = float(rng.choice([0.25, 0.5, 0.75]))
        sw = prune_magnitude(DenseMatrix(w), ratio)
        n_remove = int(ratio * r * c)
        assert sw.nonzeros() == r * c - n_remove
        # oracle: every removed magnitude <= every surviving magnitude
        removed = np.abs(w[(sw.values.data == 0.0) & (w != 0.0)])
        kept = np.abs(w[sw.values.data != 0.0])
        if removed.size and kept.size:
            assert removed.max() <= kept.min() + 1e-15
        # survivors keep their exact values
        assert np.array_equal(sw.values.data[sw.mask_bool()], w[sw.values.data != 0.0])


def test_magnitude_removal_count_uses_floor():
    w = DenseMatrix(np.arange(1.0, 11.0).reshape(2, 5))
    sw = prune_magnitude(w, 0.35)  # floor(3.5) = 3 removals
    assert sw.nonzeros() == 7
    assert sparsity(sw) == 1.0 - 7 / 10


def test_magnitude_tie_break_is_row_major():
    # all equal magnitudes: removal order must be row-major deterministic
    w = DenseMatrix(np.ones((2, 4)))
    sw = prune_magnitude(w, 0.5)
    assert np.array_equal(sw.values.data, np.array([[0.0, 0.0, 0.0, 0.0],
                                                    [1.0, 1.0, 1.0, 1.0]]))


def test_magnitude_zero_ratio_is_identity():
    w = np.random.default_rng(1).normal(size=(3, 3))
    sw = prune_magnitude(DenseMatrix(w), 0.0)
    assert np.array_equal(sw.values.data, w)
    assert sw.ratio == 0.0


def test_prune_ratio_validation():
    w = DenseMatrix(np.ones((2, 2)))
    with pytest.raises(ArgumentError):
        prune_magnitude(w, 1.0)
    with pytest.raises(ArgumentError):
        prune_magnitude(w, -0.1)


def test_activation_scaled_is_per_row_and_respects_norms():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(4, 6))
    x = rng.normal(size=(6, 10))
    x[2, :] = 0.0  # dead feature: its column must always go first
    calib = CalibrationBatch(DenseMatrix(x))
    sw = prune_activation_scaled(DenseMatrix(w), calib, 0.5)
    n_remove = 3
    norms = np.linalg.norm(x, axis=1)
    for i in range(4):
        assert np.count_nonzero(sw.values.data[i]) == 6 - n_remove
        assert sw.values.data[i, 2] == 0.0
        scores = np.abs(w[i]) * norms
        removed = scores[sw.values.data[i] == 0.0]
        kept = scores[sw.values.data[i] != 0.0]
        assert removed.max() <= kept.min() + 1e-15


def test_activation_scaled_shape_check():
    w = DenseMatrix(np.ones((2, 4)))
    calib = CalibrationBatch(DenseMatrix(np.ones((3, 5))))
    with pytest.raises(ShapeError):
        prune_activation_scaled(w, calib, 0.5)


def test_two_four_magnitude():
    rng = np.random.default_rng(3)
    for trial in range(20):
        r = int(rng.integers(1, 6))
        c = 4 * int(rng.integers(1, 5))
        w = rng.normal(size=(r, c))
        sw = prune_two_four(DenseMatrix(w))
        assert sw.pattern == "two_four"
        assert two_four_valid(sw.values)
        assert sparsity(sw) == 0.5
        # each group keeps its two largest magnitudes
        for i in range(r):
            for g in range(c // 4):
                group = np.abs(w[i, 4 * g:4 * g + 4])
                kept = sw.values.data[i, 4 * g:4 * g + 4] != 0.0
                assert group[kept].min() >= group[~kept].max() - 1e-15


def test_two_four_tie_break_removes_lower_index_first():
    w = DenseMatrix(np.array([[2.0, 2.0, 2.0, 2.0]]))
    sw = prune_two_four(w)
    assert np.array_equal(sw.values.data, np.array([[0.0, 0.0, 2.0, 2.0]]))


def test_two_four_activation_scoring():
    w = np.array([[1.0, 1.0, 1.0, 1.0]])
    x = np.diag([4.0, 3.0, 2.0, 1.0])  # feature norms 4 > 3 > 2 > 1
    sw = prune_two_four(DenseMatrix(w), score="activation",
                        calib=CalibrationBatch(DenseMatrix(x)))
    assert np.array_equal(sw.values.data != 0.0, np.array([[True, True, False, False]]))


def test_vectorized_pruners_match_loop_reference():
    """Per-row and per-group lexsort loops, on values with many ties."""
    rng = np.random.default_rng(8)
    for trial in range(10):
        rows, cols = int(rng.integers(1, 7)), 4 * int(rng.integers(1, 5))
        w = np.round(rng.normal(size=(rows, cols)), 0)
        norms = np.round(rng.random(cols) * 3.0, 0) + 1.0
        calib = CalibrationBatch(DenseMatrix(np.diag(norms)))
        scores = np.abs(w) * norms
        want = w.copy()
        n_remove = int(0.5 * cols)
        for i in range(rows):
            want[i, np.lexsort((np.arange(cols), scores[i]))[:n_remove]] = 0.0
        got = prune_activation_scaled(DenseMatrix(w), calib, 0.5).values.data
        assert np.array_equal(got, want)
        want = w.copy()
        for i in range(rows):
            for g in range(0, cols, 4):
                order = np.lexsort((np.arange(4), scores[i, g:g + 4]))
                want[i, g + order[:2]] = 0.0
        got = prune_two_four(DenseMatrix(w), "activation", calib).values.data
        assert np.array_equal(got, want)


def test_two_four_validation():
    with pytest.raises(ArgumentError):
        prune_two_four(DenseMatrix(np.ones((2, 6))))
    with pytest.raises(ArgumentError):
        prune_two_four(DenseMatrix(np.ones((2, 4))), score="activation")
    with pytest.raises(ArgumentError):
        prune_two_four(DenseMatrix(np.ones((2, 4))), score="bogus")


def test_two_four_valid_predicate():
    ok = DenseMatrix(np.array([[1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0]]))
    assert two_four_valid(ok)
    bad = DenseMatrix(np.array([[1.0, 2.0, 3.0, 0.0]]))
    assert not two_four_valid(bad)
    assert not two_four_valid(DenseMatrix(np.ones((1, 6))))  # width not 4k


def test_sparse_weight_normalizes_negative_zero():
    w = DenseMatrix(np.array([[-0.0, 1.0]]))
    sw = SparseWeight(w)
    assert not np.signbit(sw.values.data[0, 0])
    assert sw.nonzeros() == 1


def test_sparse_weight_pattern_validation():
    with pytest.raises(ArgumentError):
        SparseWeight(DenseMatrix(np.ones((1, 4))), pattern="bogus")
    with pytest.raises(ArgumentError):
        SparseWeight(DenseMatrix(np.ones((1, 4))), pattern="two_four")


def test_mask_matches_nonzeros():
    w = np.array([[0.0, 2.0], [3.0, 0.0]])
    sw = SparseWeight(DenseMatrix(w))
    assert np.array_equal(sw.mask().data, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(sw.mask_bool(), w != 0.0)
    assert sw.nonzeros() == 2
    assert sparsity(sw) == 0.5
