import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lors.errors import ArgumentError, NumericError, ShapeError
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
    # every nonzero keeps its bits, subnormals included
    tiny = np.nextafter(0.0, 1.0)
    w = np.array([[-0.0, 0.0, tiny, -tiny, 2.2250738585072014e-308 / 3.0],
                  [-1.5, 1e308, -1e-300, 0.1, -0.0]])
    got = SparseWeight(DenseMatrix(w)).values.data
    assert not np.signbit(got[w == 0.0]).any()
    assert got[w != 0.0].tobytes() == w[w != 0.0].tobytes()


def test_sparse_weight_pattern_validation():
    with pytest.raises(ArgumentError):
        SparseWeight(DenseMatrix(np.ones((1, 4))), pattern="bogus")
    with pytest.raises(ArgumentError):
        SparseWeight(DenseMatrix(np.ones((1, 4))), pattern="two_four")


def test_mask_matches_nonzeros():
    w = np.array([[0.0, 2.0], [3.0, 0.0]])
    sw = SparseWeight(DenseMatrix(w))
    assert np.array_equal(sw.mask_bool(), w != 0.0)
    assert sw.nonzeros() == 2
    assert sparsity(sw) == 0.5


# ---------------------------------------------------------------------------
# selection against the sort-based removal order it replaced
# ---------------------------------------------------------------------------

def _sorted_magnitude(w: np.ndarray, ratio: float) -> np.ndarray:
    """Global removal by a three-key lexsort: (|w| asc, row asc, col asc)."""
    out = w.copy()
    n_remove = int(ratio * out.size)
    if n_remove:
        cols = w.shape[1]
        idx = np.arange(w.size)
        order = np.lexsort((idx % cols, idx // cols, np.abs(w).reshape(-1)))
        out.reshape(-1)[order[:n_remove]] = 0.0
    out[out == 0.0] = 0.0
    return out


def _sorted_activation(w: np.ndarray, norms: np.ndarray, ratio: float) -> np.ndarray:
    """Per-row removal by a stable argsort of |w| * norms."""
    out = w.copy()
    n_remove = int(ratio * w.shape[1])
    if n_remove:
        order = np.argsort(np.abs(w) * norms[np.newaxis, :], axis=1, kind="stable")
        np.put_along_axis(out, order[:, :n_remove], 0.0, axis=1)
    out[out == 0.0] = 0.0
    return out


_VALUES = {
    "normal": lambda rng, shape: rng.normal(size=shape),
    "small_int": lambda rng, shape: rng.integers(-3, 4, size=shape).astype(float),
    "all_equal": lambda rng, shape: np.full(shape, -2.0),
    "signed_zeros": lambda rng, shape: rng.choice([0.0, -0.0, 1.0, -1.0], size=shape),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_selection_matches_sort_order(data):
    rows = data.draw(st.integers(1, 40), label="rows")
    cols = data.draw(st.integers(1, 40), label="cols")
    ratio = data.draw(st.sampled_from([0.0, 0.01, 0.5, 0.999])
                      | st.floats(0.0, 0.999), label="ratio")
    kind = data.draw(st.sampled_from(sorted(_VALUES)), label="values")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    w = _VALUES[kind](rng, (rows, cols))
    x = rng.integers(-2, 3, size=(cols, 3)).astype(float)
    x[rng.random(cols) < data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="dead")] = 0.0
    got = prune_magnitude(DenseMatrix(w), ratio).values.data
    assert got.tobytes() == _sorted_magnitude(w, ratio).tobytes()
    calib = CalibrationBatch(DenseMatrix(x))
    got = prune_activation_scaled(DenseMatrix(w), calib, ratio).values.data
    want = _sorted_activation(w, np.linalg.norm(x, axis=1), ratio)
    assert got.tobytes() == want.tobytes()


def _sorted_two_four(w: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Removal of the two lowest of each group by a stable argsort of the group."""
    rows, cols = w.shape
    groups = (rows, cols // 4, 4)
    out = w.copy().reshape(groups)
    order = np.argsort(scores.reshape(groups), axis=2, kind="stable")
    np.put_along_axis(out, order[:, :, :2], 0.0, axis=2)
    out[out == 0.0] = 0.0
    return out.reshape(rows, cols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_two_four_rank_matches_sort_order(data):
    rows = data.draw(st.integers(1, 40), label="rows")
    cols = 4 * data.draw(st.integers(1, 10), label="groups")
    kind = data.draw(st.sampled_from(sorted(_VALUES)), label="values")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    w = _VALUES[kind](rng, (rows, cols))
    x = rng.integers(-2, 3, size=(cols, 3)).astype(float)
    x[rng.random(cols) < data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="dead")] = 0.0
    got = prune_two_four(DenseMatrix(w)).values.data
    assert got.tobytes() == _sorted_two_four(w, np.abs(w)).tobytes()
    norms = np.linalg.norm(x, axis=1)
    got = prune_two_four(DenseMatrix(w), "activation", CalibrationBatch(DenseMatrix(x))).values.data
    assert got.tobytes() == _sorted_two_four(w, np.abs(w) * norms[np.newaxis, :]).tobytes()


def test_pruners_do_not_sort(monkeypatch):
    """The n lowest are found by selection and 2:4 keeps by rank; a sort or a
    scatter creeping back fails here."""
    def refuse(*args, **kwargs):
        raise AssertionError("pruning must not sort or scatter")
    rng = np.random.default_rng(9)
    w = DenseMatrix(rng.normal(size=(64, 64)))
    calib = CalibrationBatch(DenseMatrix(rng.normal(size=(64, 16))))
    for name in ("lexsort", "argsort", "sort", "put_along_axis"):
        monkeypatch.setattr(np, name, refuse)
    assert prune_magnitude(w, 0.5).nonzeros() == 64 * 32
    assert prune_activation_scaled(w, calib, 0.5).nonzeros() == 64 * 32
    assert prune_two_four(w).nonzeros() == 64 * 32
    assert prune_two_four(w, "activation", calib).nonzeros() == 64 * 32


def test_pruned_values_are_c_ordered_for_any_layout():
    """The keep multiply writes a C-ordered array even for an F-ordered W, as
    the copy it replaced did, so downstream BLAS sees one layout."""
    rng = np.random.default_rng(11)
    w = DenseMatrix(np.asfortranarray(rng.normal(size=(8, 12))))
    calib = CalibrationBatch(DenseMatrix(rng.normal(size=(12, 4))))
    for sw in (prune_magnitude(w, 0.0), prune_magnitude(w, 0.5),
               prune_activation_scaled(w, calib, 0.5), prune_two_four(w),
               prune_two_four(w, "activation", calib)):
        assert sw.values.data.flags.c_contiguous
        assert sw.values.data is not w.data


def test_two_four_valid_matches_group_sum_definition():
    """The uint8 lane count agrees with summing each group's nonzeros."""
    rng = np.random.default_rng(10)
    for trial in range(200):
        rows, groups = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        # each group gets 0-4 nonzeros, a few groups more than two
        per_group = rng.choice(5, size=(rows, groups), p=[0.2, 0.25, 0.5, 0.03, 0.02])
        lanes = rng.random((rows, groups, 4)).argsort(axis=2) < per_group[..., np.newaxis]
        w = np.where(lanes, rng.normal(size=lanes.shape), rng.choice([0.0, -0.0], size=lanes.shape))
        w = w.reshape(rows, 4 * groups)
        want = bool(((w != 0.0).reshape(rows, groups, 4).sum(axis=2) <= 2).all())
        assert two_four_valid(DenseMatrix(w)) is want
    for cols in (1, 2, 3, 5, 6, 7, 9):
        assert two_four_valid(DenseMatrix(np.zeros((2, cols)))) is False
    with pytest.raises(ArgumentError, match="2:4"):
        SparseWeight(DenseMatrix(np.array([[0.0, 0.0, 1.0, 0.0, 1.0, -2.0, 0.0, 3.0]])),
                     pattern="two_four")


def test_overflowing_calibration_norms_are_a_numeric_error():
    """Finite 1e200 activations whose squares overflow: |w| * inf would be
    NaN at w = 0, so scoring stops with a NumericError instead."""
    w = DenseMatrix(np.array([[0.0, 1.0, 2.0, 3.0]]))
    calib = CalibrationBatch(DenseMatrix(np.full((4, 2), 1e200)))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="non-finite calibration feature norms"):
            prune_activation_scaled(w, calib, 0.5)
        with pytest.raises(NumericError, match="non-finite calibration feature norms"):
            prune_two_four(w, "activation", calib)


def test_overflowing_activation_scores_are_a_numeric_error():
    """Finite norms 1e10 times 1e300 weights: every score would overflow to
    inf and tie, and the removal would keep the two smallest weights, so
    scoring stops with a NumericError instead. Scores just below the float
    limit still prune by value."""
    calib = CalibrationBatch(DenseMatrix(np.full((4, 1), 1e10)))
    w = DenseMatrix(np.array([[4e300, 3e300, 2e300, 1e300]]))
    with pytest.raises(NumericError, match="non-finite activation scores"):
        prune_activation_scaled(w, calib, 0.5)
    with pytest.raises(NumericError, match="non-finite activation scores"):
        prune_two_four(w, "activation", calib)
    w = DenseMatrix(np.array([[1.7e298, 1.6e298, 1.5e298, 1.4e298]]))
    want = [[1.7e298, 1.6e298, 0.0, 0.0]]
    assert prune_activation_scaled(w, calib, 0.5).values.data.tolist() == want
    assert prune_two_four(w, "activation", calib).values.data.tolist() == want
