"""One-shot weight pruning: magnitude, activation-scaled, and 2:4 structured.

Zeros encode the mask: a pruned entry is exactly 0.0 and the mask of a
``SparseWeight`` is simply ``values != 0``. No separate bitmap is stored.

Every pruner removes the n lowest scores of a row, and ties go to the smaller
index: when scores are equal, the entry with the smaller (row, col) index is
removed first. Magnitude pruning treats the whole weight as one row-major row
and activation-scaled pruning works per output row; both find the n lowest by
selection (``_lowest``). 2:4 pruning ranks each entry within its aligned group
of four: an entry is kept when at least two group-mates rank below it, where
a mate j ranks below entry i if s_j <= s_i and j < i, or s_j < s_i and j > i
(``_two_four_keep``). That is the order of a stable sort of the group, so a
group of four equal scores keeps its last two entries. No pruner sorts: each
is a few contiguous O(R*C) passes, and one multiply by the bool keep mask
applies the removal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError
from .matrix import DenseMatrix, check_finite


@dataclass
class CalibrationBatch:
    """Activations for scoring: x is C x L (feature rows, sample columns)."""

    x: DenseMatrix

    def feature_norms(self) -> np.ndarray:
        """Euclidean norm of each feature row; length C.

        A norm whose squares overflow is an error, not inf: |w| * inf is NaN
        where w = 0, and NaN scores have no place in a removal order.
        """
        norms = np.linalg.norm(self.x.data, axis=1)
        check_finite(norms, "calibration feature norms")
        return norms


@dataclass
class SparseWeight:
    """Pruned weight values plus a descriptor of how they were produced.

    pattern is "unstructured" (with the removal ratio) or "two_four".
    """

    values: DenseMatrix
    pattern: str = "unstructured"
    ratio: float = 0.0
    _mask: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Normalize -0.0 to +0.0 so mask logic and bitwise comparisons are
        # insensitive to the sign of zero: -0.0 + 0.0 is +0.0, and adding
        # +0.0 keeps the bits of every other value.
        self.values.data += 0.0
        if self.pattern not in ("unstructured", "two_four"):
            raise ArgumentError(f"unknown sparsity pattern {self.pattern!r}")
        if self.pattern == "two_four" and not two_four_valid(self.values):
            raise ArgumentError("values do not satisfy the 2:4 pattern")

    @property
    def rows(self) -> int:
        return self.values.rows

    @property
    def cols(self) -> int:
        return self.values.cols

    def mask_bool(self) -> np.ndarray:
        """values != 0, built on first use and read-only: layers share it."""
        if self._mask is None:
            self._mask = self.values.data != 0.0
            self._mask.flags.writeable = False
        return self._mask

    def mask(self) -> DenseMatrix:
        """The 0/1 float mask M = (values != 0), RC extra elements."""
        return DenseMatrix._wrap(self.mask_bool().astype(np.float64))

    def nonzeros(self) -> int:
        return int(np.count_nonzero(self.values.data))


def two_four_valid(values: DenseMatrix) -> bool:
    """True when every aligned group of 4 along the input axis has <= 2 nonzeros."""
    if values.cols % 4 != 0:
        return False
    nz = (values.data != 0.0).view(np.uint8).reshape(-1, 4)
    return bool((nz[:, 0] + nz[:, 1] + nz[:, 2] + nz[:, 3] <= 2).all())


def _lowest(scores: np.ndarray, n: int) -> np.ndarray:
    """Bool mask of the n lowest entries of each row of ``scores``, 1 <= n < cols.

    Ties go to the smaller column index. One partition finds each row's n-th
    smallest score ``kth``; every entry below it is in, and entries equal to
    it are taken in index order until the row has n. No sort: O(rows * cols).
    """
    kth = np.partition(scores, n - 1, axis=1)[:, n - 1:n]
    low = scores < kth
    tie = scores == kth
    need = n - np.count_nonzero(low, axis=1)
    if np.any(np.count_nonzero(tie, axis=1) != need):
        tie &= np.cumsum(tie, axis=1) <= need[:, np.newaxis]
    low |= tie
    return low


def _two_four_keep(scores: np.ndarray) -> np.ndarray:
    """Bool keep mask of the top 2 scores in every aligned group of 4 of a row.

    Each group is laid out as four contiguous lanes; entry i is kept when at
    least two group-mates rank below it (s_j <= s_i for j < i, s_j < s_i for
    j > i); that count is its position in a stable sort of the group. No sort.
    """
    lanes = scores.reshape(-1, 4).T.copy()
    keep = np.empty((lanes.shape[1], 4), dtype=bool)
    for i in range(4):
        below = np.zeros(lanes.shape[1], dtype=np.uint8)
        for j in range(4):
            if j < i:
                below += lanes[j] <= lanes[i]
            elif j > i:
                below += lanes[j] < lanes[i]
        keep[:, i] = below >= 2
    return keep.reshape(scores.shape)


def _activation_scores(w: DenseMatrix, calib: CalibrationBatch) -> np.ndarray:
    """The activation score |w_ij| * ||x_j|| of every entry of W.

    A score that overflows is an error: overflowed scores would all be inf and
    tie, and the removal among them would fall back to index order. Scores are
    >= 0 and never NaN, so one max finds an overflow.
    """
    if calib.x.rows != w.cols:
        raise ShapeError(
            f"calibration batch has {calib.x.rows} feature rows, weight needs {w.cols}"
        )
    norms = calib.feature_norms()
    with np.errstate(over="ignore"):
        scores = np.abs(w.data) * norms[np.newaxis, :]
    if scores.max() == np.inf:
        raise NumericError("non-finite activation scores")
    return scores


def _pruned(w: DenseMatrix, keep, pattern: str, ratio: float = 0.0) -> SparseWeight:
    """W with the entries outside the bool ``keep`` set to zero, in one multiply.

    A removed negative entry becomes -0.0, which ``SparseWeight`` normalizes.
    Every entry is an entry of the already-checked W or zero, so the product
    is wrapped, not scanned again; it is C-ordered whatever W's layout.
    """
    out = np.multiply(w.data, keep, order="C")
    return SparseWeight(DenseMatrix._wrap(out), pattern=pattern, ratio=ratio)


def prune_magnitude(w: DenseMatrix, ratio: float) -> SparseWeight:
    """Remove the floor(ratio * R * C) smallest-|w| entries globally."""
    if not (0.0 <= ratio < 1.0):
        raise ArgumentError(f"prune ratio must be in [0, 1), got {ratio}")
    n_remove = int(ratio * w.data.size)
    keep = True
    if n_remove:
        keep = ~_lowest(np.abs(w.data).reshape(1, -1), n_remove).reshape(w.data.shape)
    return _pruned(w, keep, "unstructured", ratio)


def prune_activation_scaled(w: DenseMatrix, calib: CalibrationBatch, ratio: float) -> SparseWeight:
    """Per-row removal of the floor(ratio * C) lowest |w_ij| * ||x_j|| entries.

    x_j is the j-th feature row of the calibration batch, so a feature that is
    always zero drives its whole weight column to the front of the removal
    order in every row.
    """
    if not (0.0 <= ratio < 1.0):
        raise ArgumentError(f"prune ratio must be in [0, 1), got {ratio}")
    scores = _activation_scores(w, calib)
    n_remove = int(ratio * w.cols)
    keep = ~_lowest(scores, n_remove) if n_remove else True
    return _pruned(w, keep, "unstructured", ratio)


def prune_two_four(w: DenseMatrix, score: str = "magnitude",
                   calib: Optional[CalibrationBatch] = None) -> SparseWeight:
    """Keep the top-2 scores in every aligned group of 4 along the input axis."""
    if w.cols % 4 != 0:
        raise ArgumentError(f"2:4 pruning requires cols divisible by 4, got {w.cols}")
    if score == "magnitude":
        scores = np.abs(w.data)
    elif score == "activation":
        if calib is None:
            raise ArgumentError("activation scoring requires a calibration batch")
        scores = _activation_scores(w, calib)
    else:
        raise ArgumentError(f"unknown score {score!r}")
    return _pruned(w, _two_four_keep(scores), "two_four")


def sparsity(sw: SparseWeight) -> float:
    """Fraction of zero entries."""
    return 1.0 - sw.nonzeros() / sw.values.data.size
