"""Thin singular value decomposition over LAPACK (``np.linalg.svd``).

Conventions on top of LAPACK's output:
- singular values sorted nonincreasing
- values at or below eps * max(rows, cols) * s[0] (numpy's matrix_rank
  tolerance) are set to exactly 0.0, so rank-deficient inputs have exact
  zero tails; the matching u and v columns stay an orthonormal basis
- sign fixed so the first nonzero entry of each right-singular vector is
  nonnegative (the U column flips with it, keeping u s v^T unchanged)
- a non-finite input and LAPACK non-convergence are raised as NumericError
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .matrix import DenseMatrix, check_finite


@dataclass
class SvdResult:
    u: DenseMatrix  # m x k, orthonormal columns
    s: np.ndarray   # k singular values, nonincreasing
    v: DenseMatrix  # n x k, orthonormal columns


def svd(m: DenseMatrix) -> SvdResult:
    """Thin SVD: m = u diag(s) v^T with k = min(rows, cols)."""
    check_finite(m.data, "svd input")
    try:
        u, s, vt = np.linalg.svd(m.data, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd failed: {exc}") from exc
    s[s <= np.finfo(float).eps * max(m.shape) * s[0]] = 0.0

    v = vt.T
    first = v[np.argmax(v != 0.0, axis=0), np.arange(v.shape[1])]
    flip = np.where(first < 0.0, -1.0, 1.0)
    return SvdResult(u=DenseMatrix._wrap(u * flip), s=s, v=DenseMatrix._wrap(v * flip))
