"""Dense float64 matrices, deterministic RNG, and instrumented elementary ops.

All numeric state in this package is a ``DenseMatrix``: a 2-D float64
array, row-major except for the views that ``transpose`` returns. Operations
are free functions so that every multiply-accumulate can be tallied into a
cost counter at the call site. The counting convention, used consistently
by every caller:

- matmul of (m x k) @ (k x n)    -> m*k*n MACs
- hadamard of (m x n) * (m x n)  -> m*n MACs
- additions, scalings, bias adds -> 0 MACs, tallied separately as
  elementwise ops (they never appear in MAC comparisons)

Counters are duck-typed: anything with ``add_macs`` / ``add_elementwise``
works, so this module does not depend on the tape.

Ops do not scan their results; ``check_finite`` is the one finiteness check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError


class DenseMatrix:
    """A rows x cols float64 matrix.

    Values are treated as immutable by every public operation; the sanctioned
    exceptions are ``fill_random_normal`` and the optimizer/initializer code
    that assigns into ``data`` directly. ``transpose`` returns a view of
    its operand's data, so an in-place write shows through every transpose.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ArgumentError(f"DenseMatrix requires 2-D data, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ArgumentError(f"DenseMatrix dimensions must be positive, got {arr.shape}")
        check_finite(arr, "DenseMatrix entries")
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DenseMatrix":
        # Internal fast path for a float64 2-D op result: no copy and no scan.
        # A non-finite entry is caught by the next boundary's check_finite.
        m = object.__new__(cls)
        m.data = arr
        return m

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def copy(self) -> "DenseMatrix":
        return DenseMatrix._wrap(self.data.copy())

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def check_finite(arr: np.ndarray, what: str) -> None:
    """Raise ``NumericError("non-finite <what>")`` unless every entry is finite."""
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite {what}")


def zeros(rows: int, cols: int) -> DenseMatrix:
    if rows < 1 or cols < 1:
        raise ArgumentError(f"zeros dimensions must be positive, got ({rows}, {cols})")
    return DenseMatrix._wrap(np.zeros((rows, cols)))


def ones(rows: int, cols: int) -> DenseMatrix:
    if rows < 1 or cols < 1:
        raise ArgumentError(f"ones dimensions must be positive, got ({rows}, {cols})")
    return DenseMatrix._wrap(np.ones((rows, cols)))


def _check_same_shape(op: str, a: DenseMatrix, b: DenseMatrix) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ, {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def matmul(a: DenseMatrix, b: DenseMatrix, counters=None) -> DenseMatrix:
    """Matrix product a @ b. Tallies m*k*n MACs when counters are given."""
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul: inner dimensions disagree, {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    out = a.data @ b.data
    if counters is not None:
        counters.add_macs(a.rows * a.cols * b.cols)
    return DenseMatrix._wrap(out)


def hadamard(a: DenseMatrix, b: DenseMatrix, counters=None) -> DenseMatrix:
    """Elementwise product. Tallies m*n MACs (one multiply per entry)."""
    _check_same_shape("hadamard", a, b)
    if counters is not None:
        counters.add_macs(a.rows * a.cols)
    return DenseMatrix._wrap(a.data * b.data)


def hadamard_mask(a: DenseMatrix, mask: np.ndarray, counters=None) -> DenseMatrix:
    """a . M for a 0/1 mask array M, bool or float. Tallies m*n MACs, as hadamard.

    A bool mask gives the same bits as its 0/1 float form, signs of zero
    included, without building that RC float matrix.
    """
    if mask.shape != a.shape:
        raise ShapeError(f"hadamard_mask: shapes differ, {a.rows}x{a.cols} vs mask {mask.shape}")
    if counters is not None:
        counters.add_macs(a.rows * a.cols)
    return DenseMatrix._wrap(a.data * mask)


def add(a: DenseMatrix, b: DenseMatrix, counters=None) -> DenseMatrix:
    """Elementwise sum. Additions cost 0 MACs; tallied as elementwise ops."""
    _check_same_shape("add", a, b)
    if counters is not None:
        counters.add_elementwise(a.rows * a.cols)
    return DenseMatrix._wrap(a.data + b.data)


def sub(a: DenseMatrix, b: DenseMatrix, counters=None) -> DenseMatrix:
    _check_same_shape("sub", a, b)
    if counters is not None:
        counters.add_elementwise(a.rows * a.cols)
    return DenseMatrix._wrap(a.data - b.data)


def add_scaled(a: DenseMatrix, b: DenseMatrix, alpha: float, counters=None) -> DenseMatrix:
    """a + alpha * b, as one elementwise pass (0 MACs) and one temporary."""
    _check_same_shape("add_scaled", a, b)
    if counters is not None:
        counters.add_elementwise(a.rows * a.cols)
    out = b.data * alpha
    out += a.data
    return DenseMatrix._wrap(out)


def scale(a: DenseMatrix, alpha: float, counters=None) -> DenseMatrix:
    if counters is not None:
        counters.add_elementwise(a.rows * a.cols)
    return DenseMatrix._wrap(a.data * alpha)


def transpose(a: DenseMatrix) -> DenseMatrix:
    """Transpose as a view of a's data: no copy, no MACs, no elementwise tally."""
    return DenseMatrix._wrap(a.data.T)


def add_bias(a: DenseMatrix, bias: DenseMatrix, counters=None) -> DenseMatrix:
    """Add a column vector (rows x 1) to every column of a (rows x L)."""
    if bias.cols != 1 or bias.rows != a.rows:
        raise ShapeError(
            f"add_bias: bias must be {a.rows}x1 to match {a.rows}x{a.cols}, got {bias.rows}x{bias.cols}"
        )
    if counters is not None:
        counters.add_elementwise(a.rows * a.cols)
    return DenseMatrix._wrap(a.data + bias.data)


def reduce_sum_rows(a: DenseMatrix, counters=None) -> DenseMatrix:
    """Sum over columns, returning a rows x 1 vector. Pure additions: 0 MACs."""
    if counters is not None:
        counters.add_elementwise(a.rows * a.cols)
    return DenseMatrix._wrap(a.data.sum(axis=1, keepdims=True))


def relu(a: DenseMatrix, counters=None) -> DenseMatrix:
    if counters is not None:
        counters.add_elementwise(a.rows * a.cols)
    return DenseMatrix._wrap(np.maximum(a.data, 0.0))


def frobenius_norm(a: DenseMatrix) -> float:
    return float(np.sqrt(np.sum(a.data * a.data)))


def max_abs_diff(a: DenseMatrix, b: DenseMatrix) -> float:
    _check_same_shape("max_abs_diff", a, b)
    return float(np.max(np.abs(a.data - b.data)))


def bitwise_equal(a: DenseMatrix, b: DenseMatrix) -> bool:
    return a.shape == b.shape and np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective scramble of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based pseudorandom generator.

    Output i for a given seed is the splitmix64 finalizer applied to
    ``seed + (i + 1) * GOLDEN`` (mod 2^64), so the full state is exactly the
    pair (seed, position) and any draw can be reproduced from those two
    integers. The 64-bit integer stream is identical on every platform.
    Doubles derive from the top 53 bits; normals use the Box-Muller transform
    (two uniforms per normal), so real-valued streams are additionally stable
    up to the platform's libm rounding of log/cos.
    """

    __slots__ = ("seed", "position")

    def __init__(self, seed: int, position: int = 0):
        self.seed = int(seed) & _MASK64
        self.position = int(position)

    def state(self) -> tuple[int, int]:
        return (self.seed, self.position)

    def derive(self, tag: int) -> "Rng":
        """A statistically independent generator for a sub-stream."""
        return Rng(_mix64(self.seed + (tag + 1) * _GOLDEN), 0)

    def _raw_block(self, n: int) -> np.ndarray:
        idx = np.arange(self.position + 1, self.position + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            state = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
        self.position += n
        return _mix64_array(state)

    def next_u64(self) -> int:
        self.position += 1
        return _mix64(self.seed + self.position * _GOLDEN)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        return (self._raw_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals; consumes exactly 2n raw draws (Box-Muller)."""
        raw = self._raw_block(2 * n)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((raw[:n] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[n:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)

    def normal_matrix(self, rows: int, cols: int, mean: float = 0.0, std: float = 1.0) -> DenseMatrix:
        vals = self.normals(rows * cols) * std + mean
        return DenseMatrix._wrap(vals.reshape(rows, cols))

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform in [0, bound)."""
        if bound < 1:
            raise ArgumentError(f"integers bound must be positive, got {bound}")
        u = (self._raw_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return np.minimum((u * bound).astype(np.int64), bound - 1)


def fill_random_normal(m: DenseMatrix, rng: Rng, mean: float = 0.0, std: float = 1.0) -> DenseMatrix:
    """In-place mutator: overwrite every entry with a normal draw."""
    vals = rng.normals(m.rows * m.cols) * std + mean
    m.data[...] = vals.reshape(m.rows, m.cols)
    return m
