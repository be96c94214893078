"""Adapter layer variants over sparse base weights.

Every layer computes some flavor of Y = f(W, A, B) X with a frozen sparse base
weight W (R x C), trainable low-rank factors, inputs X (C x L, samples as
columns), and an optional bias. The variants differ in what they save between
forward and backward and in how the backward products are scheduled, which is
the whole point: the table below is what the instrumented counters must
reproduce exactly (matmul m*k*n MACs, hadamard m*n MACs, adds excluded).

variant   forward MACs        backward MACs                      saved elements
lora      RCL + rCL + rRL     RCL + 2rRL + 2rCL                  rL + CL
sqft      RCL + RC + rRC      2RCL + 2rRC + RC                   2RC + CL
sqft_gc   RCL + RC + rRC      2RCL + 3rRC + 2RC                  CL
spp       2RCL + 2RC          3RCL + 3RC                         3RC + CL
spp_gc    RCL + rRC + RC      2RCL + 3rRC + 2RC                  CL
lors      RCL + rRC + RC      RCL + 2rRL + 2rCL + rRC + RC       CL

- lora: Y = WX + alpha * A(BX); saves X and BX.
- sqft: Y = (W + alpha * (AB) . M) X with mask M = (W != 0); saves X, M, and
  the merged weight.
- sqft_gc, spp_gc and lors: one forward function under three names. It is
  Y = merged X with the merged weight of ``_merge``, but only X is kept; the
  backward rebuilds the merged weight (+rRC + RC backward MACs) with the same
  ``_merge``, for dX alone (``_rebuilt_dx``).
- ``_merge`` is the one code path that builds a merged weight: for the
  forwards, for the backward recompute and for merge() of all six variants.
  It works in the one RC buffer of its rank-r product (A @ B, or A @ Bhat for
  an SppAdapter), which it multiplies in place by the layer's bool
  ``original_mask`` and alpha, or by W, then adds W to. The forward and
  merge() check the merged weight for finiteness; the backward recompute
  rebuilds the same bits, so it is not scanned again. Only sqft builds the RC
  float mask, a copy of the bool mask once per forward, because it saves it.
- sqft, sqft_gc and spp_gc share one product-gradient body,
  ``_product_grads``: G = dY X^T in a pooled buffer, times a factor in place
  (the mask, or W for spp_gc), then G B^T and A^T G. The pair variants scale
  those by alpha.
- spp: Y = WX + (W . tile(A, 1, C/r) . tile(B, R, 1)) X; the backward is the
  reverse of this Repeat expression, which spp_forward alone evaluates.
- spp_gc: the same function in merged form Y = (W + W . (A @ Bhat)) X with
  Bhat (``_bhat``) the block-diagonal expansion of B, so its factor in the
  merged weight and in the product gradients is W. dB gathers the diagonal
  blocks of dBhat = A^T G, and the backward costs what sqft_gc's does.
- lors: the adapter gradients are reordered into rank-r products:
  dA = alpha * dY (X^T B^T), dB = alpha * (A^T dY) X^T. The mask is dropped
  from dA/dB (straight-through estimator); dX uses the full masked merged
  weight.

A layer pass is two calls. ``variant_forward`` returns Y, checked for
finiteness (a NumericError names the layer), and the pass's saved list, which
is exactly the counted saved set, X first. ``variant_backward`` takes that
list back and empties it, so a second backward of it raises GraphError; it
checks dY, runs the variant's hand-written body (dA, dB, dX) with its ops
tallied into the counters' backward buckets (``CostCounters.backward``), and
adds dbias as the row sum of dY.

Every R x C float64 array of a layer pass comes from the pool, one free list
per weight shape shared by all layers and models: ``_take`` pops a buffer or
makes one, ``_give`` pushes it back after its last reader, in the same body
for a transient (an unsaved merge, dY X^T, spp's d delta), in the backward for
a saved tensor. ``ToyModel.predict``, whose passes have no backward, gives
each pass's saved tensors after X back once Y is formed; only a forward that
raises drops its buffers. merge() takes nothing from the pool. Nothing pooled
is ever read again, and nothing returned is pooled. A shape not seen before
empties the pool, so only the shapes in use keep buffers. Like the rest of
the package, it assumes one thread.

Sparsity is preserved because every masked variant updates only through
A, B and re-applies the mask on merge. ``merge`` uses the mask captured at
construction, so later exact-zero coincidences in kept weights cannot shrink
the pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, GraphError, NumericError, ShapeError
from . import matrix as mx
from .matrix import DenseMatrix
from .prune import SparseWeight

VARIANTS = ("lora", "sqft", "sqft_gc", "spp", "spp_gc", "lors")
SPP_VARIANTS = ("spp", "spp_gc")  # the variants with an SppAdapter

# Test hooks for negative-control verification runs. When a flag is set the
# named computation is deliberately corrupted so oracle suites must fail.
FAULT_INJECTION = {
    "lors_backward_sign_flip": False,
    "cost_model_off_by_one": False,
}


def check_alpha(alpha: float) -> None:
    """Reject an adapter scaling that is not finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ArgumentError(f"alpha must be finite and positive, got {alpha}")


def check_rank(spp: bool, rows: int, cols: int, r: int) -> None:
    """The rank rule of a rows x cols adapter: a pair needs 1 <= r <=
    min(rows, cols), and spp's tiled A needs r to divide cols. Integer
    comparisons alone (no ``min``, which builds an argument tuple), so a
    passing check allocates nothing."""
    if spp:
        if r < 1 or cols % r:
            raise ArgumentError(f"spp rank {r} must divide the input width {cols}")
    elif r < 1 or r > rows or r > cols:
        raise ArgumentError(f"rank {r} must satisfy 1 <= r <= min({rows}, {cols})")


@dataclass
class AdapterPair:
    """Low-rank factors a (R x r) and b (r x C) with a scaling factor."""

    a: DenseMatrix
    b: DenseMatrix
    alpha: float = 2.0

    def __post_init__(self):
        if self.a.cols != self.b.rows:
            raise ShapeError(
                f"adapter rank mismatch: a is {self.a.rows}x{self.a.cols}, "
                f"b is {self.b.rows}x{self.b.cols}"
            )
        check_rank(False, self.a.rows, self.b.cols, self.a.cols)
        check_alpha(self.alpha)

    @property
    def rank(self) -> int:
        return self.a.cols


@dataclass
class SppAdapter:
    """Hadamard-parameterized factors: a (R x r) tiled over columns, b (1 x C)."""

    a: DenseMatrix
    b: DenseMatrix

    def __post_init__(self):
        if self.b.rows != 1:
            raise ShapeError(f"spp b must be a 1xC row, got {self.b.rows}x{self.b.cols}")
        check_rank(True, self.a.rows, self.b.cols, self.a.cols)

    @property
    def rank(self) -> int:
        return self.a.cols


class AdaptedLayer:
    """A frozen SparseWeight plus a trainable adapter, one of six variants."""

    def __init__(self, base: SparseWeight, adapter, variant: str,
                 bias: Optional[DenseMatrix] = None, name: str = ""):
        if variant not in VARIANTS:
            raise ArgumentError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        spp_family = variant in SPP_VARIANTS
        if spp_family and not isinstance(adapter, SppAdapter):
            raise ArgumentError(f"variant {variant} requires an SppAdapter")
        if not spp_family and not isinstance(adapter, AdapterPair):
            raise ArgumentError(f"variant {variant} requires an AdapterPair")
        if adapter.a.rows != base.rows:
            raise ShapeError(
                f"adapter a has {adapter.a.rows} rows, base has {base.rows}"
            )
        if adapter.b.cols != base.cols:
            raise ShapeError(
                f"adapter b has {adapter.b.cols} cols, base has {base.cols}"
            )
        if bias is not None and (bias.rows != base.rows or bias.cols != 1):
            raise ShapeError(
                f"bias must be {base.rows}x1, got {bias.rows}x{bias.cols}"
            )
        self.base = base
        self.adapter = adapter
        self.variant = variant
        self.bias = bias
        self.name = name
        self.original_mask = base.mask_bool()  # the base's mask, fixed at first use

    @property
    def out_features(self) -> int:
        return self.base.rows

    @property
    def in_features(self) -> int:
        return self.base.cols

    @property
    def rank(self) -> int:
        return self.adapter.rank

    def trainable(self) -> dict[str, DenseMatrix]:
        params = {"a": self.adapter.a, "b": self.adapter.b}
        if self.bias is not None:
            params["bias"] = self.bias
        return params


def zero_adapter(variant: str, rows: int, cols: int, rank: int, alpha: float = 2.0):
    """Zeroed factors (A = 0, B = 0) for a rows x cols layer of ``variant``:
    an SppAdapter for spp and spp_gc (which have no alpha), else an AdapterPair."""
    check_rank(variant in SPP_VARIANTS, rows, cols, rank)
    if variant in SPP_VARIANTS:
        return SppAdapter(a=mx.zeros(rows, rank), b=mx.zeros(1, cols))
    return AdapterPair(a=mx.zeros(rows, rank), b=mx.zeros(rank, cols), alpha=alpha)


def make_layer(base: SparseWeight, rank: int, variant: str, alpha: float = 2.0,
               bias: Optional[DenseMatrix] = None, name: str = "") -> AdaptedLayer:
    """Build a layer with zeroed adapter factors (A = 0, B = 0)."""
    adapter = zero_adapter(variant, base.rows, base.cols, rank, alpha)
    return AdaptedLayer(base, adapter, variant, bias=bias, name=name)


@dataclass
class VariantGrads:
    da: DenseMatrix
    db: DenseMatrix
    dx: DenseMatrix
    dbias: Optional[DenseMatrix] = None


_POOL: dict[tuple[int, int], list[np.ndarray]] = {}


def _take(shape: tuple[int, int]) -> np.ndarray:
    """A float64 buffer of ``shape`` from the pool, or a new one (module docstring)."""
    if shape not in _POOL:  # a new shape frees the other shapes' buffers
        _POOL.clear()
    free = _POOL.setdefault(shape, [])
    return free.pop() if free else np.empty(shape)


def _give(*arrays: np.ndarray) -> None:
    """Push buffers back on the pool; nothing else may read them afterwards."""
    for arr in arrays:
        _POOL.setdefault(arr.shape, []).append(arr)


def _bhat(adapter: SppAdapter) -> DenseMatrix:
    """The r x C block-diagonal expansion of spp's B: Bhat[q mod r, q] = B[q],
    zeros elsewhere, so W . (A @ Bhat) is W . tile(A, 1, C/r) . tile(B, R, 1)."""
    r, cols = adapter.rank, adapter.b.data.shape[1]
    idx, bhat = np.arange(cols), mx.zeros(r, cols)
    bhat.data[idx % r, idx] = adapter.b.data[0]
    return bhat


def _merge(layer: AdaptedLayer, counters, out=None, bhat=None) -> DenseMatrix:
    """The layer's merged weight (module docstring), into ``out`` when given,
    else a fresh array: W + alpha (A @ B) . M over the bool ``original_mask``
    for a pair, W + W . (A @ Bhat) for an SppAdapter (``bhat`` when the caller
    has built it). rRC + RC MACs and RC elementwise; the result is not
    scanned."""
    w, adapter = layer.base.values.data, layer.adapter
    spp = isinstance(adapter, SppAdapter)
    if spp and bhat is None:
        bhat = _bhat(adapter)
    b = bhat if spp else adapter.b
    if (adapter.a.data.shape[0], b.data.shape[1]) != w.shape:
        raise ShapeError(f"merge: W is {w.shape}, the adapter's product is "
                         f"{adapter.a.rows}x{b.cols}")
    merged = mx.matmul(adapter.a, b, counters, out)               # rRC
    data = merged.data
    if spp:
        data *= w                                                 # RC
    else:
        data *= layer.original_mask                               # RC
        data *= adapter.alpha
    data += w
    if counters is not None:
        counters.add_macs(w.size)
        counters.add_elementwise(w.size)
    return merged


def _check_x(layer: AdaptedLayer, x: DenseMatrix) -> None:
    (rows, cols), width = x.data.shape, layer.base.values.data.shape[1]
    if rows != width:
        raise ShapeError(f"layer expects {width} input rows, got {rows}x{cols}")


def _add_bias(layer: AdaptedLayer, y: DenseMatrix, counters) -> DenseMatrix:
    return y if layer.bias is None else mx.add_bias(y, layer.bias, counters)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def lora_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """Y = WX + alpha * A(BX); saves X and BX (rL + CL elements)."""
    _check_x(layer, x)
    w = layer.base.values
    pair = layer.adapter
    base_out = mx.matmul(w, x, counters)            # RCL
    bx = mx.matmul(pair.b, x, counters)             # rCL
    abx = mx.matmul(pair.a, bx, counters)           # rRL
    y = mx.add_scaled(base_out, abx, pair.alpha, counters)
    return _add_bias(layer, y, counters), [x, bx]


def _merged_forward(layer: AdaptedLayer, x: DenseMatrix, counters):
    """Y = merged X and the merged weight of ``_merge`` (pooled), checked here."""
    _check_x(layer, x)
    merged = _merge(layer, counters, _take(layer.original_mask.shape))
    mx.check_finite(merged.data, "merged weight")
    y = mx.matmul(merged, x, counters)              # RCL
    return _add_bias(layer, y, counters), merged


def sqft_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """Y = (W + alpha (AB) . M) X; saves X, the float mask M, and the merged weight.

    sqft is the one variant that builds the RC float mask, a pooled copy of
    the bool mask, because its cost model counts it as saved for backward.
    """
    y, merged = _merged_forward(layer, x, counters)
    mask = _take(layer.original_mask.shape)
    np.copyto(mask, layer.original_mask)
    return y, [x, DenseMatrix._wrap(mask), merged]


def lors_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """Y = merged X, keeping only X (CL elements).

    The merged weight goes back to the pool once Y is formed and is rebuilt
    in backward. sqft_gc is the same forward under another name, and so is
    spp_gc, whose merged weight is the block-diagonal form of ``_merge``.
    """
    y, merged = _merged_forward(layer, x, counters)
    _give(merged.data)
    return y, [x]


sqft_gc_forward = spp_gc_forward = lors_forward


def spp_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """Y = W X + delta X with delta = W . tile(A, 1, C/r) . tile(B, R, 1), the
    Repeat expression (2RC MACs), in three pooled buffers.

    Column q of tile(A, 1, C/r) is A[:, q mod r], so A broadcasts over W's
    column groups and only tile(B, R, 1) is built. Saves what the reverse pass
    of this expression reads: X and delta for d delta and dX, tile(B) and
    W . tile(A) for the Hadamard factors' gradients (CL + 3RC).
    """
    _check_x(layer, x)
    w, adapter = layer.base.values, layer.adapter
    shape, r = w.data.shape, adapter.rank
    if counters is not None:
        counters.add_macs(2 * w.data.size)
    w_tiled_a, tiled_b, delta = _take(shape), _take(shape), _take(shape)
    np.multiply(w.data.reshape(shape[0], -1, r), adapter.a.data[:, None],
                w_tiled_a.reshape(shape[0], -1, r))
    tiled_b[...] = adapter.b.data
    np.multiply(w_tiled_a, tiled_b, delta)
    delta = DenseMatrix._wrap(delta)
    adapted = mx.matmul(delta, x, counters)                                   # RCL
    y = mx.add(mx.matmul(w, x, counters), adapted, counters)                  # RCL
    saved = [x, DenseMatrix._wrap(tiled_b), DenseMatrix._wrap(w_tiled_a), delta]
    return _add_bias(layer, y, counters), saved


# ---------------------------------------------------------------------------
# backward bodies: (layer, saved, dY, counters) -> (dA, dB, dX), run by
# variant_backward with the counters' backward view after the shared preamble;
# ``saved`` is the pass's saved list, handed over whole
# ---------------------------------------------------------------------------

def _lora_backward(layer: AdaptedLayer, saved: list, grad_y: DenseMatrix, counters):
    """dA = alpha dY (BX)^T; dB = alpha (A^T dY) X^T; dX = W^T dY + alpha B^T (A^T dY)."""
    pair = layer.adapter
    x, bx = saved
    da = mx.scale(mx.matmul(grad_y, mx.transpose(bx), counters), pair.alpha, counters)  # rRL
    at_dy = mx.matmul(mx.transpose(pair.a), grad_y, counters)                           # rRL
    db = mx.scale(mx.matmul(at_dy, mx.transpose(x), counters), pair.alpha, counters)    # rCL
    dx = mx.add_scaled(
        mx.matmul(mx.transpose(layer.base.values), grad_y, counters),      # RCL
        mx.matmul(mx.transpose(pair.b), at_dy, counters),                  # rCL
        pair.alpha, counters,
    )
    return da, db, dx


def _rebuilt_dx(layer: AdaptedLayer, grad_y: DenseMatrix, counters, bhat=None) -> DenseMatrix:
    """The recompute of sqft_gc, spp_gc and lors: rebuild the merged weight in
    a pooled buffer (rRC + RC), given back after dX = merged^T dY (RCL)."""
    merged = _merge(layer, counters, _take(layer.original_mask.shape), bhat)
    dx = mx.matmul(mx.transpose(merged), grad_y, counters)
    _give(merged.data)
    return dx


def _product_grads(layer: AdaptedLayer, x: DenseMatrix, grad_y: DenseMatrix,
                   factor: np.ndarray, b: DenseMatrix, counters):
    """The gradients of A and of ``b`` through the product A @ b, which enters
    the merged weight times the R x C ``factor``: the mask for sqft and
    sqft_gc, W for spp_gc. G = dY X^T is built in a pooled buffer (RCL), times
    the factor in place (RC), then G b^T and A^T G (rRC each). The caller has
    formed dX and given its merged weight back, so G takes that buffer."""
    g = mx.matmul(grad_y, mx.transpose(x), counters, _take(factor.shape))      # RCL
    g.data *= factor                                                           # RC
    if counters is not None:
        counters.add_macs(factor.size)
    a = layer.adapter.a
    grads = mx.matmul(g, mx.transpose(b), counters), mx.matmul(mx.transpose(a), g, counters)
    _give(g.data)
    return grads


def _sqft_grads(layer: AdaptedLayer, x: DenseMatrix, grad_y: DenseMatrix,
                mask: np.ndarray, counters):
    """dA/dB through (dY X^T) . M, scaled by alpha."""
    pair = layer.adapter
    da, db = _product_grads(layer, x, grad_y, mask, pair.b, counters)
    return mx.scale(da, pair.alpha, counters), mx.scale(db, pair.alpha, counters)


def _sqft_backward(layer: AdaptedLayer, saved: list, grad_y: DenseMatrix, counters):
    """dX = merged^T dY from the saved merged weight, which then goes back to
    the pool, and dA/dB over the saved float mask, which follows it."""
    x, mask, merged = saved
    saved.clear()
    dx = mx.matmul(mx.transpose(merged), grad_y, counters)       # RCL
    _give(merged.data)
    del merged
    da, db = _sqft_grads(layer, x, grad_y, mask.data, counters)
    _give(mask.data)
    return da, db, dx


def _sqft_gc_backward(layer: AdaptedLayer, saved: list, grad_y: DenseMatrix, counters):
    """The recompute for dX, then the sqft schedule over the layer's bool mask."""
    dx = _rebuilt_dx(layer, grad_y, counters)
    return (*_sqft_grads(layer, saved[0], grad_y, layer.original_mask, counters), dx)


def _lors_backward(layer: AdaptedLayer, saved: list, grad_y: DenseMatrix, counters):
    """Recompute the merged weight, then rank-r reordered adapter gradients.

    dX = merged^T dY (full masked weight); dA = alpha * dY (X^T B^T) and
    dB = alpha * (A^T dY) X^T carry no mask: the straight-through estimator
    drops it from the adapter-gradient path. Costs RCL + 2rRL + 2rCL MACs for
    the products plus rRC + RC for the recompute.
    """
    pair = layer.adapter
    xt = mx.transpose(saved[0])
    dx = _rebuilt_dx(layer, grad_y, counters)
    xt_bt = mx.matmul(xt, mx.transpose(pair.b), counters)                   # rCL
    at_dy = mx.matmul(mx.transpose(pair.a), grad_y, counters)               # rRL
    da = mx.scale(mx.matmul(grad_y, xt_bt, counters), pair.alpha, counters)  # rRL
    db = mx.scale(mx.matmul(at_dy, xt, counters), pair.alpha, counters)      # rCL
    if FAULT_INJECTION["lors_backward_sign_flip"]:
        da = mx.scale(da, -1.0)
    return da, db, dx


def _spp_backward(layer: AdaptedLayer, saved: list, grad_y: DenseMatrix, counters):
    """Reverse of the Repeat expression Y = W X + delta X.

    dX = W^T dY + delta^T dY (the fan-in sum tallied, CL elementwise), then
    d delta = dY X^T in delta's buffer; the Hadamard factors' gradients
    d delta . tile(B) and d delta . (W . tile(A)), in place over the saved
    tile(B) and W . tile(A) (IEEE products commute: the bits hold); dB sums
    tile(B)'s gradient over its R row blocks, and dA sums (d(W . tile(A)) . W)
    over W's C/r column groups (RC elementwise each). 3RCL + 3RC MACs.
    """
    x, tiled_b, w_tiled_a, delta = saved
    saved.clear()
    w = layer.base.values
    (rows, cols), r = w.data.shape, layer.adapter.rank
    dx = mx.matmul(mx.transpose(w), grad_y, counters)                   # RCL
    dx = mx.add(dx, mx.matmul(mx.transpose(delta), grad_y, counters), counters)  # RCL
    _give(delta.data)
    d_delta = mx.matmul(grad_y, mx.transpose(x), counters, _take(w.data.shape)).data  # RCL
    d_w_tiled_a, d_tiled_b = tiled_b.data, w_tiled_a.data
    d_w_tiled_a *= d_delta                                              # RC
    d_tiled_b *= d_delta                                                # RC
    if counters is not None:
        counters.add_macs(3 * rows * cols)
        counters.add_elementwise(2 * rows * cols)
    db = DenseMatrix._wrap(d_tiled_b.reshape(rows, 1, 1, cols).sum(axis=(0, 2)))
    d_w_tiled_a *= w.data                                               # RC
    da = DenseMatrix._wrap(d_w_tiled_a.reshape(rows, -1, r).sum(axis=1))
    _give(d_delta, d_tiled_b, d_w_tiled_a)
    return da, db, dx


def _spp_gc_backward(layer: AdaptedLayer, saved: list, grad_y: DenseMatrix, counters):
    """The recompute for dX, then the product gradients with W as the factor:
    dA = G Bhat^T and dBhat = A^T G, of which dB gathers the diagonal blocks
    (rC elementwise), over one Bhat. The same 2RCL + 3rRC + 2RC MACs as sqft_gc.
    """
    bhat = _bhat(layer.adapter)
    dx = _rebuilt_dx(layer, grad_y, counters, bhat)
    da, d_bhat = _product_grads(layer, saved[0], grad_y, layer.base.values.data, bhat, counters)
    r, cols = d_bhat.data.shape
    idx = np.arange(cols)
    if counters is not None:
        counters.add_elementwise(r * cols)
    return da, DenseMatrix._wrap(d_bhat.data[idx % r, idx].reshape(1, cols)), dx


# ---------------------------------------------------------------------------
# dispatch, cost predictions, merge
# ---------------------------------------------------------------------------

_FORWARD = {
    "lora": lora_forward,
    "sqft": sqft_forward,
    "sqft_gc": sqft_gc_forward,
    "spp": spp_forward,
    "spp_gc": spp_gc_forward,
    "lors": lors_forward,
}

_BACKWARD = {
    "lora": _lora_backward,
    "sqft": _sqft_backward,
    "sqft_gc": _sqft_gc_backward,
    "spp": _spp_backward,
    "spp_gc": _spp_gc_backward,
    "lors": _lors_backward,
}


def variant_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """Y and the pass's saved list (module docstring); a non-finite Y raises
    NumericError naming the layer."""
    try:
        y, saved = _FORWARD[layer.variant](layer, x, counters)
        mx.check_finite(y.data, "output")
    except NumericError as exc:
        exc.layer = layer.name
        raise
    return y, saved


def variant_backward(layer: AdaptedLayer, grad_y: DenseMatrix, ctx: list,
                     counters=None) -> VariantGrads:
    """Take the saved list ``ctx`` of the layer's forward and empty it, check
    dY, and run the variant's backward body with its ops tallied as backward;
    dbias is the row sum of dY."""
    if not ctx:
        raise GraphError("backward context already consumed")
    saved = ctx.copy()
    ctx.clear()
    want = (layer.base.values.data.shape[0], saved[0].data.shape[1])
    if grad_y.data.shape != want:
        raise ShapeError(f"gradient must be {want[0]}x{want[1]}, got {grad_y.rows}x{grad_y.cols}")
    if counters is not None:
        counters = counters.backward
    da, db, dx = _BACKWARD[layer.variant](layer, saved, grad_y, counters)
    dbias = mx.reduce_sum_rows(grad_y, counters) if layer.bias is not None else None
    return VariantGrads(da, db, dx, dbias)


def counted_saved(layer: AdaptedLayer, ctx: list) -> list[DenseMatrix]:
    """The tensors a layer keeps alive between forward and backward: the
    pass's saved list itself, X first."""
    return ctx


@dataclass
class CostPrediction:
    macs_forward: int
    macs_backward: int
    saved_elements: int


def _recompute_sqft_cost(R: int, C: int, L: int, r: int) -> CostPrediction:
    """sqft_gc and spp_gc: one rebuilt merge and the sqft product gradients."""
    return CostPrediction(R * C * L + R * C + r * R * C,
                          2 * R * C * L + 3 * r * R * C + 2 * R * C,
                          C * L)


# Closed-form costs of one layer pass at (R, C, L, r): exactly what the
# counters report for a forward and backward with X requiring a gradient (the
# general mid-network setting: every schedule computes dX).
COST_MODELS: dict[str, Callable[[int, int, int, int], CostPrediction]] = {
    "lora": lambda R, C, L, r: CostPrediction(
        R * C * L + r * C * L + r * R * L,
        R * C * L + 2 * r * R * L + 2 * r * C * L,
        r * L + C * L),
    "sqft": lambda R, C, L, r: CostPrediction(
        R * C * L + R * C + r * R * C,
        2 * R * C * L + 2 * r * R * C + R * C,
        2 * R * C + C * L),
    "sqft_gc": _recompute_sqft_cost,
    "spp": lambda R, C, L, r: CostPrediction(
        2 * R * C * L + 2 * R * C,
        3 * R * C * L + 3 * R * C,
        3 * R * C + C * L),
    "spp_gc": _recompute_sqft_cost,
    "lors": lambda R, C, L, r: CostPrediction(
        R * C * L + r * R * C + R * C,
        R * C * L + 2 * r * R * L + 2 * r * C * L + r * R * C + R * C,
        C * L),
}


def predict_cost(variant: str, R: int, C: int, L: int, r: int) -> CostPrediction:
    """Evaluate the variant's cost model at a concrete shape, which must be one
    a layer of the variant can have."""
    if variant not in COST_MODELS:
        raise ArgumentError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if min(R, C, L, r) < 1:
        raise ArgumentError(f"dimensions must be positive, got {(R, C, L, r)}")
    check_rank(variant in SPP_VARIANTS, R, C, r)
    pred = COST_MODELS[variant](R, C, L, r)
    if FAULT_INJECTION["cost_model_off_by_one"]:
        pred.macs_backward += 1
    return pred


def merge(layer: AdaptedLayer) -> SparseWeight:
    """Finalize the layer into a plain sparse weight: ``_merge``'s merged
    weight with the entries outside the mask captured at construction zeroed,
    so the pattern is a subset of the original.

    The merge is checked for finiteness before the pruned entries are zeroed:
    an overflow of the rank-r product at a pruned entry gives inf * 0 = NaN,
    which the zeroing would hide from the checkpoint's own check.
    """
    merged = _merge(layer, None)
    mx.check_finite(merged.data, "merged weight")
    merged.data[~layer.original_mask] = 0.0
    return SparseWeight(merged, pattern=layer.base.pattern)
