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
spp_gc    RCL + rRC + RC      3RCL + 3rRC + 2RC                  CL
lors      RCL + rRC + RC      RCL + 2rRL + 2rCL + rRC + RC       CL

- lora: Y = WX + alpha * A(BX); saves X and BX.
- sqft: Y = (W + alpha * (AB) . M) X with mask M = (W != 0); saves X, M, and
  the merged weight.
- sqft_gc and lors: one forward function under two names. It is sqft's
  forward, but only X is kept; the backward pass rebuilds the merged weight
  (+rRC + RC backward MACs) with the same helper the forward used.
- The masked variants merge through ``merged_weight`` over the layer's bool
  ``original_mask``: one RC buffer holds A @ B, then the mask, alpha and W are
  applied in place. The forward checks the merged weight for finiteness; the
  backward recompute rebuilds the same bits, so it is not scanned again. Only
  sqft builds the RC float mask, once per forward, because it saves it.
- sqft_gc then runs sqft's backward schedule.
- spp: Y = WX + (W . tile(A, 1, C/r) . tile(B, R, 1)) X; backward is derived
  by the tape from this expression, not hand-written. ``_record_spp_delta``
  records the Repeat expression once, for the forward and for merge().
- spp_gc: the same function in merged form Y = (W + W . (A @ Bhat)) X with
  Bhat the block-diagonal expansion of B. One tape builder records this
  graph: the forward evaluates it and keeps only X, and the backward replays
  and differentiates it (checkpoint-style full recompute).
- lors: the adapter gradients are reordered into rank-r products:
  dA = alpha * dY (X^T B^T), dB = alpha * (A^T dY) X^T. The mask is dropped
  from dA/dB (straight-through estimator); dX uses the full masked merged
  weight.

Every forward returns a ``_Context`` whose ``saved`` list is exactly the
counted saved set. Every backward goes through ``variant_backward``: it
consumes the context once, checks dY, switches the counters to the backward
phase, runs the variant's private body (dA, dB, dX), and adds dbias as the row
sum of dY.

Sparsity is preserved because every masked variant updates only through
A, B and re-applies the mask on merge. ``merge`` uses the mask captured at
construction, so later exact-zero coincidences in kept weights cannot shrink
the pattern.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, GraphError, NumericError, ShapeError
from . import matrix as mx
from .matrix import DenseMatrix
from .prune import SparseWeight
from .tape import Tape

VARIANTS = ("lora", "sqft", "sqft_gc", "spp", "spp_gc", "lors")

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
        r = self.a.cols
        if r < 1 or r > min(self.a.rows, self.b.cols):
            raise ArgumentError(
                f"rank {r} must satisfy 1 <= r <= min({self.a.rows}, {self.b.cols})"
            )
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
        r = self.a.cols
        if self.b.cols % r != 0:
            raise ArgumentError(
                f"spp rank {r} must divide the input width {self.b.cols}"
            )

    @property
    def rank(self) -> int:
        return self.a.cols


class AdaptedLayer:
    """A frozen SparseWeight plus a trainable adapter, one of six variants."""

    def __init__(self, base: SparseWeight, adapter, variant: str,
                 bias: Optional[DenseMatrix] = None, name: str = ""):
        if variant not in VARIANTS:
            raise ArgumentError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        spp_family = variant in ("spp", "spp_gc")
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
        self.last_nodes: dict[str, int] = {}

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
    if variant in ("spp", "spp_gc"):
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


@dataclass(eq=False)
class _Context:
    """What a layer pass keeps between forward and backward.

    ``saved`` is exactly the counted saved-for-backward set; ``graph`` holds
    spp's recorded tape and its (x, a, b, y) node ids, and is None elsewhere.
    """

    layer: AdaptedLayer
    x: DenseMatrix
    saved: list
    graph: Optional[tuple] = None
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise GraphError("backward context already consumed")
        self.consumed = True


def merged_weight(w: DenseMatrix, a: DenseMatrix, b: DenseMatrix, alpha: float,
                  mask: np.ndarray, counters=None) -> DenseMatrix:
    """W + alpha * ((A @ B) . M), in the one evaluation order used everywhere.

    ``mask`` is an R x C bool array (a 0/1 float array gives the same bits,
    signs of zero included). The merge lives in one RC buffer: the product
    A @ B, then, in place, the mask, the scaling by alpha and the addition of
    W. The result is not scanned: the forward and merge() check it, and the
    backward recompute is bitwise the forward's merge.

    sqft saves this matrix, sqft_gc and lors rebuild it in backward, and
    merge() finalizes with it; sharing the helper keeps all of those bitwise
    identical. Costs rRC + RC MACs plus one elementwise pass.
    """
    shape = w.data.shape
    if mask.shape != shape or (a.data.shape[0], b.data.shape[1]) != shape:
        raise ShapeError(f"merged_weight: W is {w.rows}x{w.cols}, A @ B is "
                         f"{a.rows}x{b.cols}, mask is {mask.shape}")
    merged = mx.matmul(a, b, counters)           # rRC
    out = merged.data
    out *= mask                                  # RC
    out *= alpha
    out += w.data
    if counters is not None:
        counters.add_macs(out.size)
        counters.add_elementwise(out.size)
    return merged


def _merge(layer: AdaptedLayer, counters) -> DenseMatrix:
    """The merged weight of the masked forward over the layer's bool
    ``original_mask`` (rRC + RC MACs)."""
    pair = layer.adapter
    return merged_weight(layer.base.values, pair.a, pair.b, pair.alpha,
                         layer.original_mask, counters)


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
    return _add_bias(layer, y, counters), _Context(layer, x, [x, bx])


def _masked_forward(layer: AdaptedLayer, x: DenseMatrix, counters):
    """Y = (W + alpha (AB) . M) X and the merged weight, checked for finiteness here."""
    _check_x(layer, x)
    merged = _merge(layer, counters)
    mx.check_finite(merged.data, "merged weight")
    y = mx.matmul(merged, x, counters)              # RCL
    return _add_bias(layer, y, counters), merged


def sqft_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """Y = (W + alpha (AB) . M) X; saves X, the float mask M, and the merged weight.

    sqft is the one variant that builds the RC float mask, because its cost
    model counts it as saved for backward.
    """
    y, merged = _masked_forward(layer, x, counters)
    return y, _Context(layer, x, [x, layer.base.mask(), merged])


def lors_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """sqft's forward, keeping only X (CL elements).

    The merged weight is dropped after use and rebuilt in backward. sqft_gc
    is the same forward under another name.
    """
    y, _ = _masked_forward(layer, x, counters)
    return y, _Context(layer, x, [x])


sqft_gc_forward = lors_forward


def _record_spp_delta(tape: Tape, layer: AdaptedLayer):
    """Record the leaves W, A, B and the Repeat expression
    delta = W . tile(A, 1, C/r) . tile(B, R, 1); returns (w, a, b, delta) ids.

    Column q of tile(A, 1, C/r) is A[:, q mod r]; only tile(B, R, 1), which
    the saved set counts, is built. spp_forward and merge() evaluate delta here.
    """
    adapter = layer.adapter
    w_id = tape.leaf(layer.base.values, requires_grad=False, is_param=True)
    a_id = tape.leaf(adapter.a, requires_grad=True, is_param=True)
    b_id = tape.leaf(adapter.b, requires_grad=True, is_param=True)
    delta = tape.hadamard(tape.hadamard_tiled(w_id, a_id), tape.tile(b_id, layer.out_features, 1))
    return w_id, a_id, b_id, delta


def spp_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """Y = delta X + W X with delta the Repeat expression of
    ``_record_spp_delta``, recorded on a private tape.

    The backward pass is whatever reverse-mode differentiation of this graph
    yields; nothing is hand-scheduled. The saved set is what the graph's
    nodes saved (3RC + CL).
    """
    _check_x(layer, x)
    tape = Tape(counters=counters, track_saved=False)
    w_id, a_id, b_id, delta = _record_spp_delta(tape, layer)
    x_id = tape.leaf(x, requires_grad=True)
    adapted = tape.matmul(delta, x_id)
    base_out = tape.matmul(w_id, x_id)
    y_id = tape.add(base_out, adapted)
    saved = [t for node in tape.nodes for t in node.saved]
    ctx = _Context(layer, x, saved, graph=(tape, (x_id, a_id, b_id, y_id)))
    return _add_bias(layer, tape.value(y_id), counters), ctx


def _record_spp_gc(layer: AdaptedLayer, x: DenseMatrix, counters):
    """Record the spp function in merged form, Y = (W + W . (A @ Bhat)) X.

    Bhat is the block-diagonal expansion of B, which makes the merged form
    equal (up to rounding) to the Repeat form while exposing the rank-r
    matmul A @ Bhat (rRC MACs) instead of a tiled Hadamard chain.
    """
    adapter = layer.adapter
    tape = Tape(counters=counters, track_saved=False)
    w_id = tape.leaf(layer.base.values, requires_grad=False, is_param=True)
    a_id = tape.leaf(adapter.a, requires_grad=True, is_param=True)
    b_id = tape.leaf(adapter.b, requires_grad=True, is_param=True)
    x_id = tape.leaf(x, requires_grad=True)
    bhat_id = tape.block_diag_rows(b_id, adapter.rank)
    product = tape.matmul(a_id, bhat_id)          # rRC
    scaled_w = tape.hadamard(w_id, product)       # RC
    merged = tape.add(w_id, scaled_w)
    y_id = tape.matmul(merged, x_id)              # RCL
    return tape, (x_id, a_id, b_id, y_id)


def spp_gc_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    """The merged-form spp graph, evaluated and dropped; saves only X."""
    _check_x(layer, x)
    tape, ids = _record_spp_gc(layer, x, counters)
    return _add_bias(layer, tape.value(ids[-1]), counters), _Context(layer, x, [x])


# ---------------------------------------------------------------------------
# backward bodies: (ctx, dY, counters) -> (dA, dB, dX), run by variant_backward
# in the backward phase after the shared preamble
# ---------------------------------------------------------------------------

def _lora_backward(ctx: _Context, grad_y: DenseMatrix, counters):
    """dA = alpha dY (BX)^T; dB = alpha (A^T dY) X^T; dX = W^T dY + alpha B^T (A^T dY)."""
    pair = ctx.layer.adapter
    x, bx = ctx.saved
    da = mx.scale(mx.matmul(grad_y, mx.transpose(bx), counters), pair.alpha, counters)  # rRL
    at_dy = mx.matmul(mx.transpose(pair.a), grad_y, counters)                           # rRL
    db = mx.scale(mx.matmul(at_dy, mx.transpose(x), counters), pair.alpha, counters)    # rCL
    dx = mx.add_scaled(
        mx.matmul(mx.transpose(ctx.layer.base.values), grad_y, counters),  # RCL
        mx.matmul(mx.transpose(pair.b), at_dy, counters),                  # rCL
        pair.alpha, counters,
    )
    return da, db, dx


def _sqft_grads(ctx: _Context, grad_y: DenseMatrix, mask: np.ndarray,
                merged: DenseMatrix, counters):
    """dX = merged^T dY; dA/dB from (dY X^T) . M, scaled by alpha."""
    pair = ctx.layer.adapter
    dx = mx.matmul(mx.transpose(merged), grad_y, counters)       # RCL
    dy_xt = mx.matmul(grad_y, mx.transpose(ctx.x), counters)     # RCL
    masked = mx.hadamard_mask(dy_xt, mask, counters)             # RC
    da = mx.scale(mx.matmul(masked, mx.transpose(pair.b), counters), pair.alpha, counters)  # rRC
    db = mx.scale(mx.matmul(mx.transpose(pair.a), masked, counters), pair.alpha, counters)  # rRC
    return da, db, dx


def _sqft_backward(ctx: _Context, grad_y: DenseMatrix, counters):
    _, mask, merged = ctx.saved
    return _sqft_grads(ctx, grad_y, mask.data, merged, counters)


def _sqft_gc_backward(ctx: _Context, grad_y: DenseMatrix, counters):
    """Rebuild the merged weight (rRC + RC), then run the sqft schedule over
    the layer's bool mask."""
    return _sqft_grads(ctx, grad_y, ctx.layer.original_mask,
                       _merge(ctx.layer, counters), counters)


def _lors_backward(ctx: _Context, grad_y: DenseMatrix, counters):
    """Recompute the merged weight, then rank-r reordered adapter gradients.

    dX = merged^T dY (full masked weight); dA = alpha * dY (X^T B^T) and
    dB = alpha * (A^T dY) X^T carry no mask: the straight-through estimator
    drops it from the adapter-gradient path. Costs RCL + 2rRL + 2rCL MACs for
    the products plus rRC + RC for the recompute.
    """
    pair = ctx.layer.adapter
    xt = mx.transpose(ctx.x)
    merged = _merge(ctx.layer, counters)
    dx = mx.matmul(mx.transpose(merged), grad_y, counters)                  # RCL
    xt_bt = mx.matmul(xt, mx.transpose(pair.b), counters)                   # rCL
    at_dy = mx.matmul(mx.transpose(pair.a), grad_y, counters)               # rRL
    da = mx.scale(mx.matmul(grad_y, xt_bt, counters), pair.alpha, counters)  # rRL
    db = mx.scale(mx.matmul(at_dy, xt, counters), pair.alpha, counters)      # rCL
    if FAULT_INJECTION["lors_backward_sign_flip"]:
        da = mx.scale(da, -1.0)
    return da, db, dx


def _graph_grads(tape: Tape, ids: tuple, grad_y: DenseMatrix):
    x_id, a_id, b_id, y_id = ids
    grads = tape.backward(y_id, seed=grad_y)
    return grads[a_id], grads[b_id], grads[x_id]


def _spp_backward(ctx: _Context, grad_y: DenseMatrix, counters):
    """Reverse pass of the recorded Repeat-expression graph; tallies land in
    the counters bound when the graph was recorded."""
    return _graph_grads(*ctx.graph, grad_y)


def _spp_gc_backward(ctx: _Context, grad_y: DenseMatrix, counters):
    """Replay the merged-form graph on a scratch tape, then differentiate.

    The replay (rRC + RC + RCL) plus the derived reverse pass
    (2RCL + RC + 2rRC) lands on 3RCL + 3rRC + 2RC backward MACs.
    """
    return _graph_grads(*_record_spp_gc(ctx.layer, ctx.x, counters), grad_y)


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

# variant_backward's block when the counters need no phase switch (reusable)
_NO_SWITCH = nullcontext()

_BACKWARD = {
    "lora": _lora_backward,
    "sqft": _sqft_backward,
    "sqft_gc": _sqft_gc_backward,
    "spp": _spp_backward,
    "spp_gc": _spp_gc_backward,
    "lors": _lors_backward,
}


def variant_forward(layer: AdaptedLayer, x: DenseMatrix, counters=None):
    return _FORWARD[layer.variant](layer, x, counters)


def variant_backward(layer: AdaptedLayer, grad_y: DenseMatrix, ctx, counters=None) -> VariantGrads:
    """Consume ctx once, check dY, and run the variant's backward body with
    the counters in the backward phase (switched here unless a tape backward
    already did); dbias is the row sum of dY."""
    ctx.consume()
    want = (ctx.layer.base.values.data.shape[0], ctx.x.data.shape[1])
    if grad_y.data.shape != want:
        raise ShapeError(f"gradient must be {want[0]}x{want[1]}, got {grad_y.rows}x{grad_y.cols}")
    in_phase = counters is None or counters.phase == "backward"  # e.g. in Tape.backward
    with _NO_SWITCH if in_phase else counters.backward_phase():
        da, db, dx = _BACKWARD[layer.variant](ctx, grad_y, counters)
        dbias = mx.reduce_sum_rows(grad_y, counters) if ctx.layer.bias is not None else None
    return VariantGrads(da, db, dx, dbias)


def counted_saved(layer: AdaptedLayer, ctx: _Context) -> list[DenseMatrix]:
    """The tensors a layer keeps alive between forward and backward."""
    return ctx.saved


def apply_layer(tape: Tape, layer: AdaptedLayer, x_id: int) -> int:
    """Record the layer on a model tape as one fused node.

    Inputs are (x, a, b[, bias]) so the gradient map exposes every trainable
    parameter; node ids are remembered on the layer for the optimizer.
    """
    x = tape.value(x_id)
    params = {key: tape.leaf(m, requires_grad=True, is_param=True)
              for key, m in layer.trainable().items()}
    inputs = (x_id, *params.values())
    try:
        y, ctx = variant_forward(layer, x, tape.counters)
        mx.check_finite(y.data, "output")
    except NumericError as exc:
        exc.layer = layer.name
        raise
    c = tape.counters

    def bwd(dy):
        g = variant_backward(layer, dy, ctx, c)
        return (g.dx, g.da, g.db, g.dbias)[:len(inputs)]

    y_id = tape.record(layer.variant, inputs, y, bwd, saved=ctx.saved)
    layer.last_nodes = {"in": x_id, "out": y_id, **params}
    return y_id


@dataclass
class CostPrediction:
    macs_forward: int
    macs_backward: int
    saved_elements: int


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
    "sqft_gc": lambda R, C, L, r: CostPrediction(
        R * C * L + R * C + r * R * C,
        2 * R * C * L + 3 * r * R * C + 2 * R * C,
        C * L),
    "spp": lambda R, C, L, r: CostPrediction(
        2 * R * C * L + 2 * R * C,
        3 * R * C * L + 3 * R * C,
        3 * R * C + C * L),
    "spp_gc": lambda R, C, L, r: CostPrediction(
        R * C * L + r * R * C + R * C,
        3 * R * C * L + 3 * r * R * C + 2 * R * C,
        C * L),
    "lors": lambda R, C, L, r: CostPrediction(
        R * C * L + r * R * C + R * C,
        R * C * L + 2 * r * R * L + 2 * r * C * L + r * R * C + R * C,
        C * L),
}


def predict_cost(variant: str, R: int, C: int, L: int, r: int) -> CostPrediction:
    """Evaluate the variant's cost model at a concrete shape."""
    if variant not in COST_MODELS:
        raise ArgumentError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if min(R, C, L, r) < 1:
        raise ArgumentError(f"dimensions must be positive, got {(R, C, L, r)}")
    pred = COST_MODELS[variant](R, C, L, r)
    if FAULT_INJECTION["cost_model_off_by_one"]:
        pred.macs_backward += 1
    return pred


def merge(layer: AdaptedLayer) -> SparseWeight:
    """Finalize the layer into a plain sparse weight.

    Pair variants produce W + alpha * (AB) . M with the mask captured at
    construction; spp variants produce W + delta with delta the Repeat
    expression spp_forward records, which is masked by W itself. The result's
    pattern is a subset of the original.

    The pair merge is checked for finiteness before the pruned entries are
    zeroed: an overflow of A @ B at a pruned entry gives inf * 0 = NaN, which
    the zeroing would hide from the checkpoint's own check.
    """
    if isinstance(layer.adapter, SppAdapter):
        tape = Tape()
        delta = _record_spp_delta(tape, layer)[-1]
        merged = mx.add(layer.base.values, tape.value(delta))
    else:
        merged = _merge(layer, None)
        mx.check_finite(merged.data, "merged weight")
    merged.data[~layer.original_mask] = 0.0
    return SparseWeight(merged, pattern=layer.base.pattern, ratio=layer.base.ratio)
