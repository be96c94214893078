"""Adapter initialization: zeros, seeded random, and gradient-SVD.

Gradient-SVD sets each layer's B to the top-r right singular vectors of that
layer's first-step weight gradient dW = dY X^T (A stays zero). Among all
rank-r row spaces this minimizes ||dW - dW B^T B||_F, so the very first
optimizer step moves the merged weight as close as a rank-r update can get to
the full-gradient step. Layers are processed one at a time and each dW is
released before the next is formed, so at most one dense R x C gradient is
alive on top of the recorded activations; ``MemoryGauge`` instruments that
claim.

dW is the raw output gradient: it has rank at most L (the probe width),
whereas dW . M would not be low rank.

``record_loss`` is the one loss in the package: training, evaluation, the
gradient-SVD probe, and ``first_step_update_check`` all record it on a tape,
and dLoss/dY comes from the tape's reverse pass.

``first_step_update_check`` verifies the motivating identity empirically:
with A = 0, one gradient step of rate lr moves the merged weight by
-lr * alpha^2 * dW B^T B (mask effects disregarded, exact when the base has
no zeros). The alpha^2 factor appears because the merge scales AB by alpha
and the A-gradient carries another alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ArgumentError, ShapeError, located
from . import matrix as mx
from .matrix import DenseMatrix, Rng
from .svd import SvdResult, svd
from .tape import Tape
from .adapters import (
    AdaptedLayer,
    AdapterPair,
    merge,
    variant_backward,
    variant_forward,
    zero_adapter,
)

STRATEGIES = ("zero_A_zero_B", "zero_A_random_B", "gradient_svd")

LOSS_KINDS = ("regression", "classification")


@dataclass
class InitSpec:
    """How to initialize adapter factors before training."""

    strategy: str = "zero_A_zero_B"
    seed: int = 0
    std: float = 0.02
    scale: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ArgumentError(
                f"unknown init strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if not (math.isfinite(self.std) and self.std >= 0):
            raise ArgumentError(f"std must be finite and nonnegative, got {self.std}")
        if not math.isfinite(self.scale):
            raise ArgumentError(f"scale must be finite, got {self.scale}")


@dataclass
class ProbeBatch:
    """One batch of inputs and targets for a single loss evaluation.

    ``targets`` is a matrix for regression (same column count as inputs) or an
    integer label per column for classification.
    """

    inputs: DenseMatrix
    targets: Union[DenseMatrix, np.ndarray]
    loss: str = "regression"

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ArgumentError(
                f"unknown loss {self.loss!r}, expected one of {LOSS_KINDS}"
            )
        if self.inputs.cols < 1:
            raise ArgumentError("probe batch must be nonempty")
        if self.loss == "regression":
            if not isinstance(self.targets, DenseMatrix):
                self.targets = DenseMatrix(self.targets)
            if self.targets.cols != self.inputs.cols:
                raise ShapeError(
                    f"targets have {self.targets.cols} columns, inputs {self.inputs.cols}"
                )
        else:
            self.targets = np.asarray(self.targets, dtype=np.int64).reshape(-1)
            if self.targets.shape[0] != self.inputs.cols:
                raise ShapeError(
                    f"need {self.inputs.cols} labels, got {self.targets.shape[0]}"
                )

    @property
    def size(self) -> int:
        return self.inputs.cols


def record_loss(tape: Tape, y_id: int, probe: ProbeBatch) -> int:
    """Record the probe's loss of output node y_id; returns the 1x1 loss node.

    Regression: 0.5 * sum of squared errors / L, so dY = (Y - T) / L.
    Classification: mean softmax cross-entropy over columns,
    dY = (softmax(Y) - onehot) / L.
    """
    if probe.loss == "regression":
        t_id = tape.leaf(probe.targets, name="targets")
        sq = tape.square(tape.sub(y_id, t_id))
        return tape.scale(tape.sum_all(sq), 0.5 / probe.size, name="loss")
    return tape.softmax_cross_entropy(y_id, probe.targets, name="loss")


class MemoryGauge:
    """Tracks extra dense allocations (in elements) during initialization."""

    def __init__(self):
        self.current = 0
        self.peak = 0

    def alloc(self, n: int) -> None:
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def free(self, n: int) -> None:
        self.current -= n


def fit_rank_r_rows(dw: DenseMatrix, r: int) -> DenseMatrix:
    """Best rank-r row basis for dw: the top-r right singular vectors as rows."""
    if r < 1 or r > min(dw.rows, dw.cols):
        raise ArgumentError(
            f"rank {r} must satisfy 1 <= r <= min({dw.rows}, {dw.cols})"
        )
    return _top_rows(svd(dw), r)


def _top_rows(result: SvdResult, r: int) -> DenseMatrix:
    return DenseMatrix(result.v.data[:, :r].T)


def projection_residual(dw: DenseMatrix, b: DenseMatrix) -> float:
    """||dw - dw b^T b||_F; for orthonormal rows b this is the part of dw
    outside the span."""
    projected = mx.matmul(mx.matmul(dw, mx.transpose(b)), b)
    return mx.frobenius_norm(mx.sub(dw, projected))


def singular_tail(dw: DenseMatrix, r: int) -> float:
    """sqrt(sum of squared singular values past the first r)."""
    return _tail(svd(dw).s, r)


def _tail(s: np.ndarray, r: int) -> float:
    return float(math.sqrt(float(np.sum(s[r:] ** 2))))


def init_zero_zero(layer: AdaptedLayer):
    """A = 0, B = 0; the adapter branch is exactly absent."""
    layer.adapter = zero_adapter(layer.variant, layer.out_features, layer.in_features,
                                 layer.rank, alpha=getattr(layer.adapter, "alpha", 2.0))
    return layer.adapter


def init_zero_random(layer: AdaptedLayer, seed: int, std: float):
    """A = 0, B ~ Normal(0, std) from a seeded generator."""
    adapter = init_zero_zero(layer)
    mx.fill_random_normal(adapter.b, Rng(seed), mean=0.0, std=std)
    return adapter


def init_gradient_svd(model, probe: ProbeBatch, r: int, scale: float = 1.0, *,
                      gauge: Optional[MemoryGauge] = None,
                      diagnostics: Optional[list] = None) -> list[AdapterPair]:
    """Set every layer's B from the SVD of its first-step gradient; A = 0.

    Runs one probe forward/backward with all adapters zeroed, then walks the
    layers in order: form dW = dY X^T, take the top-r right singular vectors
    as B, and drop dW before touching the next layer. When a ``diagnostics``
    list is supplied, one dict per layer records the projection residual and
    the singular tail, read off the same SVD that gave B.
    """
    layers = list(model.layers)
    for layer in layers:
        if not isinstance(layer.adapter, AdapterPair):
            raise ArgumentError(
                f"gradient_svd requires a low-rank pair adapter, layer {layer.name!r} "
                f"has {type(layer.adapter).__name__}"
            )
        if r < 1 or r > min(layer.out_features, layer.in_features):
            raise ArgumentError(
                f"rank {r} out of range for layer {layer.name!r} "
                f"({layer.out_features}x{layer.in_features})"
            )
        layer.adapter.a.data[:] = 0.0

    tape = Tape()
    loss_id = model.forward_loss(tape, probe)
    grads = tape.backward(loss_id)

    pairs = []
    for layer in layers:
        dy = grads[layer.last_nodes["out"]]
        x = tape.value(layer.last_nodes["in"])
        n_elems = layer.out_features * layer.in_features
        if gauge is not None:
            gauge.alloc(n_elems)
        dw = mx.matmul(dy, mx.transpose(x))
        with located(layer=layer.name):
            result = svd(dw)
        b = _top_rows(result, r)
        if diagnostics is not None:
            diagnostics.append({
                "layer": layer.name,
                "rows": layer.out_features,
                "cols": layer.in_features,
                "rank": r,
                "grad_norm": mx.frobenius_norm(dw),
                "projection_residual": projection_residual(dw, b),
                "singular_tail": _tail(result.s, r),
            })
        if scale != 1.0:
            b = mx.scale(b, scale)
        dw = result = None
        if gauge is not None:
            gauge.free(n_elems)
        pair = AdapterPair(a=mx.zeros(layer.out_features, r), b=b,
                           alpha=layer.adapter.alpha)
        layer.adapter = pair
        pairs.append(pair)
    return pairs


def apply_init(model, spec: InitSpec, probe: Optional[ProbeBatch] = None):
    """Dispatch an InitSpec over a model's layers."""
    if spec.strategy == "zero_A_zero_B":
        return [init_zero_zero(layer) for layer in model.layers]
    if spec.strategy == "zero_A_random_B":
        return [init_zero_random(layer, seed=spec.seed + i, std=spec.std)
                for i, layer in enumerate(model.layers)]
    if probe is None:
        raise ArgumentError("gradient_svd initialization requires a probe batch")
    ranks = {layer.rank for layer in model.layers}
    if len(ranks) != 1:
        raise ArgumentError(f"layers disagree on rank: {sorted(ranks)}")
    return init_gradient_svd(model, probe, r=ranks.pop(), scale=spec.scale)


@dataclass
class UpdateCheckReport:
    update_residual: float
    projection_residual: float
    singular_tail: float
    grad_norm: float
    loss: float


def first_step_update_check(layer: AdaptedLayer, probe: ProbeBatch,
                            lr: float) -> UpdateCheckReport:
    """Verify that one gradient step moves the merged weight by
    -lr * alpha^2 * dW B^T B.

    Works on a scratch copy (the layer is untouched). Requires A = 0, where
    the identity is exact up to mask effects; the reported update_residual is
    relative to ||dW||_F, and projection_residual / singular_tail describe how
    much of dW the rank-r row space captures.
    """
    if not isinstance(layer.adapter, AdapterPair):
        raise ArgumentError("first_step_update_check requires a low-rank pair adapter")
    if mx.max_abs_diff(layer.adapter.a, mx.zeros(layer.adapter.a.rows,
                                                 layer.adapter.a.cols)) != 0.0:
        raise ArgumentError("first_step_update_check requires A = 0")
    work = AdaptedLayer(
        base=layer.base,
        adapter=AdapterPair(a=layer.adapter.a.copy(), b=layer.adapter.b.copy(),
                            alpha=layer.adapter.alpha),
        variant=layer.variant,
        bias=layer.bias,
        name=layer.name,
    )
    alpha = work.adapter.alpha
    x = probe.inputs

    w0 = merge(work).values
    y, ctx = variant_forward(work, x)
    tape = Tape()
    y_id = tape.leaf(y, requires_grad=True)
    loss_id = record_loss(tape, y_id, probe)
    loss = float(tape.value(loss_id).data[0, 0])
    dy = tape.backward(loss_id)[y_id]
    grads = variant_backward(work, dy, ctx)

    work.adapter.a.data[:] -= lr * grads.da.data
    work.adapter.b.data[:] -= lr * grads.db.data
    w1 = merge(work).values

    dw = mx.matmul(dy, mx.transpose(x))
    b = work.adapter.b
    predicted = mx.scale(mx.matmul(mx.matmul(dw, mx.transpose(b)), b),
                         -lr * alpha * alpha)
    actual = mx.sub(w1, w0)
    grad_norm = mx.frobenius_norm(dw)
    gap = mx.frobenius_norm(mx.sub(actual, predicted))
    update_residual = 0.0 if grad_norm == 0.0 else gap / grad_norm

    r = work.rank
    return UpdateCheckReport(
        update_residual=update_residual,
        projection_residual=projection_residual(dw, b),
        singular_tail=singular_tail(dw, r),
        grad_norm=grad_norm,
        loss=loss,
    )
