"""One training step as a chain, with MAC and saved-element accounting.

A ``ToyModel`` is a strict chain: input X, layer, ReLU, layer, ..., loss.
``Tape.forward`` runs it: ``variant_forward`` per layer, the ReLU between
layers, then the loss; ``Tape.backward`` runs it back once: the loss
gradient, then per layer in reverse ``variant_backward`` and the ReLU's
Hadamard product with its gate. Each tensor is dropped after its last reader:
a layer's output Y after the ReLU (which runs in place on it) or the loss,
each layer's saved list, gate and incoming gradient after its backward.

Accounting rules (shared with the adapter layers):

- MACs: matmul m*k*n, hadamard m*n. Ops tally into macs_forward through a
  ``CostCounters`` itself and into macs_backward through its ``backward``
  view, which every backward (the loss's, each layer's, each gate's) is
  handed.
- Elementwise ops (adds, scalings, bias adds, reductions): 0 MACs, tallied
  into a separate elementwise bucket excluded from MAC comparisons.
- Saved elements: each layer's counted saved set, each ReLU's gate and the
  loss's saved tensor count rows*cols. All of them are live at the end of
  the forward pass, so the forward's total is the step's peak. Parameter
  tensors (frozen base weights, adapter factors, biases) are not counted:
  they are resident for the optimizer regardless, so saving them costs no
  extra memory. Only genuinely materialized activations and intermediates
  count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GraphError, NumericError, ShapeError
from . import matrix as mx
from .matrix import DenseMatrix
from .adapters import variant_backward, variant_forward


@dataclass
class CostCounters:
    """Cumulative cost tallies; a fresh ``CostCounters()`` starts at zero.

    Ops handed the counters tally into the forward buckets; ops handed
    ``backward``, a view with the same two methods, tally into the backward
    buckets. Nothing is switched, so nothing has to be restored."""

    macs_forward: int = 0
    macs_backward: int = 0
    saved_elements: int = 0
    elementwise_forward: int = 0
    elementwise_backward: int = 0

    def add_macs(self, n: int) -> None:
        self.macs_forward += n

    def add_elementwise(self, n: int) -> None:
        self.elementwise_forward += n

    @property
    def backward(self) -> "CostCounters._Backward":
        return CostCounters._Backward(self)

    class _Backward:
        """The backward buckets of one ``CostCounters``."""

        __slots__ = ("counters",)

        def __init__(self, counters: "CostCounters"):
            self.counters = counters

        def add_macs(self, n: int) -> None:
            self.counters.macs_backward += n

        def add_elementwise(self, n: int) -> None:
            self.counters.elementwise_backward += n


class SavedContext:
    """The elements a step saved for backward, as a running total, which is
    the peak (see the module docstring)."""

    __slots__ = ("peak",)

    def __init__(self):
        self.peak = 0


def loss_forward(y: DenseMatrix, probe, counters=None, layer: Optional[str] = None):
    """The probe's loss of the outputs Y, and the tensor its gradient reads.

    Regression: 0.5 * sum((Y - T)^2) / L, saving D = Y - T; RL elementwise
    for D, RL MACs for the square, RL + 1 elementwise for the sum and the
    scaling. Classification: the mean softmax cross-entropy over the columns
    of K x L logits with labels in [0, K), saving the K x L probabilities;
    3KL elementwise; a label count other than L, or a label outside [0, K),
    raises ShapeError. With
    ``layer`` (the name of the layer that gave Y), a non-finite loss raises
    NumericError naming it.
    """
    if probe.loss == "regression":
        saved = mx.sub(y, probe.targets, counters).data
        if counters is not None:
            counters.add_macs(saved.size)                 # the square
            counters.add_elementwise(saved.size + 1)      # the sum and the scaling
        loss = float(np.add.reduce(saved * saved, axis=None) * (0.5 / saved.shape[1]))
    else:
        z = y.data
        if probe.targets.shape != (z.shape[1],):
            raise ShapeError(f"need {z.shape[1]} labels for {z.shape[0]}x{z.shape[1]} logits, "
                             f"got {probe.targets.shape}")
        lo, hi = probe.targets.min(), probe.targets.max()
        if lo < 0 or hi >= z.shape[0]:
            raise ShapeError(f"label {lo if lo < 0 else hi} is outside [0, {z.shape[0]}) "
                             f"for {z.shape[0]}x{z.shape[1]} logits")
        ez = np.exp(z - z.max(axis=0, keepdims=True))
        saved = ez / ez.sum(axis=0, keepdims=True)
        if counters is not None:
            counters.add_elementwise(3 * z.size)
        picked = saved[probe.targets, np.arange(z.shape[1])]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    if layer is not None and not math.isfinite(loss):
        exc = NumericError("non-finite loss")
        exc.layer = layer
        raise exc
    return loss, saved


def loss_backward(saved: np.ndarray, probe, counters=None) -> DenseMatrix:
    """dLoss/dY, built in place over ``loss_forward``'s saved tensor, which
    nothing may read afterwards. Regression: dY = 2 * (D * (0.5 / L)), RL
    MACs and 2RL + 1 elementwise; classification: dY = (P - onehot) / L, KL
    elementwise."""
    n = saved.shape[1]
    if probe.loss == "regression":
        if counters is not None:
            counters.add_elementwise(1 + 2 * saved.size)
            counters.add_macs(saved.size)
        saved *= 0.5 / n
        saved *= 2.0
    else:
        if counters is not None:
            counters.add_elementwise(saved.size)
        saved[probe.targets, np.arange(n)] -= 1.0
        saved *= 1.0 / n
    return DenseMatrix._wrap(saved)


class Tape:
    """One step of a chain of adapted layers (module docstring): ``forward``
    once, then ``backward`` once; either called again raises GraphError."""

    def __init__(self, counters: Optional[CostCounters] = None):
        self.counters = counters if counters is not None else CostCounters()
        self.saved_ctx = SavedContext()
        self._links: Optional[list] = None  # (layer, saved list, gate) per layer
        self._loss = None                   # (saved tensor, probe)

    def _save(self, n: int) -> None:
        self.saved_ctx.peak += n
        self.counters.saved_elements += n

    def forward(self, layers, probe) -> float:
        """Run the layers on the probe's inputs with a ReLU between them, and
        return the probe's loss; a NumericError names the layer at fault."""
        if self._links is not None:
            raise GraphError("forward runs once per tape")
        self._links, c, y = [], self.counters, probe.inputs
        for layer in layers:
            gate = None
            if self._links:
                gate = (y.data > 0.0).astype(np.float64)
                np.maximum(y.data, 0.0, out=y.data)   # Y's last reader: the ReLU in place
                c.add_elementwise(gate.size)
                self._save(gate.size)
            y, saved = variant_forward(layer, y, c)
            for t in saved:
                self._save(t.data.size)
            self._links.append((layer, saved, gate))
        loss, saved = loss_forward(y, probe, c, layers[-1].name)
        self._save(saved.size)
        self._loss = saved, probe
        return loss

    def backward(self, io: Optional[list] = None) -> list[DenseMatrix]:
        """The parameter gradients of the forward's loss, in the order of the
        layers' ``trainable()`` (dA, dB and, with a bias, dbias, per layer).
        With a list ``io``, each layer's (X, dY) goes into it, first layer
        first, and stays alive there."""
        if self._loss is None:
            raise GraphError("backward runs once, after forward")
        (saved, probe), self._loss = self._loss, None
        links, c, grads = self._links, self.counters, []
        back = c.backward
        dy = loss_backward(saved, probe, back)
        del saved
        while links:
            layer, saved, gate = links.pop()
            if io is not None:
                io.insert(0, (saved[0], dy))      # X leads the saved list
            g = variant_backward(layer, dy, saved, c)
            grads.append((g.da, g.db) if g.dbias is None else (g.da, g.db, g.dbias))
            dy = g.dx
            if gate is not None:
                dy.data *= gate                   # IEEE products commute: the bits hold
                back.add_macs(gate.size)
        return [t for layer_grads in reversed(grads) for t in layer_grads]
