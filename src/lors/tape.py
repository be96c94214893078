"""Single-use reverse-mode tape with MAC and saved-element accounting.

A ``Tape`` records a forward computation as a list of nodes. Each node holds
its output value, the ids of its inputs, a backward closure, and the list of
tensors it saved for the backward pass. ``backward`` walks the nodes in
reverse recording order exactly once (fan-out sums in tape order), returns
only the gradients it is asked for, and frees each node's closure, saved
tensors, value and gradient once its closure has run. A tape can be
differentiated once: after ``backward`` starts, ``backward``, ``record``,
``leaf`` and every op raise GraphError, an op before it computes or tallies
anything.

The requires-grad rule is stated here once: a node needs a gradient when an
input does; one that needs none saves nothing (no peak, no counters) and
``backward`` never runs its closure. An op's closure may therefore assume
its input needs a gradient.

Accounting rules (shared with the adapter layers):

- MACs: matmul m*k*n, hadamard m*n; recorded into macs_forward or
  macs_backward according to the counter's phase.
- Elementwise ops (adds, scalings, bias adds, reductions): 0 MACs, tallied
  into a separate elementwise bucket excluded from MAC comparisons.
- Saved elements: the node's saved list counts rows*cols per entry.
  Nothing is recorded once backward starts, so every saved tensor is live
  at the end of the forward pass and the tape's total is its peak.
  Parameter tensors (frozen base weights, adapter factors, biases) are
  captured by backward closures without being counted: they are resident for
  the optimizer regardless, so saving them costs no extra memory. Only
  genuinely materialized activations and intermediates count.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GraphError, ShapeError
from . import matrix as mx
from .matrix import DenseMatrix


@dataclass
class CostCounters:
    """Cumulative cost tallies; a fresh ``CostCounters()`` starts at zero."""

    macs_forward: int = 0
    macs_backward: int = 0
    saved_elements: int = 0
    elementwise_forward: int = 0
    elementwise_backward: int = 0
    phase: str = "forward"

    def add_macs(self, n: int) -> None:
        if self.phase == "forward":
            self.macs_forward += n
        else:
            self.macs_backward += n

    def add_elementwise(self, n: int) -> None:
        if self.phase == "forward":
            self.elementwise_forward += n
        else:
            self.elementwise_backward += n

    @contextmanager
    def backward_phase(self):
        """Tally into the backward buckets inside the block, then restore the
        prior phase (also when the block raises)."""
        prior, self.phase = self.phase, "backward"
        try:
            yield self
        finally:
            self.phase = prior


class SavedContext:
    """The elements a tape's nodes saved for backward, as a running total,
    which is the peak (see the module docstring)."""

    __slots__ = ("peak",)

    def __init__(self):
        self.peak = 0


@dataclass(slots=True)
class TapeNode:
    id: int
    value: Optional[DenseMatrix]  # None once its backward has run
    inputs: tuple[int, ...]
    backward_fn: Optional[Callable]
    saved: tuple[DenseMatrix, ...] = ()
    requires_grad: bool = False


class Tape:
    """The model graph of one step: leaves, ``adapters.apply_layer``'s fused
    layer nodes, ``relu`` and the losses."""

    def __init__(self, counters: Optional[CostCounters] = None):
        self.counters = counters if counters is not None else CostCounters()
        self.nodes: list[TapeNode] = []
        self.saved_ctx = SavedContext()
        self.consumed = False

    # -- construction -------------------------------------------------------

    def leaf(self, value: DenseMatrix, requires_grad: bool = False) -> int:
        if self.consumed:
            raise GraphError("leaf on a consumed tape")
        node_id = len(self.nodes)
        self.nodes.append(TapeNode(node_id, value, (), None, (), requires_grad))
        return node_id

    def _input(self, op: str, node_id: int) -> DenseMatrix:
        """An op's input value; GraphError on a consumed tape or a dangling id, before any tally."""
        if self.consumed:
            raise GraphError(f"{op} on a consumed tape")
        if not 0 <= node_id < len(self.nodes):
            raise GraphError(f"{op}: dangling input id {node_id}")
        return self.nodes[node_id].value

    def record(self, op: str, inputs, value: DenseMatrix,
               backward_fn: Optional[Callable], saved=()) -> int:
        if self.consumed:
            raise GraphError(f"record({op}) on a consumed tape")
        inputs, saved, nodes = tuple(inputs), tuple(saved), self.nodes
        node_id, requires_grad, count = len(nodes), False, 0
        for i in inputs:
            if not 0 <= i < node_id:
                raise GraphError(f"record({op}): dangling input id {i}")
            requires_grad = requires_grad or nodes[i].requires_grad
        if not requires_grad:
            backward_fn, saved = None, ()
        for t in saved:
            count += t.data.size
        nodes.append(TapeNode(node_id, value, inputs, backward_fn, saved, requires_grad))
        self.saved_ctx.peak += count
        self.counters.saved_elements += count
        return node_id

    def value(self, node_id: int) -> DenseMatrix:
        return self.nodes[node_id].value

    # -- differentiation ----------------------------------------------------

    def backward(self, loss_id: int, wanted, seed: Optional[DenseMatrix] = None) -> dict:
        """Reverse pass from loss_id; returns node id -> gradient for each id
        in ``wanted`` that receives one.

        Without an explicit seed the loss must be a 1x1 scalar and is seeded
        with 1.0. Each node's backward closure runs at most once, and never
        for a node that needs no gradient (``record`` dropped it); gradients
        fan in by summation in reverse tape order. Once a node's closure has
        run, the node drops it, its saved tensors and its value, and its
        gradient is kept only if wanted: read any value before backward.
        """
        if self.consumed:
            raise GraphError("backward on a consumed tape")
        if not (0 <= loss_id < len(self.nodes)):
            raise GraphError(f"backward: dangling loss id {loss_id}")
        loss = self.nodes[loss_id].value
        if seed is None:
            if loss.shape != (1, 1):
                raise ShapeError(f"backward: loss must be 1x1, got {loss.rows}x{loss.cols}")
            seed = DenseMatrix._wrap(np.array([[1.0]]))
        elif seed.shape != loss.shape:
            raise ShapeError(f"backward: seed shape {seed.rows}x{seed.cols} does not match "
                             f"node shape {loss.rows}x{loss.cols}")
        self.consumed = True
        wanted, kept = set(wanted), {}
        grads: dict[int, DenseMatrix] = {loss_id: seed}
        with self.counters.backward_phase():
            for node in reversed(self.nodes[: loss_id + 1]):
                dy = grads.pop(node.id, None)
                if dy is None:
                    continue
                if node.id in wanted:
                    kept[node.id] = dy
                fn = node.backward_fn
                if fn is None:
                    continue
                node.backward_fn, node.value, node.saved = None, None, ()
                for inp_id, g in zip(node.inputs, fn(dy)):
                    if g is not None:
                        grads[inp_id] = (mx.add(grads[inp_id], g, self.counters)
                                         if inp_id in grads else g)
        return kept

    # -- differentiable ops -------------------------------------------------

    def relu(self, a_id: int) -> int:
        a = self._input("relu", a_id)
        out = mx.relu(a, self.counters)
        gate = DenseMatrix._wrap((a.data > 0.0).astype(np.float64))
        c = self.counters

        def bwd(dy):
            return (mx.hadamard(dy, gate, c),)

        return self.record("relu", (a_id,), out, bwd, saved=(gate,))

    def sum_all(self, a_id: int) -> int:
        a = self._input("sum_all", a_id).data
        self.counters.add_elementwise(a.size)
        out = DenseMatrix._wrap(np.array([[a.sum()]]))
        c = self.counters

        def bwd(dy):
            c.add_elementwise(a.size)
            return (DenseMatrix._wrap(np.full(a.shape, dy.data[0, 0])),)

        return self.record("sum_all", (a_id,), out, bwd)

    def squared_error(self, y_id: int, targets: DenseMatrix) -> int:
        """0.5 * sum((Y - T)^2) / L for R x L outputs Y and fixed targets T, as
        one node that saves D = Y - T; dY = 2 * (D * (dy * 0.5 / L)).

        Forward: RL elementwise for D, RL MACs for the square, RL + 1
        elementwise for the sum and the scaling. Backward: RL MACs and
        2RL + 1 elementwise."""
        y = self._input("squared_error", y_id)
        c = self.counters
        diff = mx.sub(y, targets, c)
        d = diff.data
        alpha = 0.5 / d.shape[1]
        c.add_macs(d.size)                   # the square
        c.add_elementwise(d.size + 1)        # the sum and the scaling
        out = DenseMatrix._wrap(np.array([[np.add.reduce(d * d, axis=None) * alpha]]))

        def bwd(dy):
            c.add_elementwise(1 + 2 * d.size)
            c.add_macs(d.size)
            g = d * (dy.data[0, 0] * alpha)
            g *= 2.0
            return (DenseMatrix._wrap(g),)

        return self.record("squared_error", (y_id,), out, bwd, saved=(diff,))

    def softmax_cross_entropy(self, logits_id: int, labels: np.ndarray) -> int:
        """Mean cross-entropy over columns of K x L logits; labels in [0, K).

        Saves the K x L probability matrix for the backward pass.
        """
        z = self._input("softmax_cross_entropy", logits_id)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (z.cols,):
            raise ShapeError(
                f"softmax_cross_entropy: need {z.cols} labels for {z.rows}x{z.cols} logits, "
                f"got {labels.shape}"
            )
        shifted = z.data - z.data.max(axis=0, keepdims=True)
        ez = np.exp(shifted)
        probs = ez / ez.sum(axis=0, keepdims=True)
        self.counters.add_elementwise(3 * z.rows * z.cols)
        picked = probs[labels, np.arange(z.cols)]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
        out = DenseMatrix([[loss]])
        c = self.counters
        n = z.cols

        def bwd(dy):
            c.add_elementwise(z.rows * z.cols)
            g = probs.copy()
            g[labels, np.arange(n)] -= 1.0
            g *= dy.data[0, 0] / n
            return (DenseMatrix._wrap(g),)

        return self.record("softmax_cross_entropy", (logits_id,), out, bwd,
                           saved=(DenseMatrix._wrap(probs),))
