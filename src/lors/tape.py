"""Single-use reverse-mode tape with MAC and saved-element accounting.

A ``Tape`` records a forward computation as a list of nodes. Each node holds
its output value, the ids of its inputs, a backward closure, and the list of
tensors it saved for the backward pass. ``backward`` walks the nodes in
reverse recording order exactly once, accumulating gradients for every node
that participates in the loss (fan-out sums in tape order). A tape can be
differentiated once: after ``backward`` starts, ``backward``, ``record`` and
every op raise GraphError, an op before it computes or tallies anything.

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

Backward closures compute gradients only for inputs that require them, so
cost tallies respect what a given graph actually needs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, GraphError, ShapeError
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
    value: DenseMatrix
    inputs: tuple[int, ...]
    backward_fn: Optional[Callable]
    saved: tuple[DenseMatrix, ...] = ()
    requires_grad: bool = False
    is_param: bool = False


class Tape:
    """``track_saved=False`` keeps saved elements out of the counters (the
    tape still totals them): the spp and spp_gc private tapes share their
    layer's counters, and ``apply_layer``'s fused node counts their saved set
    once."""

    def __init__(self, counters: Optional[CostCounters] = None, track_saved: bool = True):
        self.counters = counters if counters is not None else CostCounters()
        self.track_saved = track_saved
        self.nodes: list[TapeNode] = []
        self.saved_ctx = SavedContext()
        self.consumed = False

    # -- construction -------------------------------------------------------

    def leaf(self, value: DenseMatrix, requires_grad: bool = False, is_param: bool = False) -> int:
        node_id = len(self.nodes)
        self.nodes.append(TapeNode(node_id, value, (), None, (), requires_grad, is_param))
        return node_id

    def _operands(self, op: str, *ids: int) -> list[TapeNode]:
        """An op's inputs; GraphError on a consumed tape or a dangling id, before any tally."""
        if self.consumed:
            raise GraphError(f"{op} on a consumed tape")
        for i in ids:
            if not 0 <= i < len(self.nodes):
                raise GraphError(f"{op}: dangling input id {i}")
        return list(map(self.nodes.__getitem__, ids))

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
        for t in saved:
            count += t.data.size
        nodes.append(TapeNode(node_id, value, inputs, backward_fn, saved, requires_grad))
        self.saved_ctx.peak += count
        if self.track_saved:
            self.counters.saved_elements += count
        return node_id

    def value(self, node_id: int) -> DenseMatrix:
        return self.nodes[node_id].value

    # -- differentiation ----------------------------------------------------

    def backward(self, loss_id: int, seed: Optional[DenseMatrix] = None) -> dict[int, DenseMatrix]:
        """Reverse pass from loss_id; returns node id -> gradient.

        Without an explicit seed the loss must be a 1x1 scalar and is seeded
        with 1.0. Each node's backward closure runs at most once; gradients
        fan in by summation in reverse tape order.
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
        grads: dict[int, DenseMatrix] = {loss_id: seed}
        with self.counters.backward_phase():
            for node in reversed(self.nodes[: loss_id + 1]):
                if node.id not in grads or node.backward_fn is None:
                    continue
                input_grads = node.backward_fn(grads[node.id])
                for inp_id, g in zip(node.inputs, input_grads):
                    if g is None:
                        continue
                    if inp_id in grads:
                        grads[inp_id] = mx.add(grads[inp_id], g, self.counters)
                    else:
                        grads[inp_id] = g
        return grads

    # -- primitive differentiable ops ----------------------------------------

    def _product(self, op: str, a_id: int, b_id: int, forward, grad_a, grad_b) -> int:
        """Record out = forward(a, b); backward gives grad_a(dy, b), grad_b(dy, a).

        The one product rule: each operand is saved when the other operand
        needs a gradient, unless it is a parameter, and the backward forms
        gradients only for inputs that need them.
        """
        a_node, b_node = self._operands(op, a_id, b_id)
        a, b = a_node.value, b_node.value
        c = self.counters
        out = forward(a, b, c)
        need_da, need_db = a_node.requires_grad, b_node.requires_grad
        saved = []
        if need_da and not b_node.is_param:
            saved.append(b)
        if need_db and not a_node.is_param:
            saved.append(a)

        def bwd(dy):
            return (grad_a(dy, b, c) if need_da else None,
                    grad_b(dy, a, c) if need_db else None)

        return self.record(op, (a_id, b_id), out, bwd, saved=saved)

    def matmul(self, a_id: int, b_id: int) -> int:
        return self._product("matmul", a_id, b_id, mx.matmul,
                             lambda dy, b, c: mx.matmul(dy, mx.transpose(b), c),
                             lambda dy, a, c: mx.matmul(mx.transpose(a), dy, c))

    def hadamard(self, a_id: int, b_id: int) -> int:
        return self._product("hadamard", a_id, b_id, mx.hadamard, mx.hadamard, mx.hadamard)

    def hadamard_tiled(self, w_id: int, a_id: int) -> int:
        """W . tile(A, 1, C/r) for R x r A; A broadcasts over W's column groups, untiled."""
        (rows, cols), (k, r) = [n.value.shape for n in self._operands("hadamard_tiled", w_id, a_id)]
        if k != rows or cols % r:
            raise ShapeError(f"hadamard_tiled: A is {k}x{r}, W is {rows}x{cols}")

        def tiled(m, a, c):  # m . tile(a): RC MACs
            c.add_macs(m.data.size)
            out = m.data.reshape(rows, -1, r) * a.data[:, None]
            return DenseMatrix._wrap(out.reshape(rows, cols))

        def group_sum(dy, w, c):  # dA = dY . W summed over the groups: + RC elementwise
            c.add_elementwise(dy.data.size)
            return DenseMatrix._wrap(mx.hadamard(dy, w, c).data.reshape(rows, -1, r).sum(axis=1))

        return self._product("hadamard_tiled", w_id, a_id, tiled, tiled, group_sum)

    def add(self, a_id: int, b_id: int) -> int:
        a_node, b_node = self._operands("add", a_id, b_id)
        out = mx.add(a_node.value, b_node.value, self.counters)

        def bwd(dy):
            return (dy if a_node.requires_grad else None,
                    dy if b_node.requires_grad else None)

        return self.record("add", (a_id, b_id), out, bwd)

    def sub(self, a_id: int, b_id: int) -> int:
        a_node, b_node = self._operands("sub", a_id, b_id)
        out = mx.sub(a_node.value, b_node.value, self.counters)
        c = self.counters

        def bwd(dy):
            da = dy if a_node.requires_grad else None
            db = mx.scale(dy, -1.0, c) if b_node.requires_grad else None
            return (da, db)

        return self.record("sub", (a_id, b_id), out, bwd)

    def scale(self, a_id: int, alpha: float) -> int:
        a_node, = self._operands("scale", a_id)
        out = mx.scale(a_node.value, alpha, self.counters)
        c = self.counters

        def bwd(dy):
            return (mx.scale(dy, alpha, c) if a_node.requires_grad else None,)

        return self.record("scale", (a_id,), out, bwd)

    def square(self, a_id: int) -> int:
        """Elementwise square; saves its input once (vs twice for hadamard(a, a))."""
        a_node, = self._operands("square", a_id)
        a = a_node.value
        out = mx.hadamard(a, a, self.counters)
        saved = [a] if (a_node.requires_grad and not a_node.is_param) else []
        c = self.counters

        def bwd(dy):
            if not a_node.requires_grad:
                return (None,)
            return (mx.scale(mx.hadamard(dy, a, c), 2.0, c),)

        return self.record("square", (a_id,), out, bwd, saved=saved)

    def relu(self, a_id: int) -> int:
        a_node, = self._operands("relu", a_id)
        a = a_node.value
        out = mx.relu(a, self.counters)
        gate = DenseMatrix._wrap((a.data > 0.0).astype(np.float64))
        saved = [gate] if a_node.requires_grad else []
        c = self.counters

        def bwd(dy):
            if not a_node.requires_grad:
                return (None,)
            return (mx.hadamard(dy, gate, c),)

        return self.record("relu", (a_id,), out, bwd, saved=saved)

    def tile(self, a_id: int, rows: int, cols: int) -> int:
        """np.tile(a, (rows, cols)): out[i, j] = a[i mod m, j mod n] for m x n a.

        The backward sums the rows x cols blocks of dY (dY-sized elementwise).
        """
        if rows < 1 or cols < 1:
            raise ArgumentError(f"tile: repeats must be positive, got ({rows}, {cols})")
        a_node, = self._operands("tile", a_id)
        a = a_node.value
        out = DenseMatrix._wrap(np.tile(a.data, (rows, cols)))
        c = self.counters

        def bwd(dy):
            if not a_node.requires_grad:
                return (None,)
            c.add_elementwise(dy.rows * dy.cols)
            acc = dy.data.reshape(rows, a.rows, cols, a.cols).sum(axis=(0, 2))
            return (DenseMatrix._wrap(acc),)

        return self.record("tile", (a_id,), out, bwd)

    def block_diag_rows(self, b_id: int, r: int) -> int:
        """Scatter a 1 x C row into an r x C matrix with out[q mod r, q] = b[q].

        Column blocks of width r are then diagonal sub-blocks holding the
        corresponding segment of b. Pure data movement (0 MACs).
        """
        b_node, = self._operands("block_diag_rows", b_id)
        b = b_node.value
        if b.rows != 1:
            raise ShapeError(f"block_diag_rows: expected a 1xC row, got {b.rows}x{b.cols}")
        if b.cols % r != 0:
            raise ArgumentError(f"block_diag_rows: r={r} must divide C={b.cols}")
        cols = b.cols
        out = np.zeros((r, cols))
        idx = np.arange(cols)
        out[idx % r, idx] = b.data[0]
        c = self.counters

        def bwd(dy):
            if not b_node.requires_grad:
                return (None,)
            c.add_elementwise(r * cols)
            return (DenseMatrix._wrap(dy.data[idx % r, idx].reshape(1, cols)),)

        return self.record("block_diag_rows", (b_id,), DenseMatrix._wrap(out), bwd)

    def sum_all(self, a_id: int) -> int:
        a_node, = self._operands("sum_all", a_id)
        a = a_node.value.data
        self.counters.add_elementwise(a.size)
        out = DenseMatrix._wrap(np.array([[a.sum()]]))
        c = self.counters

        def bwd(dy):
            if not a_node.requires_grad:
                return (None,)
            c.add_elementwise(a.size)
            return (DenseMatrix._wrap(np.full(a.shape, dy.data[0, 0])),)

        return self.record("sum_all", (a_id,), out, bwd)

    def squared_error(self, y_id: int, targets: DenseMatrix) -> int:
        """0.5 * sum((Y - T)^2) / L for R x L outputs Y and fixed targets T: one
        node with the bits, tallies and saved Y - T of the op chain
        scale(sum_all(square(sub(y, t))), 0.5 / L)."""
        y_node, = self._operands("squared_error", y_id)
        c = self.counters
        diff = mx.sub(y_node.value, targets, c)
        d = diff.data
        alpha = 0.5 / d.shape[1]
        c.add_macs(d.size)                   # the square
        c.add_elementwise(d.size + 1)        # the sum and the scaling
        out = DenseMatrix._wrap(np.array([[np.add.reduce(d * d, axis=None) * alpha]]))

        def bwd(dy):
            if not y_node.requires_grad:
                return (None,)
            c.add_elementwise(1 + 2 * d.size)
            c.add_macs(d.size)
            g = d * (dy.data[0, 0] * alpha)
            g *= 2.0
            return (DenseMatrix._wrap(g),)

        saved = (diff,) if y_node.requires_grad else ()
        return self.record("squared_error", (y_id,), out, bwd, saved=saved)

    def softmax_cross_entropy(self, logits_id: int, labels: np.ndarray) -> int:
        """Mean cross-entropy over columns of K x L logits; labels in [0, K).

        Saves the K x L probability matrix for the backward pass.
        """
        logits_node, = self._operands("softmax_cross_entropy", logits_id)
        z = logits_node.value
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
        probs_m = DenseMatrix._wrap(probs)
        saved = [probs_m] if logits_node.requires_grad else []
        c = self.counters
        n = z.cols

        def bwd(dy):
            if not logits_node.requires_grad:
                return (None,)
            c.add_elementwise(z.rows * z.cols)
            g = probs.copy()
            g[labels, np.arange(n)] -= 1.0
            g *= dy.data[0, 0] / n
            return (DenseMatrix._wrap(g),)

        return self.record("softmax_cross_entropy", (logits_id,), out, bwd, saved=saved)
