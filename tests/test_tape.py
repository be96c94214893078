import gc
import sys
import weakref

import numpy as np
import pytest

from lors import adapters
from lors.adapters import VARIANTS, apply_layer, make_layer
from lors.errors import GraphError, ShapeError
from lors.matrix import DenseMatrix
from lors.prune import SparseWeight
from lors.tape import CostCounters, Tape


def fd(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of one matrix."""
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            g[i, j] = (f(xp) - f(xm)) / (2 * h)
    return g


def sq_loss(tape, y_id):
    """squared_error of y_id against fixed targets that depend only on its shape."""
    shape = tape.value(y_id).shape
    return tape.squared_error(y_id, DenseMatrix(np.sin(np.arange(np.prod(shape))).reshape(shape)))


def test_composed_graph_matches_finite_differences():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 5))
    layer = make_layer(SparseWeight(DenseMatrix(rng.normal(size=(4, 3)))), 2, "lora")
    layer.adapter.a.data[:] = rng.normal(size=(4, 2))
    layer.adapter.b.data[:] = rng.normal(size=(2, 3))

    def build(tape, xv):
        x_id = tape.leaf(DenseMatrix(xv), requires_grad=True)
        y = tape.relu(apply_layer(tape, layer, x_id))
        return x_id, sq_loss(tape, y)

    tape = Tape()
    x_id, loss_id = build(tape, x0)
    grads = tape.backward(loss_id, (x_id,))

    def f(xv):
        t = Tape()
        _, lid = build(t, xv)
        return t.value(lid).data[0, 0]

    assert np.allclose(grads[x_id].data, fd(f, x0), rtol=1e-5, atol=1e-8)


def test_every_primitive_against_finite_differences():
    rng = np.random.default_rng(1)
    a0 = rng.normal(size=(2, 6))

    cases = {
        "relu": lambda t, i: t.relu(i),
        "sum_all": lambda t, i: t.sum_all(i),
    }
    for name, op in cases.items():
        def f(av, op=op):
            t = Tape()
            i = t.leaf(DenseMatrix(av), requires_grad=True)
            out = op(t, i)
            return t.value(sq_loss(t, out)).data[0, 0]

        t = Tape()
        i = t.leaf(DenseMatrix(a0), requires_grad=True)
        out = op(t, i)
        loss = sq_loss(t, out)
        g = t.backward(loss, (i,))[i].data
        assert np.allclose(g, fd(f, a0), rtol=1e-5, atol=1e-8), name


def _sum_of(t, ids):
    """A test-local node: the sum of 1x1 nodes, each input's gradient dY."""
    value = DenseMatrix([[sum(t.value(i).data[0, 0] for i in ids)]])
    return t.record("sum", ids, value, lambda dy: (dy,) * len(ids))


def test_fan_out_gradients_sum():
    # x used three times: loss = sum(x*x) + sum(x), dL/dx = 2x + 1
    x0 = np.random.default_rng(3).normal(size=(3, 3))
    t = Tape()
    x = t.leaf(DenseMatrix(x0), requires_grad=True)
    s1 = t.record("square_sum", (x,), DenseMatrix([[np.sum(x0 * x0)]]),
                  lambda dy: (DenseMatrix(2 * x0 * dy.data[0, 0]),))
    loss = _sum_of(t, (s1, t.sum_all(x)))
    g = t.backward(loss, (x,))[x].data
    assert np.allclose(g, 2 * x0 + 1, rtol=1e-12, atol=1e-12)


def test_softmax_cross_entropy_loss_and_gradient():
    rng = np.random.default_rng(4)
    z0 = rng.normal(size=(5, 7))
    labels = rng.integers(0, 5, size=7)

    t = Tape()
    z = t.leaf(DenseMatrix(z0), requires_grad=True)
    loss_id = t.softmax_cross_entropy(z, labels)

    # oracle: mean of -log softmax picked entries
    ez = np.exp(z0 - z0.max(axis=0, keepdims=True))
    p = ez / ez.sum(axis=0, keepdims=True)
    want = -np.mean(np.log(p[labels, np.arange(7)]))
    assert abs(t.value(loss_id).data[0, 0] - want) < 1e-12

    g = t.backward(loss_id, (z,))[z].data

    def f(zv):
        t2 = Tape()
        z2 = t2.leaf(DenseMatrix(zv), requires_grad=True)
        return t2.value(t2.softmax_cross_entropy(z2, labels)).data[0, 0]

    assert np.allclose(g, fd(f, z0), rtol=1e-5, atol=1e-8)


def test_softmax_label_count_must_match():
    t = Tape()
    z = t.leaf(DenseMatrix(np.zeros((3, 4))), requires_grad=True)
    with pytest.raises(ShapeError):
        t.softmax_cross_entropy(z, np.array([0, 1]))


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def test_ops_that_save_nothing():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((3, 3))), requires_grad=True)
    t.sum_all(a)
    t.record("bare", (a,), DenseMatrix(np.ones((3, 3))), lambda dy: (dy,))
    assert t.counters.saved_elements == t.saved_ctx.peak == 0


def test_phase_routing_forward_vs_backward_macs():
    # a 2 x 3 lora layer (r = 1) over a 3 x 4 input, then the squared error
    t = Tape()
    x = t.leaf(DenseMatrix(np.ones((3, 4))), requires_grad=True)
    y = apply_layer(t, make_layer(SparseWeight(DenseMatrix(np.ones((2, 3)))), 1, "lora"), x)
    loss = t.squared_error(y, DenseMatrix(np.zeros((2, 4))))  # the square: 8 MACs
    t.backward(loss, ())
    # forward RCL + rCL + rRL = 24 + 12 + 8; backward RCL + 2rRL + 2rCL = 24 + 16 + 24
    assert t.counters.macs_forward == 44 + 8
    assert t.counters.macs_backward == 8 + 64


def test_saved_peak_is_the_forward_total():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((4, 4))), requires_grad=True)
    y = t.relu(a)       # saves the gate: 16
    loss = sq_loss(t, y)  # saves Y - T: 16
    assert t.saved_ctx.peak == t.counters.saved_elements == 32
    t.backward(loss, ())
    assert t.saved_ctx.peak == 32


def test_backward_twice_raises():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((2, 2))), requires_grad=True)
    loss = t.sum_all(a)
    t.backward(loss, ())
    with pytest.raises(GraphError):
        t.backward(loss, ())


def test_record_on_consumed_tape_raises():
    """Nothing is recorded once backward starts, so the saved total stays the peak."""
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((2, 2))), requires_grad=True)
    t.backward(sq_loss(t, a), ())
    with pytest.raises(GraphError, match="consumed tape"):
        t.relu(a)
    with pytest.raises(GraphError, match="consumed tape"):
        t.record("bogus", (a,), DenseMatrix([[1.0]]), None)
    with pytest.raises(GraphError, match="^leaf on a consumed tape$"):
        t.leaf(DenseMatrix([[1.0]]))
    assert len(t.nodes) == 2
    assert t.saved_ctx.peak == 4


def test_backward_validation():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((2, 2))), requires_grad=True)
    with pytest.raises(GraphError):
        t.backward(99, ())
    with pytest.raises(ShapeError):
        t.backward(a, ())  # 2x2 is not a scalar and no seed given
    seed = DenseMatrix(np.ones((3, 3)))
    with pytest.raises(ShapeError):
        t.backward(a, (), seed=seed)


def test_record_rejects_dangling_inputs():
    t = Tape()
    with pytest.raises(GraphError):
        t.record("bogus", (0,), DenseMatrix([[1.0]]), None)


def test_explicit_seed_propagates():
    x0 = np.random.default_rng(5).normal(size=(3, 4))
    t = Tape()
    x = t.leaf(DenseMatrix(x0), requires_grad=True)
    y = t.relu(x)
    seed = DenseMatrix(np.full((3, 4), 0.5))
    g = t.backward(y, (x,), seed=seed)[x].data
    assert np.array_equal(g, np.where(x0 > 0.0, 0.5, 0.0))


def test_grads_only_reach_nodes_that_require_them():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((2, 2))), requires_grad=True)
    b = t.leaf(DenseMatrix(np.ones((2, 2))))
    loss = _sum_of(t, (t.sum_all(t.relu(a)), t.sum_all(t.relu(b))))
    grads = t.backward(loss, (a, b))
    assert a in grads
    assert b not in grads


def test_backward_returns_exactly_the_wanted_ids_and_frees_the_rest():
    """backward returns the wanted ids that receive a gradient, bitwise those
    of a pass that keeps every gradient; every node whose closure ran has
    dropped its closure, saved tensors and value, and leaves keep theirs."""
    rng = np.random.default_rng(8)
    x0, w0, f0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 3)), rng.normal(size=(4, 4))

    def build():
        t = Tape()
        x = t.leaf(DenseMatrix(x0), requires_grad=True)
        layer = make_layer(SparseWeight(DenseMatrix(w0)), 2, "lora")
        layer.adapter.b.data[:] = 0.5
        h = t.relu(apply_layer(t, layer, x))
        frozen = t.leaf(DenseMatrix(f0))
        g = t.relu(frozen)
        hv, gv = t.value(h).data, t.value(g).data
        y = t.record("mul", (h, g), DenseMatrix(hv * gv),
                     lambda dy: (DenseMatrix(dy.data * gv), DenseMatrix(dy.data * hv)))
        return t, (x, layer.last_nodes["a"], frozen, h, y), sq_loss(t, y)

    t, ids, loss = build()
    every = t.backward(loss, range(len(t.nodes)))
    x, a, frozen, h, y = ids
    for wanted in ((), (a,), (x, h), (x, a, frozen, h, y, loss)):
        t, _, loss = build()
        grads = t.backward(loss, wanted)
        assert set(grads) == set(wanted) - {frozen}
        for i, g in grads.items():
            assert g.data.tobytes() == every[i].data.tobytes()
        for node in t.nodes:
            ran = node.inputs and node.requires_grad
            assert (node.value is None, node.backward_fn is None) == (bool(ran), True)
            assert node.saved == ()


def test_spp_layer_graphs_die_with_their_backward(monkeypatch):
    """Once the model tape's backward returns, each spp layer's saved tile(B)
    is back in the pool and referenced by nothing else (the pool, ``buf`` and
    getrefcount's argument), though the model tape itself is still
    referenced."""
    monkeypatch.setattr(adapters, "_POOL", {})
    rng = np.random.default_rng(9)
    layers = [make_layer(SparseWeight(DenseMatrix(rng.normal(size=(8, 8)))), 2, "spp")
              for _ in range(3)]
    for layer in layers:
        layer.adapter.b.data[:] = rng.normal(size=(1, 8))
    t = Tape()
    h = t.leaf(DenseMatrix(rng.normal(size=(8, 5))))
    for layer in layers:
        h = apply_layer(t, layer, h)
    tiles = [weakref.ref(s.data) for layer in layers
             for s in t.nodes[layer.last_nodes["out"]].saved
             if np.array_equal(s.data, np.tile(layer.adapter.b.data, (8, 1)))]
    assert len(tiles) == 3 and all(ref() is not None for ref in tiles)
    t.backward(t.sum_all(h), ())
    for ref in tiles:
        buf = ref()
        assert sum(p is buf for p in adapters._POOL[(8, 8)]) == 1
        assert sys.getrefcount(buf) == 3


def test_identical_graphs_give_bitwise_identical_grads():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(4, 4))
    for variant in VARIANTS:
        layer = make_layer(SparseWeight(DenseMatrix(rng.normal(size=(4, 4)))), 2, variant)
        layer.adapter.a.data[:] = rng.normal(size=layer.adapter.a.shape)
        layer.adapter.b.data[:] = rng.normal(size=layer.adapter.b.shape)

        def run():
            t = Tape()
            x = t.leaf(DenseMatrix(x0), requires_grad=True)
            y = t.relu(apply_layer(t, layer, t.relu(x)))
            return t.backward(sq_loss(t, y), (x,))[x].data

        assert np.array_equal(run(), run()), variant


_OPS = {
    "relu": lambda t, ids: t.relu(ids["a"]),
    "sum_all": lambda t, ids: t.sum_all(ids["a"]),
    "squared_error": lambda t, ids: t.squared_error(ids["a"], DenseMatrix(np.ones((2, 4)))),
    "softmax_cross_entropy": lambda t, ids: t.softmax_cross_entropy(ids["a"], [0, 1, 1, 0]),
}
# apply_layer[v] records a 3 x 2 layer of variant v on the 2 x 4 input a.
_OPS.update({
    f"apply_layer[{v}]": lambda t, ids, v=v: apply_layer(
        t, make_layer(SparseWeight(DenseMatrix(np.ones((3, 2)))), 1, v), ids["a"])
    for v in VARIANTS})


@pytest.mark.parametrize("fault", ["consumed", -1, 5])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_op_on_consumed_tape_raises_before_it_tallies(op, fault):
    """Every op, and apply_layer, fetches its inputs through one guard: on a
    consumed tape, or given an input id that names no node (-1 would index
    the last node), it raises GraphError before anything is computed,
    tallied or recorded."""
    rng = np.random.default_rng(3)
    c = CostCounters()
    t = Tape(c)
    ids = {"a": t.leaf(DenseMatrix(rng.normal(size=(2, 4))), requires_grad=True)}
    if fault == "consumed":
        _OPS[op](t, ids)  # the op works on a live tape
        t.backward(t.sum_all(ids["a"]), ())
        message = f"{op.split('[')[0]} on a consumed tape"
    else:
        ids = dict.fromkeys(ids, fault)
        message = f"{op.split('[')[0]}: dangling input id {fault}"
    before = (c.macs_forward, c.macs_backward, c.saved_elements,
              c.elementwise_forward, c.elementwise_backward, len(t.nodes), t.saved_ctx.peak)
    with pytest.raises(GraphError, match=f"^{message}$"):
        _OPS[op](t, ids)
    assert (c.macs_forward, c.macs_backward, c.saved_elements,
            c.elementwise_forward, c.elementwise_backward, len(t.nodes),
            t.saved_ctx.peak) == before


@pytest.mark.parametrize("requires_grad", [False, True])
def test_squared_error_is_the_four_op_chain(requires_grad):
    """squared_error gives the loss, the gradient, every tally and the saved
    count of scale(sum_all(square(sub(y, t))), 0.5 / L), bit for bit: the
    chain's numpy expressions and tallies, derived by hand below."""
    rng = np.random.default_rng(11)
    y0, t0 = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
    t0[0, 0] = y0[0, 0]  # a zero residual keeps the sign of zero visible
    c = CostCounters()
    tape = Tape(c)
    y = tape.leaf(DenseMatrix(y0), requires_grad=requires_grad)
    loss = tape.squared_error(y, DenseMatrix(t0))
    loss_value = tape.value(loss).data.tobytes()
    grads = tape.backward(loss, (y,))
    got = (loss_value, grads[y].data.tobytes() if requires_grad else None,
           c.macs_forward, c.macs_backward, c.elementwise_forward, c.elementwise_backward,
           c.saved_elements, tape.saved_ctx.peak)

    alpha = 0.5 / 7
    d = y0 - t0                                         # sub: 35 elementwise
    want_loss = np.array([[(d * d).sum() * alpha]])     # square 35 MACs, sum 35, scale 1
    want_grad = (np.full(d.shape, 1.0 * alpha) * d) * 2.0  # scale 1, sum 35, square 35 + 35
    fwd = (35, 35 + 35 + 1)                             # the square's MACs, elementwise
    # backward: the square's 35 MACs; saved: D for the square
    bwd, saved = ((35, 1 + 35 + 35), 35) if requires_grad else ((0, 0), 0)
    assert got == (want_loss.tobytes(), want_grad.tobytes() if requires_grad else None,
                   fwd[0], bwd[0], fwd[1], bwd[1], saved, saved)
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.squared_error(tape.leaf(DenseMatrix(y0)), DenseMatrix(t0[:, :1]))


def test_a_node_that_needs_no_gradient_saves_nothing_and_never_runs_backward():
    """The tape's requires-grad rule: a node whose inputs need no gradient
    keeps none of the tensors it was given to save, and backward never runs
    its closure, even when seeded at that node."""
    c = CostCounters()
    t = Tape(c)
    x = t.leaf(DenseMatrix(np.ones((2, 2))))
    calls = []

    def bwd(dy):
        calls.append(dy)
        return (dy,)

    big = [DenseMatrix(np.ones((64, 64)))] * 8
    y = t.record("frozen", (x,), DenseMatrix(np.ones((2, 2))), bwd, saved=big)
    assert (t.saved_ctx.peak, c.saved_elements) == (0, 0)
    grads = t.backward(y, (x,), seed=DenseMatrix(np.ones((2, 2))))
    assert calls == [] and x not in grads
    assert (c.macs_forward, c.macs_backward, c.saved_elements, c.elementwise_forward,
            c.elementwise_backward, t.saved_ctx.peak) == (0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("a_grad, b_grad", [(False, False), (False, True),
                                            (True, False), (True, True)])
def test_a_two_input_node_needs_a_gradient_when_either_input_does(a_grad, b_grad):
    """The rule for a node of several inputs, as apply_layer records: it
    needs a gradient, keeps its saved tensors and runs its closure exactly
    when some input needs a gradient, and each such input receives one."""
    c = CostCounters()
    t = Tape(c)
    a = t.leaf(DenseMatrix(np.ones((2, 2))), requires_grad=a_grad)
    b = t.leaf(DenseMatrix(np.full((2, 2), 2.0)), requires_grad=b_grad)
    calls = []

    def bwd(dy):
        calls.append(dy)
        return (DenseMatrix(2.0 * dy.data), DenseMatrix(dy.data))

    y = t.record("pair", (a, b), DenseMatrix(np.full((2, 2), 4.0)), bwd,
                 saved=(DenseMatrix(np.ones((3, 3))),))
    need = a_grad or b_grad
    assert t.nodes[y].requires_grad == need
    assert t.saved_ctx.peak == c.saved_elements == 9 * need
    wanted = [i for i, flag in ((a, a_grad), (b, b_grad)) if flag]
    grads = t.backward(y, wanted, seed=DenseMatrix(np.ones((2, 2))))
    assert len(calls) == need
    assert set(grads) == set(wanted)
    if a_grad:
        assert np.array_equal(grads[a].data, np.full((2, 2), 2.0))
    if b_grad:
        assert np.array_equal(grads[b].data, np.ones((2, 2)))


@pytest.mark.parametrize("op", sorted(_OPS))
def test_tape_is_freed_by_reference_counting(op):
    """No op's backward refers back to its tape, so a step's tape and every
    RC array it holds are freed when the step drops it, not at a later pass
    of the cycle collector."""
    rng = np.random.default_rng(4)
    gc.disable()
    try:
        t = Tape()
        ids = {"a": t.leaf(DenseMatrix(rng.normal(size=(2, 4))), requires_grad=True)}
        _OPS[op](t, ids)
        tape = weakref.ref(t)
        del t
        assert tape() is None
    finally:
        gc.enable()
