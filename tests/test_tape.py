import gc
import weakref

import numpy as np
import pytest

from lors.adapters import VARIANTS, apply_layer, make_layer
from lors.errors import ArgumentError, GraphError, ShapeError
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
    w = rng.normal(size=(4, 3))
    x0 = rng.normal(size=(3, 5))
    m = (rng.random(size=(4, 5)) > 0.5).astype(float)

    def build(tape, xv):
        w_id = tape.leaf(DenseMatrix(w), requires_grad=True)
        x_id = tape.leaf(DenseMatrix(xv), requires_grad=True)
        m_id = tape.leaf(DenseMatrix(m))
        y = tape.matmul(w_id, x_id)
        y = tape.relu(y)
        y = tape.hadamard(y, m_id)
        return (w_id, x_id), sq_loss(tape, y)

    tape = Tape()
    ids, loss_id = build(tape, x0)
    grads = tape.backward(loss_id, ids)

    def f(xv):
        t = Tape()
        _, lid = build(t, xv)
        return t.value(lid).data[0, 0]

    want = fd(f, x0)
    got = grads[ids[1]].data
    assert np.allclose(got, want, rtol=1e-5, atol=1e-8)


def test_every_primitive_against_finite_differences():
    rng = np.random.default_rng(1)
    a0 = rng.normal(size=(2, 6))

    cases = {
        "relu": lambda t, i: t.relu(i),
        "sum_all": lambda t, i: t.sum_all(i),
        "tile_cols": lambda t, i: t.tile(i, 1, 3),
        "tile_rows_and_cols": lambda t, i: t.tile(i, 2, 3),
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


def test_two_operand_primitives_against_finite_differences():
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(3, 4))
    for opname in ("add", "hadamard"):
        def run(av, bv):
            t = Tape()
            ia = t.leaf(DenseMatrix(av), requires_grad=True)
            ib = t.leaf(DenseMatrix(bv), requires_grad=True)
            out = getattr(t, opname)(ia, ib)
            loss = sq_loss(t, out)
            return t, ia, ib, loss

        t, ia, ib, loss = run(a0, b0)
        grads = t.backward(loss, (ia, ib))
        fa = fd(lambda av: run(av, b0)[0].value(run(av, b0)[3]).data[0, 0], a0)
        fb = fd(lambda bv: run(a0, bv)[0].value(run(a0, bv)[3]).data[0, 0], b0)
        assert np.allclose(grads[ia].data, fa, rtol=1e-5, atol=1e-8), opname
        assert np.allclose(grads[ib].data, fb, rtol=1e-5, atol=1e-8), opname


def test_fan_out_gradients_sum():
    # x used three times: loss = sum(x*x) + sum(x), dL/dx = 2x + 1
    x0 = np.random.default_rng(3).normal(size=(3, 3))
    t = Tape()
    x = t.leaf(DenseMatrix(x0), requires_grad=True)
    s1 = t.sum_all(t.hadamard(x, x))
    s2 = t.sum_all(x)
    loss = t.add(s1, s2)
    g = t.backward(loss, (x,))[x].data
    assert np.allclose(g, 2 * x0 + 1, rtol=1e-12, atol=1e-12)


def test_repeat_cols_forward_semantics():
    a = DenseMatrix(np.arange(6.0).reshape(2, 3))
    t = Tape()
    out = t.value(t.tile(t.leaf(a), 1, 4))
    assert out.shape == (2, 12)
    for q in range(12):
        assert np.array_equal(out.data[:, q], a.data[:, q % 3])


def test_repeat_rows_forward_and_backward():
    b0 = np.arange(4.0).reshape(1, 4)
    t = Tape()
    i = t.leaf(DenseMatrix(b0), requires_grad=True)
    out_id = t.tile(i, 3, 1)
    assert np.array_equal(t.value(out_id).data, np.tile(b0, (3, 1)))
    loss = sq_loss(t, out_id)
    g = t.backward(loss, (i,))[i].data

    def f(bv):
        t2 = Tape()
        i2 = t2.leaf(DenseMatrix(bv), requires_grad=True)
        return t2.value(sq_loss(t2, t2.tile(i2, 3, 1))).data[0, 0]

    assert np.allclose(g, fd(f, b0), rtol=1e-5, atol=1e-8)


def test_tile_backward_sums_blocks_and_rejects_nonpositive_repeats():
    a0 = np.arange(6.0).reshape(2, 3)
    dy0 = np.random.default_rng(7).normal(size=(6, 12))
    c = CostCounters()
    t = Tape(c)
    i = t.leaf(DenseMatrix(a0), requires_grad=True)
    out_id = t.tile(i, 3, 4)
    assert np.array_equal(t.value(out_id).data, np.tile(a0, (3, 4)))
    g = t.backward(out_id, (i,), seed=DenseMatrix(dy0))[i].data
    want = sum(dy0[2 * p:2 * p + 2, 3 * q:3 * q + 3] for p in range(3) for q in range(4))
    assert np.allclose(g, want, rtol=1e-12, atol=1e-12)
    assert (c.macs_forward, c.macs_backward) == (0, 0)
    assert c.elementwise_backward == dy0.size
    assert c.saved_elements == 0
    for rows, cols in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ArgumentError):
            t.tile(i, rows, cols)


@pytest.mark.parametrize("w_kind", ["param", "grad"])
def test_hadamard_tiled_is_the_tile_then_hadamard_chain_bitwise(w_kind):
    """W . tile(A, 1, C/r) without the tile: the product, both gradients and
    every MAC and elementwise tally are the chain hadamard(W, tile(A))'s, bit
    for bit; the chain saves the RC tile where the op saves A."""
    rng = np.random.default_rng(12)
    w0, a0, dy0 = rng.normal(size=(3, 8)), rng.normal(size=(3, 2)), rng.normal(size=(3, 8))

    def run(fused):
        c = CostCounters()
        t = Tape(c)
        w = t.leaf(DenseMatrix(w0), requires_grad=w_kind == "grad", is_param=w_kind == "param")
        a = t.leaf(DenseMatrix(a0), requires_grad=True)
        out = t.hadamard_tiled(w, a) if fused else t.hadamard(w, t.tile(a, 1, 4))
        y = t.value(out).data.tobytes()
        grads = t.backward(out, (w, a), seed=DenseMatrix(dy0))
        dw = grads[w].data.tobytes() if w_kind == "grad" else None
        return (y, dw, grads[a].data.tobytes(), c.macs_forward,
                c.macs_backward, c.elementwise_forward, c.elementwise_backward), c.saved_elements

    (fused, fused_saved), (chain, chain_saved) = run(True), run(False)
    assert fused == chain
    assert (fused_saved, chain_saved) == ((0, 0) if w_kind == "param" else (30, 48))
    t = Tape()
    w = t.leaf(DenseMatrix(w0))
    for shape in ((3, 3), (2, 2)):
        with pytest.raises(ShapeError):
            t.hadamard_tiled(w, t.leaf(DenseMatrix(rng.normal(size=shape))))


def test_block_diag_rows_scatter_and_gather():
    b0 = np.arange(1.0, 9.0).reshape(1, 8)
    t = Tape()
    i = t.leaf(DenseMatrix(b0), requires_grad=True)
    out_id = t.block_diag_rows(i, 4)
    out = t.value(out_id)
    assert out.shape == (4, 8)
    for q in range(8):
        col = out.data[:, q]
        assert col[q % 4] == b0[0, q]
        assert np.count_nonzero(col) == 1
    loss = sq_loss(t, out_id)
    g = t.backward(loss, (i,))[i].data

    def f(bv):
        t2 = Tape()
        i2 = t2.leaf(DenseMatrix(bv), requires_grad=True)
        return t2.value(sq_loss(t2, t2.block_diag_rows(i2, 4))).data[0, 0]

    assert np.allclose(g, fd(f, b0), rtol=1e-5, atol=1e-8)


def test_block_diag_rows_validation():
    t = Tape()
    row = t.leaf(DenseMatrix(np.ones((1, 6))))
    with pytest.raises(ArgumentError):
        t.block_diag_rows(row, 4)  # 4 does not divide 6
    tall = t.leaf(DenseMatrix(np.ones((2, 6))))
    with pytest.raises(ShapeError):
        t.block_diag_rows(tall, 2)


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

def test_matmul_saves_both_operands_when_both_need_grads():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((3, 4))), requires_grad=True)
    b = t.leaf(DenseMatrix(np.ones((4, 5))), requires_grad=True)
    t.matmul(a, b)
    assert t.counters.saved_elements == 3 * 4 + 4 * 5


@pytest.mark.parametrize("op", ["matmul", "hadamard"])
@pytest.mark.parametrize("a_flags", [(True, False), (True, True), (False, False)])
@pytest.mark.parametrize("b_flags", [(True, False), (True, True), (False, False)])
def test_product_rule_saves_and_differentiates_by_need(op, a_flags, b_flags):
    """An operand is saved when the other one needs a gradient, unless it is
    a parameter; gradients reach exactly the inputs that need them."""
    rng = np.random.default_rng(9)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 5) if op == "matmul" else (3, 4))
    t = Tape()
    a = t.leaf(DenseMatrix(a0), requires_grad=a_flags[0], is_param=a_flags[1])
    b = t.leaf(DenseMatrix(b0), requires_grad=b_flags[0], is_param=b_flags[1])
    y = getattr(t, op)(a, b)
    want_saved = (b0.size if a_flags[0] and not b_flags[1] else 0) \
        + (a0.size if b_flags[0] and not a_flags[1] else 0)
    assert t.counters.saved_elements == t.saved_ctx.peak == want_saved
    if not (a_flags[0] or b_flags[0]):
        return
    dy = rng.normal(size=t.value(y).shape)
    grads = t.backward(y, (a, b), seed=DenseMatrix(dy))
    assert (a in grads, b in grads) == (a_flags[0], b_flags[0])
    if op == "matmul":
        want_a, want_b = dy @ b0.T, a0.T @ dy
    else:
        want_a, want_b = dy * b0, dy * a0
    if a_flags[0]:
        assert np.array_equal(grads[a].data, want_a)
    if b_flags[0]:
        assert np.array_equal(grads[b].data, want_b)


def test_param_operands_are_never_counted():
    # da needs b, but b is a parameter: resident anyway, saves nothing
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((3, 4))), requires_grad=True)
    b = t.leaf(DenseMatrix(np.ones((4, 5))), is_param=True)
    t.matmul(a, b)
    assert t.counters.saved_elements == 0


def test_ops_that_save_nothing():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((3, 3))), requires_grad=True)
    b = t.leaf(DenseMatrix(np.ones((3, 3))), requires_grad=True)
    before = t.counters.saved_elements
    t.add(a, b)
    t.tile(a, 2, 1)
    t.sum_all(a)
    assert t.counters.saved_elements == before


def test_phase_routing_forward_vs_backward_macs():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((2, 3))), requires_grad=True)
    b = t.leaf(DenseMatrix(np.ones((3, 4))))
    y = t.matmul(a, b)          # 24 forward MACs
    loss = t.squared_error(y, DenseMatrix(np.zeros((2, 4))))  # the square: 8 forward MACs
    t.backward(loss, ())
    assert t.counters.macs_forward == 24 + 8
    # backward: dY = 2 D alpha, 8 MACs; matmul da = dy b^T -> 24
    assert t.counters.macs_backward == 8 + 24


def test_saved_peak_is_the_forward_total():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((4, 4))), requires_grad=True)
    y = t.relu(a)       # saves the gate: 16
    loss = sq_loss(t, y)  # saves Y - T: 16
    assert t.saved_ctx.peak == 32
    t.backward(loss, ())
    assert t.saved_ctx.peak == 32


def test_track_saved_false_keeps_counters_clean():
    c = CostCounters()
    t = Tape(c, track_saved=False)
    a = t.leaf(DenseMatrix(np.ones((4, 4))), requires_grad=True)
    t.relu(a)
    assert c.saved_elements == 0
    assert t.saved_ctx.peak == 16  # the tape still totals it


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
    y = t.hadamard(x, t.leaf(DenseMatrix(np.full((3, 4), 2.0))))
    seed = DenseMatrix(np.full((3, 4), 0.5))
    g = t.backward(y, (x,), seed=seed)[x].data
    assert np.allclose(g, np.full((3, 4), 1.0), atol=1e-15)


def test_grads_only_reach_nodes_that_require_them():
    t = Tape()
    a = t.leaf(DenseMatrix(np.ones((2, 2))), requires_grad=True)
    b = t.leaf(DenseMatrix(np.ones((2, 2))))
    loss = t.sum_all(t.hadamard(a, b))
    grads = t.backward(loss, (a, b))
    assert a in grads or any(k == a for k in grads)
    assert b not in grads


def test_backward_returns_exactly_the_wanted_ids_and_frees_the_rest():
    """backward returns the wanted ids that receive a gradient, bitwise those
    of a pass that keeps every gradient; every node whose closure ran has
    dropped its closure, saved tensors and value, and leaves keep theirs."""
    rng = np.random.default_rng(8)
    x0, w0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 3))

    def build():
        t = Tape()
        x = t.leaf(DenseMatrix(x0), requires_grad=True)
        w = t.leaf(DenseMatrix(w0), requires_grad=True, is_param=True)
        frozen = t.leaf(DenseMatrix(w0))
        h = t.relu(t.matmul(x, w))
        y = t.hadamard(h, t.matmul(x, frozen))
        return t, (x, w, frozen, h, y), sq_loss(t, y)

    t, ids, loss = build()
    every = t.backward(loss, range(len(t.nodes)))
    x, w, frozen, h, y = ids
    for wanted in ((), (w,), (x, h), (x, w, frozen, h, y, loss)):
        t, _, loss = build()
        grads = t.backward(loss, wanted)
        assert set(grads) == set(wanted) - {frozen}
        for i, g in grads.items():
            assert g.data.tobytes() == every[i].data.tobytes()
        for node in t.nodes:
            ran = node.inputs and node.requires_grad
            assert (node.value is None, node.backward_fn is None) == (bool(ran), True)
            assert node.saved == ()


def test_spp_layer_graphs_die_with_their_backward():
    """Once the model tape's backward returns, each spp layer's private graph
    is gone, its saved tile(B) included, though the model tape itself is
    still referenced."""
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
    assert [ref() for ref in tiles] == [None] * 3


def test_identical_graphs_give_bitwise_identical_grads():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(4, 4))

    def run():
        t = Tape()
        x = t.leaf(DenseMatrix(x0), requires_grad=True)
        y = t.hadamard(t.matmul(x, x), t.relu(x))
        return t.backward(sq_loss(t, y), (x,))[x].data

    assert np.array_equal(run(), run())


_OPS = {
    "matmul": lambda t, ids: t.matmul(ids["a"], ids["c"]),
    "hadamard": lambda t, ids: t.hadamard(ids["a"], ids["b"]),
    "add": lambda t, ids: t.add(ids["a"], ids["b"]),
    "relu": lambda t, ids: t.relu(ids["a"]),
    "tile": lambda t, ids: t.tile(ids["a"], 2, 3),
    "hadamard_tiled": lambda t, ids: t.hadamard_tiled(ids["a"], ids["q"]),
    "block_diag_rows": lambda t, ids: t.block_diag_rows(ids["r"], 2),
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
    ids = {k: t.leaf(DenseMatrix(rng.normal(size=shape)), requires_grad=True)
           for k, shape in (("a", (2, 4)), ("b", (2, 4)), ("c", (4, 2)), ("r", (1, 4)),
                             ("q", (2, 2)))}
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
    w = tape.leaf(DenseMatrix(np.eye(5)), requires_grad=requires_grad)
    y = tape.matmul(w, tape.leaf(DenseMatrix(y0)))
    loss = tape.squared_error(y, DenseMatrix(t0))
    loss_value = tape.value(loss).data.tobytes()
    grads = tape.backward(loss, (y,))
    got = (loss_value, grads[y].data.tobytes() if requires_grad else None,
           c.macs_forward, c.macs_backward, c.elementwise_forward, c.elementwise_backward,
           c.saved_elements, tape.saved_ctx.peak)

    alpha = 0.5 / 7
    d = np.eye(5) @ y0 - t0                             # sub: 35 elementwise
    want_loss = np.array([[(d * d).sum() * alpha]])     # square 35 MACs, sum 35, scale 1
    want_grad = (np.full(d.shape, 1.0 * alpha) * d) * 2.0  # scale 1, sum 35, square 35 + 35
    fwd = (5 * 5 * 7 + 35, 35 + 35 + 1)                 # matmul and square MACs, elementwise
    # backward: the square's 35 MACs and dW = dY y0^T (175); saved: y0 for dW, D for the square
    bwd, saved = ((35 + 175, 1 + 35 + 35), 35 + 35) if requires_grad else ((0, 0), 0)
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
    x = t.leaf(DenseMatrix(np.ones((2, 2))), is_param=True)
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


@pytest.mark.parametrize("op", sorted(_OPS))
def test_tape_is_freed_by_reference_counting(op):
    """No op's backward refers back to its tape, so a step's tape and every
    RC array it holds are freed when the step drops it, not at a later pass
    of the cycle collector."""
    rng = np.random.default_rng(4)
    gc.disable()
    try:
        t = Tape()
        ids = {k: t.leaf(DenseMatrix(rng.normal(size=shape)), requires_grad=True)
               for k, shape in (("a", (2, 4)), ("b", (2, 4)), ("c", (4, 2)), ("r", (1, 4)),
                                 ("q", (2, 2)))}
        _OPS[op](t, ids)
        tape = weakref.ref(t)
        del t
        assert tape() is None
    finally:
        gc.enable()
