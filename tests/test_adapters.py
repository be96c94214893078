import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lors import adapters, matrix as mx
from lors.adapters import (
    COST_MODELS,
    FAULT_INJECTION,
    VARIANTS,
    AdaptedLayer,
    AdapterPair,
    SppAdapter,
    apply_layer,
    counted_saved,
    make_layer,
    merge,
    merged_weight,
    predict_cost,
    spp_gc_forward,
    variant_backward,
    variant_forward,
)
from lors.errors import ArgumentError, GraphError, NumericError, ShapeError
from lors.matrix import DenseMatrix, Rng
from lors.prune import SparseWeight, prune_magnitude, prune_two_four
from lors.tape import CostCounters, Tape


def random_layer(seed, variant, R, C, r, L=None, alpha=2.0, zero_frac=0.5, bias=False):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(R, C))
    flat = np.argsort(np.abs(w), axis=None)
    w.reshape(-1)[flat[: int(zero_frac * R * C)]] = 0.0
    base = SparseWeight(DenseMatrix(w))
    layer = make_layer(base, rank=r, variant=variant, alpha=alpha,
                       bias=DenseMatrix(rng.normal(size=(R, 1))) if bias else None)
    layer.adapter.a = DenseMatrix(rng.normal(size=layer.adapter.a.shape))
    layer.adapter.b = DenseMatrix(rng.normal(size=layer.adapter.b.shape))
    return layer


def forward_oracle(layer, x):
    """Direct numpy evaluation of each variant's defining expression."""
    w = layer.base.values.data
    a = layer.adapter.a.data
    b = layer.adapter.b.data
    if layer.variant == "lora":
        y = w @ x + layer.adapter.alpha * (a @ (b @ x))
    elif layer.variant in ("sqft", "sqft_gc", "lors"):
        m = layer.base.mask_bool().astype(float)
        y = (w + layer.adapter.alpha * ((a @ b) * m)) @ x
    else:  # spp family
        r = layer.adapter.rank
        tiled = w * np.tile(a, (1, w.shape[1] // r)) * np.tile(b, (w.shape[0], 1))
        y = w @ x + tiled @ x
    if layer.bias is not None:
        y = y + layer.bias.data
    return y


def test_forward_matches_defining_expressions():
    for i, variant in enumerate(VARIANTS):
        layer = random_layer(100 + i, variant, R=6, C=8, r=2, bias=(i % 2 == 0))
        x = np.random.default_rng(7 + i).normal(size=(8, 5))
        y, _ = variant_forward(layer, DenseMatrix(x))
        assert np.allclose(y.data, forward_oracle(layer, x), rtol=1e-13, atol=1e-13), variant


def test_frozen_counter_values_4_4_4_1():
    """Hand-derived tallies at R=C=L=4, r=1 for all six variants."""
    expected = {
        "lora":    (96, 128, 20),
        "sqft":    (96, 176, 48),
        "sqft_gc": (96, 208, 16),
        "spp":     (160, 240, 64),
        "spp_gc":  (96, 272, 16),
        "lors":    (96, 160, 16),
    }
    for variant, (fwd, bwd, saved) in expected.items():
        layer = random_layer(1, variant, R=4, C=4, r=1)
        x = DenseMatrix(np.random.default_rng(2).normal(size=(4, 4)))
        c = CostCounters()
        tape = Tape(c)
        x_id = tape.leaf(x, requires_grad=True)
        y_id = apply_layer(tape, layer, x_id)
        loss = tape.sum_all(y_id)
        tape.backward(loss)
        assert c.macs_forward == fwd, variant
        assert c.macs_backward == bwd, variant
        assert c.saved_elements == saved, variant


def test_lora_saved_is_rl_plus_cl_at_8_8_8_2():
    layer = random_layer(3, "lora", R=8, C=8, r=2)
    x = DenseMatrix(np.random.default_rng(4).normal(size=(8, 8)))
    c = CostCounters()
    tape = Tape(c)
    x_id = tape.leaf(x, requires_grad=True)
    apply_layer(tape, layer, x_id)
    assert c.saved_elements == 2 * 8 + 8 * 8 == 80


def test_counters_equal_cost_model_on_random_shapes():
    rng = Rng(11)
    for n in range(30):
        variant = VARIANTS[n % len(VARIANTS)]
        R = 2 + int(rng.next_u64() % 5)
        if variant in ("spp", "spp_gc"):
            r = 1 + int(rng.next_u64() % min(3, R))
            C = r * (1 + int(rng.next_u64() % 4))
        else:
            C = 2 + int(rng.next_u64() % 5)
            r = 1 + int(rng.next_u64() % min(3, R, C))
        L = 2 + int(rng.next_u64() % 5)
        layer = random_layer(n, variant, R=R, C=C, r=r)
        x = DenseMatrix(np.random.default_rng(n).normal(size=(C, L)))
        c = CostCounters()
        tape = Tape(c)
        x_id = tape.leaf(x, requires_grad=True)
        loss = tape.sum_all(apply_layer(tape, layer, x_id))
        tape.backward(loss)
        pred = predict_cost(variant, R, C, L, r)
        tag = f"{variant} R={R} C={C} L={L} r={r}"
        assert c.macs_forward == pred.macs_forward, tag
        assert c.macs_backward == pred.macs_backward, tag
        assert c.saved_elements == pred.saved_elements, tag


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_counters_equal_cost_model_on_edge_shapes(data):
    """apply_layer tallies equal predict_cost at the edge shapes: L=1,
    r=min(R, C) (r=C for spp), and R=1 or C=1; with and without a bias."""
    variant = data.draw(st.sampled_from(VARIANTS), label="variant")
    bias = data.draw(st.booleans(), label="bias")
    edge = data.draw(st.sampled_from(("L=1", "full rank", "R=1", "C=1")), label="edge")
    R = 1 if edge == "R=1" else data.draw(st.integers(1, 6), label="R")
    C = 1 if edge == "C=1" else data.draw(st.integers(1, 6), label="C")
    L = 1 if edge == "L=1" else data.draw(st.integers(1, 5), label="L")
    spp = variant in ("spp", "spp_gc")
    if edge == "full rank":
        r = C if spp else min(R, C)
    elif spp:
        r = data.draw(st.sampled_from([d for d in range(1, C + 1) if C % d == 0]), label="r")
    else:
        r = data.draw(st.integers(1, min(R, C)), label="r")
    layer = random_layer(R * 100 + C * 10 + L, variant, R=R, C=C, r=r, bias=bias)
    x = DenseMatrix(np.random.default_rng(L).normal(size=(C, L)))
    c = CostCounters()
    tape = Tape(c)
    x_id = tape.leaf(x, requires_grad=True)
    tape.backward(tape.sum_all(apply_layer(tape, layer, x_id)))
    pred = predict_cost(variant, R, C, L, r)
    assert (c.macs_forward, c.macs_backward, c.saved_elements) == (
        pred.macs_forward, pred.macs_backward, pred.saved_elements)


def fd_wrt(loss_fn, m0, h=1e-5):
    g = np.zeros_like(m0)
    for i in range(m0.shape[0]):
        for j in range(m0.shape[1]):
            p = m0.copy(); p[i, j] += h
            q = m0.copy(); q[i, j] -= h
            g[i, j] = (loss_fn(p) - loss_fn(q)) / (2 * h)
    return g


def test_backward_schedules_match_finite_differences():
    # loss = sum(Y .* G) is linear in Y, so grad_y = G exactly
    for i, variant in enumerate(VARIANTS):
        layer = random_layer(200 + i, variant, R=5, C=6, r=2, bias=True)
        if variant in ("spp", "spp_gc"):
            layer = random_layer(200 + i, variant, R=5, C=6, r=3, bias=True)
        rng = np.random.default_rng(50 + i)
        x0 = rng.normal(size=(6, 4))
        g = rng.normal(size=(5, 4))

        y, ctx = variant_forward(layer, DenseMatrix(x0))
        grads = variant_backward(layer, DenseMatrix(g), ctx)

        a0 = layer.adapter.a.data.copy()
        b0 = layer.adapter.b.data.copy()

        def loss_with(a=None, b=None, x=None):
            if a is not None:
                layer.adapter.a = DenseMatrix(a)
            if b is not None:
                layer.adapter.b = DenseMatrix(b)
            yv, _ = variant_forward(layer, DenseMatrix(x0 if x is None else x))
            layer.adapter.a = DenseMatrix(a0)
            layer.adapter.b = DenseMatrix(b0)
            return float(np.sum(yv.data * g))

        if variant == "lors":
            # straight-through: dA/dB are gradients of the unmasked surrogate
            w = layer.base.values.data
            alpha = layer.adapter.alpha

            def surrogate(a=None, b=None):
                av = a0 if a is None else a
                bv = b0 if b is None else b
                return float(np.sum(((w + alpha * (av @ bv)) @ x0) * g))

            assert np.allclose(grads.da.data, fd_wrt(surrogate, a0), rtol=1e-5, atol=1e-8)
            assert np.allclose(grads.db.data, fd_wrt(lambda b: surrogate(b=b), b0),
                               rtol=1e-5, atol=1e-8)
        else:
            assert np.allclose(grads.da.data, fd_wrt(lambda a: loss_with(a=a), a0),
                               rtol=1e-5, atol=1e-8), variant
            assert np.allclose(grads.db.data, fd_wrt(lambda b: loss_with(b=b), b0),
                               rtol=1e-5, atol=1e-8), variant
        # dX always differentiates the actual masked function
        assert np.allclose(grads.dx.data, fd_wrt(lambda x: loss_with(x=x), x0),
                           rtol=1e-5, atol=1e-8), variant
        # bias gradient is the row sum of grad_y
        assert np.allclose(grads.dbias.data, g.sum(axis=1, keepdims=True),
                           rtol=1e-13, atol=1e-13), variant


def test_masked_forwards_bitwise_identical():
    """sqft, sqft_gc, and lors share merged_weight, so outputs match bitwise."""
    for seed in range(10):
        ref = random_layer(seed, "sqft", R=5, C=7, r=2)
        x = DenseMatrix(np.random.default_rng(seed).normal(size=(7, 3)))
        outs = []
        for variant in ("sqft", "sqft_gc", "lors"):
            layer = random_layer(seed, variant, R=5, C=7, r=2)
            y, _ = variant_forward(layer, x)
            outs.append(y)
        assert mx.bitwise_equal(outs[0], outs[1])
        assert mx.bitwise_equal(outs[0], outs[2])


def test_lors_grads_bitwise_equal_sqft_with_ones_mask():
    """With an all-ones mask the STE drops nothing, and the lors rank-r
    products are evaluated in the same order as a mask-free sqft schedule."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(5, 6))  # dense: mask is all ones
        base = SparseWeight(DenseMatrix(w))
        x = DenseMatrix(rng.normal(size=(6, 4)))
        g = DenseMatrix(rng.normal(size=(5, 4)))

        lors = make_layer(base, rank=2, variant="lors")
        lors.adapter.a = DenseMatrix(rng.normal(size=(5, 2)))
        lors.adapter.b = DenseMatrix(rng.normal(size=(2, 6)))

        _, ctx = variant_forward(lors, x)
        got = variant_backward(lors, g, ctx)

        # reference products in the documented evaluation order
        alpha = lors.adapter.alpha
        xt_bt = mx.matmul(mx.transpose(x), mx.transpose(lors.adapter.b))
        da = mx.scale(mx.matmul(g, xt_bt), alpha)
        at_dy = mx.matmul(mx.transpose(lors.adapter.a), g)
        db = mx.scale(mx.matmul(at_dy, mx.transpose(x)), alpha)
        assert mx.bitwise_equal(got.da, da)
        assert mx.bitwise_equal(got.db, db)


def test_spp_repeat_vs_block_diag_form():
    for seed in range(10):
        layer = random_layer(300 + seed, "spp", R=4, C=8, r=2)
        x = DenseMatrix(np.random.default_rng(seed).normal(size=(8, 5)))
        y_rep, _ = variant_forward(layer, x)
        gc = AdaptedLayer(layer.base, layer.adapter, "spp_gc")
        y_bd, _ = spp_gc_forward(gc, x)
        assert mx.max_abs_diff(y_rep, y_bd) <= 1e-12


def test_counted_saved_matches_declared_footprint():
    shapes = dict(R=5, C=6, L=4)
    for variant, want in (("lora", 2 * 4 + 6 * 4), ("sqft", 2 * 5 * 6 + 6 * 4),
                          ("sqft_gc", 6 * 4), ("spp_gc", 6 * 4), ("lors", 6 * 4)):
        r = 2
        layer = random_layer(17, variant, R=5, C=6, r=r)
        x = DenseMatrix(np.random.default_rng(17).normal(size=(6, 4)))
        _, ctx = variant_forward(layer, x)
        total = sum(t.rows * t.cols for t in counted_saved(layer, ctx))
        assert total == want, variant
    # spp: private tape saves 3RC + CL
    layer = random_layer(18, "spp", R=5, C=6, r=2)
    x = DenseMatrix(np.random.default_rng(18).normal(size=(6, 4)))
    _, ctx = variant_forward(layer, x)
    total = sum(t.rows * t.cols for t in counted_saved(layer, ctx))
    assert total == 3 * 5 * 6 + 6 * 4


def test_context_is_single_use():
    layer = random_layer(21, "lors", R=4, C=4, r=1)
    x = DenseMatrix(np.random.default_rng(21).normal(size=(4, 3)))
    g = DenseMatrix(np.ones((4, 3)))
    _, ctx = variant_forward(layer, x)
    variant_backward(layer, g, ctx)
    with pytest.raises(GraphError):
        variant_backward(layer, g, ctx)


def test_shape_validation():
    layer = random_layer(22, "sqft", R=4, C=5, r=1)
    with pytest.raises(ShapeError):
        variant_forward(layer, DenseMatrix(np.ones((4, 3))))  # wrong input rows
    x = DenseMatrix(np.ones((5, 3)))
    _, ctx = variant_forward(layer, x)
    with pytest.raises(ShapeError):
        variant_backward(layer, DenseMatrix(np.ones((4, 2))), ctx)  # wrong L


def test_adapter_validation():
    with pytest.raises(ShapeError):
        AdapterPair(mx.zeros(4, 2), mx.zeros(3, 5))
    with pytest.raises(ArgumentError):
        AdapterPair(mx.zeros(4, 5), mx.zeros(5, 4))  # r > min(R, C)
    with pytest.raises(ArgumentError):
        AdapterPair(mx.zeros(4, 2), mx.zeros(2, 5), alpha=0.0)
    with pytest.raises(ShapeError):
        SppAdapter(mx.zeros(4, 2), mx.zeros(2, 8))  # b must be one row
    with pytest.raises(ArgumentError):
        SppAdapter(mx.zeros(4, 3), mx.zeros(1, 8))  # 3 does not divide 8
    base = SparseWeight(DenseMatrix(np.ones((4, 6))))
    with pytest.raises(ArgumentError):
        AdaptedLayer(base, AdapterPair(mx.zeros(4, 2), mx.zeros(2, 6)), "spp")
    with pytest.raises(ArgumentError):
        AdaptedLayer(base, SppAdapter(mx.zeros(4, 2), mx.zeros(1, 6)), "nope")
    with pytest.raises(ShapeError):
        AdaptedLayer(base, AdapterPair(mx.zeros(5, 2), mx.zeros(2, 6)), "lora")
    with pytest.raises(ShapeError):
        make_layer(base, rank=2, variant="lora",
                   bias=DenseMatrix(np.ones((3, 1))))


def test_merge_stays_inside_original_mask():
    for variant in VARIANTS:
        layer = random_layer(23, variant, R=6, C=8, r=2)
        merged = merge(layer)
        outside = merged.values.data[~layer.original_mask]
        assert np.all(outside == 0.0), variant


def test_merge_values_pair_variants():
    layer = random_layer(24, "lors", R=5, C=6, r=2)
    m = layer.base.mask_bool().astype(float)
    want = layer.base.values.data + layer.adapter.alpha * (
        (layer.adapter.a.data @ layer.adapter.b.data) * m)
    merged = merge(layer)
    assert np.allclose(merged.values.data, want, rtol=1e-15, atol=1e-15)
    # merged forward == adapted forward
    x = np.random.default_rng(24).normal(size=(6, 3))
    y, _ = variant_forward(layer, DenseMatrix(x))
    assert np.allclose(merged.values.data @ x, y.data, rtol=1e-13, atol=1e-13)


def test_merge_values_spp():
    layer = random_layer(25, "spp", R=4, C=8, r=2)
    w = layer.base.values.data
    tiled = w * np.tile(layer.adapter.a.data, (1, 4)) * np.tile(layer.adapter.b.data, (4, 1))
    merged = merge(layer)
    assert np.allclose(merged.values.data, w + tiled, rtol=1e-15, atol=1e-15)


def test_merge_spp_is_bitwise_the_repeat_expression():
    layer = random_layer(25, "spp", R=4, C=8, r=2)
    w = layer.base.values.data
    want = w + (w * np.tile(layer.adapter.a.data, (1, 4))) * np.tile(layer.adapter.b.data, (4, 1))
    want[~layer.original_mask] = 0.0
    got = merge(layer).values.data
    assert (~layer.original_mask).any()
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[~layer.original_mask]).any()


def test_merge_preserves_two_four():
    w = np.random.default_rng(26).normal(size=(4, 8))
    base = prune_two_four(DenseMatrix(w))
    layer = make_layer(base, rank=2, variant="lors")
    layer.adapter.a = DenseMatrix(np.random.default_rng(27).normal(size=(4, 2)))
    layer.adapter.b = DenseMatrix(np.random.default_rng(28).normal(size=(2, 8)))
    merged = merge(layer)
    assert merged.pattern == "two_four"


def test_merged_weight_helper_matches_formula():
    rng = np.random.default_rng(29)
    w = DenseMatrix(rng.normal(size=(4, 5)))
    a = DenseMatrix(rng.normal(size=(4, 2)))
    b = DenseMatrix(rng.normal(size=(2, 5)))
    m = rng.random(size=(4, 5)) > 0.5
    got = merged_weight(w, a, b, 1.5, m)
    want = w.data + 1.5 * ((a.data @ b.data) * m.astype(float))
    assert np.allclose(got.data, want, rtol=1e-15, atol=1e-15)


def test_fault_injection_sign_flip_breaks_lors():
    layer = random_layer(30, "lors", R=4, C=4, r=1)
    x = DenseMatrix(np.random.default_rng(30).normal(size=(4, 3)))
    g = DenseMatrix(np.ones((4, 3)))
    _, ctx = variant_forward(layer, x)
    clean = variant_backward(layer, g, ctx)
    FAULT_INJECTION["lors_backward_sign_flip"] = True
    try:
        _, ctx = variant_forward(layer, x)
        bad = variant_backward(layer, g, ctx)
    finally:
        FAULT_INJECTION["lors_backward_sign_flip"] = False
    assert np.allclose(bad.da.data, -clean.da.data)
    assert not np.allclose(bad.da.data, clean.da.data)


def test_fault_injection_off_by_one_breaks_cost_model():
    clean = predict_cost("lors", 4, 4, 4, 1)
    FAULT_INJECTION["cost_model_off_by_one"] = True
    try:
        bad = predict_cost("lors", 4, 4, 4, 1)
    finally:
        FAULT_INJECTION["cost_model_off_by_one"] = False
    assert bad.macs_backward == clean.macs_backward + 1


def test_predict_cost_closed_forms():
    R, C, L, r = 7, 9, 5, 3
    want = {
        "lora":    (R*C*L + r*C*L + r*R*L, R*C*L + 2*r*R*L + 2*r*C*L, r*L + C*L),
        "sqft":    (R*C*L + R*C + r*R*C, 2*R*C*L + 2*r*R*C + R*C, 2*R*C + C*L),
        "sqft_gc": (R*C*L + R*C + r*R*C, 2*R*C*L + 3*r*R*C + 2*R*C, C*L),
        "spp":     (2*R*C*L + 2*R*C, 3*R*C*L + 3*R*C, 3*R*C + C*L),
        "spp_gc":  (R*C*L + r*R*C + R*C, 3*R*C*L + 3*r*R*C + 2*R*C, C*L),
        "lors":    (R*C*L + r*R*C + R*C, R*C*L + 2*r*R*L + 2*r*C*L + r*R*C + R*C, C*L),
    }
    for variant, (f, b, s) in want.items():
        pred = predict_cost(variant, R, C, L, r)
        assert (pred.macs_forward, pred.macs_backward, pred.saved_elements) == (f, b, s), variant
    assert set(COST_MODELS) == set(VARIANTS)


def test_predict_cost_validation():
    with pytest.raises(ArgumentError):
        predict_cost("bogus", 4, 4, 4, 1)
    with pytest.raises(ArgumentError):
        predict_cost("lora", 0, 4, 4, 1)
    with pytest.raises(ArgumentError):
        predict_cost("lora", 4, 4, 4, 0)


def test_lors_costs_dominate_at_realistic_shapes():
    """Saved footprint: lors == spp_gc == CL, below every other variant; the
    backward reordering also beats sqft_gc whenever R, C >= 4r."""
    for (R, C, L, r) in ((64, 64, 32, 8), (128, 96, 16, 16), (2048, 2048, 2048, 16)):
        preds = {v: predict_cost(v, R, C, L, r) for v in VARIANTS}
        assert preds["lors"].saved_elements == C * L
        assert preds["spp_gc"].saved_elements == C * L
        for v in ("lora", "sqft", "spp"):
            assert preds["lors"].saved_elements < preds[v].saved_elements, (v, R)
        assert preds["lors"].macs_backward < preds["sqft_gc"].macs_backward
        assert preds["lors"].macs_backward < preds["spp_gc"].macs_backward


def test_direct_passes_tally_predicted_macs_and_restore_phase():
    """variant_forward then variant_backward, counters but no tape."""
    for i, variant in enumerate(VARIANTS):
        r = 3 if variant in ("spp", "spp_gc") else 2
        layer = random_layer(40 + i, variant, R=5, C=6, r=r, bias=True)
        x = DenseMatrix(np.random.default_rng(40 + i).normal(size=(6, 4)))
        c = CostCounters()
        _, ctx = variant_forward(layer, x, c)
        variant_backward(layer, DenseMatrix(np.ones((5, 4))), ctx, c)
        pred = predict_cost(variant, 5, 6, 4, r)
        assert (c.macs_forward, c.macs_backward) == (pred.macs_forward,
                                                     pred.macs_backward), variant
        assert c.phase == "forward", variant
    # the phase comes back also when the backward body raises
    layer = random_layer(47, "lora", R=5, C=6, r=2)
    _, ctx = variant_forward(layer, x, c)
    layer.adapter.a = DenseMatrix(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        variant_backward(layer, DenseMatrix(np.ones((5, 4))), ctx, c)
    assert c.phase == "forward"
    with pytest.raises(RuntimeError):
        with c.backward_phase():
            assert c.phase == "backward"
            raise RuntimeError("body failed")
    assert c.phase == "forward"


def test_apply_layer_exposes_named_nodes_and_grads():
    layer = random_layer(32, "lors", R=4, C=5, r=2, bias=True)
    x = DenseMatrix(np.random.default_rng(32).normal(size=(5, 3)))
    tape = Tape()
    x_id = tape.leaf(x, requires_grad=True)
    y_id = apply_layer(tape, layer, x_id)
    loss = tape.sum_all(y_id)
    grads = tape.backward(loss)
    nodes = layer.last_nodes
    assert {"in", "a", "b", "bias", "out"} <= set(nodes)
    # tape-level grads equal direct schedule grads with grad_y = ones
    _, ctx = variant_forward(layer, x)
    direct = variant_backward(layer, DenseMatrix(np.ones((4, 3))), ctx)
    assert mx.bitwise_equal(grads[nodes["a"]], direct.da)
    assert mx.bitwise_equal(grads[nodes["b"]], direct.db)
    assert mx.bitwise_equal(grads[nodes["bias"]], direct.dbias)
    assert mx.bitwise_equal(grads[x_id], direct.dx)


def _overflow_layer(w, a, b, alpha):
    base = SparseWeight(DenseMatrix(w))
    pair = AdapterPair(DenseMatrix(a), DenseMatrix(b), alpha=alpha)
    return AdaptedLayer(base, pair, "lors")


@pytest.mark.parametrize("w00, a0, b, alpha", [
    (1.0, 1e200, [[1e200, 0.0]], 2.0),     # A @ B overflows at a kept entry
    (1.0, 1e200, [[0.0, 1e200]], 2.0),     # ... at a pruned entry (inf * 0 = NaN)
    (1.0, 1e150, [[1e150, 0.0]], 1e10),    # alpha * masked overflows
    (1.7e308, 1e154, [[1e154, 0.0]], 1.0),  # W + alpha * masked overflows
])
def test_fused_merge_keeps_finiteness_checks(w00, a0, b, alpha):
    """The one-buffer merge raises wherever the per-op scans did, at both
    boundaries that read it: the forward and merge(), which checks before it
    zeroes the pruned entries."""
    w = np.array([[w00, 0.0], [0.0, 1.0]])
    a = np.array([[a0], [0.0]])
    layer = _overflow_layer(w, a, np.array(b), alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite merged weight"):
            merge(layer)
        with pytest.raises(NumericError, match="non-finite merged weight"):
            variant_forward(layer, DenseMatrix(np.ones((2, 1))))


def test_merged_weight_tallies_and_bool_mask_bits():
    R, C, r, alpha = 5, 7, 3, 1.5
    rng = np.random.default_rng(48)
    mask = rng.random(size=(R, C)) > 0.5
    # -0.0 at pruned entries keeps the sign of zero visible in the result
    w = DenseMatrix(np.where(mask, rng.normal(size=(R, C)), -0.0))
    a = DenseMatrix(rng.normal(size=(R, r)))
    b = DenseMatrix(rng.normal(size=(r, C)))
    fmask = mask.astype(np.float64)
    want = (w.data + alpha * ((a.data @ b.data) * fmask)).tobytes()
    old = mx.add_scaled(w, mx.hadamard(mx.matmul(a, b), DenseMatrix(fmask)), alpha)
    assert old.data.tobytes() == want
    assert merged_weight(w, a, b, alpha, mask).data.tobytes() == want
    assert merged_weight(w, a, b, alpha, fmask).data.tobytes() == want
    product = mx.matmul(a, b)
    assert (mx.hadamard_mask(product, mask).data.tobytes()
            == mx.hadamard(product, DenseMatrix(fmask)).data.tobytes())
    for backward in (False, True):
        c = CostCounters()
        if backward:
            with c.backward_phase():
                got = merged_weight(w, a, b, alpha, mask, c)
        else:
            got = merged_weight(w, a, b, alpha, mask, c)
        assert got.data.tobytes() == want
        tallies = (r * R * C + R * C, R * C)
        assert (c.macs_backward, c.elementwise_backward) == (tallies if backward else (0, 0))
        assert (c.macs_forward, c.elementwise_forward) == ((0, 0) if backward else tallies)
    with pytest.raises(ShapeError):
        merged_weight(w, a, b, alpha, mask[:, :1])


@pytest.mark.parametrize("variant", ["lors", "sqft_gc"])
@pytest.mark.parametrize("R, C, L, r, seed", [(5, 7, 3, 2, 0), (16, 12, 9, 4, 1),
                                              (64, 64, 32, 16, 2), (33, 48, 1, 8, 3)])
def test_backward_recompute_is_the_forward_merge_bitwise(monkeypatch, variant, R, C, L, r, seed):
    """The merged weight the backward rebuilds is the forward's, bit for bit,
    which is why only the forward checks it for finiteness."""
    merges = []
    real = adapters.merged_weight

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        merges.append(out.data.tobytes())
        return out

    monkeypatch.setattr(adapters, "merged_weight", spy)
    layer = random_layer(seed, variant, R, C, r, bias=True)
    rng = np.random.default_rng(seed + 100)
    x, dy = DenseMatrix(rng.normal(size=(C, L))), DenseMatrix(rng.normal(size=(R, L)))
    _, ctx = variant_forward(layer, x, CostCounters())
    variant_backward(layer, dy, ctx, CostCounters())
    assert len(merges) == 2 and merges[0] == merges[1]
    pair = layer.adapter
    assert merges[0] == real(layer.base.values, pair.a, pair.b, pair.alpha,
                             layer.original_mask).data.tobytes()


def spp_tile_oracle(layer, x, dy):
    """spp's (dA, dB, dX, dbias) and five tallies for one apply_layer pass, as
    the graph of materialized tiles gives them: delta = (W . np.tile(A)) .
    np.tile(B), each product's backward a hadamard, each tile's a block sum."""
    w, a, b = layer.base.values.data, layer.adapter.a.data, layer.adapter.b.data
    (R, C), r, L = w.shape, a.shape[1], x.shape[1]
    t1 = w * np.tile(a, (1, C // r))
    tb = np.tile(b, (R, 1))
    delta = t1 * tb
    d_delta = dy @ x.T
    da = ((d_delta * tb) * w).reshape(1, R, C // r, r).sum(axis=(0, 2))
    db = (d_delta * t1).reshape(R, 1, 1, C).sum(axis=(0, 2))
    dx = w.T @ dy + delta.T @ dy
    bias = layer.bias is not None
    dbias = dy.sum(axis=1, keepdims=True) if bias else None
    tallies = (2 * R * C * L + 2 * R * C, 3 * R * C * L + 3 * R * C, 3 * R * C + C * L,
               R * L * (1 + bias), 2 * R * C + C * L + R * L * bias)
    return (da, db, dx, dbias), tallies


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("R, C, L, r", [(4, 8, 3, 2), (7, 12, 5, 3), (16, 32, 9, 16),
                                        (9, 10, 1, 1), (64, 64, 32, 16)])
def test_spp_backward_is_bitwise_the_tiled_graph(R, C, L, r, bias):
    """spp broadcasts A over W's column groups instead of tiling it; dA, dB,
    dX, dbias and all five tallies are still those of the tiled graph."""
    layer = random_layer(R * C + r, "spp", R, C, r, bias=bias)
    rng = np.random.default_rng(L)
    x, dy = rng.normal(size=(C, L)), rng.normal(size=(R, L))
    c = CostCounters()
    tape = Tape(c)
    x_id = tape.leaf(DenseMatrix(x), requires_grad=True)
    y_id = apply_layer(tape, layer, x_id)
    grads = tape.backward(y_id, seed=DenseMatrix(dy))
    ids = layer.last_nodes
    want, tallies = spp_tile_oracle(layer, x, dy)
    got = [g.data for g in (grads[ids["a"]], grads[ids["b"]], grads[x_id])]
    got.append(grads[ids["bias"]].data if bias else None)
    for name, g, w in zip(("dA", "dB", "dX", "dbias"), got, want):
        assert (g is None) == (w is None) and (w is None or g.tobytes() == w.tobytes()), name
    assert (c.macs_forward, c.macs_backward, c.saved_elements,
            c.elementwise_forward, c.elementwise_backward) == tallies


def test_layers_over_one_base_share_its_read_only_mask():
    """Every layer over a frozen base holds the base's one bool keep-mask,
    computed when first asked for; the mask cannot be written, and merge()
    still stays inside the pattern it had when the layers were built."""
    base = random_layer(31, "lors", R=6, C=8, r=2).base
    layers = [make_layer(base, rank=2, variant=v) for v in VARIANTS]
    mask = base.mask_bool()
    assert np.array_equal(mask, base.values.data != 0.0)
    assert base.mask_bool() is mask
    for layer in layers:
        assert np.shares_memory(layer.original_mask, mask), layer.variant
    with pytest.raises(ValueError):
        mask[0, 0] = not mask[0, 0]
    assert np.array_equal(mask, base.values.data != 0.0)
    assert np.array_equal(base.mask().data, mask.astype(np.float64))
    for layer in layers:
        layer.adapter.a = DenseMatrix(np.random.default_rng(32).normal(size=layer.adapter.a.shape))
        layer.adapter.b = DenseMatrix(np.random.default_rng(33).normal(size=layer.adapter.b.shape))
    kept = np.argwhere(mask)[0]
    base.values.data[tuple(kept)] = 0.0  # a kept weight lands on exact zero
    for layer in layers:
        merged = merge(layer).values.data
        assert np.all(merged[~mask] == 0.0), layer.variant
        assert np.array_equal(layer.original_mask, mask), layer.variant
