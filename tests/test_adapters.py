import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lors import adapters, matrix as mx
from lors.adapters import (
    COST_MODELS,
    FAULT_INJECTION,
    SPP_VARIANTS,
    VARIANTS,
    AdaptedLayer,
    AdapterPair,
    SppAdapter,
    check_rank,
    counted_saved,
    make_layer,
    merge,
    predict_cost,
    spp_gc_forward,
    variant_backward,
    variant_forward,
)
from lors.errors import ArgumentError, GraphError, NumericError, ShapeError
from lors.matrix import DenseMatrix, Rng
from lors.prune import SparseWeight, prune_magnitude, prune_two_four
from lors.initialization import ProbeBatch
from lors.tape import CostCounters, Tape
from lors.train import ToyModel


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


def measured_pass(layer, x, c, dy=None):
    """One forward and backward, dY = ones by default (what ``lors bench``
    measures), with the saved set tallied into c as a training step tallies it."""
    y, saved = variant_forward(layer, x, c)
    c.saved_elements += sum(t.data.size for t in saved)
    return variant_backward(layer, mx.ones(*y.data.shape) if dy is None else dy, saved, c)


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
        "spp_gc":  (96, 208, 16),
        "lors":    (96, 160, 16),
    }
    for variant, (fwd, bwd, saved) in expected.items():
        layer = random_layer(1, variant, R=4, C=4, r=1)
        x = DenseMatrix(np.random.default_rng(2).normal(size=(4, 4)))
        c = CostCounters()
        measured_pass(layer, x, c)
        assert c.macs_forward == fwd, variant
        assert c.macs_backward == bwd, variant
        assert c.saved_elements == saved, variant


def test_lora_saved_is_rl_plus_cl_at_8_8_8_2():
    layer = random_layer(3, "lora", R=8, C=8, r=2)
    x = DenseMatrix(np.random.default_rng(4).normal(size=(8, 8)))
    c = CostCounters()
    measured_pass(layer, x, c)
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
        measured_pass(layer, x, c)
        pred = predict_cost(variant, R, C, L, r)
        tag = f"{variant} R={R} C={C} L={L} r={r}"
        assert c.macs_forward == pred.macs_forward, tag
        assert c.macs_backward == pred.macs_backward, tag
        assert c.saved_elements == pred.saved_elements, tag


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_counters_equal_cost_model_on_edge_shapes(data):
    """A layer pass's tallies equal predict_cost at the edge shapes: L=1,
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
    measured_pass(layer, x, c)
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
    """sqft, sqft_gc, and lors share _merge, so outputs match bitwise."""
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
    # spp saves tile(B), W . tile(A), delta (3RC) and X (CL)
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


@pytest.mark.parametrize("variant", ["sqft", "sqft_gc", "lors", "spp", "spp_gc"])
@pytest.mark.parametrize("R, C, L, r, seed", [(5, 8, 3, 2, 0), (64, 64, 32, 16, 2),
                                              (33, 48, 1, 8, 3)])
def test_merge_is_bitwise_the_forward_merged_weight(monkeypatch, variant, R, C, L, r, seed):
    """merge() is the merged weight the forward multiplied X by, bit for bit,
    with the pruned entries zeroed (+0.0): one _merge builds both. spp's
    forward evaluates the Repeat expression instead; its merge() is bitwise
    that of spp_gc, the same function in merged form, over the same factors."""
    layer = random_layer(seed, variant, R, C, r)
    twin = random_layer(seed, "spp_gc" if variant == "spp" else variant, R, C, r)
    x = DenseMatrix(np.random.default_rng(seed + 100).normal(size=(C, L)))
    used, real = [], mx.matmul

    def spy(a, b, *args):
        if b is x:
            used.append(a.data.tobytes())
        return real(a, b, *args)

    monkeypatch.setattr(mx, "matmul", spy)
    variant_forward(twin, x)
    monkeypatch.undo()
    want = np.frombuffer(used[0]).reshape(R, C).copy()
    want[~layer.original_mask] = 0.0
    got = merge(layer).values.data
    assert len(used) == 1 and (~layer.original_mask).any()
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


def test_pair_merge_matches_formula():
    layer = random_layer(29, "lors", R=4, C=5, r=2, alpha=1.5)
    w, a, b = layer.base.values.data, layer.adapter.a.data, layer.adapter.b.data
    got = adapters._merge(layer, None)
    want = w + 1.5 * ((a @ b) * layer.original_mask.astype(float))
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
        "spp_gc":  (R*C*L + r*R*C + R*C, 2*R*C*L + 3*r*R*C + 2*R*C, C*L),
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


def test_predict_cost_accepts_exactly_the_shapes_a_layer_can_have():
    """Over every variant, R and C in 1..5 and r in 1..6, predict_cost raises
    the error that building the layer raises, or none when the layer builds.
    The rank check they share allocates nothing when it passes: its traced
    peak is no higher than that of a function that does nothing."""
    passing = [(True, 4096, 4096, 64), (False, 4096, 4096, 64)]
    for variant in VARIANTS:
        for R in range(1, 6):
            for C in range(1, 6):
                for r in range(1, 7):
                    try:
                        make_layer(SparseWeight(DenseMatrix(np.ones((R, C)))), r, variant)
                    except ArgumentError as exc:
                        with pytest.raises(ArgumentError) as info:
                            predict_cost(variant, R, C, 3, r)
                        assert str(info.value) == str(exc), (variant, R, C, r)
                    else:
                        predict_cost(variant, R, C, 3, r)
                        passing.append((variant in SPP_VARIANTS, R, C, r))

    def traced_peak(check):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        for args in passing:
            check(*args)
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        assert traced_peak(check_rank) <= traced_peak(lambda *args: None)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rank", [0, -2])
@pytest.mark.parametrize("variant, message", [
    ("lors", r"rank {} must satisfy 1 <= r <= min\(5, 4\)"),
    ("spp", r"spp rank {} must divide the input width 4")], ids=["pair", "spp"])
def test_make_layer_rejects_a_nonpositive_rank_by_the_rank_rule(variant, message, rank):
    """A rank below 1 fails the rank rule's own check before any factor is
    allocated, for the pair and the spp family alike."""
    base = SparseWeight(DenseMatrix(np.ones((5, 4))))
    with pytest.raises(ArgumentError, match=f"^{message.format(rank)}$"):
        make_layer(base, rank, variant)


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
        assert preds["spp_gc"] == preds["sqft_gc"]


def test_direct_passes_tally_predicted_macs():
    """variant_forward then variant_backward, counters but no tape: the
    backward's ops land in the backward buckets with nothing switched, and a
    backward body that raises still empties the saved list and leaves the
    forward buckets as they were."""
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
    layer = random_layer(47, "lora", R=5, C=6, r=2)
    _, ctx = variant_forward(layer, x, c)
    forward = (c.macs_forward, c.elementwise_forward)
    layer.adapter.a = DenseMatrix(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        variant_backward(layer, DenseMatrix(np.ones((5, 4))), ctx, c)
    assert ctx == [] and (c.macs_forward, c.elementwise_forward) == forward
    with pytest.raises(GraphError):
        variant_backward(layer, DenseMatrix(np.ones((5, 4))), ctx, c)


def _overflow_layer(w, a, b, alpha, variant):
    base = SparseWeight(DenseMatrix(w))
    if variant in SPP_VARIANTS:
        return AdaptedLayer(base, SppAdapter(DenseMatrix(a), DenseMatrix(b)), variant)
    pair = AdapterPair(DenseMatrix(a), DenseMatrix(b), alpha=alpha)
    return AdaptedLayer(base, pair, variant)


@pytest.mark.parametrize("variant, w00, a0, b, alpha", [
    ("lors", 1.0, 1e200, [[1e200, 0.0]], 2.0),     # A @ B overflows at a kept entry
    ("lors", 1.0, 1e200, [[0.0, 1e200]], 2.0),     # ... at a pruned entry (inf * 0 = NaN)
    ("lors", 1.0, 1e150, [[1e150, 0.0]], 1e10),    # alpha * masked overflows
    ("lors", 1.7e308, 1e154, [[1e154, 0.0]], 1.0),  # W + alpha * masked overflows
    ("spp", 1.0, 1e200, [[0.0, 1e200]], None),     # A @ Bhat overflows at a pruned entry
    ("spp_gc", 1.0, 1e200, [[0.0, 1e200]], None),
    ("spp_gc", 1.0, 1e200, [[1e200, 0.0]], None),  # ... at a kept entry
])
def test_fused_merge_keeps_finiteness_checks(variant, w00, a0, b, alpha):
    """The one-buffer merge raises wherever the per-op scans did, at both
    boundaries that read it: the forward and merge(), which checks before it
    zeroes the pruned entries. spp's forward evaluates the Repeat expression,
    which never forms A @ Bhat, so only its merge() raises."""
    w = np.array([[w00, 0.0], [0.0, 1.0]])
    a = np.array([[a0], [0.0]])
    layer = _overflow_layer(w, a, np.array(b), alpha, variant)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite merged weight"):
            merge(layer)
        if variant != "spp":
            with pytest.raises(NumericError, match="non-finite merged weight"):
                variant_forward(layer, DenseMatrix(np.ones((2, 1))))


def test_pair_merge_tallies_and_bool_mask_bits():
    R, C, r, alpha = 5, 7, 3, 1.5
    rng = np.random.default_rng(48)
    mask = rng.random(size=(R, C)) > 0.5
    # -0.0 at pruned entries keeps the sign of zero visible in the result
    w = DenseMatrix(np.where(mask, rng.normal(size=(R, C)), -0.0))
    a = DenseMatrix(rng.normal(size=(R, r)))
    b = DenseMatrix(rng.normal(size=(r, C)))
    layer = AdaptedLayer(SparseWeight(w), AdapterPair(a, b, alpha=alpha), "lors")
    assert np.array_equal(layer.original_mask, mask)
    fmask = mask.astype(np.float64)
    want = (w.data + alpha * ((a.data @ b.data) * fmask)).tobytes()
    old = mx.add_scaled(w, DenseMatrix(mx.matmul(a, b).data * fmask), alpha)
    assert old.data.tobytes() == want
    assert adapters._merge(layer, None).data.tobytes() == want
    layer.original_mask = fmask
    assert adapters._merge(layer, None).data.tobytes() == want
    layer.original_mask = mask
    for backward in (False, True):
        c = CostCounters()
        got = adapters._merge(layer, c.backward if backward else c)
        assert got.data.tobytes() == want
        tallies = (r * R * C + R * C, R * C)
        assert (c.macs_backward, c.elementwise_backward) == (tallies if backward else (0, 0))
        assert (c.macs_forward, c.elementwise_forward) == ((0, 0) if backward else tallies)
    layer.adapter.b = DenseMatrix(b.data[:, :1])
    with pytest.raises(ShapeError):
        adapters._merge(layer, None)


@pytest.mark.parametrize("variant", ["lors", "sqft_gc"])
@pytest.mark.parametrize("R, C, L, r, seed", [(5, 7, 3, 2, 0), (16, 12, 9, 4, 1),
                                              (64, 64, 32, 16, 2), (33, 48, 1, 8, 3)])
def test_backward_recompute_is_the_forward_merge_bitwise(monkeypatch, variant, R, C, L, r, seed):
    """The merged weight the backward rebuilds is the forward's, bit for bit,
    which is why only the forward checks it for finiteness."""
    merges = []
    real = adapters._merge

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        merges.append(out.data.tobytes())
        return out

    monkeypatch.setattr(adapters, "_merge", spy)
    layer = random_layer(seed, variant, R, C, r, bias=True)
    rng = np.random.default_rng(seed + 100)
    x, dy = DenseMatrix(rng.normal(size=(C, L))), DenseMatrix(rng.normal(size=(R, L)))
    _, ctx = variant_forward(layer, x, CostCounters())
    variant_backward(layer, dy, ctx, CostCounters())
    assert len(merges) == 2 and merges[0] == merges[1]
    assert merges[0] == real(layer, None).data.tobytes()


def spp_tile_oracle(layer, x, dy):
    """spp's (dA, dB, dX, dbias) and five tallies for one measured pass, as
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
    g = measured_pass(layer, DenseMatrix(x), c, DenseMatrix(dy))
    want, tallies = spp_tile_oracle(layer, x, dy)
    got = [g.da.data, g.db.data, g.dx.data, g.dbias.data if bias else None]
    for name, g, w in zip(("dA", "dB", "dX", "dbias"), got, want):
        assert (g is None) == (w is None) and (w is None or g.tobytes() == w.tobytes()), name
    assert (c.macs_forward, c.macs_backward, c.saved_elements,
            c.elementwise_forward, c.elementwise_backward) == tallies


def spp_gc_merged_oracle(layer, x, dy):
    """spp_gc's (dA, dB, dX, dbias) and five tallies for one measured pass,
    as the merged-form graph gives them: Bhat the block-diagonal expansion of
    B, merged = W + W . (A @ Bhat), rebuilt in the backward for dX alone;
    d merged = dY X^T, d(A @ Bhat) = d merged . W, and dB the gather of
    dBhat's diagonal blocks."""
    w, a, b = layer.base.values.data, layer.adapter.a.data, layer.adapter.b.data
    (R, C), r, L = w.shape, a.shape[1], x.shape[1]
    idx = np.arange(C)
    bhat = np.zeros((r, C))
    bhat[idx % r, idx] = b[0]
    merged = w + w * (a @ bhat)
    d_product = (dy @ x.T) * w
    da = d_product @ bhat.T
    db = (a.T @ d_product)[idx % r, idx].reshape(1, C)
    dx = merged.T @ dy
    bias = layer.bias is not None
    dbias = dy.sum(axis=1, keepdims=True) if bias else None
    tallies = (r * R * C + R * C + R * C * L, 2 * R * C * L + 3 * r * R * C + 2 * R * C,
               C * L, R * C + R * L * bias, R * C + r * C + R * L * bias)
    return (da, db, dx, dbias), tallies


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("R, C, L, r", [(4, 8, 3, 2), (7, 12, 5, 3), (16, 32, 9, 16),
                                        (9, 10, 1, 1), (64, 64, 32, 16)])
def test_spp_gc_backward_is_bitwise_the_merged_graph(R, C, L, r, bias):
    """spp_gc builds the merged weight and its gradient in place; dA, dB, dX,
    dbias and all five tallies are still those of the merged-form graph."""
    layer = random_layer(R * C + r, "spp_gc", R, C, r, bias=bias)
    rng = np.random.default_rng(L)
    x, dy = rng.normal(size=(C, L)), rng.normal(size=(R, L))
    c = CostCounters()
    g = measured_pass(layer, DenseMatrix(x), c, DenseMatrix(dy))
    want, tallies = spp_gc_merged_oracle(layer, x, dy)
    got = [g.da.data, g.db.data, g.dx.data, g.dbias.data if bias else None]
    for name, g, w in zip(("dA", "dB", "dX", "dbias"), got, want):
        assert (g is None) == (w is None) and (w is None or g.tobytes() == w.tobytes()), name
    assert (c.macs_forward, c.macs_backward, c.saved_elements,
            c.elementwise_forward, c.elementwise_backward) == tallies


_SHAPES = [(4, 8, 3, 2), (7, 12, 5, 3), (16, 32, 9, 16), (9, 10, 1, 1), (64, 64, 32, 16)]


def _tallies(c):
    return (c.macs_forward, c.macs_backward, c.saved_elements,
            c.elementwise_forward, c.elementwise_backward)


@pytest.mark.parametrize("R, C, L, r", _SHAPES)
def test_spp_forward_saves_the_tiled_hadamard_bitwise(R, C, L, r):
    """spp_forward broadcasts A over W's column groups, yet the tile(B, R, 1),
    W . tile(A, 1, C/r) and delta it saves are bitwise the materialized tiles'
    products, with or without counters, and delta costs 2RC MACs."""
    layer = random_layer(R * C + r, "spp", R, C, r)
    w, a, b = layer.base.values.data, layer.adapter.a.data, layer.adapter.b.data
    x = DenseMatrix(np.random.default_rng(R + C).normal(size=(C, L)))
    w_tiled_a = w * np.tile(a, (1, C // r))
    tiled_b = np.tile(b, (R, 1))
    want = [x.data.tobytes(), tiled_b.tobytes(), w_tiled_a.tobytes(),
            (w_tiled_a * tiled_b).tobytes()]
    c = CostCounters()
    _, saved = variant_forward(layer, x, c)
    assert [t.data.tobytes() for t in saved] == want
    assert c.macs_forward == 2 * R * C * L + 2 * R * C
    _, saved = variant_forward(layer, x, None)
    assert [t.data.tobytes() for t in saved] == want


@pytest.mark.parametrize("R, C, r", [(R, C, r) for R, C, _, r in _SHAPES])
def test_spp_gc_merge_is_the_block_diagonal_merge_bitwise(R, C, r):
    """_bhat puts B[q] at (q mod r, q) and zeros elsewhere, and _merge of an
    spp_gc layer is bitwise W + W . (A @ Bhat) though it is built in A @
    Bhat's buffer (a pooled one when given), for rRC + RC MACs and RC
    elementwise."""
    layer = random_layer(R * C + r, "spp_gc", R, C, r)
    w, a, b = layer.base.values.data, layer.adapter.a.data, layer.adapter.b.data
    want_bhat = np.zeros((r, C))
    for q in range(C):
        want_bhat[q % r, q] = b[0, q]
    want_merged = (w + w * (a @ want_bhat)).tobytes()
    assert adapters._bhat(layer.adapter).data.tobytes() == want_bhat.tobytes()
    c = CostCounters()
    assert adapters._merge(layer, c).data.tobytes() == want_merged
    assert _tallies(c) == (r * R * C + R * C, 0, 0, R * C, 0)
    ws = adapters._take((R, C))
    merged = adapters._merge(layer, None, ws)
    assert merged.data is ws and merged.data.tobytes() == want_merged


def test_spp_gc_builds_bhat_once_per_pass(monkeypatch):
    """spp_gc builds Bhat once in the forward's merge and once in the
    backward, where the rebuilt merge and the product gradients share it."""
    calls = []
    real = adapters._bhat
    monkeypatch.setattr(adapters, "_bhat", lambda adapter: calls.append(1) or real(adapter))
    layer = random_layer(55, "spp_gc", R=6, C=9, r=3)
    rng = np.random.default_rng(55)
    _, ctx = variant_forward(layer, DenseMatrix(rng.normal(size=(9, 4))))
    assert len(calls) == 1
    variant_backward(layer, DenseMatrix(rng.normal(size=(6, 4))), ctx)
    assert len(calls) == 2


def pooled_alone(ref, shape):
    """True when the array behind the weakref ``ref`` is in the pool once and
    nothing else references it (the pool, ``buf`` and getrefcount's argument)."""
    buf = ref()
    return sum(p is buf for p in adapters._POOL.get(shape, [])) == 1 and sys.getrefcount(buf) == 3


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_drops_every_saved_tensor(monkeypatch, variant):
    """variant_backward hands the saved set to the variant's body and keeps
    nothing: once it returns, the saved list is empty, lora's BX is
    freed, and every saved RC tensor (sqft's two, spp's three) is back in the
    pool and referenced by nothing else. X the caller holds. The pool then
    holds each buffer the pass took once: none for lora, one for the
    recompute variants."""
    monkeypatch.setattr(adapters, "_POOL", {})
    r = 3 if variant in SPP_VARIANTS else 2
    layer = random_layer(50, variant, R=5, C=6, r=r)
    x = DenseMatrix(np.random.default_rng(50).normal(size=(6, 4)))
    _, ctx = variant_forward(layer, x)
    refs = [weakref.ref(t.data) for t in counted_saved(layer, ctx) if t is not x]
    assert len(refs) == {"lora": 1, "sqft": 2, "spp": 3}.get(variant, 0)
    variant_backward(layer, DenseMatrix(np.ones((5, 4))), ctx)
    assert ctx == []
    if variant == "lora":
        assert refs[0]() is None and adapters._POOL == {}
        return
    assert [pooled_alone(ref, (5, 6)) for ref in refs] == [True] * len(refs)
    pool = adapters._POOL[(5, 6)]
    assert len({id(buf) for buf in pool}) == len(pool) == max(len(refs), 1)


@pytest.mark.parametrize("variant", ["sqft", "sqft_gc", "spp_gc"])
def test_merged_weight_dies_before_the_adapter_grads(monkeypatch, variant):
    """The merged weight has one reader in the backward, dX = merged^T dY,
    and goes back to the pool right after it: sqft's saved copy and the merge
    sqft_gc and spp_gc rebuild are in the pool, referenced by nothing else,
    when _product_grads starts. dY X^T then takes that same buffer. The
    pool and product events show the order: (rebuild the merge,) dX reads
    it, it is given back, dY X^T overwrites it, dA and dB read that, and it
    is given back again, before sqft's float mask."""
    monkeypatch.setattr(adapters, "_POOL", {})
    r = 3 if variant in SPP_VARIANTS else 2
    layer = random_layer(51, variant, R=5, C=6, r=r)
    x = DenseMatrix(np.random.default_rng(51).normal(size=(6, 4)))
    _, ctx = variant_forward(layer, x)
    # buffers by id, in order of first appearance; all stay alive throughout
    ids = [id(t.data) for t in ctx[:0:-1]] if variant == "sqft" else []
    alone, events = [], []
    real_take, real_give = adapters._take, adapters._give
    real_grads, real_matmul = adapters._product_grads, mx.matmul

    def name(arr):
        if id(arr) not in ids:
            ids.append(id(arr))
        return str(ids.index(id(arr)))

    def spy_take(shape):
        buf = real_take(shape)
        events.append("take " + name(buf))
        return buf

    def spy_give(*arrays):
        events.append("give " + " ".join(name(arr) for arr in arrays))
        real_give(*arrays)

    def spy_grads(*args):
        alone.append(pooled_alone(weakref.ref(adapters._POOL[(5, 6)][-1]), (5, 6)))
        events.append("_product_grads")
        return real_grads(*args)

    def spy_matmul(a, b, counters=None, out=None):
        reads = [m for m in (a, b) if id(m.data) in ids or id(m.data.base) in ids]
        events.append(" ".join(["reads"] * bool(reads) + ["writes"] * (id(out) in ids)))
        return real_matmul(a, b, counters, out)

    monkeypatch.setattr(adapters, "_take", spy_take)
    monkeypatch.setattr(adapters, "_give", spy_give)
    monkeypatch.setattr(adapters, "_product_grads", spy_grads)
    monkeypatch.setattr(mx, "matmul", spy_matmul)
    variant_backward(layer, DenseMatrix(np.ones((5, 4))), ctx)
    grads = ["_product_grads", "take 0", "writes", "reads", "reads", "give 0"]
    if variant == "sqft":
        assert events == ["reads", "give 0", *grads, "give 1"]
    else:
        assert events == ["take 0", "writes", "reads", "give 0", *grads]
    assert alone == [True]


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_no_pooled_buffer_escapes_a_pass(monkeypatch, variant, bias):
    """The pool holds only transients and saved tensors whose readers have all
    run: after a direct pass and a one-layer chain step every saved RC tensor
    is in the pool, and no output, gradient, (X, dY), merge or prediction
    shares memory with a pooled buffer. merge() and predict give back every buffer they take, so
    the pool loses none. Every variant but lora uses the pool."""
    monkeypatch.setattr(adapters, "_POOL", {})
    r = 3 if variant in SPP_VARIANTS else 2
    layer = random_layer(53, variant, R=6, C=9, r=r, bias=bias)
    rng = np.random.default_rng(53)
    x, dy = DenseMatrix(rng.normal(size=(9, 4))), DenseMatrix(rng.normal(size=(6, 4)))
    y, ctx = variant_forward(layer, x, CostCounters())
    saved = [t.data for t in counted_saved(layer, ctx) if t.data.shape == (6, 9)]
    g = variant_backward(layer, dy, ctx, CostCounters())
    assert (g.dbias is not None) == bias
    kept = [y, g.da, g.db, g.dx] + ([g.dbias] if bias else [])
    tape, io = Tape(), []
    tape.forward([layer], ProbeBatch(x, dy))
    saved += [t.data for t in tape._links[0][1] if t.data.shape == (6, 9)]
    kept += tape.backward(io) + [m for pair in io for m in pair]
    assert list(adapters._POOL) == ([] if variant == "lora" else [(6, 9)])
    pool = adapters._POOL.get((6, 9), [])
    assert len(saved) == {"sqft": 4, "spp": 6}.get(variant, 0)
    assert all(any(buf is p for p in pool) for buf in saved)
    before = list(pool)
    kept += [merge(layer).values, ToyModel([layer]).predict(x)]
    assert all(any(buf is p for p in pool) for buf in before)
    assert [i for i, m in enumerate(kept)
            if any(np.shares_memory(m.data, p) for p in pool)] == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_interleaved_layers_of_one_shape_get_their_own_gradients(variant):
    """Two layers of one weight shape share one pool. Run as forward A,
    forward B, backward B, backward A, each gets bitwise the outputs and
    gradients of its own separate pass."""
    r = 3 if variant in SPP_VARIANTS else 2
    layers = [random_layer(54 + i, variant, R=6, C=9, r=r) for i in range(2)]
    rng = np.random.default_rng(54)
    xs = [DenseMatrix(rng.normal(size=(9, 4))) for _ in layers]
    dys = [DenseMatrix(rng.normal(size=(6, 4))) for _ in layers]

    def as_bytes(y, g):
        return [m.data.tobytes() for m in (y, g.da, g.db, g.dx)]

    separate = []
    for layer, x, dy in zip(layers, xs, dys):
        y, ctx = variant_forward(layer, x)
        separate.append(as_bytes(y, variant_backward(layer, dy, ctx)))
    passes = [variant_forward(layer, x) for layer, x in zip(layers, xs)]
    grads = [variant_backward(layer, dy, ctx)
             for layer, dy, (_, ctx) in reversed(list(zip(layers, dys, passes)))]
    interleaved = [as_bytes(y, g) for (y, _), g in zip(passes, reversed(grads))]
    assert interleaved == separate


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_saved_tensor_is_a_parameter(variant):
    """Parameters (W, its mask, A, B, bias) are captured by the backward,
    never saved: no counted tensor shares memory with one, so the saved count
    is activations and intermediates only."""
    r = 3 if variant in SPP_VARIANTS else 2
    layer = random_layer(52, variant, R=5, C=6, r=r, bias=True)
    x = DenseMatrix(np.random.default_rng(52).normal(size=(6, 4)))
    _, ctx = variant_forward(layer, x)
    params = [layer.base.values.data, layer.original_mask,
              *(m.data for m in layer.trainable().values())]
    for t in counted_saved(layer, ctx):
        assert not any(np.shares_memory(t.data, p) for p in params), t.shape


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
    for layer in layers:
        layer.adapter.a = DenseMatrix(np.random.default_rng(32).normal(size=layer.adapter.a.shape))
        layer.adapter.b = DenseMatrix(np.random.default_rng(33).normal(size=layer.adapter.b.shape))
    kept = np.argwhere(mask)[0]
    base.values.data[tuple(kept)] = 0.0  # a kept weight lands on exact zero
    for layer in layers:
        merged = merge(layer).values.data
        assert np.all(merged[~mask] == 0.0), layer.variant
        assert np.array_equal(layer.original_mask, mask), layer.variant
