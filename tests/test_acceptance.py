"""Release gate: one test per numbered acceptance criterion.

Each test prints a single "criterion NN PASS/FAIL" line (visible with -s, or
in the captured output on failure) and enforces the stated tolerance exactly.
Oracles here are kept local: finite differences, numpy SVD/QR, and raw
formula arithmetic, so a bug in the library cannot hide behind itself.
"""

import time

import numpy as np

from lors import matrix as mx
from lors.adapters import (
    AdaptedLayer,
    AdapterPair,
    SppAdapter,
    lors_forward,
    make_layer,
    merge,
    predict_cost,
    spp_forward,
    spp_gc_forward,
    sqft_forward,
    sqft_gc_forward,
    variant_backward,
    variant_forward,
)
from lors.initialization import (
    InitSpec,
    ProbeBatch,
    first_step_update_check,
    fit_rank_r_rows,
    projection_residual,
)
from lors.matrix import DenseMatrix
from lors.prune import SparseWeight, prune_two_four, two_four_valid
from lors.tape import CostCounters
from lors.train import (
    Dataset,
    TrainConfig,
    ToyModel,
    finetune,
    make_teacher_data,
    model_from_weights,
    random_dense_weights,
    run_recovery,
)

ALL_VARIANTS = ("lora", "sqft", "sqft_gc", "spp", "spp_gc", "lors")


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} {status}: {label}{extra}")
    assert ok, f"criterion {num}: {label}{extra}"


def pair_layer(rng, R, C, r, variant="lors", alpha=2.0, mask_p=0.5):
    """Random layer with a Bernoulli(mask_p) zero pattern on the base."""
    w = rng.standard_normal((R, C))
    if mask_p > 0.0:
        keep = rng.random((R, C)) >= mask_p
        if not keep.any():
            keep[0, 0] = True
        w = w * keep
    adapter = AdapterPair(a=DenseMatrix(rng.standard_normal((R, r))),
                          b=DenseMatrix(rng.standard_normal((r, C))),
                          alpha=alpha)
    return AdaptedLayer(SparseWeight(DenseMatrix(w)), adapter, variant)


def fd(f, arr, h=1e-5):
    """Central differences on a raw array mutated in place."""
    out = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + h
        f_plus = f()
        arr[idx] = orig - h
        f_minus = f()
        arr[idx] = orig
        out[idx] = (f_plus - f_minus) / (2.0 * h)
    return out


def test_criterion_01_gradient_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    ok_fd = True
    detail = ""
    for k in range(200):
        R, C, L = rng.integers(2, 9, size=3)
        r = int(rng.integers(1, min(3, R, C) + 1))
        layer = pair_layer(rng, R, C, r)
        x = rng.standard_normal((C, L))
        g = rng.standard_normal((R, L))
        _, ctx = variant_forward(layer, DenseMatrix(x))
        grads = variant_backward(layer, DenseMatrix(g), ctx)

        w = layer.base.values.data
        m = (w != 0.0).astype(float)
        a = layer.adapter.a.data.copy()
        b = layer.adapter.b.data.copy()
        xv = x.copy()
        alpha = layer.adapter.alpha

        # adapter grads differentiate the mask-free surrogate, dX the
        # masked expression actually evaluated in forward
        def surrogate():
            return float(np.sum(g * ((w + alpha * (a @ b)) @ xv)))

        def actual():
            return float(np.sum(g * ((w + alpha * (a @ b) * m) @ xv)))

        for got, ref in ((grads.da.data, fd(surrogate, a)),
                         (grads.db.data, fd(surrogate, b)),
                         (grads.dx.data, fd(actual, xv))):
            if not np.allclose(got, ref, rtol=1e-5, atol=1e-8):
                ok_fd = False
                detail = f"fd mismatch at instance {k}"

    # all-ones masks collapse lors, sqft, and lora onto one gradient
    worst = 0.0
    for _ in range(200):
        R, C, L = rng.integers(2, 9, size=3)
        r = int(rng.integers(1, min(3, R, C) + 1))
        dense = pair_layer(rng, R, C, r, mask_p=0.0)
        x = DenseMatrix(rng.standard_normal((C, L)))
        g = DenseMatrix(rng.standard_normal((R, L)))
        per_variant = {}
        for variant in ("lors", "sqft", "lora"):
            ly = AdaptedLayer(dense.base, dense.adapter, variant)
            _, ctx = variant_forward(ly, x)
            per_variant[variant] = variant_backward(ly, g, ctx)
        for other in ("sqft", "lora"):
            for field in ("da", "db", "dx"):
                worst = max(worst, mx.max_abs_diff(
                    getattr(per_variant["lors"], field),
                    getattr(per_variant[other], field)))
    elapsed = time.monotonic() - start
    ok = ok_fd and worst <= 1e-12 and elapsed <= 5.0
    verdict(1, "lors backward matches finite differences; all-ones mask "
               "collapses onto sqft and lora", ok,
            detail or f"worst all-ones gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_forward_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst_pair = 0.0
    worst_merge = 0.0
    for _ in range(200):
        R, C, L = rng.integers(2, 9, size=3)
        r = int(rng.integers(1, min(3, R, C) + 1))
        layer = pair_layer(rng, R, C, r)
        x = DenseMatrix(rng.standard_normal((C, L)))
        y_sqft, _ = sqft_forward(layer, x)
        y_gc, _ = sqft_gc_forward(layer, x)
        y_lors, _ = lors_forward(layer, x)
        worst_pair = max(worst_pair,
                         mx.max_abs_diff(y_sqft, y_gc),
                         mx.max_abs_diff(y_sqft, y_lors))
        y_merged = mx.matmul(merge(layer).values, x)
        worst_merge = max(worst_merge, mx.max_abs_diff(y_merged, y_lors))
    elapsed = time.monotonic() - start
    ok = worst_pair <= 1e-12 and worst_merge <= 1e-12 and elapsed <= 1.0
    verdict(2, "sqft / sqft_gc / lors forwards and the merged-weight forward "
               "agree within 1e-12", ok,
            f"pair {worst_pair:.2e}, merge {worst_merge:.2e}")


def test_criterion_03_ste_characterization():
    rng = np.random.default_rng(303)
    ok = True
    detail = "all 100 bitwise"
    for k in range(100):
        R, C, L = rng.integers(2, 9, size=3)
        r = int(rng.integers(1, min(3, R, C) + 1))
        layer = pair_layer(rng, R, C, r)
        x = DenseMatrix(rng.standard_normal((C, L)))
        g = DenseMatrix(rng.standard_normal((R, L)))
        _, ctx = lors_forward(layer, x)
        grads = variant_backward(layer, g, ctx)

        # masking dY X^T by all-ones is a bitwise no-op, so the sqft formula
        # with M := 1 reduces exactly to the mask-free product ...
        dy_xt = mx.matmul(g, mx.transpose(x))
        if (dy_xt.data * np.ones((R, C))).tobytes() != dy_xt.data.tobytes():
            ok = False
            detail = f"ones-mask not a no-op at instance {k}"
            break
        # ... which, regrouped into lors's documented evaluation order,
        # must reproduce lors's own outputs bit for bit
        alpha = layer.adapter.alpha
        ref_da = mx.scale(mx.matmul(g, mx.matmul(
            mx.transpose(x), mx.transpose(layer.adapter.b))), alpha)
        ref_db = mx.scale(mx.matmul(mx.matmul(
            mx.transpose(layer.adapter.a), g), mx.transpose(x)), alpha)
        if not (mx.bitwise_equal(grads.da, ref_da)
                and mx.bitwise_equal(grads.db, ref_db)):
            ok = False
            detail = f"adapter grads differ at instance {k}"
            break
    verdict(3, "lors dA/dB equal the all-ones sqft gradients bitwise in "
               "identical evaluation order", ok, detail)


def test_criterion_04_cost_formula_equality():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    np_rng = np.random.default_rng(405)
    bad = []
    for k in range(50):
        R = int(rng.integers(2, 11))
        r = int(rng.integers(1, min(3, R) + 1))
        C = r * int(rng.integers(1, 5))
        L = int(rng.integers(2, 11))
        for variant in ("lora", "sqft", "sqft_gc", "spp_gc", "lors"):
            base = SparseWeight(DenseMatrix(
                np_rng.standard_normal((R, C))
                * (np_rng.random((R, C)) >= 0.5)))
            if variant == "spp_gc":
                adapter = SppAdapter(a=DenseMatrix(np_rng.standard_normal((R, r))),
                                     b=DenseMatrix(np_rng.standard_normal((1, C))))
            else:
                adapter = AdapterPair(a=DenseMatrix(np_rng.standard_normal((R, r))),
                                      b=DenseMatrix(np_rng.standard_normal((r, C))),
                                      alpha=2.0)
            layer = AdaptedLayer(base, adapter, variant)
            counters = CostCounters()
            y, saved = variant_forward(layer, DenseMatrix(np_rng.standard_normal((C, L))),
                                       counters)
            counters.saved_elements += sum(t.data.size for t in saved)
            variant_backward(layer, mx.ones(R, L), saved, counters)
            pred = predict_cost(variant, R, C, L, r)
            got = (counters.macs_forward, counters.macs_backward,
                   counters.saved_elements)
            want = (pred.macs_forward, pred.macs_backward, pred.saved_elements)
            if got != want:
                bad.append(f"{variant}@{R},{C},{L},{r}: {got} != {want}")
    elapsed = time.monotonic() - start
    ok = not bad and elapsed <= 2.0
    verdict(4, "instrumented MAC and saved-element counters equal "
               "predict_cost exactly over 50 shapes", ok,
            "; ".join(bad[:3]) or f"{elapsed:.2f}s")


def test_criterion_05_sparsity_preservation():
    weights = random_dense_weights(0, (8, 8, 8))
    teacher = model_from_weights(weights, "lors", rank=2)
    data = make_teacher_data(teacher, seed=1, n=128)
    leaked = []
    for variant in ALL_VARIANTS:
        student = model_from_weights(weights, variant, rank=2, prune_ratio=0.5)
        config = TrainConfig(steps=200, batch_size=16, lr=1e-2, optimizer="sgd",
                             init=InitSpec("zero_A_random_B", seed=0), seed=0)
        finetune(student, data, config)
        for layer in student.layers:
            if np.any(merge(layer).values.data[~layer.original_mask] != 0.0):
                leaked.append(f"{variant}/{layer.name}")

        # same run over 2:4 bases, then the aligned group scan
        tf_layers = [make_layer(prune_two_four(w.copy()), rank=2,
                                variant=variant, alpha=2.0, name=f"layers.{i}")
                     for i, w in enumerate(weights)]
        tf_student = ToyModel(tf_layers)
        finetune(tf_student, data, config)
        for layer in tf_student.layers:
            if not two_four_valid(merge(layer).values):
                leaked.append(f"{variant}/2:4/{layer.name}")
    verdict(5, "after 200 steps every variant merges inside the original "
               "mask, 2:4 bases stay 2:4-valid", not leaked,
            "; ".join(leaked) or "all exact zeros outside the pattern")


def test_criterion_06_svd_init_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    worst_tail = 0.0
    beaten = 0
    for k in range(50):
        rows, cols = (8, 8) if k % 2 == 0 else (16, 12)
        r = (1, 2, 4)[k % 3]
        dw_np = rng.standard_normal((rows, cols))
        dw = DenseMatrix(dw_np)
        b = fit_rank_r_rows(dw, r)
        res = projection_residual(dw, b)
        # oracle tail straight from numpy's singular values
        sigma = np.linalg.svd(dw_np, compute_uv=False)
        worst_tail = max(worst_tail,
                         abs(res - float(np.sqrt(np.sum(sigma[r:] ** 2)))))
        for _ in range(1000):
            q, _ = np.linalg.qr(rng.standard_normal((cols, r)))
            cand = float(np.linalg.norm(dw_np - dw_np @ q @ q.T))
            if res > cand + 1e-9:
                beaten += 1
    elapsed = time.monotonic() - start
    ok = worst_tail <= 1e-8 and beaten == 0 and elapsed <= 10.0
    verdict(6, "rank-r row-space residual equals the singular tail and beats "
               "1000 random orthonormal candidates per instance", ok,
            f"tail gap {worst_tail:.2e}, beaten {beaten}, {elapsed:.1f}s")


def test_criterion_07_first_step_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(5):
        w = rng.standard_normal((6, 6))
        w += np.sign(w) * 0.1  # keep the base dense: all-ones mask
        layer = AdaptedLayer(
            SparseWeight(DenseMatrix(w)),
            AdapterPair(a=DenseMatrix(np.zeros((6, 2))),
                        b=DenseMatrix(rng.standard_normal((2, 6))), alpha=2.0),
            "lors")
        probe = ProbeBatch(DenseMatrix(rng.standard_normal((6, 8))),
                           DenseMatrix(rng.standard_normal((6, 8))),
                           "regression")
        report = first_step_update_check(layer, probe, lr=0.05)
        worst = max(worst, report.update_residual)
    verdict(7, "first gradient step moves the merged weight by "
               "-lr * alpha^2 * dW B^T B", worst <= 1e-8,
            f"worst relative residual {worst:.2e}")


def test_criterion_08_recovery_analogue():
    start = time.monotonic()
    closures = []
    head_to_head = []
    for seed in range(5):
        ours = run_recovery(seed, "lors", InitSpec("gradient_svd", seed=seed))
        rival = run_recovery(seed, "sqft", InitSpec("zero_A_random_B", seed=seed))
        closures.append(ours.closure)
        head_to_head.append(ours.val_final <= rival.val_final)
    elapsed = time.monotonic() - start
    n_closed = sum(c >= 0.80 for c in closures)
    n_ahead = sum(head_to_head)
    ok = n_closed >= 4 and n_ahead >= 4 and elapsed <= 120.0
    verdict(8, "lors+gradient_svd closes >=80% of the pruning gap and beats "
               "sqft+random init in >=4/5 seeds", ok,
            f"closed {n_closed}/5 (min {min(closures):.3f}), "
            f"ahead {n_ahead}/5, {elapsed:.1f}s")


def test_criterion_09_repeat_equivalence():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        R = int(rng.integers(2, 9))
        r = int(rng.integers(1, 5))
        C = r * int(rng.integers(1, 5))
        L = int(rng.integers(2, 9))
        base = SparseWeight(DenseMatrix(
            rng.standard_normal((R, C)) * (rng.random((R, C)) >= 0.5)))
        layer = AdaptedLayer(
            base,
            SppAdapter(a=DenseMatrix(rng.standard_normal((R, r))),
                       b=DenseMatrix(rng.standard_normal((1, C)))),
            "spp")
        x = DenseMatrix(rng.standard_normal((C, L)))
        y_rep, _ = spp_forward(layer, x)
        y_blk, _ = spp_gc_forward(layer, x)
        worst = max(worst, mx.max_abs_diff(y_rep, y_blk))
    verdict(9, "spp Repeat parameterization equals the block-diagonal "
               "low-rank form within 1e-12", worst <= 1e-12,
            f"worst gap {worst:.2e}")


def test_criterion_10_frozen_base_and_determinism():
    weights = random_dense_weights(3, (6, 6, 6))
    teacher = model_from_weights(weights, "lors", rank=2)
    data = make_teacher_data(teacher, seed=4, n=96)
    config = TrainConfig(steps=40, batch_size=16, lr=1e-2, optimizer="adaptive",
                         init=InitSpec("zero_A_random_B", seed=3), seed=3)

    student = model_from_weights(weights, "lors", rank=2, prune_ratio=0.5)
    before = student.base_hash()
    _, trace_a = finetune(student, data, config)
    hash_ok = student.base_hash() == before

    repeat = model_from_weights(weights, "lors", rank=2, prune_ratio=0.5)
    _, trace_b = finetune(repeat, data, config)
    trace_ok = trace_a.csv_text() == trace_b.csv_text()
    verdict(10, "training leaves the base-weight hash unchanged and replays "
                "bitwise under identical configs", hash_ok and trace_ok,
            f"hash {'kept' if hash_ok else 'CHANGED'}, "
            f"trace {'identical' if trace_ok else 'DIVERGED'}")
