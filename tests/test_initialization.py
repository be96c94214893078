import numpy as np
import pytest

from lors import matrix as mx
from lors.adapters import AdapterPair, make_layer, variant_forward
from lors.errors import ArgumentError, ShapeError
from lors.initialization import (
    InitSpec,
    MemoryGauge,
    ProbeBatch,
    apply_init,
    first_step_update_check,
    fit_rank_r_rows,
    init_gradient_svd,
    init_zero_random,
    init_zero_zero,
    projection_residual,
    singular_tail,
)
from lors.matrix import DenseMatrix, Rng
from lors.prune import SparseWeight, prune_magnitude
from lors.svd import svd
from lors.tape import Tape, loss_backward, loss_forward
from lors.train import ToyModel, model_from_weights, random_dense_weights


def test_fit_rank_r_rows_is_orthonormal_and_optimal():
    rng = np.random.default_rng(0)
    for trial in range(25):
        rows = int(rng.integers(2, 10))
        cols = int(rng.integers(2, 10))
        r = int(rng.integers(1, min(rows, cols) + 1))
        dw = DenseMatrix(rng.normal(size=(rows, cols)))
        b = fit_rank_r_rows(dw, r)
        assert b.shape == (r, cols)
        assert np.allclose(b.data @ b.data.T, np.eye(r), atol=1e-10)
        res = projection_residual(dw, b)
        tail = singular_tail(dw, r)
        assert abs(res - tail) <= 1e-8
        # no random row space does better
        for k in range(40):
            cand = np.linalg.qr(rng.normal(size=(cols, r)))[0].T
            cand_res = projection_residual(dw, DenseMatrix(cand))
            assert res <= cand_res + 1e-9


def first_step_dws(model, probe):
    """Each layer's dW = dY X^T, off one chain step's (X, dY) pairs."""
    tape, io = Tape(), []
    tape.forward(model.layers, probe)
    tape.backward(io)
    return [mx.matmul(dy, mx.transpose(x)) for x, dy in io]


def test_fit_rank_r_scale():
    # init_gradient_svd sets B to the fitted rows of each layer's dW itself
    model = make_model(seed=1)
    probe = make_probe(model, seed=2)
    dws = first_step_dws(model, probe)
    init_gradient_svd(model, probe)
    for layer, dw in zip(model.layers, dws):
        assert np.array_equal(layer.adapter.b.data, fit_rank_r_rows(dw, 2).data)


def test_fit_rank_r_bounds():
    dw = DenseMatrix(np.ones((3, 4)))
    with pytest.raises(ArgumentError):
        fit_rank_r_rows(dw, 0)
    with pytest.raises(ArgumentError):
        fit_rank_r_rows(dw, 4)


def test_singular_tail_against_numpy():
    rng = np.random.default_rng(2)
    dw = rng.normal(size=(6, 8))
    s = np.linalg.svd(dw, compute_uv=False)
    for r in (1, 2, 5):
        want = float(np.sqrt(np.sum(s[r:] ** 2)))
        assert abs(singular_tail(DenseMatrix(dw), r) - want) < 1e-10


def make_model(seed=0, dims=(6, 5, 4), variant="lors", rank=2, prune=0.5):
    weights = random_dense_weights(seed, dims)
    return model_from_weights(weights, variant=variant, rank=rank, prune_ratio=prune)


def make_probe(model, seed=0, n=8):
    rng = Rng(seed)
    x = rng.normal_matrix(model.in_features, n, mean=0.0, std=1.0)
    t = rng.normal_matrix(model.out_features, n, mean=0.0, std=1.0)
    return ProbeBatch(inputs=x, targets=t, loss="regression")


def test_init_zero_zero():
    model = make_model()
    layer = model.layers[0]
    layer.adapter.a = DenseMatrix(np.ones(layer.adapter.a.shape))
    init_zero_zero(layer)
    assert np.all(layer.adapter.a.data == 0.0)
    assert np.all(layer.adapter.b.data == 0.0)


def test_init_zero_random_is_seeded():
    model = make_model()
    layer = model.layers[0]
    init_zero_random(layer, seed=7, std=0.05)
    b1 = layer.adapter.b.data.copy()
    assert np.all(layer.adapter.a.data == 0.0)
    assert np.any(b1 != 0.0)
    assert abs(b1.std() - 0.05) < 0.02
    init_zero_random(layer, seed=7, std=0.05)
    assert np.array_equal(layer.adapter.b.data, b1)
    init_zero_random(layer, seed=8, std=0.05)
    assert not np.array_equal(layer.adapter.b.data, b1)


def test_gradient_svd_sets_b_from_first_gradient():
    model = make_model(dims=(6, 5, 4))
    probe = make_probe(model)
    diagnostics = []
    init_gradient_svd(model, probe, diagnostics=diagnostics)
    for layer, diag in zip(model.layers, diagnostics):
        assert np.all(layer.adapter.a.data == 0.0)
        assert np.allclose(layer.adapter.b.data @ layer.adapter.b.data.T,
                           np.eye(2), atol=1e-10)
        assert abs(diag["projection_residual"] - diag["singular_tail"]) <= 1e-8
        assert diag["rank"] == 2
        assert diag["grad_norm"] > 0.0


def test_gradient_svd_diagnostics_take_one_svd_per_layer(monkeypatch):
    calls = []

    def counting_svd(m):
        calls.append(m.shape)
        return svd(m)

    monkeypatch.setattr("lors.initialization.svd", counting_svd)
    model = make_model(dims=(6, 5, 4))
    diagnostics = []
    init_gradient_svd(model, make_probe(model), diagnostics=diagnostics)
    assert calls == [(5, 6), (4, 5)]
    assert len(diagnostics) == 2


def test_gradient_svd_memory_gauge_peaks_at_largest_layer():
    # layers 4x6 (24 elements) and 8x4 (32): only one dW alive at a time
    model = make_model(dims=(6, 4, 8))
    probe = make_probe(model)
    gauge = MemoryGauge()
    init_gradient_svd(model, probe, gauge=gauge)
    assert gauge.peak == 32
    assert gauge.current == 0


def test_gradient_svd_rank_bounds_and_spp_rejection():
    # the rank is the layer's, bounded where the layer is built
    with pytest.raises(ArgumentError):
        make_model(dims=(6, 5, 4), rank=0)
    with pytest.raises(ArgumentError, match=r"rank 5 must satisfy 1 <= r <= min\(4, 5\)"):
        make_model(dims=(6, 5, 4), rank=5)  # the second layer is 4x5
    spp_model = make_model(variant="spp", dims=(6, 6, 6), rank=2)
    with pytest.raises(ArgumentError, match="requires a low-rank pair adapter"):
        init_gradient_svd(spp_model, make_probe(spp_model))


def test_gradient_svd_takes_each_layers_own_rank():
    """apply_init over layers of ranks (3, 2): each B is the top rows of its
    layer's first-step dW at that layer's rank, and each A is zero."""
    weights = random_dense_weights(4, (6, 5, 4))
    model = ToyModel([make_layer(prune_magnitude(w, 0.5), rank=r, variant="lors",
                                 name=f"layers.{i}")
                      for i, (w, r) in enumerate(zip(weights, (3, 2)))])
    probe = make_probe(model, seed=5)
    dws = first_step_dws(model, probe)
    apply_init(model, InitSpec("gradient_svd"), probe=probe)
    for layer, dw, r in zip(model.layers, dws, (3, 2)):
        assert layer.rank == r and layer.adapter.b.shape == (r, layer.in_features)
        assert np.array_equal(layer.adapter.b.data, fit_rank_r_rows(dw, r).data)
        assert np.array_equal(layer.adapter.a.data, np.zeros((layer.out_features, r)))


def test_apply_init_dispatch():
    model = make_model()
    out = apply_init(model, InitSpec("zero_A_zero_B"))
    assert len(out) == 2
    apply_init(model, InitSpec("zero_A_random_B", seed=3, std=0.01))
    b_first = model.layers[0].adapter.b.data.copy()
    # per-layer seeds differ
    assert not np.array_equal(b_first, model.layers[1].adapter.b.data)
    with pytest.raises(ArgumentError):
        apply_init(model, InitSpec("gradient_svd"))  # no probe
    apply_init(model, InitSpec("gradient_svd"), probe=make_probe(model))


def test_init_spec_validation():
    with pytest.raises(ArgumentError):
        InitSpec("nope")
    with pytest.raises(ArgumentError):
        InitSpec("zero_A_random_B", std=-1.0)


def test_init_spec_and_adapter_pair_reject_nonfinite_values():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ArgumentError, match="std must be finite"):
            InitSpec("zero_A_random_B", std=bad)
        with pytest.raises(ArgumentError, match="alpha must be finite"):
            AdapterPair(a=DenseMatrix(np.ones((2, 1))), b=DenseMatrix(np.ones((1, 2))),
                        alpha=bad)


def test_probe_batch_validation():
    x = DenseMatrix(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        ProbeBatch(inputs=x, targets=DenseMatrix(np.ones((3, 5))))
    with pytest.raises(ShapeError):
        ProbeBatch(inputs=x, targets=np.array([0, 1]), loss="classification")
    with pytest.raises(ArgumentError):
        ProbeBatch(inputs=x, targets=x, loss="nope")
    p = ProbeBatch(inputs=x, targets=np.array([0, 1, 2, 0]), loss="classification")
    assert p.size == 4


def loss_and_grad(y, probe):
    """Loss value and dLoss/dY of the shared loss for a raw output y."""
    loss, saved = loss_forward(DenseMatrix(y), probe)
    return loss, loss_backward(saved, probe)


def test_loss_regression():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(3, 6))
    t = rng.normal(size=(3, 6))
    probe = ProbeBatch(inputs=DenseMatrix(np.ones((2, 6))), targets=DenseMatrix(t))
    loss, g = loss_and_grad(y, probe)
    assert abs(loss - 0.5 * np.sum((y - t) ** 2) / 6) < 1e-12
    assert np.allclose(g.data, (y - t) / 6, atol=1e-15)


def test_loss_classification_matches_fd():
    rng = np.random.default_rng(6)
    y0 = rng.normal(size=(4, 5))
    labels = rng.integers(0, 4, size=5)
    probe = ProbeBatch(inputs=DenseMatrix(np.ones((2, 5))), targets=labels,
                       loss="classification")
    loss, g = loss_and_grad(y0, probe)
    h = 1e-6
    for i in range(4):
        for j in range(5):
            yp = y0.copy(); yp[i, j] += h
            ym = y0.copy(); ym[i, j] -= h
            lp, _ = loss_and_grad(yp, probe)
            lm, _ = loss_and_grad(ym, probe)
            assert abs((lp - lm) / (2 * h) - g.data[i, j]) < 1e-6


# ---------------------------------------------------------------------------
# first-step identity
# ---------------------------------------------------------------------------

def dense_layer_with_svd_b(seed, R=6, C=6, r=2, alpha=2.0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(R, C))
    w[w == 0.0] = 1e-3  # dense: all-ones mask
    base = SparseWeight(DenseMatrix(w))
    layer = make_layer(base, rank=r, variant="lors", alpha=alpha)
    return layer


def test_first_step_identity_dense_base():
    for seed in range(6):
        layer = dense_layer_with_svd_b(seed)
        rng = Rng(seed + 50)
        probe = ProbeBatch(inputs=rng.normal_matrix(6, 8, 0.0, 1.0),
                           targets=rng.normal_matrix(6, 8, 0.0, 1.0))
        # give B a meaningful row space first
        model = ToyModel([layer])
        init_gradient_svd(model, probe)
        report = first_step_update_check(layer, probe, lr=1e-3)
        assert report.update_residual <= 1e-8
        assert report.grad_norm > 0.0
        assert abs(report.projection_residual - report.singular_tail) <= 1e-8


def test_first_step_identity_alpha_one():
    layer = dense_layer_with_svd_b(9, alpha=1.0)
    rng = Rng(99)
    probe = ProbeBatch(inputs=rng.normal_matrix(6, 8, 0.0, 1.0),
                       targets=rng.normal_matrix(6, 8, 0.0, 1.0))
    init_gradient_svd(ToyModel([layer]), probe)
    report = first_step_update_check(layer, probe, lr=1e-2)
    assert report.update_residual <= 1e-8


def test_first_step_check_requires_zero_a():
    layer = dense_layer_with_svd_b(10)
    layer.adapter.a = DenseMatrix(np.ones(layer.adapter.a.shape))
    probe = ProbeBatch(inputs=DenseMatrix(np.ones((6, 4))),
                       targets=DenseMatrix(np.ones((6, 4))))
    with pytest.raises(ArgumentError):
        first_step_update_check(layer, probe, lr=1e-3)


def test_first_step_check_leaves_layer_untouched():
    layer = dense_layer_with_svd_b(11)
    rng = Rng(12)
    probe = ProbeBatch(inputs=rng.normal_matrix(6, 8, 0.0, 1.0),
                       targets=rng.normal_matrix(6, 8, 0.0, 1.0))
    init_gradient_svd(ToyModel([layer]), probe)
    a0 = layer.adapter.a.data.copy()
    b0 = layer.adapter.b.data.copy()
    w0 = layer.base.values.data.copy()
    first_step_update_check(layer, probe, lr=1e-3)
    assert np.array_equal(layer.adapter.a.data, a0)
    assert np.array_equal(layer.adapter.b.data, b0)
    assert np.array_equal(layer.base.values.data, w0)
