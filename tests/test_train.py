import numpy as np
import pytest

from lors.adapters import VARIANTS, make_layer, variant_backward, variant_forward
from lors.errors import ArgumentError, ShapeError
from lors.initialization import InitSpec, ProbeBatch, apply_init
from lors.matrix import DenseMatrix, Rng
from lors.prune import SparseWeight, prune_magnitude
from lors.tape import CostCounters, Tape
from lors.train import (
    CSV_HEADER,
    Dataset,
    MetricsTrace,
    OptimState,
    ToyModel,
    TrainConfig,
    evaluate,
    finetune,
    make_cluster_data,
    make_optimizer,
    make_teacher_data,
    model_from_weights,
    random_dense_weights,
    run_recovery,
    train_step,
)


def small_model(seed=0, dims=(5, 4, 3), variant="lors", rank=2, prune=0.5,
                head="regression"):
    return model_from_weights(random_dense_weights(seed, dims), variant=variant,
                              rank=rank, prune_ratio=prune, head=head)


def small_data(model, seed=0, n=40):
    teacher = small_model(seed + 1, dims=(model.in_features, model.out_features),
                          prune=0.0)
    return make_teacher_data(teacher, seed=seed, n=n)


def test_model_composition_validation():
    w1 = DenseMatrix(np.ones((4, 5)))
    w2 = DenseMatrix(np.ones((3, 4)))
    l1 = make_layer(SparseWeight(w1), rank=1, variant="lora")
    l2 = make_layer(SparseWeight(w2), rank=1, variant="lora")
    m = ToyModel([l1, l2])
    assert m.in_features == 5 and m.out_features == 3
    with pytest.raises(ShapeError):
        ToyModel([l2, l1])
    with pytest.raises(ArgumentError):
        ToyModel([])
    with pytest.raises(ArgumentError):
        ToyModel([l1], head="nope")


def test_predict_is_relu_sandwich():
    model = small_model(prune=0.0)
    x = np.random.default_rng(0).normal(size=(5, 7))
    h = x
    for i, layer in enumerate(model.layers):
        w = layer.base.values.data  # adapters are zero right after construction
        h = w @ h
        if i < len(model.layers) - 1:
            h = np.maximum(h, 0.0)
    got = model.predict(DenseMatrix(x))
    assert np.allclose(got.data, h, rtol=1e-13, atol=1e-13)


def test_forward_loss_matches_half_sse_over_l():
    model = small_model()
    rng = Rng(1)
    probe = ProbeBatch(rng.normal_matrix(5, 6, 0.0, 1.0),
                       rng.normal_matrix(3, 6, 0.0, 1.0))
    tape = Tape()
    loss_id = model.forward_loss(tape, probe)
    y = model.predict(probe.inputs)
    want = 0.5 * np.sum((y.data - probe.targets.data) ** 2) / 6
    assert abs(tape.value(loss_id).data[0, 0] - want) < 1e-12


def test_sgd_step_is_closed_form():
    # one layer, no relu on output: p <- p - lr * g, bitwise checkable
    model = small_model(dims=(4, 3), prune=0.5)
    layer = model.layers[0]
    layer.adapter.b = DenseMatrix(np.random.default_rng(2).normal(size=(2, 4)))
    rng = Rng(3)
    probe = ProbeBatch(rng.normal_matrix(4, 5, 0.0, 1.0),
                       rng.normal_matrix(3, 5, 0.0, 1.0))

    tape = Tape()
    loss_id = model.forward_loss(tape, probe)
    grads = model.gather_grads(tape.backward(loss_id))
    a0 = layer.adapter.a.data.copy()
    b0 = layer.adapter.b.data.copy()

    optim = OptimState(kind="sgd", lr=0.1)
    train_step(model, probe, optim)
    name_a = [n for n in grads if n.endswith(".a")][0]
    name_b = [n for n in grads if n.endswith(".b")][0]
    assert np.array_equal(layer.adapter.a.data, a0 - 0.1 * grads[name_a].data)
    assert np.array_equal(layer.adapter.b.data, b0 - 0.1 * grads[name_b].data)


def test_adaptive_first_step_is_signlike():
    # with zero moment history the first update is lr * g / (|g| + eps)
    model = small_model(dims=(4, 3))
    layer = model.layers[0]
    layer.adapter.b = DenseMatrix(np.random.default_rng(4).normal(size=(2, 4)))
    rng = Rng(5)
    probe = ProbeBatch(rng.normal_matrix(4, 5, 0.0, 1.0),
                       rng.normal_matrix(3, 5, 0.0, 1.0))
    tape = Tape()
    grads = model.gather_grads(tape.backward(model.forward_loss(tape, probe)))
    b0 = layer.adapter.b.data.copy()
    optim = OptimState(kind="adaptive", lr=0.01)
    train_step(model, probe, optim)
    name_b = [n for n in grads if n.endswith(".b")][0]
    g = grads[name_b].data
    want = b0 - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(layer.adapter.b.data, want, rtol=1e-6, atol=1e-9)


def test_zero_lr_changes_nothing():
    model = small_model()
    data = small_data(model)
    before = {n: p.data.copy() for n, p in model.named_trainable().items()}
    cfg = TrainConfig(steps=5, lr=0.0, optimizer="sgd",
                      init=InitSpec("zero_A_zero_B"))
    finetune(model, data, cfg)
    for n, p in model.named_trainable().items():
        assert np.array_equal(p.data, before[n]), n


def test_zero_steps_leaves_model_at_init():
    m1 = small_model(seed=7)
    m2 = small_model(seed=7)
    data = small_data(m1, seed=8)
    cfg = TrainConfig(steps=0, init=InitSpec("zero_A_random_B", seed=1))
    _, trace = finetune(m1, data, cfg)
    assert trace.rows == []
    # same init applied manually gives the identical model
    from lors.initialization import apply_init
    apply_init(m2, InitSpec("zero_A_random_B", seed=1))
    for l1, l2 in zip(m1.layers, m2.layers):
        assert np.array_equal(l1.adapter.b.data, l2.adapter.b.data)


def test_loss_decreases_on_teacher_task():
    model = small_model(dims=(8, 8, 8), rank=2)
    data = small_data(model, n=64)
    cfg = TrainConfig(steps=60, batch_size=16, lr=1e-2, optimizer="adaptive",
                      init=InitSpec("gradient_svd"), seed=0)
    _, trace = finetune(model, data, cfg)
    first = trace.rows[0][1]
    last = trace.rows[-1][1]
    assert last < first * 0.9


def test_base_weights_frozen_through_training():
    model = small_model(dims=(6, 6, 6))
    data = small_data(model, n=32)
    h0 = model.base_hash()
    cfg = TrainConfig(steps=20, lr=1e-2, optimizer="adaptive",
                      init=InitSpec("zero_A_random_B"))
    finetune(model, data, cfg)
    assert model.base_hash() == h0


def test_identical_configs_give_bitwise_identical_traces():
    def run():
        model = small_model(seed=11, dims=(6, 5, 4))
        data = small_data(model, seed=12, n=48)
        cfg = TrainConfig(steps=15, batch_size=8, lr=5e-3, optimizer="adaptive",
                          variant="lors", init=InitSpec("gradient_svd"), seed=3)
        _, trace = finetune(model, data, cfg)
        return trace.csv_text()

    assert run() == run()


def test_variant_agnostic_initial_loss():
    """With A = 0 every variant computes the same function, so step-0 losses
    agree to 1e-12 on identical data."""
    losses = {}
    for variant in VARIANTS:
        model = small_model(seed=13, dims=(8, 6, 4), variant=variant, rank=2)
        data = small_data(model, seed=14, n=16)
        cfg = TrainConfig(steps=1, batch_size=16, lr=0.0, variant=variant,
                          init=InitSpec("zero_A_zero_B"), seed=5)
        _, trace = finetune(model, data, cfg)
        losses[variant] = trace.rows[0][1]
    vals = list(losses.values())
    assert max(vals) - min(vals) <= 1e-12


def test_metrics_trace_csv_round_trips_floats():
    trace = MetricsTrace(rows=[(0, 1.0 / 3.0, 10, 20, 5)])
    text = trace.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    step, loss, mf, mb, sp = lines[1].split(",")
    assert float(loss) == 1.0 / 3.0  # repr round-trip keeps full precision
    assert (int(step), int(mf), int(mb), int(sp)) == (0, 10, 20, 5)
    assert trace.final_loss == 1.0 / 3.0


def test_trace_macs_are_cumulative():
    model = small_model(dims=(6, 6))
    data = small_data(model, n=16)
    cfg = TrainConfig(steps=4, batch_size=4, lr=1e-3, init=InitSpec())
    _, trace = finetune(model, data, cfg)
    fwd = [row[2] for row in trace.rows]
    bwd = [row[3] for row in trace.rows]
    assert all(b > a for a, b in zip(fwd, fwd[1:]))
    assert all(b > a for a, b in zip(bwd, bwd[1:]))
    # equal-size batches: per-step increments are constant
    diffs = {b - a for a, b in zip(fwd, fwd[1:])}
    assert len(diffs) == 1


def test_evaluate_regression_and_classification():
    model = small_model(dims=(5, 4), prune=0.0)
    data = small_data(model, n=10)
    out = evaluate(model, data)
    assert out["accuracy"] is None and out["loss"] >= 0.0

    cls = small_model(dims=(5, 4), prune=0.0, head="classification")
    cdata = make_cluster_data(seed=1, k=4, dim=5, n=20)
    out = evaluate(cls, cdata)
    assert 0.0 <= out["accuracy"] <= 1.0 and out["loss"] > 0.0


def test_cluster_data_layout():
    data = make_cluster_data(seed=2, k=3, dim=6, n=12)
    assert data.inputs.shape == (6, 12)
    assert np.array_equal(data.targets, np.arange(12) % 3)
    assert data.loss == "classification"


def test_teacher_data_targets_are_teacher_outputs():
    teacher = small_model(seed=15, dims=(6, 4), prune=0.0)
    data = make_teacher_data(teacher, seed=16, n=9)
    assert np.array_equal(data.targets.data, teacher.predict(data.inputs).data)


def test_teacher_data_latent_manifold():
    teacher = small_model(seed=17, dims=(8, 4), prune=0.0)
    d1 = make_teacher_data(teacher, seed=18, n=30, latent_dim=3, latent_seed=99)
    d2 = make_teacher_data(teacher, seed=19, n=30, latent_dim=3, latent_seed=99)
    # inputs live on a 3-dimensional subspace
    assert np.linalg.matrix_rank(d1.inputs.data, tol=1e-10) == 3
    # both splits share the same subspace because the projection seed matches
    joint = np.hstack([d1.inputs.data, d2.inputs.data])
    assert np.linalg.matrix_rank(joint, tol=1e-10) == 3
    # different draw seeds still give different samples
    assert not np.array_equal(d1.inputs.data[:, :30], d2.inputs.data[:, :30])
    with pytest.raises(ArgumentError):
        make_teacher_data(teacher, seed=18, n=4, latent_dim=0)


def test_dataset_batch_and_head():
    data = make_cluster_data(seed=3, k=2, dim=4, n=10)
    b = data.batch([1, 3, 5])
    assert b.inputs.shape == (4, 3)
    assert np.array_equal(b.targets, data.targets[[1, 3, 5]])
    assert data.head(4).inputs.shape == (4, 4)
    assert data.head(99).inputs.shape == (4, 10)


def test_config_validation():
    with pytest.raises(ArgumentError):
        TrainConfig(steps=-1)
    with pytest.raises(ArgumentError):
        TrainConfig(steps=1, batch_size=0)
    with pytest.raises(ArgumentError):
        TrainConfig(steps=1, optimizer="nope")
    with pytest.raises(ArgumentError):
        TrainConfig(steps=1, variant="nope")
    with pytest.raises(ArgumentError):
        OptimState(kind="nope")
    with pytest.raises(ArgumentError):
        OptimState(lr=-1.0)
    assert make_optimizer(TrainConfig(steps=1, optimizer="adaptive", lr=0.5)).kind == "adaptive"


def test_recovery_single_seed_closes_gap():
    res = run_recovery(0, "lors", InitSpec("gradient_svd"), steps=300)
    assert res.val_dense == 0.0
    assert res.val_pruned > res.val_final
    assert res.closure >= 0.6  # full criterion (500 steps, 5 seeds) lives in acceptance
    assert res.variant == "lors" and res.seed == 0


def _biased_model(variant, seed=0, dims=(8, 6, 4), rank=2):
    layers = []
    for i, w in enumerate(random_dense_weights(seed, dims)):
        bias = DenseMatrix(np.random.default_rng(seed + i).normal(size=(w.rows, 1)))
        layers.append(make_layer(prune_magnitude(w, 0.5), rank=rank, variant=variant,
                                 bias=bias, name=f"layers.{i}"))
    model = ToyModel(layers)
    apply_init(model, InitSpec("zero_A_random_B", seed=seed + 7, std=0.1))
    return model


def test_float_mask_built_only_by_sqft(monkeypatch):
    """One train_step builds the RC float mask once per layer for sqft (which
    saves it) and never for sqft_gc or lors (which merge over the bool mask)."""
    calls = []
    original = SparseWeight.mask
    monkeypatch.setattr(SparseWeight, "mask", lambda self: calls.append(1) or original(self))
    for variant, per_layer in (("lors", 0), ("sqft_gc", 0), ("sqft", 1)):
        model = _biased_model(variant)
        data = small_data(model)
        calls.clear()
        train_step(model, data.head(8), OptimState(kind="adaptive", lr=1e-3))
        assert len(calls) == per_layer * len(model.layers), variant


def test_gradients_share_no_memory_with_parameters():
    """transpose returns a view, so guard the in-place optimizer against a
    gradient that aliases a parameter or a frozen base weight."""
    for variant in VARIANTS:
        model = _biased_model(variant)
        params = list(model.named_trainable().values())
        params += [layer.base.values for layer in model.layers]
        data = small_data(model)
        tape = Tape()
        grads = tape.backward(model.forward_loss(tape, data.head(8)))
        for g in grads.values():
            assert not any(np.shares_memory(g.data, p.data) for p in params), variant
        layer = model.layers[0]
        x = DenseMatrix(np.random.default_rng(1).normal(size=(layer.in_features, 3)))
        _, ctx = variant_forward(layer, x)
        vg = variant_backward(layer, DenseMatrix(np.ones((layer.out_features, 3))), ctx)
        for g in (vg.da, vg.db, vg.dx, vg.dbias):
            assert not any(np.shares_memory(g.data, p.data) for p in params), variant
