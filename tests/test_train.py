import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lors import adapters, tape as tape_module, train as train_module
from lors.adapters import (
    VARIANTS,
    AdaptedLayer,
    AdapterPair,
    make_layer,
    predict_cost,
    variant_backward,
    variant_forward,
)
from lors.errors import ArgumentError, NumericError, ShapeError
from lors.initialization import InitSpec, ProbeBatch, apply_init
from lors.matrix import DenseMatrix, Rng
from lors.prune import SparseWeight, prune_magnitude
from lors.tape import CostCounters, Tape
from lors.train import (
    BUCKET,
    CSV_HEADER,
    Dataset,
    MetricsTrace,
    OPTIMIZERS,
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


def small_model(seed=0, dims=(5, 4, 3), variant="lors", rank=2, prune=0.5):
    return model_from_weights(random_dense_weights(seed, dims), variant=variant,
                              rank=rank, prune_ratio=prune)


def small_data(model, seed=0, n=40):
    teacher = small_model(seed + 1, dims=(model.in_features, model.out_features),
                          prune=0.0)
    return make_teacher_data(teacher, seed=seed, n=n)


def step_output(model, x):
    """The Y a training step's forward (``Tape.forward``) hands to its loss."""
    seen, real = [], tape_module.loss_forward
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tape_module, "loss_forward",
                   lambda y, *args: seen.append(y.data.tobytes()) or real(y, *args))
        targets = DenseMatrix(np.zeros((model.out_features, x.cols)))
        Tape().forward(model.layers, ProbeBatch(x, targets))
    return seen[0]


def step_grads(model, probe):
    """The named parameter gradients of one chain step, as ``_run_step`` names them."""
    tape = Tape()
    tape.forward(model.layers, probe)
    return dict(zip(model.named_trainable(), tape.backward()))


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_is_bitwise_the_step_forward(variant):
    """predict runs forward only, with no backward context kept, and gives
    bitwise the output a training step's forward computes, for every variant
    (bias on the middle layer)."""
    rng = np.random.default_rng(70)
    layers = []
    for i, (rows, cols) in enumerate(((6, 4), (6, 6), (3, 6))):
        w = DenseMatrix(rng.normal(size=(rows, cols)))
        bias = DenseMatrix(rng.normal(size=(rows, 1))) if i == 1 else None
        layer = make_layer(prune_magnitude(w, 0.5), rank=2, variant=variant, bias=bias)
        layer.adapter.a = DenseMatrix(rng.normal(size=layer.adapter.a.shape))
        layer.adapter.b = DenseMatrix(rng.normal(size=layer.adapter.b.shape))
        layers.append(layer)
    model, x = ToyModel(layers), DenseMatrix(rng.normal(size=(4, 5)))
    assert model.predict(x).data.tobytes() == step_output(model, x)


def _square_model(variant, width=8):
    """Three width x width layers of ``variant`` with random factors and a
    bias on the middle layer, so R = C = L at a batch of ``width`` columns."""
    rng = np.random.default_rng(71)
    layers = []
    for i in range(3):
        w = DenseMatrix(rng.normal(size=(width, width)))
        bias = DenseMatrix(rng.normal(size=(width, 1))) if i == 1 else None
        layer = make_layer(prune_magnitude(w, 0.5), rank=2, variant=variant, bias=bias)
        layer.adapter.a = DenseMatrix(rng.normal(size=layer.adapter.a.shape))
        layer.adapter.b = DenseMatrix(rng.normal(size=layer.adapter.b.shape))
        layers.append(layer)
    return ToyModel(layers), DenseMatrix(rng.normal(size=(width, width)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_relu_in_place_leaves_its_input_alone(variant):
    """predict applies each ReLU in place on the fresh output of the layer
    before: at R = C = L its input keeps its bytes, though it has every
    layer output's shape, and the result is bitwise the step forward's."""
    model, x = _square_model(variant)
    before = x.data.tobytes()
    got = model.predict(x)
    assert x.data.tobytes() == before
    assert got.data.tobytes() == step_output(model, x)


@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluate_gives_back_what_it_takes_from_the_pool(monkeypatch, variant):
    """A forward-only pass gives its pooled saved tensors back: after a warm
    train_step at R = C = L, evaluate leaves the pool of the weight shape
    with as many buffers as before, and the dataset's inputs, which have the
    weight's shape, never enter it."""
    monkeypatch.setattr(adapters, "_POOL", {})
    model, x = _square_model(variant)
    data = Dataset(x, DenseMatrix(np.ones(x.shape)))
    train_step(model, data, OptimState(kind="sgd", lr=1e-3))
    before = len(adapters._POOL.get(x.shape, []))
    assert before == {"lora": 0, "sqft": 6, "spp": 9}.get(variant, 1)
    evaluate(model, data)
    pool = adapters._POOL.get(x.shape, [])
    assert len(pool) == before
    assert not any(np.shares_memory(p, data.inputs.data) for p in pool)


def test_step_loss_matches_half_sse_over_l():
    model = small_model()
    rng = Rng(1)
    probe = ProbeBatch(rng.normal_matrix(5, 6, 0.0, 1.0),
                       rng.normal_matrix(3, 6, 0.0, 1.0))
    loss = Tape().forward(model.layers, probe)
    y = model.predict(probe.inputs)
    want = 0.5 * np.sum((y.data - probe.targets.data) ** 2) / 6
    assert abs(loss - want) < 1e-12


def test_sgd_step_is_closed_form():
    # one layer, no relu on output: p <- p - lr * g, bitwise checkable
    model = small_model(dims=(4, 3), prune=0.5)
    layer = model.layers[0]
    layer.adapter.b = DenseMatrix(np.random.default_rng(2).normal(size=(2, 4)))
    rng = Rng(3)
    probe = ProbeBatch(rng.normal_matrix(4, 5, 0.0, 1.0),
                       rng.normal_matrix(3, 5, 0.0, 1.0))

    grads = step_grads(model, probe)
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
    grads = step_grads(model, probe)
    b0 = layer.adapter.b.data.copy()
    optim = OptimState(kind="adaptive", lr=0.01)
    train_step(model, probe, optim)
    name_b = [n for n in grads if n.endswith(".b")][0]
    g = grads[name_b].data
    want = b0 - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(layer.adapter.b.data, want, rtol=1e-6, atol=1e-9)


class PerParameterOptim:
    """The per-parameter update rule, the oracle for OptimState's bucketed one."""

    def __init__(self, kind, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.kind, self.lr, self.beta1, self.beta2, self.eps = kind, lr, beta1, beta2, eps
        self.step_count = 0
        self.m, self.v = {}, {}

    def apply(self, params, grads):
        self.step_count += 1
        for name, p in params.items():
            g = grads[name]
            if self.kind == "sgd":
                p[:] = p - self.lr * g
                continue
            m = self.m.setdefault(name, np.zeros(p.shape))
            v = self.v.setdefault(name, np.zeros(p.shape))
            m[:] = self.beta1 * m + (1.0 - self.beta1) * g
            v[:] = self.beta2 * v + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.step_count)
            v_hat = v / (1.0 - self.beta2 ** self.step_count)
            p[:] = p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _bytes(store):
    return {name: np.ascontiguousarray(a).tobytes() for name, a in store.items()}


def _run_against_oracle(kind, schedule, seed, lr=1e-2):
    """Apply OptimState and the oracle side by side; ``schedule`` lists one
    {name: (shape, fortran_grad)} dict per step, all with the same layout.
    Parameters and every moment must agree bitwise after each step."""
    rng = np.random.default_rng(seed)
    ours, theirs = {}, {}
    optim, oracle = OptimState(kind=kind, lr=lr), PerParameterOptim(kind, lr)
    for step in schedule:
        for name, (shape, _) in step.items():
            if name not in ours:
                theirs[name] = rng.normal(size=shape)
                ours[name] = theirs[name].copy()
        grads = {}
        for name, (shape, fortran) in step.items():
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
            g[rng.random(shape) < 0.1] = 0.0
            grads[name] = np.asfortranarray(g) if fortran else g
        optim.apply({n: DenseMatrix._wrap(ours[n]) for n in step},
                    {n: DenseMatrix._wrap(grads[n]) for n in step})
        oracle.apply({n: theirs[n] for n in step}, grads)
        assert _bytes(ours) == _bytes(theirs)
        assert _bytes(optim.m) == _bytes(oracle.m)
        assert _bytes(optim.v) == _bytes(oracle.v)
        assert optim.step_count == oracle.step_count
    if kind == "sgd":
        assert optim.m == {} and optim.v == {}


_tiny = st.tuples(st.integers(1, 6), st.integers(1, 6))
_straddling = st.sampled_from([(BUCKET, 1), (1, BUCKET), (64, BUCKET // 64),
                               (BUCKET + 1, 1), (91, 91), (BUCKET // 2, 1),
                               (BUCKET // 2 + 1, 1), (BUCKET - 3, 1)])
_param_sets = st.one_of(
    st.lists(_tiny, min_size=20, max_size=60),                     # many tiny
    st.tuples(st.lists(_tiny, max_size=3), _straddling,
              st.lists(_tiny, max_size=3)).map(lambda t: t[0] + [t[1]] + t[2]),
    st.just([(BUCKET // 2, 1), (BUCKET // 2, 1), (1, 1)]),         # exact boundary
    st.lists(st.one_of(_tiny, _straddling), min_size=1, max_size=6),  # mix
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shapes=_param_sets, fortran=st.lists(st.booleans(), min_size=60, max_size=60),
       seed=st.integers(0, 2**16))
def test_bucketed_update_matches_per_parameter_rule(shapes, fortran, seed):
    """Parameter sets straddling BUCKET: many tiny ones, one larger than a
    bucket, an exact boundary, and a mix; gradients C- or F-ordered, with
    zeros and wide magnitudes. Five steps of each kind are bitwise equal to
    the per-parameter loop, in parameters and in every named moment."""
    step = {f"p{i}": (shape, fortran[i]) for i, shape in enumerate(shapes)}
    for kind in OPTIMIZERS:
        _run_against_oracle(kind, [step] * 5, seed)


def test_reshaped_parameter_raises_before_anything_moves():
    """The first update fixes the layout. Any later change of it (a reshaped,
    added, dropped, renamed or reordered parameter) raises ShapeError, and
    parameters, moments and step_count keep their values; the planned layout
    still updates afterwards."""
    rng = np.random.default_rng(0)
    params = {"a": DenseMatrix(rng.normal(size=(3, 4))), "b": DenseMatrix(rng.normal(size=(2, 2)))}
    extra = DenseMatrix(rng.normal(size=(2, 3)))
    changes = {
        "reshaped": {"a": params["a"], "b": DenseMatrix._wrap(params["b"].data.reshape(4, 1))},
        "added": {**params, "c": extra},
        "dropped": {"a": params["a"]},
        "renamed": {"a": params["a"], "c": params["b"]},
        "reordered": {"b": params["b"], "a": params["a"]},
    }

    def grads(ps):
        return {k: DenseMatrix(rng.normal(size=p.shape)) for k, p in ps.items()}

    for kind in OPTIMIZERS:
        optim = OptimState(kind=kind, lr=0.1)
        for _ in range(2):
            optim.apply(params, grads(params))

        def state():
            return (_bytes({k: p.data for k, p in params.items()}), extra.data.tobytes(),
                    _bytes(optim.m), _bytes(optim.v), optim.step_count)

        before = state()
        for label, changed in changes.items():
            with pytest.raises(ShapeError, match="optimizer layout is fixed at the first update"):
                optim.apply(changed, grads(changed))
            assert state() == before, label
        optim.apply(params, grads(params))
        assert optim.step_count == 3 and state()[0] != before[0]


@pytest.mark.parametrize("kind", OPTIMIZERS)
@pytest.mark.parametrize("overflow, named", [
    (("layers.1.b",), "layers.1.b"),
    (("layers.0.a", "layers.1.b"), "layers.1.b"),   # backward order: last layer first
    (("layers.1.b", "layers.2.a"), "layers.2.a"),
])
@pytest.mark.parametrize("dims, rank", [((5, 4, 3, 2), 2), ((96,) * 4, 90)])
def test_nonfinite_gradient_moves_nothing(monkeypatch, kind, overflow, named, dims, rank):
    """A 3-layer model (all parameters in one bucket, or each factor larger
    than a bucket) whose named gradients are overflowed after two clean
    steps: the error names the last overflowed parameter in backward order,
    and parameters, moments and step_count keep their values."""
    model = small_model(dims=dims, rank=rank, prune=0.5)
    batch = small_data(model).head(8)
    optim = OptimState(kind=kind, lr=1e-3)
    for _ in range(2):
        train_step(model, batch, optim)
    names, gather = list(model.named_trainable()), Tape.backward

    def overflowing(tape, io=None):
        out = gather(tape, io)
        for name in overflow:
            i = names.index(name)
            out[i] = DenseMatrix._wrap(out[i].data.copy())
            out[i].data[0, -1] = np.inf
        return out

    monkeypatch.setattr(Tape, "backward", overflowing)

    def state():
        return (_bytes({k: p.data for k, p in model.named_trainable().items()}),
                _bytes(optim.m), _bytes(optim.v), optim.step_count)

    before = state()
    with pytest.raises(NumericError) as info:
        train_step(model, batch, optim)
    assert str(info.value) == f"step 2: non-finite gradient of {named}"
    assert state() == before


@pytest.mark.parametrize("width, calls", [(64, 1), (512, 6)])
def test_adaptive_update_takes_one_sqrt_per_bucket(monkeypatch, width, calls):
    """A deterministic guard on the bucketed path: six rank-16 factors of
    width 64 fill one bucket, and at width 512 each factor is exactly one."""
    model = model_from_weights(random_dense_weights(0, (width,) * 4), variant="lors", rank=16)
    params = model.named_trainable()
    grads = {k: DenseMatrix(np.ones(p.shape)) for k, p in params.items()}
    count = []
    sqrt = np.sqrt
    monkeypatch.setattr(np, "sqrt", lambda *a, **k: count.append(1) or sqrt(*a, **k))
    OptimState(kind="adaptive", lr=1e-3).apply(params, grads)
    assert len(params) == 6 and len(count) == calls


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
                          init=InitSpec("gradient_svd"), seed=3)
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
        cfg = TrainConfig(steps=1, batch_size=16, lr=0.0,
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

    cls = small_model(dims=(5, 4), prune=0.0)
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


def _one_shot_teacher_data(teacher, seed, n, latent_dim=None, latent_seed=None):
    """The rows of make_teacher_data built as one C x n set, then transposed."""
    rng, c = Rng(seed), teacher.in_features
    if latent_dim is None:
        x = rng.normal_matrix(c, n).data
    else:
        proj = Rng(seed if latent_seed is None else latent_seed).derive(41).normal_matrix(
            c, latent_dim, std=1.0 / np.sqrt(latent_dim)).data
        x = proj @ rng.normal_matrix(latent_dim, n).data
    return x.T.copy(), teacher.predict(DenseMatrix._wrap(x)).data.T.copy()


@pytest.mark.parametrize("seed, n, latent_dim, latent_seed", [
    *((0, n, latent_dim, None) for n in (1, 511, 512, 1025) for latent_dim in (None, 8)),
    *((seed + 1000, 4096, 8, seed) for seed in range(4))])
def test_blocked_teacher_data_is_the_one_shot_build(seed, n, latent_dim, latent_seed):
    """make_teacher_data writes the set block by block, yet its row storage
    holds the bytes of the whole set built at once, latent and not, at sizes
    around the block width (a one-column tail block would change bits) and
    at run_recovery's training set (64 wide, n = 4096, latent 8)."""
    teacher = model_from_weights(random_dense_weights(seed % 1000, (64,) * 4),
                                 variant="lors", rank=1)
    data = make_teacher_data(teacher, seed=seed, n=n, latent_dim=latent_dim,
                             latent_seed=latent_seed)
    x, y = _one_shot_teacher_data(teacher, seed, n, latent_dim, latent_seed)
    assert data._x.tobytes() == x.tobytes()
    assert data._y.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [1, 511, 512, 1025])
def test_blocked_cluster_data_is_the_one_shot_formula(n):
    """make_cluster_data's rows hold the bytes of (noise + centers[:, labels])
    over the whole set, transposed."""
    rng = Rng(n)
    centers = rng.normal_matrix(64, 10, std=3.0).data
    labels = np.arange(n) % 10
    x = rng.normal_matrix(64, n).data + centers[:, labels]
    data = make_cluster_data(seed=n, k=10, dim=64, n=n)
    assert data._x.tobytes() == x.T.copy().tobytes()
    assert np.array_equal(data.targets, labels)


def test_dataset_batch_and_head():
    data = make_cluster_data(seed=3, k=2, dim=4, n=10)
    b = data.batch([1, 3, 5])
    assert b.inputs.shape == (4, 3)
    assert np.array_equal(b.targets, data.targets[[1, 3, 5]])
    assert data.head(4).inputs.shape == (4, 4)
    assert data.head(99).inputs.shape == (4, 10)


@pytest.mark.parametrize("loss", ["regression", "classification"])
def test_dataset_batches_are_the_column_gather(loss):
    """batch and head give the bytes and the C-contiguous layout of np.take
    over the C x N columns (repeated indices, and head past the dataset
    size, included), the whole set reads as read-only views of the bytes of
    its one N x (C + K) copy of the samples."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 12))
    y = rng.standard_normal((3, 12)) if loss == "regression" else np.arange(12) % 4
    data = Dataset(DenseMatrix(x), DenseMatrix(y) if loss == "regression" else y, loss)
    held = [v for v in vars(data).values() if isinstance(v, np.ndarray)]

    def check_layout(a, whole):
        if whole:
            assert any(np.shares_memory(a, h) for h in held) and not a.flags.writeable
        else:
            assert a.flags.c_contiguous

    for idx, got in [(i, data.batch(i)) for i in ([3, 0, 11], [2, 2, 2, 7], [5], range(12))] + [
            (range(4), data.head(4)), (range(12), data.head(99)), (range(12), data)]:
        want_x = np.take(x, list(idx), axis=1)
        check_layout(got.inputs.data, got is data)
        assert got.inputs.shape == want_x.shape
        assert got.inputs.data.tobytes() == want_x.tobytes()
        if loss == "regression":
            want_y = np.take(y, list(idx), axis=1)
            check_layout(got.targets.data, got is data)
            assert got.targets.shape == want_y.shape
            assert got.targets.data.tobytes() == want_y.tobytes()
        else:
            assert got.targets.dtype == np.int64
            assert got.targets.tobytes() == y[list(idx)].astype(np.int64).tobytes()
    assert data.size == 12
    k = 3 if loss == "regression" else 1
    assert sum(a.nbytes for a in held) == 12 * (5 + k) * 8


def test_config_validation():
    with pytest.raises(ArgumentError):
        TrainConfig(steps=-1)
    with pytest.raises(ArgumentError):
        TrainConfig(steps=1, batch_size=0)
    with pytest.raises(ArgumentError):
        TrainConfig(steps=1, optimizer="nope")
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


def test_straight_through_estimator_costs_no_closure():
    """lors and sqft_gc share the forward, the merge and the gradient-SVD init
    and differ only in the backward, so their closure gap is the quality cost
    of the straight-through estimator. At 50% sparsity it costs nothing: on
    seeds 0-4 lors closes at least sqft_gc's closure minus 0.01 (measured gaps
    -0.003 to +0.001). Closure is deterministic, and each of its validation
    losses runs evaluate."""
    for seed in range(5):
        spec = InitSpec("gradient_svd", seed=seed)
        lors = run_recovery(seed, "lors", spec).closure
        sqft_gc = run_recovery(seed, "sqft_gc", spec).closure
        assert lors >= sqft_gc - 0.01, (seed, lors, sqft_gc)


def _biased_model(variant, seed=0, dims=(8, 6, 4), rank=2, with_bias=True):
    layers = []
    for i, w in enumerate(random_dense_weights(seed, dims)):
        bias = DenseMatrix(np.random.default_rng(seed + i).normal(size=(w.rows, 1)))
        bias = bias if with_bias else None
        layers.append(make_layer(prune_magnitude(w, 0.5), rank=rank, variant=variant,
                                 bias=bias, name=f"layers.{i}"))
    model = ToyModel(layers)
    apply_init(model, InitSpec("zero_A_random_B", seed=seed + 7, std=0.1))
    return model


def test_float_mask_built_only_by_sqft():
    """Only sqft's saved set holds the RC float mask, one per layer, which its
    cost model counts; every other variant (sqft_gc and lors merge over the
    bool mask) saves none."""
    for variant in VARIANTS:
        model = _biased_model(variant)
        tape = Tape()
        tape.forward(model.layers, small_data(model).head(8))
        for layer, (_, ctx, _) in zip(model.layers, tape._links):
            fmask = layer.original_mask.astype(np.float64).tobytes()
            masks = [t for t in ctx if t.data.tobytes() == fmask]
            assert len(masks) == (variant == "sqft"), (variant, layer.name)


def test_gradients_share_no_memory_with_parameters():
    """transpose returns a view, so guard the in-place optimizer against a
    gradient that aliases a parameter or a frozen base weight."""
    for variant in VARIANTS:
        model = _biased_model(variant)
        params = list(model.named_trainable().values())
        params += [layer.base.values for layer in model.layers]
        data = small_data(model)
        tape, io = Tape(), []
        tape.forward(model.layers, data.head(8))
        grads = tape.backward(io)
        for g in grads + [dy for _, dy in io]:
            assert not any(np.shares_memory(g.data, p.data) for p in params), variant
        layer = model.layers[0]
        x = DenseMatrix(np.random.default_rng(1).normal(size=(layer.in_features, 3)))
        _, ctx = variant_forward(layer, x)
        vg = variant_backward(layer, DenseMatrix(np.ones((layer.out_features, 3))), ctx)
        for g in (vg.da, vg.db, vg.dx, vg.dbias):
            assert not any(np.shares_memory(g.data, p.data) for p in params), variant


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_overflow_in_any_layer_names_step_and_layer(variant, with_bias, where):
    """Adapter factors of 1e200 in the first or the last layer, set after two
    clean steps, overflow step 2 (in the merged weight of the merged-form
    variants, in the output of lora and spp): the NumericError names step 2 and that
    layer, and neither the parameters nor the optimizer state move. The
    forward-only evaluate names the layer alike."""
    model = _biased_model(variant, with_bias=with_bias)
    batch = small_data(model).head(8)
    optim = OptimState(kind="adaptive", lr=1e-3)
    for _ in range(2):
        train_step(model, batch, optim)
    layer = model.layers[where]
    layer.adapter.a.data[:] = 1e200
    layer.adapter.b.data[:] = 1e200

    def state():
        return ({k: p.data.tobytes() for k, p in model.named_trainable().items()},
                {k: m.tobytes() for k, m in optim.m.items()},
                {k: v.tobytes() for k, v in optim.v.items()}, optim.step_count)

    before = state()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as info:
        train_step(model, batch, optim)
    what = "merged weight" if variant in ("sqft", "sqft_gc", "spp_gc", "lors") else "output"
    assert (info.value.step, info.value.layer) == (2, layer.name)
    assert str(info.value) == f"step 2: non-finite {what} of {layer.name}"
    assert state() == before
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as info:
        evaluate(model, small_data(model, n=8))
    assert (info.value.step, str(info.value)) == (None, f"non-finite {what} of {layer.name}")


def test_nonfinite_gradient_is_caught_before_the_update():
    """A finite forward whose adapter gradient overflows: the gradient check
    names the step and the parameter, and no parameter moves."""
    pair = AdapterPair(a=DenseMatrix(np.zeros((2, 1))), b=DenseMatrix([[1e200, 1e200]]))
    layer = AdaptedLayer(SparseWeight(DenseMatrix(np.eye(2))), pair, "lors", name="layers.0")
    model = ToyModel([layer])
    batch = ProbeBatch(DenseMatrix(np.full((2, 3), 1e200)), [0, 1, 0], "classification")
    a0, b0 = pair.a.data.tobytes(), pair.b.data.tobytes()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as info:
        train_step(model, batch, OptimState(lr=0.1))
    assert str(info.value) == "step 0: non-finite gradient of layers.0.a"
    assert (info.value.step, info.value.layer) == (0, "layers.0.a")
    assert pair.a.data.tobytes() == a0 and pair.b.data.tobytes() == b0


def test_nonfinite_loss_names_the_last_layer():
    model = small_model()
    data = small_data(model)
    for layer in model.layers:
        layer.base.values.data[:] *= 1e80
    with np.errstate(over="ignore"), pytest.raises(NumericError) as info:
        evaluate(model, data)
    assert str(info.value) == "non-finite loss of layers.1"
    assert (info.value.step, info.value.layer) == (None, "layers.1")


def test_nonfinite_init_gradient_names_the_layer():
    """Gradient-SVD init, which runs before step 0: the probe's loss and dY
    are finite, but dW = dY X^T of the last layer overflows, so the svd input
    check raises and names that layer (and no step)."""
    weights = [DenseMatrix(np.full((4, 4), 1e307)), DenseMatrix(np.full((4, 4), 1e-307))]
    model = model_from_weights(weights, variant="lors", rank=2)
    data = Dataset(DenseMatrix(np.ones((4, 40))), DenseMatrix(np.zeros((4, 40))))
    config = TrainConfig(steps=2, init=InitSpec("gradient_svd"))
    with np.errstate(over="ignore"), pytest.raises(NumericError) as info:
        finetune(model, data, config)
    assert str(info.value) == "non-finite svd input of layers.1"
    assert (info.value.step, info.value.layer) == (None, "layers.1")


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("variant", ["lors", "sqft_gc"])
def test_nonfinite_merged_weight_raises_before_any_backward(monkeypatch, variant, where):
    """The forward is the one finiteness boundary of the merged weight: an
    overflowing merge raises there, and no backward (whose recompute is not
    scanned) runs."""
    model = small_model(variant=variant)
    batch = small_data(model).head(8)
    optim = OptimState(kind="adaptive", lr=1e-3)
    train_step(model, batch, optim)
    layer = model.layers[where]
    layer.adapter.a.data[:] = 1e200
    layer.adapter.b.data[:] = 1e200
    backward_calls = []
    real = adapters.variant_backward
    monkeypatch.setattr(adapters, "variant_backward",
                        lambda *args, **kw: backward_calls.append(args) or real(*args, **kw))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as info:
        train_step(model, batch, optim)
    assert str(info.value) == f"step 1: non-finite merged weight of {layer.name}"
    assert backward_calls == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 6), n=st.integers(0, 40),
       bound=st.integers(1, 2**40))
def test_one_draw_of_k_n_indices_is_k_draws_of_n(seed, k, n, bound):
    """Rng is counter-based: one integers(k * n) call gives the values of k
    consecutive integers(n) calls and leaves the generator at the same place."""
    whole, parts = Rng(seed), Rng(seed)
    drawn = whole.integers(k * n, bound)
    expected = np.concatenate([parts.integers(n, bound) for _ in range(k)])
    assert drawn.tobytes() == expected.tobytes()
    assert whole.state() == parts.state()


def _finetune_per_step_draw(model, dataset, config):
    """finetune with one index draw per step: the reference for the chunked draw."""
    apply_init(model, config.init, probe=dataset.head(32))
    optim = make_optimizer(config)
    counters = CostCounters()
    rng = Rng(config.seed)
    rows = []
    for step in range(config.steps):
        idx = rng.integers(config.batch_size, dataset.size)
        batch = dataset.batch(idx)
        assert batch.inputs.data.flags.c_contiguous
        assert batch.inputs.data.tobytes() == dataset.inputs.data[:, idx].tobytes()
        loss, peak = train_module._run_step(model, batch, optim, counters)
        rows.append((step, loss, counters.macs_forward, counters.macs_backward, peak))
    return model, MetricsTrace(rows)


@pytest.mark.parametrize("bucket, steps, batch_size",
                         [(10, 7, 4), (None, 260, 32), (None, 3, 9000)])
def test_chunked_index_draw_matches_per_step_draws(monkeypatch, bucket, steps, batch_size):
    """Runs whose steps cross chunk boundaries (2 steps a chunk, 256 steps a
    chunk at the default size, a batch larger than a chunk) give the metrics
    CSV and adapters of one draw per step, bit for bit."""
    if bucket is not None:
        monkeypatch.setattr(train_module, "BUCKET", bucket)
    config = TrainConfig(steps=steps, batch_size=batch_size, lr=1e-2, optimizer="adaptive",
                         init=InitSpec("zero_A_random_B"), seed=5)
    runs = []
    for run in (finetune, _finetune_per_step_draw):
        model = small_model(seed=2)
        _, trace = run(model, small_data(model, n=50), config)
        runs.append((trace.csv_text(), [p.data.tobytes() for p in model.named_trainable().values()]))
    assert runs[0] == runs[1]


def _bare_lors_step(ws, masks, pairs, moments, x, y_true, kind, lr, alpha=2.0):
    """One lors step of a ReLU stack in plain numpy, updating ``pairs`` in
    place; returns the loss. This is the evaluation order the step path keeps,
    bit for bit: merge, forward, squared error, recompute-and-reorder
    backward, then one bucketed update of every A and B."""
    def merge(i):
        out = pairs[i][0] @ pairs[i][1]
        out *= masks[i]
        out *= alpha
        out += ws[i]
        return out
    hs = [x]
    for i in range(len(ws)):
        y = merge(i) @ hs[-1]
        hs.append(np.maximum(y, 0.0))
    d = y - y_true
    scale = 0.5 / d.shape[1]
    loss = float((d * d).sum() * scale)
    g = d * scale
    g *= 2.0
    grads = [None] * len(ws)
    for i in reversed(range(len(ws))):
        (a, b), h = pairs[i], hs[i]
        dx = merge(i).T @ g
        grads[i] = ((g @ (h.T @ b.T)) * alpha, ((a.T @ g) @ h.T) * alpha)
        g = dx * (hs[i] > 0.0).astype(np.float64)
    flat = np.concatenate([d.reshape(-1) for pair in grads for d in pair])
    if kind == "sgd":
        upd = flat * lr
    else:
        m, v, t = moments
        moments[2] = t = t + 1
        m *= train_module.BETA1
        m += (1.0 - train_module.BETA1) * flat
        v *= train_module.BETA2
        v += (1.0 - train_module.BETA2) * flat * flat
        upd = m / (1.0 - train_module.BETA1 ** t) * lr
        upd /= np.sqrt(v / (1.0 - train_module.BETA2 ** t)) + train_module.EPS
    start = 0
    for p in (p for pair in pairs for p in pair):
        p -= upd[start:start + p.size].reshape(p.shape)
        start += p.size
    return loss


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_recovery_step_is_bitwise_a_bare_numpy_step(kind):
    """At the recovery shapes (3 layers of 64, rank 16, batch 32), 24 lors
    steps give the losses and every A and B of ``_bare_lors_step``."""
    weights = random_dense_weights(3, (64,) * 4)
    teacher = model_from_weights(weights, variant="lors", rank=1)
    data = make_teacher_data(teacher, seed=4, n=512, latent_dim=8)
    student = model_from_weights(weights, variant="lors", rank=16, prune_ratio=0.5)
    apply_init(student, InitSpec("gradient_svd"), probe=data.head(32))
    ws = [layer.base.values.data.copy() for layer in student.layers]
    masks = [layer.original_mask.copy() for layer in student.layers]
    pairs = [(layer.adapter.a.data.copy(), layer.adapter.b.data.copy())
             for layer in student.layers]
    moments = [np.zeros(6 * 64 * 16), np.zeros(6 * 64 * 16), 0]
    x_all, y_all = data.inputs.data, data.targets.data
    optim, rng = OptimState(kind=kind, lr=3e-4), Rng(5)
    for _ in range(24):
        idx = rng.integers(32, data.size)
        loss = train_step(student, data.batch(idx), optim)
        bare = _bare_lors_step(ws, masks, pairs, moments, np.take(x_all, idx, axis=1),
                               np.take(y_all, idx, axis=1), kind, 3e-4)
        assert loss == bare
        for layer, (a, b) in zip(student.layers, pairs):
            assert layer.adapter.a.data.tobytes() == a.tobytes()
            assert layer.adapter.b.data.tobytes() == b.tobytes()


def _traced_peak(fn, *args):
    """Bytes tracemalloc sees allocated at the peak of fn(*args)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _memory_gate_setup(width=256, L=32):
    rng = np.random.default_rng(0)
    bases = [prune_magnitude(DenseMatrix(rng.normal(size=(width, width))), 0.5)
             for _ in range(3)]
    batch = ProbeBatch(DenseMatrix(rng.normal(size=(width, L))),
                       DenseMatrix(rng.normal(size=(width, L))))
    return bases, batch


# Each variant's traced warm-step peak over its counted saved set, in RC, at
# three 256-wide layers, L = 32, r = 16, from an empty pool (measured: lora
# 0.65, lors 1.47, sqft_gc 1.52, spp_gc 1.47, sqft 0.52, spp 0.52). Every
# tensor goes back to the pool or dies once its last reader has run, so what
# is left is each schedule's own RC temporaries: one pooled buffer for the
# recompute variants, none beyond the saved set for sqft and spp.
STEP_EXCESS_RC = {"lora": 0.75, "lors": 1.5, "sqft_gc": 1.75, "spp_gc": 1.5,
                  "sqft": 0.75, "spp": 1.75}


def test_step_transient_peaks_follow_the_memory_model(monkeypatch):
    """tracemalloc gate on one warm train_step of three 256-wide layers (L = 32,
    r = 16): each variant holds at most its counted saved set plus its
    ``STEP_EXCESS_RC``, and lors's rank-r reordering holds less than sqft_gc,
    which holds less than sqft. The sqft, sqft_gc, spp and spp_gc bounds hold
    only because each backward body gives back its merged weight and saved
    tensors after their last reader, so later takes reuse them. The pool
    stays resident between steps, so the traced step starts from an empty
    pool and every pooled buffer it takes, saved ones included, is allocated
    and counted. Deterministic for a given numpy."""
    width, r = 256, 16
    bases, batch = _memory_gate_setup(width)
    peak, saved = {}, {}
    for variant in VARIANTS:
        model = ToyModel([make_layer(base, rank=r, variant=variant) for base in bases])
        optim, counters = OptimState(kind="sgd", lr=1e-3), CostCounters()
        train_step(model, batch, optim)
        monkeypatch.setattr(adapters, "_POOL", {})
        peak[variant] = _traced_peak(train_step, model, batch, optim, counters)
        saved[variant] = 8 * counters.saved_elements
    assert peak["lors"] < peak["sqft_gc"] < peak["sqft"], peak
    for variant, excess in STEP_EXCESS_RC.items():
        assert peak[variant] <= saved[variant] + excess * 8 * width * width, \
            (variant, (peak[variant] - saved[variant]) / (8 * width * width))


def test_warm_pool_step_allocates_no_saved_set(monkeypatch):
    """With the pool warm, one train_step of three 256-wide layers (L = 32,
    r = 16) takes every RC array from the pool: each variant's traced peak
    stays below 1.5 RC (measured 1.22 to 1.43), though sqft saves 2 RC and
    spp 3 RC per layer. Allocating those saved sets afresh every step peaks
    at about 7.1 RC for sqft and 10.3 RC for spp. Deterministic for a given
    numpy."""
    width, r = 256, 16
    bases, batch = _memory_gate_setup(width)
    monkeypatch.setattr(adapters, "_POOL", {})
    for variant in VARIANTS:
        model = ToyModel([make_layer(base, rank=r, variant=variant) for base in bases])
        optim = OptimState(kind="sgd", lr=1e-3)
        train_step(model, batch, optim)
        peak = _traced_peak(train_step, model, batch, optim)
        assert peak < 1.5 * 8 * width * width, (variant, peak / (8 * width * width))


def test_evaluate_holds_one_layer_at_a_time():
    """evaluate runs forward only: the traced peak of a held-out evaluate of
    an spp model stays below one layer's saved set (3RC + CL) plus four RL
    (measured 4.02 RL in all, as the saved set comes from the pool the
    first evaluate gave it back to; 28.02 RL when each pass drops its
    saved set); a step's forward keeps all three layers' saved sets."""
    width, L, r = 256, 32, 16
    bases, batch = _memory_gate_setup(width, L)
    model = ToyModel([make_layer(base, rank=r, variant="spp") for base in bases])
    held_out = Dataset(batch.inputs, batch.targets)
    evaluate(model, held_out)
    peak = _traced_peak(evaluate, model, held_out)
    one_layer = predict_cost("spp", width, width, L, r).saved_elements
    assert peak < 8 * (one_layer + 4 * width * L), peak


def test_teacher_data_holds_little_beyond_the_dataset(monkeypatch):
    """make_teacher_data builds its set block by block, each block's inputs
    and teacher outputs written straight into the rows: at run_recovery's
    training shape (width 64, n = 4096, latent 8) its traced peak is at most
    1.5 times the dataset it keeps (measured 1.27: the latent draw and one
    block's passes). Building the whole set as columns and copying it into
    rows peaks at 2.07 times."""
    teacher = model_from_weights(random_dense_weights(3, (64,) * 4), variant="lors", rank=1)
    make_teacher_data(teacher, seed=4, n=64, latent_dim=8)
    monkeypatch.setattr(adapters, "_POOL", {})  # counted inside the trace
    kept = []
    peak = _traced_peak(lambda: kept.append(make_teacher_data(teacher, seed=4, n=4096,
                                                              latent_dim=8)))
    held = kept[0]._x.nbytes + kept[0]._y.nbytes
    assert held == 2 * 8 * 64 * 4096
    assert peak <= 1.5 * held, peak / held


@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluate_peak_does_not_grow_with_depth(variant):
    """A held-out evaluate of three layers peaks at most 1.5 RL above one
    layer's (measured at most 1.005 RL at width 128, L = 32: the next
    layer's input); a pass that kept each layer's saved set for a backward
    would add at least two layers' CL."""
    width, L, r = 128, 32, 16
    bases, batch = _memory_gate_setup(width, L)
    held_out = Dataset(batch.inputs, batch.targets)
    peaks = []
    for depth in (1, 3):
        model = ToyModel([make_layer(base, rank=r, variant=variant) for base in bases[:depth]])
        evaluate(model, held_out)
        peaks.append(_traced_peak(evaluate, model, held_out))
    assert peaks[1] <= peaks[0] + 1.5 * 8 * width * L, (peaks, (peaks[1] - peaks[0]) / (8 * width * L))
