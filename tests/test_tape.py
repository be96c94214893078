"""The training step as a chain: ``Tape.forward`` and ``Tape.backward``, and
the loss they share with evaluation (``loss_forward``, ``loss_backward``)."""

import gc
import sys
import weakref

import numpy as np
import pytest

from lors import adapters, tape as tape_module
from lors.adapters import VARIANTS, make_layer, predict_cost, variant_backward, variant_forward
from lors.errors import GraphError, NumericError, ShapeError
from lors.initialization import ProbeBatch
from lors.matrix import DenseMatrix
from lors.prune import SparseWeight, prune_magnitude
from lors.tape import CostCounters, Tape, loss_backward, loss_forward
from lors.train import OptimState, ToyModel, _run_step

DIMS = (9, 6, 6, 4)  # three layers; spp ranks must divide every input width
L = 5


def chain_model(variant, bias=False, seed=0, dims=DIMS):
    """Three pruned layers of ``variant`` with random factors (rank 3), a bias
    on every layer when ``bias``."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, (cols, rows) in enumerate(zip(dims, dims[1:])):
        w = DenseMatrix(rng.normal(size=(rows, cols)))
        b = DenseMatrix(rng.normal(size=(rows, 1))) if bias else None
        layer = make_layer(prune_magnitude(w, 0.5), rank=3, variant=variant, bias=b,
                           name=f"layers.{i}")
        layer.adapter.a = DenseMatrix(rng.normal(size=layer.adapter.a.shape) * 0.3)
        layer.adapter.b = DenseMatrix(rng.normal(size=layer.adapter.b.shape) * 0.3)
        layers.append(layer)
    return ToyModel(layers)


def chain_probe(loss, seed=1, dims=DIMS):
    rng = np.random.default_rng(seed)
    x = DenseMatrix(rng.normal(size=(dims[0], L)))
    if loss == "regression":
        return ProbeBatch(x, DenseMatrix(rng.normal(size=(dims[-1], L))))
    return ProbeBatch(x, rng.integers(0, dims[-1], size=L), "classification")


def tallies(c):
    return (c.macs_forward, c.macs_backward, c.saved_elements,
            c.elementwise_forward, c.elementwise_backward)


def fd(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of one matrix."""
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            g[i, j] = (f(xp) - f(xm)) / (2 * h)
    return g


def old_tape_step(model, probe):
    """The step as the general tape computed it, spelled out with direct
    layer calls and the tape's numpy expressions: a fresh ReLU output and a
    0/1 gate per hidden layer, the loss of the last output seeded with 1.0,
    and dY = dX (.) gate between layers. Returns the loss, each layer's dY
    (first layer first), the parameter gradients in trainable order and the
    five tallies: the layer passes', and per ReLU RL elementwise and RL
    saved forward and RL MACs backward, and the loss nodes' (see
    ``test_squared_error_is_the_four_op_chain``)."""
    c, ctxs, gates, y = CostCounters(), [], [], probe.inputs
    for i, layer in enumerate(model.layers):
        if i:
            gates.append(DenseMatrix((y.data > 0.0).astype(np.float64)))
            y = DenseMatrix(np.maximum(y.data, 0.0))
            c.elementwise_forward += y.data.size
            c.saved_elements += y.data.size
            c.macs_backward += y.data.size
        y, saved = variant_forward(layer, y, c)
        c.saved_elements += sum(t.data.size for t in saved)
        ctxs.append(saved)
    n, size = y.cols, y.data.size
    c.saved_elements += size
    if probe.loss == "regression":
        d = y.data - probe.targets.data
        alpha = 0.5 / n
        loss = float(np.array([[np.add.reduce(d * d, axis=None) * alpha]])[0, 0])
        dy = d * (1.0 * alpha)
        dy *= 2.0
        c.macs_forward += size
        c.macs_backward += size
        c.elementwise_forward += 2 * size + 1
        c.elementwise_backward += 2 * size + 1
    else:
        z = y.data
        ez = np.exp(z - z.max(axis=0, keepdims=True))
        probs = ez / ez.sum(axis=0, keepdims=True)
        loss = float(-np.mean(np.log(np.maximum(probs[probe.targets, np.arange(n)], 1e-300))))
        dy = probs.copy()
        dy[probe.targets, np.arange(n)] -= 1.0
        dy *= 1.0 / n
        c.elementwise_forward += 3 * size
        c.elementwise_backward += size
    dys, grads = [], []
    dy = DenseMatrix(dy)
    for i in reversed(range(len(model.layers))):
        g = variant_backward(model.layers[i], dy, ctxs[i], c)
        dys.insert(0, dy.data.tobytes())
        grads[:0] = [g.da, g.db] + ([g.dbias] if g.dbias is not None else [])
        if i:
            dy = DenseMatrix(g.dx.data * gates[i - 1].data)
    return loss, dys, [t.data.tobytes() for t in grads], tallies(c)


# ---------------------------------------------------------------------------
# bits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss", ["regression", "classification"])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_losses_dy_and_grads_are_bitwise_the_tapes(variant, bias, loss):
    """The chain's loss, each layer's dY, the parameter gradients (in the
    order of ``named_trainable``) and all five tallies are those of the
    general tape's step, spelled out in ``old_tape_step``, bit for bit."""
    probe = chain_probe(loss)
    want = old_tape_step(chain_model(variant, bias), probe)
    model = chain_model(variant, bias)
    tape, io = Tape(), []
    got_loss = tape.forward(model.layers, probe)
    grads = tape.backward(io)
    assert len(grads) == len(model.named_trainable())
    assert (got_loss, [dy.data.tobytes() for _, dy in io],
            [g.data.tobytes() for g in grads], tallies(tape.counters)) == want


def assert_step_matches_fd(model, probe):
    tape = Tape()
    tape.forward(model.layers, probe)
    grads = tape.backward()
    for (name, p), g in zip(model.named_trainable().items(), grads):
        p0 = p.data.copy()

        def f(v, p=p):
            p.data[:] = v
            return Tape().forward(model.layers, probe)

        want = fd(f, p0)
        p.data[:] = p0
        assert np.allclose(g.data, want, rtol=1e-5, atol=1e-7), name


def test_step_gradients_match_finite_differences():
    """dLoss/dA, dB and dbias of a three-layer lora chain, with the ReLU gates
    and the regression loss, against central differences."""
    assert_step_matches_fd(chain_model("lora", bias=True), chain_probe("regression"))


def test_classification_step_gradients_match_finite_differences():
    """The same through the softmax cross-entropy, on a biased sqft_gc chain,
    whose gradients go through the mask and the recomputed merged weight."""
    assert_step_matches_fd(chain_model("sqft_gc", bias=True), chain_probe("classification"))


def test_backward_io_holds_each_layers_input():
    """``backward(io)`` lists each layer's input X beside its dY, first layer
    first: the probe's own inputs, then the ReLU of the output of the layer
    below, bit for bit."""
    model, probe = chain_model("spp", bias=True), chain_probe("regression")
    want, x = [probe.inputs.data.tobytes()], probe.inputs
    for layer in chain_model("spp", bias=True).layers[:-1]:
        x = DenseMatrix(np.maximum(variant_forward(layer, x)[0].data, 0.0))
        want.append(x.data.tobytes())
    tape, io = Tape(), []
    tape.forward(model.layers, probe)
    tape.backward(io)
    assert io[0][0] is probe.inputs
    assert [x.data.tobytes() for x, _ in io] == want
    assert [dy.shape for _, dy in io] == [(rows, L) for rows in DIMS[1:]]


def test_identical_steps_give_bitwise_identical_grads():
    for variant in VARIANTS:
        model, probe = chain_model(variant), chain_probe("classification")

        def run():
            tape = Tape()
            tape.forward(model.layers, probe)
            return [g.data.tobytes() for g in tape.backward()]

        assert run() == run(), variant


# ---------------------------------------------------------------------------
# the loss
# ---------------------------------------------------------------------------

def test_squared_error_is_the_four_op_chain():
    """The regression loss gives the loss, the gradient, every tally and the
    saved count of scale(sum(square(sub(y, t))), 0.5 / L), bit for bit."""
    rng = np.random.default_rng(11)
    y0, t0 = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
    t0[0, 0] = y0[0, 0]  # a zero residual keeps the sign of zero visible
    probe = ProbeBatch(DenseMatrix(np.ones((2, 7))), DenseMatrix(t0))
    c = CostCounters()
    loss, saved = loss_forward(DenseMatrix(y0), probe, c)
    assert saved.size == 35
    grad = loss_backward(saved, probe, c.backward)
    alpha = 0.5 / 7
    d = y0 - t0
    assert loss == (d * d).sum() * alpha
    assert grad.data.tobytes() == ((np.full(d.shape, 1.0 * alpha) * d) * 2.0).tobytes()
    # sub 35 elementwise, square 35 MACs, sum 35 + scale 1; backward 35 MACs, 1 + 35 + 35
    assert tallies(c) == (35, 35, 0, 35 + 35 + 1, 1 + 35 + 35)
    with pytest.raises(ShapeError):
        loss_forward(DenseMatrix(y0[:3]), probe)


def test_softmax_cross_entropy_loss_and_gradient():
    rng = np.random.default_rng(4)
    z0 = rng.normal(size=(5, 7))
    labels = rng.integers(0, 5, size=7)
    probe = ProbeBatch(DenseMatrix(np.ones((2, 7))), labels, "classification")
    c = CostCounters()
    loss, saved = loss_forward(DenseMatrix(z0), probe, c)
    ez = np.exp(z0 - z0.max(axis=0, keepdims=True))
    p = ez / ez.sum(axis=0, keepdims=True)
    assert abs(loss - -np.mean(np.log(p[labels, np.arange(7)]))) < 1e-12
    g = loss_backward(saved, probe, c.backward).data
    assert g is saved  # built in place over the probabilities
    assert np.allclose(g, fd(lambda z: loss_forward(DenseMatrix(z), probe)[0], z0),
                       rtol=1e-5, atol=1e-8)
    assert tallies(c) == (0, 0, 0, 3 * 35, 35)


def test_softmax_label_count_must_match():
    probe = ProbeBatch(DenseMatrix(np.ones((2, 2))), np.array([0, 1]), "classification")
    with pytest.raises(ShapeError, match="^need 4 labels for 3x4 logits"):
        loss_forward(DenseMatrix(np.zeros((3, 4))), probe)


@pytest.mark.parametrize("labels, bad", [([0, -1], -1), ([-3, 2], -3), ([3, 0], 3),
                                         ([1, 7], 7), ([-1, 3], -1)])
def test_softmax_labels_must_lie_in_range(labels, bad):
    """A label outside [0, K) raises ShapeError, where numpy would read a
    negative one as a row from the end and a large one as an IndexError."""
    probe = ProbeBatch(DenseMatrix(np.ones((2, 2))), np.array(labels), "classification")
    with pytest.raises(ShapeError, match=rf"^label {bad} is outside \[0, 3\) for 3x2 logits$"):
        loss_forward(DenseMatrix(np.zeros((3, 2))), probe)
    edges = ProbeBatch(DenseMatrix(np.ones((2, 2))), np.array([0, 2]), "classification")
    assert loss_forward(DenseMatrix(np.zeros((3, 2))), edges)[0] == pytest.approx(np.log(3))


def test_a_nonfinite_loss_names_the_layer_given():
    probe = ProbeBatch(DenseMatrix(np.ones((2, 2))), DenseMatrix(np.zeros((1, 2))))
    y = DenseMatrix(np.full((1, 2), 1e200))
    with np.errstate(over="ignore"):
        assert loss_forward(y, probe)[0] == np.inf
        with pytest.raises(NumericError) as info:
            loss_forward(y, probe, layer="layers.3")
    assert str(info.value) == "non-finite loss of layers.3"


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def test_forward_and_backward_macs_of_a_step():
    """A 2 x 3 lora layer (r = 1) over a 3 x 4 input, then the squared error."""
    layer = make_layer(SparseWeight(DenseMatrix(np.ones((2, 3)))), 1, "lora")
    c = CostCounters()
    t = Tape(c)
    t.forward([layer], ProbeBatch(DenseMatrix(np.ones((3, 4))), DenseMatrix(np.zeros((2, 4)))))
    t.backward()
    # forward RCL + rCL + rRL = 24 + 12 + 8 and the square's 8;
    # backward RCL + 2rRL + 2rCL = 24 + 16 + 24 and the square's 8
    assert (c.macs_forward, c.macs_backward) == (44 + 8, 64 + 8)


@pytest.mark.parametrize("loss", ["regression", "classification"])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_saved_peak_is_the_counted_saved_set(monkeypatch, variant, bias, loss):
    """When the step's backward starts, the tape's saved peak is the counted
    saved set: each layer's (``predict_cost``), each ReLU gate (R x L) and the
    loss's R x L tensor. The counters tally the same, the backward adds
    nothing, and ``_run_step`` reports it."""
    model, probe = chain_model(variant, bias), chain_probe(loss)
    shapes = list(zip(DIMS[1:], DIMS))
    want = sum(predict_cost(variant, R, C, L, 3).saved_elements for R, C in shapes)
    want += sum(R * L for R, _ in shapes)  # two gates and the loss's tensor
    seen, real = [], Tape.backward
    monkeypatch.setattr(Tape, "backward",
                        lambda self, io=None: seen.append(self.saved_ctx.peak) or real(self, io))
    c = CostCounters()
    tape = Tape(c)
    tape.forward(model.layers, probe)
    assert (tape.saved_ctx.peak, c.saved_elements) == (want, want)
    tape.backward()
    assert (seen, tape.saved_ctx.peak, c.saved_elements) == ([want], want, want)
    _, peak = _run_step(chain_model(variant, bias), probe, OptimState(), CostCounters())
    assert peak == want and seen == [want, want]


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_one_layer_chain_saves_no_gate(variant):
    """With one layer there is no ReLU: the saved peak is the layer's counted
    set and the loss's R x L tensor, and the backward adds no Hadamard to the
    layer's and the loss's MACs."""
    dims = DIMS[:2]
    model, probe = chain_model(variant, dims=dims), chain_probe("regression", dims=dims)
    pred = predict_cost(variant, dims[1], dims[0], L, 3)
    tape = Tape()
    tape.forward(model.layers, probe)
    assert tape._links[0][2] is None
    tape.backward()
    c, rl = tape.counters, dims[1] * L
    assert (tape.saved_ctx.peak, c.saved_elements) == (pred.saved_elements + rl,) * 2
    assert c.macs_backward == pred.macs_backward + rl


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_each_tensor_dies_after_its_last_reader(monkeypatch, variant):
    """Layer outputs, ReLU gates, the loss's tensor and each layer's dY are
    dropped after their last reader and kept until it has run. At each
    layer's backward (last layer first) the outputs of the layers below it
    (the inputs of the layers up to it) and the gates below it are alive;
    the last output died with the loss, and every other output, gate and
    dY is gone. After the backward only the gradients it returns are left."""
    outputs, dys, seen = [], [], []
    real_fwd, real_bwd = tape_module.variant_forward, tape_module.variant_backward

    def alive(refs):
        return [r() is not None for r in refs]

    def fwd(layer, x, counters=None):
        y, ctx = real_fwd(layer, x, counters)
        outputs.append(weakref.ref(y.data))
        return y, ctx

    def bwd(layer, dy, ctx, counters=None):
        seen.append((layer.name, alive(outputs), alive(dys), alive(gates)))
        dys.append(weakref.ref(dy.data))
        return real_bwd(layer, dy, ctx, counters)

    monkeypatch.setattr(tape_module, "variant_forward", fwd)
    monkeypatch.setattr(tape_module, "variant_backward", bwd)
    model, probe = chain_model(variant, bias=True), chain_probe("regression")
    tape = Tape()
    tape.forward(model.layers, probe)
    gates = [weakref.ref(g) for _, _, g in tape._links if g is not None]
    loss_tensor = weakref.ref(tape._loss[0])
    assert alive(outputs) == [True, True, False] and alive(gates) == [True, True]
    grads = tape.backward()
    assert seen == [("layers.2", [True, True, False], [], [True, True]),
                    ("layers.1", [True, False, False], [False], [True, False]),
                    ("layers.0", [False, False, False], [False, False], [False, False])]
    assert alive(outputs + dys + gates + [loss_tensor]) == [False] * 9
    assert len(grads) == 9


def test_each_context_is_consumed_once(monkeypatch):
    """The step hands each layer's saved list to exactly one backward, which
    empties it: afterwards a second backward of it raises GraphError, and so
    does a second backward or forward of the tape."""
    contexts, real = [], tape_module.variant_forward

    def fwd(layer, x, counters=None):
        y, ctx = real(layer, x, counters)
        contexts.append((layer, ctx))
        return y, ctx

    monkeypatch.setattr(tape_module, "variant_forward", fwd)
    model, probe = chain_model("lors"), chain_probe("regression")
    tape = Tape()
    with pytest.raises(GraphError, match="^backward runs once, after forward$"):
        tape.backward()
    tape.forward(model.layers, probe)
    tape.backward()
    assert [ctx for _, ctx in contexts] == [[]] * 3
    for layer, ctx in contexts:
        with pytest.raises(GraphError, match="^backward context already consumed$"):
            variant_backward(layer, DenseMatrix(np.ones((layer.out_features, L))), ctx)
    c = tape.counters
    before = tallies(c)
    with pytest.raises(GraphError, match="^backward runs once, after forward$"):
        tape.backward()
    with pytest.raises(GraphError, match="^forward runs once per tape$"):
        tape.forward(model.layers, probe)
    assert tallies(c) == before


def test_a_failed_forward_leaves_nothing_to_run_back():
    model, probe = chain_model("lors"), chain_probe("regression")
    model.layers[1].adapter.a.data[:] = 1e200
    model.layers[1].adapter.b.data[:] = 1e200
    tape = Tape()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as info:
        tape.forward(model.layers, probe)
    assert info.value.layer == "layers.1"
    with pytest.raises(GraphError):
        tape.backward()


def test_spp_layer_graphs_die_with_their_backward(monkeypatch):
    """Once the step's backward returns, each spp layer's saved tile(B) is
    back in the pool and referenced by nothing else (the pool, ``buf`` and
    getrefcount's argument), though the tape itself is still referenced."""
    monkeypatch.setattr(adapters, "_POOL", {})
    rng = np.random.default_rng(9)
    layers = [make_layer(SparseWeight(DenseMatrix(rng.normal(size=(8, 8)))), 2, "spp")
              for _ in range(3)]
    for layer in layers:
        layer.adapter.b.data[:] = rng.normal(size=(1, 8))
    probe = ProbeBatch(DenseMatrix(rng.normal(size=(8, 5))), DenseMatrix(rng.normal(size=(8, 5))))
    t = Tape()
    t.forward(layers, probe)
    tiles = [weakref.ref(saved[1].data) for _, saved, _ in t._links]
    for layer, ref in zip(layers, tiles):
        assert np.array_equal(ref(), np.tile(layer.adapter.b.data, (8, 1)))
    t.backward()
    for ref in tiles:
        buf = ref()
        assert sum(p is buf for p in adapters._POOL[(8, 8)]) == 1
        assert sys.getrefcount(buf) == 3


@pytest.mark.parametrize("variant", VARIANTS)
def test_tape_is_freed_by_reference_counting(variant):
    """Nothing in a step refers back to its tape, so a tape and every array
    it holds are freed when the step drops it, not at a later pass of the
    cycle collector, before or after its backward."""
    model, probe = chain_model(variant), chain_probe("regression")
    gc.disable()
    try:
        for run_back in (False, True):
            t = Tape()
            t.forward(model.layers, probe)
            if run_back:
                t.backward()
            tape = weakref.ref(t)
            del t
            assert tape() is None
    finally:
        gc.enable()
