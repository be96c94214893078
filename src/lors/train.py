"""Desk-scale training stack: toy models, optimizers, and the finetune loop.

Every step runs as one chain pass (``tape.Tape``): the layers' forward with a
ReLU between them and the loss, then the loss gradient and the layers'
backward in reverse, so every step's MAC and saved-element tallies come from
the same counters the benchmarks check. Base weights stay frozen by
construction: they are never handed to the optimizer, and a byte hash
before/after a run proves it.

The synthetic tasks are (a) teacher-student regression against a frozen dense
network, which gives a controllable pruning-recovery gap with a known floor
of zero, and (b) Gaussian-cluster classification for the accuracy path.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError
from . import matrix as mx
from .matrix import DenseMatrix, Rng
from .prune import SparseWeight, prune_magnitude
from .tape import CostCounters, Tape, loss_forward
from .adapters import _give, make_layer, variant_forward
from .initialization import InitSpec, ProbeBatch, apply_init

OPTIMIZERS = ("sgd", "adaptive")

CSV_HEADER = "step,loss,macs_fwd,macs_bwd,saved_peak"


class ToyModel:
    """Adapted layers with ReLU between them. The layers own their variant,
    rank and alpha; the data's loss kind ("regression" or "classification")
    picks the loss (``tape.loss_forward``)."""

    def __init__(self, layers):
        layers = list(layers)
        if not layers:
            raise ArgumentError("model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_features != prev.out_features:
                raise ShapeError(
                    f"layer shapes do not compose: {prev.out_features} -> {nxt.in_features}"
                )
        self.layers = layers

    @property
    def in_features(self) -> int:
        return self.layers[0].in_features

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    def predict(self, x: DenseMatrix) -> DenseMatrix:
        """The output of a step's forward (``Tape.forward``), bitwise, with no
        backward. Each pass's saved list is dropped before the next layer
        runs; the tensors after X in it, pooled for sqft and spp, go back to
        the pool (X is the caller's array or the layer below's output). The
        ReLU between layers runs in place on the fresh output of the layer
        before (never on ``x``)."""
        y = x
        for i, layer in enumerate(self.layers):
            if i:
                np.maximum(y.data, 0.0, out=y.data)
            y, saved = variant_forward(layer, y)
            if layer.variant in ("sqft", "spp"):
                _give(*(t.data for t in saved[1:]))
            del saved
        return y

    def named_trainable(self) -> dict[str, DenseMatrix]:
        return {f"layers.{i}.{key}": m for i, layer in enumerate(self.layers)
                for key, m in layer.trainable().items()}

    def base_hash(self) -> str:
        """SHA-256 over the frozen base weight bytes, for the frozen-base check."""
        h = hashlib.sha256()
        for layer in self.layers:
            h.update(np.ascontiguousarray(layer.base.values.data).tobytes())
        return h.hexdigest()


# Elements per optimizer bucket and batch indices per finetune draw: 64 KiB of
# float64 or int64, so no per-step temporary crosses the allocator's 128 KiB
# mmap threshold and pays fresh page faults.
BUCKET = 8192

# The adaptive method's moment decays and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimState:
    """SGD or a first/second-moment adaptive method with bias correction.

    The update is bucketed: consecutive parameters, in the order ``apply``
    receives them, form runs of at most ``BUCKET`` elements (a larger
    parameter is a run of its own), and each run is updated in one pass over
    its concatenated gradient and flat moments. ``m`` and ``v`` map each
    parameter name to a view of its run's moments. Every element goes through
    the same operations in the same order as the per-parameter rule

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        p = p - lr (m / c1) / (sqrt(v / c2) + eps),  c_i = 1 - b_i^t

    (b1, b2, eps = ``BETA1``, ``BETA2``, ``EPS``; sgd: p = p - lr g), so the
    result is bitwise equal to it.

    The first ``apply`` fixes the layout ((name, shape) of each parameter, in
    order) and zeroes the moments; a later call with another layout raises
    ShapeError before anything moves.
    """

    kind: str = "sgd"
    lr: float = 2e-5
    step_count: int = field(default=0, init=False)
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)
    _layout: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _runs: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ArgumentError(f"unknown optimizer {self.kind!r}, expected one of {OPTIMIZERS}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ArgumentError(f"lr must be finite and nonnegative, got {self.lr}")

    def _plan(self, layout: tuple) -> list:
        """Runs for ``layout`` ((name, shape) pairs), with zeroed moments.

        A run is (members, m, v): (name, start, stop, shape) per member, and
        the run's flat moments (None for sgd); ``m`` and ``v`` map each member
        to its view of them.
        """
        groups, size = [], 0
        for name, shape in layout:
            n = math.prod(shape)
            if not groups or size + n > BUCKET:
                groups.append([])
                size = 0
            groups[-1].append((name, size, size + n, shape))
            size += n
        runs = []
        for members in groups:
            m = v = None
            if self.kind == "adaptive":
                m, v = np.zeros(members[-1][2]), np.zeros(members[-1][2])
                for name, start, stop, shape in members:
                    self.m[name] = m[start:stop].reshape(shape)
                    self.v[name] = v[start:stop].reshape(shape)
            runs.append((members, m, v))
        return runs

    def apply(self, params: dict[str, DenseMatrix], grads: dict[str, DenseMatrix]) -> None:
        """One update of every parameter from its gradient.

        Every gradient is checked for finiteness, in backward order, before
        anything moves: a non-finite one raises NumericError naming the last
        such parameter in ``grads``, and parameters, moments and
        ``step_count`` keep their values. Then the runs are updated one at a
        time, each from its own concatenated gradient.
        """
        layout = tuple(zip(params, map(operator.attrgetter("data.shape"), params.values())))
        if self._layout is None:
            self._layout, self._runs = layout, self._plan(layout)
        elif layout != self._layout:
            raise ShapeError(f"optimizer layout is fixed at the first update: "
                             f"planned {self._layout}, got {layout}")
        for name, g in reversed(grads.items()):  # backward order: last layer first
            try:
                mx.check_finite(g.data, "gradient")
            except NumericError as exc:
                exc.layer = name
                raise
        self.step_count += 1
        b1, b2, lr = BETA1, BETA2, self.lr
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for members, m, v in self._runs:
            gs = [grads[name].data for name, *_ in members]
            g = gs[0].reshape(-1) if len(gs) == 1 else np.concatenate(gs, axis=None)
            if m is None:
                upd = g * lr
            else:
                m *= b1
                m += (1.0 - b1) * g
                t = (1.0 - b2) * g
                t *= g
                v *= b2
                v += t
                upd = m / c1
                upd *= lr
                np.divide(v, c2, out=t)
                np.sqrt(t, out=t)
                t += EPS
                upd /= t
            for name, start, stop, shape in members:
                p = params[name].data
                np.subtract(p, upd[start:stop].reshape(shape), out=p)


@dataclass
class TrainConfig:
    steps: int
    batch_size: int = 32
    lr: float = 2e-5
    optimizer: str = "sgd"
    init: InitSpec = field(default_factory=InitSpec)
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ArgumentError(f"steps must be nonnegative, got {self.steps}")
        if self.batch_size < 1:
            raise ArgumentError(f"batch_size must be positive, got {self.batch_size}")
        make_optimizer(self)  # rejects a bad optimizer kind or lr up front


class Dataset(ProbeBatch):
    """Fixed inputs with regression targets or integer labels, kept as one
    read-only contiguous row per sample (the only copy), so ``batch`` gathers
    rows; the whole set is one batch. Every batch reads as C-contiguous
    columns (C x L), since BLAS results, so every bit, depend on layout;
    ``inputs`` and ``targets`` are read-only transposed views of the rows."""

    def __init__(self, inputs: DenseMatrix, targets, loss: str = "regression"):
        whole = ProbeBatch(inputs, targets, loss)
        self.loss, self._x = loss, whole.inputs.data.T.copy()
        self._y = whole.targets.data.T.copy() if loss == "regression" else whole.targets.copy()
        self._x.flags.writeable = self._y.flags.writeable = False

    @classmethod
    def _from_rows(cls, x: np.ndarray, y: np.ndarray, loss: str = "regression") -> "Dataset":
        """The dataset whose rows are x (N x C) and y (N x K, or N labels),
        taken over with no copy and checked as ``__init__`` checks."""
        data = object.__new__(cls)
        data.loss, data._x, data._y = loss, x, y
        ProbeBatch(data.inputs, data.targets, loss)
        x.flags.writeable = y.flags.writeable = False
        return data

    @property
    def inputs(self) -> DenseMatrix:
        return DenseMatrix._wrap(self._x.T)

    @property
    def targets(self):
        return DenseMatrix._wrap(self._y.T) if self.loss == "regression" else self._y

    @property
    def size(self) -> int:
        return self._x.shape[0]

    def batch(self, indices) -> ProbeBatch:
        idx = np.asarray(indices, dtype=np.int64)
        inputs = DenseMatrix._wrap(self._x.take(idx, axis=0).T.copy())
        if self.loss == "regression":
            return ProbeBatch(inputs, DenseMatrix._wrap(self._y.take(idx, axis=0).T.copy()))
        return ProbeBatch(inputs, self._y[idx], self.loss)

    def head(self, n: int) -> ProbeBatch:
        return self.batch(np.arange(min(n, self.size)))


def _run_step(model: ToyModel, batch: ProbeBatch, optim: OptimState,
              counters: CostCounters):
    """One chain pass and one update; returns the loss and the step's saved peak."""
    tape, step = Tape(counters=counters), optim.step_count
    try:
        loss = tape.forward(model.layers, batch)
        params = model.named_trainable()
        optim.apply(params, dict(zip(params, tape.backward())))
    except NumericError as exc:
        exc.step = step
        raise
    return loss, tape.saved_ctx.peak


def train_step(model: ToyModel, batch: ProbeBatch, optim: OptimState,
               counters: Optional[CostCounters] = None) -> float:
    """One forward, one backward, one optimizer update; returns the loss."""
    loss, _ = _run_step(model, batch, optim,
                        counters if counters is not None else CostCounters())
    return loss


@dataclass
class MetricsTrace:
    """Per-step rows: (step, loss, cumulative fwd MACs, cumulative bwd MACs,
    peak saved elements within the step)."""

    rows: list

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for step, loss, macs_fwd, macs_bwd, saved_peak in self.rows:
            lines.append(f"{step},{loss!r},{macs_fwd},{macs_bwd},{saved_peak}")
        return "\n".join(lines) + "\n"

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())

    @property
    def final_loss(self) -> float:
        return self.rows[-1][1] if self.rows else float("nan")


def make_optimizer(config: TrainConfig) -> OptimState:
    return OptimState(kind=config.optimizer, lr=config.lr)


def finetune(model: ToyModel, dataset: Dataset, config: TrainConfig):
    """Initialize adapters per the config, then run the step loop.

    The init probe is the first 32 dataset columns; batches are drawn with
    replacement from a generator seeded by config.seed, so identical configs
    give bitwise-identical traces. One draw of k * batch_size indices, sliced
    per step, is k single-step draws of the counter-based generator.
    """
    apply_init(model, config.init, probe=dataset.head(32))
    optim = make_optimizer(config)
    counters = CostCounters()
    rng = Rng(config.seed)
    chunk = max(1, BUCKET // config.batch_size)
    rows = []
    for first in range(0, config.steps, chunk):
        n = min(chunk, config.steps - first)
        drawn = rng.integers(n * config.batch_size, dataset.size).reshape(n, -1)
        for step, idx in enumerate(drawn, first):
            loss, peak = _run_step(model, dataset.batch(idx), optim, counters)
            rows.append((step, loss, counters.macs_forward, counters.macs_backward, peak))
    return model, MetricsTrace(rows)


def evaluate(model: ToyModel, dataset: Dataset) -> dict:
    """Deterministic metrics on the full dataset: loss, and accuracy for
    classification (None for regression). Forward only, through
    ``ToyModel.predict``, then the loss of its output."""
    y = model.predict(dataset.inputs)
    loss, _ = loss_forward(y, dataset, layer=model.layers[-1].name)
    if dataset.loss == "regression":
        return {"loss": loss, "accuracy": None}
    accuracy = float(np.mean(np.argmax(y.data, axis=0) == dataset.targets))
    return {"loss": loss, "accuracy": accuracy}


# ---------------------------------------------------------------------------
# synthetic tasks
# ---------------------------------------------------------------------------

def random_dense_weights(seed: int, dims) -> list[DenseMatrix]:
    """One R x C weight per consecutive dim pair, std 1/sqrt(C)."""
    rng = Rng(seed)
    weights = []
    for i in range(len(dims) - 1):
        c, r_out = dims[i], dims[i + 1]
        weights.append(rng.normal_matrix(r_out, c, mean=0.0, std=1.0 / math.sqrt(c)))
    return weights


def model_from_weights(weights, variant: str, rank: int, prune_ratio: float = 0.0) -> ToyModel:
    """Wrap dense weights as (optionally pruned) frozen bases with fresh
    zero adapters (alpha 2 for the pair variants)."""
    layers = []
    for i, w in enumerate(weights):
        if prune_ratio > 0.0:
            base = prune_magnitude(w, prune_ratio)
        else:
            base = SparseWeight(w.copy())
        layers.append(make_layer(base, rank=rank, variant=variant, name=f"layers.{i}"))
    return ToyModel(layers)


# Samples per block of a generated dataset: each block's inputs and targets
# are made as columns and written straight into the dataset's rows, so no
# full-size column copy of them exists beside the rows. Blocks split columns
# only, and the last block takes the remainder (BLOCK to 2 BLOCK - 1 columns),
# so no block is narrower than the whole set: a narrow block takes other BLAS
# kernels (one column: gemv) and changes bits. Every BLAS result, so every
# bit, is then that of the one-shot build.
BLOCK = 512


def _rows_by_block(n: int, widths, columns) -> list[np.ndarray]:
    """One n x w row storage per width, filled one ``BLOCK`` of samples at a
    time: ``columns(block)`` gives one w x b column block per storage for
    the samples of the slice ``block``."""
    rows, start = [np.empty((n, w)) for w in widths], 0
    for stop in (*range(BLOCK, n - BLOCK + 1, BLOCK), n):
        block = slice(start, stop)
        for out, part in zip(rows, columns(block)):
            out[block] = part.T
        del part  # so the next block is made without this one's columns
        start = stop
    return rows


def make_teacher_data(teacher: ToyModel, seed: int, n: int,
                      latent_dim: Optional[int] = None,
                      latent_seed: Optional[int] = None) -> Dataset:
    """Inputs ~ N(0, 1); targets are the teacher's exact outputs.

    With latent_dim set, inputs are P z for a fixed projection P (C x d, std
    1/sqrt(d)) and fresh z ~ N(0, 1): the data then lives on a d-dimensional
    subspace, like real activations do. P is drawn from latent_seed (default
    seed) so train and validation splits share one manifold; entrywise input
    variance stays 1 either way.

    The set is built ``BLOCK`` columns at a time, each block's inputs (a
    column slice of the one draw, or P times one of z) and the teacher's
    ``predict`` of them going straight into the rows.
    """
    proj = None
    if latent_dim is not None:
        if latent_dim < 1:
            raise ArgumentError(f"latent_dim must be >= 1, got {latent_dim}")
        # tag 41 keeps the projection stream clear of random_dense_weights,
        # which consumes Rng(seed) directly
        proj_rng = Rng(seed if latent_seed is None else latent_seed).derive(41)
        proj = proj_rng.normal_matrix(teacher.in_features, latent_dim,
                                      mean=0.0, std=1.0 / math.sqrt(latent_dim)).data
    draw = Rng(seed).normal_matrix(teacher.in_features if proj is None else latent_dim, n,
                                   mean=0.0, std=1.0).data

    def columns(block):
        x = draw[:, block] if proj is None else proj @ draw[:, block]
        return x, teacher.predict(DenseMatrix._wrap(x)).data

    widths = (teacher.in_features, teacher.out_features)
    return Dataset._from_rows(*_rows_by_block(n, widths, columns))


def make_cluster_data(seed: int, k: int, dim: int, n: int) -> Dataset:
    """K Gaussian clusters (centers std 3, unit noise) with labels; columns
    cycle through the clusters. Built ``BLOCK`` columns at a time from one
    noise draw, as ``make_teacher_data`` is."""
    rng = Rng(seed)
    centers = rng.normal_matrix(dim, k, mean=0.0, std=3.0).data
    labels = np.arange(n, dtype=np.int64) % k
    noise = rng.normal_matrix(dim, n, mean=0.0, std=1.0).data
    x, = _rows_by_block(n, (dim,), lambda block: (noise[:, block] + centers[:, labels[block]],))
    return Dataset._from_rows(x, labels, "classification")


# ---------------------------------------------------------------------------
# pruning-recovery experiment
# ---------------------------------------------------------------------------

@dataclass
class RecoveryResult:
    seed: int
    variant: str
    val_dense: float
    val_pruned: float
    val_final: float

    @property
    def closure(self) -> float:
        """Fraction of the prune-induced loss gap closed by finetuning."""
        gap = self.val_pruned - self.val_dense
        if gap <= 0.0:
            return 1.0
        return (self.val_pruned - self.val_final) / gap


def run_recovery(seed: int, variant: str, init: InitSpec, steps: int = 500) -> RecoveryResult:
    """Prune a dense 3-layer teacher (width 64) to 50%, finetune the rank-16
    student (alpha 2, adaptive optimizer, lr 3e-4, batch 32) on 4096 teacher
    outputs, and report the validation losses (256 columns) before and after.

    Inputs lie on an 8-dimensional latent manifold. With isotropic inputs
    (latent_dim=None) the pruning damage of layer 1 is unreachable: the update
    (AB) .* M and the lost weights W .* (1 - M) have disjoint supports, so only
    cross-layer compensation remains and even a full-rank adapter stops near
    half the gap. On a thin manifold the adapter only has to match the lost
    weights' action on a d-dimensional input subspace, which is exactly the
    regime where low-rank correction earns its keep.
    """
    weights = random_dense_weights(seed, (64,) * 4)
    teacher = model_from_weights(weights, variant="lors", rank=1, prune_ratio=0.0)
    train_data = make_teacher_data(teacher, seed=seed + 1000, n=4096,
                                   latent_dim=8, latent_seed=seed)
    val_data = make_teacher_data(teacher, seed=seed + 2000, n=256,
                                 latent_dim=8, latent_seed=seed)

    student = model_from_weights(weights, variant=variant, rank=16, prune_ratio=0.5)
    val_dense = evaluate(teacher, val_data)["loss"]
    val_pruned = evaluate(student, val_data)["loss"]

    config = TrainConfig(steps=steps, batch_size=32, lr=3e-4,
                         optimizer="adaptive", init=init, seed=seed)
    finetune(student, train_data, config)
    val_final = evaluate(student, val_data)["loss"]
    return RecoveryResult(seed=seed, variant=variant, val_dense=val_dense,
                          val_pruned=val_pruned, val_final=val_final)
