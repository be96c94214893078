"""Desk-scale training stack: toy models, optimizers, and the finetune loop.

Everything trains through the tape so every step's MAC and saved-element
tallies come from the same counters the benchmarks check. Base weights stay
frozen by construction: they are never handed to the optimizer, and a byte
hash before/after a run proves it.

The synthetic tasks are (a) teacher-student regression against a frozen dense
network, which gives a controllable pruning-recovery gap with a known floor
of zero, and (b) Gaussian-cluster classification for the accuracy path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ArgumentError, ShapeError, located
from . import matrix as mx
from .matrix import DenseMatrix, Rng
from .prune import SparseWeight, prune_magnitude
from .tape import CostCounters, Tape
from .adapters import VARIANTS, AdaptedLayer, apply_layer, make_layer
from .initialization import InitSpec, ProbeBatch, apply_init, record_loss

OPTIMIZERS = ("sgd", "adaptive")

CSV_HEADER = "step,loss,macs_fwd,macs_bwd,saved_peak"


class ToyModel:
    """Adapted layers with ReLU between them and a regression or K-way head."""

    def __init__(self, layers, head: str = "regression"):
        layers = list(layers)
        if not layers:
            raise ArgumentError("model needs at least one layer")
        if head not in ("regression", "classification"):
            raise ArgumentError(f"unknown head {head!r}")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_features != prev.out_features:
                raise ShapeError(
                    f"layer shapes do not compose: {prev.out_features} -> {nxt.in_features}"
                )
        self.layers = layers
        self.head = head

    @property
    def in_features(self) -> int:
        return self.layers[0].in_features

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    def forward(self, tape: Tape, x_id: int) -> int:
        h = x_id
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            h = apply_layer(tape, layer, h)
            if i < last:
                h = tape.relu(h)
        return h

    def forward_loss(self, tape: Tape, probe: ProbeBatch) -> int:
        """Record the forward pass plus the probe's loss; returns the loss node."""
        x_id = tape.leaf(probe.inputs, name="input")
        loss_id = record_loss(tape, self.forward(tape, x_id), probe)
        with located(layer=self.layers[-1].name):
            mx.check_finite(tape.value(loss_id).data, "loss")
        return loss_id

    def predict(self, x: DenseMatrix) -> DenseMatrix:
        tape = Tape()
        return tape.value(self.forward(tape, tape.leaf(x)))

    def named_trainable(self) -> dict[str, DenseMatrix]:
        out = {}
        for i, layer in enumerate(self.layers):
            for key, m in layer.trainable().items():
                out[f"layers.{i}.{key}"] = m
        return out

    def gather_grads(self, grads: dict[int, DenseMatrix]) -> dict[str, DenseMatrix]:
        """Map a tape gradient dict onto parameter names via each layer's node ids."""
        out = {}
        for i, layer in enumerate(self.layers):
            ids = layer.last_nodes
            out[f"layers.{i}.a"] = grads[ids["a"]]
            out[f"layers.{i}.b"] = grads[ids["b"]]
            if ids.get("bias") is not None:
                out[f"layers.{i}.bias"] = grads[ids["bias"]]
        return out

    def base_hash(self) -> str:
        """SHA-256 over the frozen base weight bytes, for the frozen-base check."""
        h = hashlib.sha256()
        for layer in self.layers:
            h.update(np.ascontiguousarray(layer.base.values.data).tobytes())
        return h.hexdigest()


@dataclass
class OptimState:
    """SGD or a first/second-moment adaptive method with bias correction."""

    kind: str = "sgd"
    lr: float = 2e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ArgumentError(f"unknown optimizer {self.kind!r}, expected one of {OPTIMIZERS}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ArgumentError(f"lr must be finite and nonnegative, got {self.lr}")

    def _buffer(self, store: dict, name: str, shape) -> np.ndarray:
        buf = store.get(name)
        if buf is None:
            buf = np.zeros(shape)
            store[name] = buf
        elif buf.shape != shape:
            raise ShapeError(f"optimizer buffer {name} has shape {buf.shape}, parameter {shape}")
        return buf

    def apply(self, params: dict[str, DenseMatrix], grads: dict[str, DenseMatrix]) -> None:
        self.step_count += 1
        for name, p in params.items():
            g = grads[name].data
            if self.kind == "sgd":
                p.data[:] = p.data - self.lr * g
                continue
            m = self._buffer(self.m, name, p.data.shape)
            v = self._buffer(self.v, name, p.data.shape)
            m[:] = self.beta1 * m + (1.0 - self.beta1) * g
            v[:] = self.beta2 * v + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.step_count)
            v_hat = v / (1.0 - self.beta2 ** self.step_count)
            p.data[:] = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainConfig:
    steps: int
    batch_size: int = 32
    lr: float = 2e-5
    optimizer: str = "sgd"
    variant: str = "lors"
    init: InitSpec = field(default_factory=InitSpec)
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ArgumentError(f"steps must be nonnegative, got {self.steps}")
        if self.batch_size < 1:
            raise ArgumentError(f"batch_size must be positive, got {self.batch_size}")
        make_optimizer(self)  # rejects a bad optimizer kind or lr up front
        if self.variant not in VARIANTS:
            raise ArgumentError(f"unknown variant {self.variant!r}")


@dataclass
class Dataset:
    """Fixed input columns with regression targets or integer labels."""

    inputs: DenseMatrix
    targets: Union[DenseMatrix, np.ndarray]
    loss: str = "regression"

    def __post_init__(self):
        probe = ProbeBatch(self.inputs, self.targets, self.loss)
        self.targets = probe.targets

    @property
    def size(self) -> int:
        return self.inputs.cols

    def batch(self, indices) -> ProbeBatch:
        idx = np.asarray(indices, dtype=np.int64)
        inputs = DenseMatrix._wrap(self.inputs.data[:, idx].copy())
        if self.loss == "regression":
            targets = DenseMatrix._wrap(self.targets.data[:, idx].copy())
        else:
            targets = self.targets[idx]
        return ProbeBatch(inputs, targets, self.loss)

    def full(self) -> ProbeBatch:
        return ProbeBatch(self.inputs, self.targets, self.loss)

    def head(self, n: int) -> ProbeBatch:
        return self.batch(np.arange(min(n, self.size)))


def _run_step(model: ToyModel, batch: ProbeBatch, optim: OptimState,
              counters: CostCounters):
    tape = Tape(counters=counters)
    with located(step=optim.step_count):
        loss_id = model.forward_loss(tape, batch)
        grads = model.gather_grads(tape.backward(loss_id))
        for name, g in reversed(grads.items()):  # backward order: last layer first
            with located(layer=name):
                mx.check_finite(g.data, "gradient")
    optim.apply(model.named_trainable(), grads)
    return float(tape.value(loss_id).data[0, 0]), tape.saved_ctx.peak


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
    give bitwise-identical traces.
    """
    if dataset.size < 1:
        raise ArgumentError("dataset must be nonempty")
    apply_init(model, config.init, probe=dataset.head(32))
    optim = make_optimizer(config)
    counters = CostCounters()
    rng = Rng(config.seed)
    rows = []
    for step in range(config.steps):
        idx = rng.integers(config.batch_size, dataset.size)
        loss, peak = _run_step(model, dataset.batch(idx), optim, counters)
        rows.append((step, loss, counters.macs_forward, counters.macs_backward, peak))
    return model, MetricsTrace(rows)


def evaluate(model: ToyModel, dataset: Dataset) -> dict:
    """Deterministic metrics on the full dataset: loss, and accuracy for
    classification (None for regression)."""
    if dataset.size < 1:
        raise ArgumentError("dataset must be nonempty")
    probe = dataset.full()
    tape = Tape()
    loss = float(tape.value(model.forward_loss(tape, probe)).data[0, 0])
    if probe.loss == "regression":
        return {"loss": loss, "accuracy": None}
    y = tape.value(model.layers[-1].last_nodes["out"])
    accuracy = float(np.mean(np.argmax(y.data, axis=0) == probe.targets))
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


def model_from_weights(weights, variant: str, rank: int, alpha: float = 2.0,
                       prune_ratio: float = 0.0, head: str = "regression") -> ToyModel:
    """Wrap dense weights as (optionally pruned) frozen bases with fresh
    zero adapters."""
    layers = []
    for i, w in enumerate(weights):
        if prune_ratio > 0.0:
            base = prune_magnitude(w, prune_ratio)
        else:
            base = SparseWeight(w.copy())
        layers.append(make_layer(base, rank=rank, variant=variant, alpha=alpha,
                                 name=f"layers.{i}"))
    return ToyModel(layers, head=head)


def make_teacher_data(teacher: ToyModel, seed: int, n: int,
                      latent_dim: Optional[int] = None,
                      latent_seed: Optional[int] = None) -> Dataset:
    """Inputs ~ N(0, 1); targets are the teacher's exact outputs.

    With latent_dim set, inputs are P z for a fixed projection P (C x d, std
    1/sqrt(d)) and fresh z ~ N(0, 1): the data then lives on a d-dimensional
    subspace, like real activations do. P is drawn from latent_seed (default
    seed) so train and validation splits share one manifold; entrywise input
    variance stays 1 either way.
    """
    rng = Rng(seed)
    if latent_dim is None:
        x = rng.normal_matrix(teacher.in_features, n, mean=0.0, std=1.0)
    else:
        if latent_dim < 1:
            raise ArgumentError(f"latent_dim must be >= 1, got {latent_dim}")
        # tag 41 keeps the projection stream clear of random_dense_weights,
        # which consumes Rng(seed) directly
        proj_rng = Rng(seed if latent_seed is None else latent_seed).derive(41)
        proj = proj_rng.normal_matrix(teacher.in_features, latent_dim,
                                      mean=0.0, std=1.0 / math.sqrt(latent_dim))
        z = rng.normal_matrix(latent_dim, n, mean=0.0, std=1.0)
        x = DenseMatrix._wrap(proj.data @ z.data)
    return Dataset(inputs=x, targets=teacher.predict(x), loss="regression")


def make_cluster_data(seed: int, k: int, dim: int, n: int) -> Dataset:
    """K Gaussian clusters (centers std 3, unit noise) with labels; columns
    cycle through the clusters."""
    rng = Rng(seed)
    centers = rng.normal_matrix(dim, k, mean=0.0, std=3.0)
    labels = np.arange(n, dtype=np.int64) % k
    x = rng.normal_matrix(dim, n, mean=0.0, std=1.0)
    x = DenseMatrix._wrap(x.data + centers.data[:, labels])
    return Dataset(inputs=x, targets=labels, loss="classification")


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
                         optimizer="adaptive", variant=variant, init=init,
                         seed=seed)
    finetune(student, train_data, config)
    val_final = evaluate(student, val_data)["loss"]
    return RecoveryResult(seed=seed, variant=variant, val_dense=val_dense,
                          val_pruned=val_pruned, val_final=val_final)
