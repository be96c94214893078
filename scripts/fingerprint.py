"""Byte-identity fingerprint of the lors toolkit's outputs.

Usage::

    python3 scripts/fingerprint.py <src-dir>

imports ``lors`` from ``<src-dir>`` (e.g. ``src`` of one checkout, then of
another) and prints two SHA-256 per group of outputs: ``bits`` of its values
(outputs, gradients, merges, losses, files, text) and ``counters`` of its cost
tallies (the five ``CostCounters`` fields, saved-element peaks and the bench's
measured and predicted columns), ``-`` where a group has none. A change that
moves only counters leaves every ``bits`` hash as it was. Two trees whose
lines all agree compute the same bits, gradients and counters everywhere it
looks:

- ``layers``: every variant at six shapes, with and without a bias: Y, dX,
  dA, dB, dbias, the five counters and the saved-element count of a
  ``variant_forward``/``variant_backward`` pass whose counters tally its saved
  set as a training step does, then the same pass with fresh counters and
  with none; then 5 adaptive training steps of a 128-wide model per variant
  (losses, counters, factors) and its ``evaluate``;
- ``finetune``: rounds of ``finetune-w512``-shaped training (six students of
  three 512-wide layers, batch 32, rank 16) at seeds 41 and 42;
- ``pairmerge`` and ``sppmerge``: ``merge()`` of every layer of the two groups
  above whose adapter is an ``AdapterPair`` (lora, sqft, sqft_gc, lors), and
  of every one whose adapter is an ``SppAdapter`` (spp, spp_gc), so a change
  that rounds one kind of merge differently moves one line alone;
- ``recovery``: the closures of ``run_recovery`` over seeds 0-63 as float64
  bytes, and their minimum;
- ``verify``: the stdout of ``lors verify``;
- ``prune``: the three pruners over awkward inputs, and ``lors prune``'s
  output files;
- ``bench``: the ``lors bench`` CSV without its ``wall_time_s`` column;
- ``data``: the inputs and targets of ``make_teacher_data`` at
  ``run_recovery``'s training shape (seeds 0-3), at ``finetune-w512``'s (512
  wide, n = 1024) and, latent and not, at widths 64 and sizes n around the
  block width, and of ``make_cluster_data`` at the same sizes.

BLAS runs one thread. The script takes about 20 s on one core and is not a
test.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

if len(sys.argv) != 2:
    sys.exit(__doc__.split("\n\n")[1])
sys.path.insert(0, str(Path(sys.argv[1]).resolve()))

from lors import adapters, checkpoint, cli, initialization, prune, train  # noqa: E402
from lors.matrix import DenseMatrix, Rng  # noqa: E402
from lors.tape import CostCounters  # noqa: E402

SHAPES = ((4, 8, 3, 2), (7, 12, 5, 3), (16, 32, 9, 16), (9, 10, 1, 1),
          (64, 64, 32, 16), (40, 24, 6, 4))


def _feed(h, item) -> None:
    if item is None:
        h.update(b"<none>")
    elif isinstance(item, DenseMatrix):
        _feed(h, item.data)
    elif isinstance(item, np.ndarray):
        h.update(repr((item.shape, item.dtype.str)).encode())
        h.update(np.ascontiguousarray(item).tobytes())
    elif isinstance(item, initialization.ProbeBatch):
        for part in (item.loss, item.inputs, item.targets):
            _feed(h, part)
    elif isinstance(item, CostCounters):
        _feed(h, repr((item.macs_forward, item.macs_backward, item.saved_elements,
                       item.elementwise_forward, item.elementwise_backward)))
    elif isinstance(item, (bytes, bytearray)):
        h.update(item)
    else:
        h.update(repr(item).encode())


class Digest:
    """The bits and the counters of one group, hashed apart."""

    def __init__(self):
        self.bits, self.counters, self.counted = hashlib.sha256(), hashlib.sha256(), False

    def add(self, *items) -> None:
        """Values into ``bits``; a ``CostCounters`` goes to ``counters``."""
        for item in items:
            if isinstance(item, CostCounters):
                self.count(item)
            else:
                _feed(self.bits, item)

    def count(self, *items) -> None:
        for item in items:
            _feed(self.counters, item)
        self.counted = True

    def line(self, name: str, extra: str = "") -> str:
        counters = self.counters.hexdigest() if self.counted else "-"
        return f"{name:<9} bits {self.bits.hexdigest()}  counters {counters}{extra}"


def _layer(seed, variant, R, C, r, bias):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(R, C))
    w.reshape(-1)[np.argsort(np.abs(w), axis=None)[: R * C // 2]] = 0.0
    layer = adapters.make_layer(prune.SparseWeight(DenseMatrix(w)), rank=r, variant=variant,
                                bias=DenseMatrix(rng.normal(size=(R, 1))) if bias else None)
    layer.adapter.a = DenseMatrix(rng.normal(size=layer.adapter.a.shape))
    layer.adapter.b = DenseMatrix(rng.normal(size=layer.adapter.b.shape))
    return layer


class Merges:
    """The ``pairmerge`` and ``sppmerge`` groups."""

    def __init__(self):
        self.pair, self.spp = Digest(), Digest()

    def add(self, layer) -> None:
        """``merge()`` of the layer, into the group of its adapter's kind."""
        spp = isinstance(layer.adapter, adapters.SppAdapter)
        (self.spp if spp else self.pair).add(adapters.merge(layer).values)


def _pass_digest(d: Digest, merges: Merges, layer, x, dy) -> None:
    c = CostCounters()
    y, ctx = adapters.variant_forward(layer, x, c)
    saved = sum(t.data.size for t in adapters.counted_saved(layer, ctx))
    c.saved_elements += saved        # what a training step tallies for the pass
    d.add(y)
    g = adapters.variant_backward(layer, dy, ctx, c)
    d.add(g.dx, g.da, g.db, *(() if layer.bias is None else (g.dbias,)), c)
    d.count(saved)
    for counters in (CostCounters(), None):
        y, ctx = adapters.variant_forward(layer, x, counters)
        g = adapters.variant_backward(layer, dy, ctx, counters)
        d.add(y, g.da, g.db, g.dx, g.dbias, counters)
    merges.add(layer)


def group_layers(merges: Merges) -> Digest:
    d = Digest()
    for i, variant in enumerate(adapters.VARIANTS):
        for R, C, L, r in SHAPES:
            for bias in (False, True):
                layer = _layer(1000 * i + R * C + r, variant, R, C, r, bias)
                rng = np.random.default_rng(L + 7 * i)
                x = DenseMatrix(rng.normal(size=(C, L)))
                dy = DenseMatrix(rng.normal(size=(R, L)))
                _pass_digest(d, merges, layer, x, dy)
    weights = train.random_dense_weights(5, (128,) * 4)
    teacher = train.model_from_weights(weights, variant="lors", rank=1)
    data = train.make_teacher_data(teacher, seed=6, n=256)
    held_out = train.make_teacher_data(teacher, seed=7, n=64)
    for variant in adapters.VARIANTS:
        model = train.model_from_weights(weights, variant=variant, rank=16, prune_ratio=0.5)
        initialization.apply_init(
            model, initialization.InitSpec("zero_A_random_B", seed=8, std=0.02))
        optim = train.OptimState(kind="adaptive", lr=1e-3)
        for step in range(5):
            counters = CostCounters()
            batch = data.batch(np.arange(32 * step, 32 * step + 32))
            d.add(train.train_step(model, batch, optim, counters), counters)
        for layer in model.layers:
            d.add(layer.adapter.a, layer.adapter.b)
            merges.add(layer)
        d.add(train.evaluate(model, held_out))
    return d


def group_finetune(merges: Merges, rounds: int = 3) -> Digest:
    """Finetune-w512's build (perfbench/workloads.py) and its rounds."""
    d = Digest()
    for seed in (41, 42):
        weights = train.random_dense_weights(seed, (512,) * 4)
        teacher = train.model_from_weights(weights, variant="lors", rank=1)
        data = train.make_teacher_data(teacher, seed=seed + 1, n=1024)
        held_out = train.make_teacher_data(teacher, seed=seed + 5, n=128)
        bases = [prune.prune_magnitude(w, 0.5) for w in weights]
        students = {}
        for variant in adapters.VARIANTS:
            model = train.ToyModel([adapters.make_layer(base, rank=16, variant=variant,
                                                        alpha=2.0, name=f"layers.{i}")
                                    for i, base in enumerate(bases)])
            initialization.apply_init(
                model, initialization.InitSpec("zero_A_random_B", seed=seed + 2, std=0.02))
            students[variant] = (model, train.OptimState(kind="adaptive", lr=1e-3))
            d.add(train.evaluate(model, held_out))
        rng = Rng(seed + 3)
        for _ in range(rounds):
            batch = data.batch(rng.integers(32, data.size))
            for variant, (model, optim) in students.items():
                counters = CostCounters()
                d.add(train.train_step(model, batch, optim, counters), counters)
        for model, _ in students.values():
            for layer in model.layers:
                d.add(layer.adapter.a, layer.adapter.b)
                merges.add(layer)
            d.add(train.evaluate(model, held_out))
    return d


def group_recovery() -> tuple[Digest, float]:
    spec = initialization.InitSpec("gradient_svd")
    closures = np.array([train.run_recovery(seed, "lors", spec).closure for seed in range(64)])
    d = Digest()
    d.add(closures.tobytes())
    return d, float(closures.min())


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def group_verify() -> tuple[Digest, str]:
    code, text = _cli(["verify"])
    d = Digest()
    d.add(f"{code}\n{text}".encode())
    return d, text.splitlines()[-1]


def group_prune() -> Digest:
    d = Digest()
    rng = np.random.default_rng(3)
    calib = prune.CalibrationBatch(DenseMatrix(rng.normal(size=(16, 12))))
    inputs = [rng.normal(size=(8, 16)),
              np.round(rng.normal(size=(8, 16)), 1),            # ties
              np.where(rng.random(size=(8, 16)) < 0.3, -0.0, rng.normal(size=(8, 16))),
              np.full((8, 16), 2.5),
              rng.normal(size=(8, 16)) * 1e-310,                # subnormals
              np.asfortranarray(rng.normal(size=(8, 16)))]
    for w in map(DenseMatrix, inputs):
        for ratio in (0.0, 0.25, 0.5, 0.9):
            d.add(prune.prune_magnitude(w, ratio).values,
                  prune.prune_activation_scaled(w, calib, ratio).values)
        d.add(prune.prune_two_four(w).values,
              prune.prune_two_four(w, "activation", calib).values)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tensors = {}
        for i, w in enumerate(train.random_dense_weights(9, (64, 64, 32))):
            tensors[f"layers.{i}.weight"] = w
            tensors[f"layers.{i}.bias"] = DenseMatrix(rng.normal(size=(w.rows, 1)))
        checkpoint.save_checkpoint(tmp / "dense.ckpt", tensors)
        checkpoint.save_checkpoint(tmp / "calib.ckpt",
                                   {"calib": DenseMatrix(rng.normal(size=(64, 20)))})
        for method in ("magnitude", "two_four", "activation"):
            argv = ["prune", "--input", str(tmp / "dense.ckpt"),
                    "--output", str(tmp / f"{method}.ckpt"), "--method", method]
            if method == "activation":
                argv += ["--calib", str(tmp / "calib.ckpt")]
            code, text = _cli(argv)
            d.add(code, text, (tmp / f"{method}.ckpt").read_bytes())
    return d


def group_bench() -> Digest:
    """The CSV without ``wall_time_s``: the variant and shape columns are
    bits, the measured and predicted columns counters."""
    code, text = _cli(["bench", "--shapes", "64,64,64,16;96,48,20,8;12,30,7,3",
                       "--repeats", "2"])
    rows = [line.split(",") for line in text.splitlines()]
    header = rows[0]
    counted = [j for j, name in enumerate(header)
               if name.endswith(("_measured", "_predicted"))]
    keys = [j for j, name in enumerate(header) if j not in counted and name != "wall_time_s"]
    d = Digest()
    d.add(code, *([row[j] for j in keys] for row in rows))
    d.count(*([row[j] for j in counted] for row in rows))
    return d


def group_data() -> Digest:
    d = Digest()
    for seed in range(4):
        teacher = train.model_from_weights(train.random_dense_weights(seed, (64,) * 4),
                                           variant="lors", rank=1)
        d.add(train.make_teacher_data(teacher, seed=seed + 1000, n=4096,
                                      latent_dim=8, latent_seed=seed))
        for n in (1, 511, 512, 1025):
            d.add(train.make_teacher_data(teacher, seed=seed, n=n),
                  train.make_teacher_data(teacher, seed=seed, n=n, latent_dim=8))
    teacher = train.model_from_weights(train.random_dense_weights(41, (512,) * 4),
                                       variant="lors", rank=1)
    d.add(train.make_teacher_data(teacher, seed=42, n=1024))
    for n in (1, 511, 512, 1025):
        d.add(train.make_cluster_data(seed=n, k=10, dim=64, n=n))
    return d


def main() -> None:
    merges = Merges()
    print(group_layers(merges).line("layers"))
    print(group_finetune(merges).line("finetune"))
    print(merges.pair.line("pairmerge"))
    print(merges.spp.line("sppmerge"))
    recovery, worst = group_recovery()
    print(recovery.line("recovery", f"  min {worst!r}"))
    verify, summary = group_verify()
    print(verify.line("verify", f"  {summary}"))
    print(group_prune().line("prune"))
    print(group_bench().line("bench"))
    print(group_data().line("data"))


if __name__ == "__main__":
    main()
