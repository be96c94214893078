"""The three benchmark workloads: what is set up, what one op is, what is checked.

Each workload is a closed loop with one client: the benchmark runs a round
(one op of every kind, in a fixed order), checks the outputs outside the
timed region, and starts the next round. Inputs come only from the seed.

- ``finetune-w512``: one ``train_step`` per adapter variant on the same batch.
- ``recovery-w64``: one ``run_recovery`` of lors with gradient-SVD init at the
  paper defaults.
- ``prune-w512``: one in-process ``lors prune`` call per pruning method.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from lors import adapters, checkpoint, cli, initialization, prune, train
from lors.matrix import DenseMatrix, Rng
from lors.tape import CostCounters

VARIANTS = adapters.VARIANTS


class Finetune:
    """Six students, one per variant, over one shared magnitude-pruned base.

    Adaptive optimizer, ``zero_A_random_B`` init, rank 16, alpha 2, batch 32,
    teacher-regression data from the dense teacher the base was pruned from.
    At the end every student's loss on held-out data from the same teacher
    must be below its loss before the first step, and every trained layer's
    backward must pass ``gradient_check``.
    """

    name = "finetune-w512"
    kinds = VARIANTS
    reference = ("gemm", "elementwise", "lexsort", "python")
    sizes = {"full": dict(width=512, rank=16, batch=32, samples=1024, held_out=128),
             "tiny": dict(width=32, rank=4, batch=8, samples=64, held_out=32)}

    def __init__(self, seed: int, size: str = "full", workdir=None):
        self.seed = seed
        self.cfg = self.sizes[size]

    def build(self) -> None:
        cfg, seed = self.cfg, self.seed
        weights = train.random_dense_weights(seed, (cfg["width"],) * 4)
        teacher = train.model_from_weights(weights, variant="lors", rank=1)
        self.data = train.make_teacher_data(teacher, seed=seed + 1, n=cfg["samples"])
        self.held_out = train.make_teacher_data(teacher, seed=seed + 5, n=cfg["held_out"])
        bases = [prune.prune_magnitude(w, 0.5) for w in weights]
        self.students = {}
        for variant in VARIANTS:
            model = train.ToyModel([
                adapters.make_layer(base, rank=cfg["rank"], variant=variant, alpha=2.0,
                                    name=f"layers.{i}")
                for i, base in enumerate(bases)])
            initialization.apply_init(
                model, initialization.InitSpec("zero_A_random_B", seed=seed + 2, std=0.02))
            self.students[variant] = (model, train.OptimState(kind="adaptive", lr=1e-3))
        self.base_hash = self.students["lors"][0].base_hash()
        self.rng = Rng(seed + 3)
        self.tallies: dict[str, tuple] = {}
        self.losses: dict[str, list[float]] = {v: [] for v in VARIANTS}
        self.eval_before: dict[str, float] = {}

    def _eval_loss(self, variant: str) -> float:
        return train.evaluate(self.students[variant][0], self.held_out)["loss"]

    def begin_round(self, index: int) -> None:
        if not self.eval_before:
            self.eval_before = {v: self._eval_loss(v) for v in VARIANTS}
        self.batch = self.data.batch(self.rng.integers(self.cfg["batch"], self.data.size))

    def run(self, kind: str):
        model, optim = self.students[kind]
        counters = CostCounters()
        loss = train.train_step(model, self.batch, optim, counters)
        return loss, counters

    def check(self, kind: str, result) -> list[str]:
        loss, c = result
        if not math.isfinite(loss):
            return [f"{kind}: non-finite loss {loss}"]
        self.losses[kind].append(loss)
        tally = (c.macs_forward, c.macs_backward, c.saved_elements,
                 c.elementwise_forward, c.elementwise_backward)
        first = self.tallies.setdefault(kind, tally)
        if tally != first:
            return [f"{kind}: step tallies {tally} differ from the first step's {first}"]
        return []

    def finish(self) -> list[str]:
        failures = []
        for variant, (model, _) in self.students.items():
            if model.base_hash() != self.base_hash:
                failures.append(f"{variant}: frozen base weights changed")
            before, after = self.eval_before[variant], self._eval_loss(variant)
            if not after < before:
                failures.append(f"{variant}: held-out loss {after:.6g} after training, "
                                f"{before:.6g} before")
            rng = Rng(self.seed + 4)
            for layer in model.layers:
                failures += [f"{variant} {layer.name}: {m}" for m in gradient_check(layer, rng)]
                merged = adapters.merge(layer).values.data
                if np.any(merged[~layer.original_mask] != 0.0):
                    failures.append(f"{variant} {layer.name}: merge leaves the original mask")
        return failures

    def report(self, kind_ms: dict[str, list[float]]) -> dict:
        out = {}
        for v in VARIANTS:
            out[f"step_ms_p50.{v}"] = _median(kind_ms[v])
        for v in ("lors", "sqft"):
            out[f"step_ms_p95.{v}"] = _tail(kind_ms[v], 95)
            out[f"step_samples.{v}"] = len(kind_ms[v])
        out["step_tallies"] = {v: dict(zip(("macs_forward", "macs_backward", "saved",
                                             "elementwise_forward", "elementwise_backward"), t))
                               for v, t in self.tallies.items()}
        out["loss_first_last"] = {v: [ls[0], ls[-1]] for v, ls in self.losses.items() if ls}
        out["eval_loss_before"] = self.eval_before
        return out

    def close(self) -> None:
        pass


def gradient_check(layer, rng: Rng, cols: int = 8) -> list[str]:
    """Compare a layer's backward with central differences of its forward.

    With random X and G, f = <G, layer(X)> is at most quadratic along any
    direction of (A, B) and linear along X, so a central difference with step
    1 gives the directional derivative exactly up to rounding. lors follows
    the straight-through estimator: its adapter gradients are those of the
    mask-free product, which the lora forward over the same base computes.
    """
    x = rng.normal_matrix(layer.in_features, cols)
    g = rng.normal_matrix(layer.out_features, cols)
    ad = layer.adapter
    dirs = {name: rng.normal_matrix(m.rows, m.cols)
            for name, m in (("a", ad.a), ("b", ad.b), ("x", x))}
    _, ctx = adapters.variant_forward(layer, x)
    grads = adapters.variant_backward(layer, g, ctx)

    def f(variant, a, b, x_in):
        pair = (adapters.SppAdapter(a=a, b=b) if isinstance(ad, adapters.SppAdapter)
                else adapters.AdapterPair(a=a, b=b, alpha=ad.alpha))
        moved = adapters.AdaptedLayer(layer.base, pair, variant, bias=layer.bias)
        return float(np.sum(g.data * adapters.variant_forward(moved, x_in)[0].data))

    def central(variant, da, db, dx):
        step = [(DenseMatrix(m.data + sign * d.data) if d is not None else m)
                for sign in (1.0, -1.0) for m, d in ((ad.a, da), (ad.b, db), (x, dx))]
        plus, minus = f(variant, *step[:3]), f(variant, *step[3:])
        return (plus - minus) / 2.0, abs(plus) + abs(minus)

    adapter_variant = "lora" if layer.variant == "lors" else layer.variant
    failures = []
    for label, variant, want_fd, got in (
            ("adapter", adapter_variant, (dirs["a"], dirs["b"], None),
             np.sum(grads.da.data * dirs["a"].data) + np.sum(grads.db.data * dirs["b"].data)),
            ("input", layer.variant, (None, None, dirs["x"]),
             np.sum(grads.dx.data * dirs["x"].data))):
        want, scale = central(variant, *want_fd)
        if not abs(got - want) <= 1e-7 * scale:
            failures.append(f"{label} gradient gives directional derivative {got:.9g}, "
                            f"central difference {want:.9g}")
    return failures


class Recovery:
    """Back-to-back pruning-recovery runs of lors with gradient-SVD init.

    Round i uses recovery seed ``(7 * seed + i) % SEED_POOL``. Every seed of
    the pool closes at least 0.863 of the gap at the commit that defined this
    benchmark, so a closure below ``CLOSURE_FLOOR`` is a failed op.
    """

    name = "recovery-w64"
    kinds = ("recovery",)
    reference = ("jacobi", "small_matmul", "lexsort_groups")
    SEED_POOL = 64
    CLOSURE_FLOOR = 0.85

    def __init__(self, seed: int, size: str = "full", workdir=None):
        # One size only: the closure floor holds at the paper defaults.
        self.seed = seed

    def build(self) -> None:
        self.spec = initialization.InitSpec("gradient_svd")
        self.closures: dict[int, float] = {}

    def begin_round(self, index: int) -> None:
        self.recovery_seed = (7 * self.seed + index) % self.SEED_POOL

    def run(self, kind: str):
        return train.run_recovery(self.recovery_seed, "lors", self.spec)

    def check(self, kind: str, result) -> list[str]:
        closure = result.closure
        previous = self.closures.setdefault(result.seed, closure)
        if previous != closure:
            return [f"seed {result.seed}: closure {closure!r} differs from {previous!r}"]
        if not closure >= self.CLOSURE_FLOOR:
            return [f"seed {result.seed}: closure {closure:.4f} below {self.CLOSURE_FLOOR}"]
        return []

    def finish(self) -> list[str]:
        return []

    def report(self, kind_ms: dict[str, list[float]]) -> dict:
        return {
            "recovery_s_p50": _median(kind_ms["recovery"]) / 1e3,
            "closure_min": min(self.closures.values(), default=None),
            "closures": {str(k): v for k, v in sorted(self.closures.items())},
        }

    def close(self) -> None:
        pass


class Prune:
    """``lors prune`` on a dense checkpoint of ``depth`` square layers with biases.

    The method rotates through magnitude (ratio 0.5), two_four, and activation
    (ratio 0.5) with a calibration tensor of ``calib`` columns. Every output
    is loaded back and checked against the method's definition. One 512x512
    layer keeps a round near half a second, so a run holds enough rounds for
    a steady median.
    """

    name = "prune-w512"
    kinds = ("magnitude", "two_four", "activation")
    reference = ("lexsort_groups", "lexsort", "python")
    sizes = {"full": dict(width=512, depth=1, calib=256),
             "tiny": dict(width=64, depth=2, calib=16)}
    RATIO = 0.5

    def __init__(self, seed: int, size: str = "full", workdir=None):
        self.seed = seed
        self.cfg = self.sizes[size]
        self.dir = Path(tempfile.mkdtemp(prefix=".work-", dir=workdir))

    def build(self) -> None:
        width, seed = self.cfg["width"], self.seed
        weights = train.random_dense_weights(seed, (width,) * (self.cfg["depth"] + 1))
        rng = Rng(seed).derive(7)
        self.tensors = {}
        for i, w in enumerate(weights):
            self.tensors[f"layers.{i}.weight"] = w
            self.tensors[f"layers.{i}.bias"] = rng.normal_matrix(width, 1)
        self.calib = Rng(seed).derive(8).normal_matrix(width, self.cfg["calib"])
        self.dense_path = self.dir / "dense.ckpt"
        self.calib_path = self.dir / "calib.ckpt"
        checkpoint.save_checkpoint(self.dense_path, self.tensors)
        checkpoint.save_checkpoint(self.calib_path, {"calib": self.calib})
        self.norms = np.linalg.norm(self.calib.data, axis=1)

    def begin_round(self, index: int) -> None:
        # An op must write its output: none may be left from an earlier round.
        for kind in self.kinds:
            self._out(kind).unlink(missing_ok=True)

    def run(self, kind: str):
        argv = ["prune", "--input", str(self.dense_path), "--output", str(self._out(kind)),
                "--method", kind, "--ratio", str(self.RATIO)]
        if kind == "activation":
            argv += ["--calib", str(self.calib_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _out(self, kind: str) -> Path:
        return self.dir / f"pruned-{kind}.ckpt"

    def check(self, kind: str, code) -> list[str]:
        if code != 0:
            return [f"{kind}: lors prune exited {code}"]
        try:
            out = checkpoint.load_checkpoint(self._out(kind))
        except Exception as exc:  # any load failure is the op's failure
            return [f"{kind}: output does not load: {exc}"]
        if sorted(out) != sorted(self.tensors):
            return [f"{kind}: output holds {sorted(out)}"]
        failures = []
        for name, before in self.tensors.items():
            w, p = before.data, out[name].data
            if p.shape != w.shape:
                failures.append(f"{kind} {name}: shape {p.shape} != {w.shape}")
            elif not name.endswith(".weight"):
                if not np.array_equal(p, w):
                    failures.append(f"{kind} {name}: non-weight tensor changed")
            else:
                failures += [f"{kind} {name}: {m}" for m in self._check_weight(kind, w, p)]
        return failures

    def _check_weight(self, kind: str, w: np.ndarray, p: np.ndarray) -> list[str]:
        kept = p != 0.0
        if not np.array_equal(p[kept], w[kept]):
            return ["kept entries changed value"]
        rows, cols = w.shape
        if kind == "magnitude":
            if kept.sum() != w.size - int(self.RATIO * w.size):
                return [f"{int(kept.sum())} nonzeros, expected {w.size - int(self.RATIO * w.size)}"]
            score = np.abs(w)
            if score[~kept].max() > score[kept].min():
                return ["a removed entry outscores a kept one"]
        elif kind == "two_four":
            if not prune.two_four_valid(DenseMatrix(p)):
                return ["not a valid 2:4 pattern"]
            groups = kept.reshape(rows, cols // 4, 4)
            if not np.all(groups.sum(axis=2) == 2):
                return ["a group does not keep exactly two entries"]
            score = np.abs(w).reshape(rows, cols // 4, 4)
            low_kept = np.where(groups, score, np.inf).min(axis=2)
            high_removed = np.where(groups, -np.inf, score).max(axis=2)
            if np.any(high_removed > low_kept):
                return ["a removed entry outscores a kept one in its group"]
        else:
            expected = cols - int(self.RATIO * cols)
            if not np.all(kept.sum(axis=1) == expected):
                return [f"a row does not keep exactly {expected} entries"]
            score = np.abs(w) * self.norms[np.newaxis, :]
            low_kept = np.where(kept, score, np.inf).min(axis=1)
            high_removed = np.where(kept, -np.inf, score).max(axis=1)
            if np.any(high_removed > low_kept):
                return ["a removed entry outscores a kept one in its row"]
        return []

    def finish(self) -> list[str]:
        return []

    def report(self, kind_ms: dict[str, list[float]]) -> dict:
        return {f"prune_s_p50.{k}": _median(kind_ms[k]) / 1e3 for k in self.kinds}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Finetune, Recovery, Prune)}


def _median(values):
    return float(np.median(values)) if values else None


def _tail(values, q):
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return float(np.percentile(values, q))
