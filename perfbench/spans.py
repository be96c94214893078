"""In-memory spans around the public functions of each ``lors`` module.

``install`` replaces every public function and public method of the modules in
``MODULES`` (plus the private step function ``train._run_step``) by a wrapper
that records a span, and rebinds each wrapper under every name a caller looks
it up by: ``lors.adapters.variant_forward`` as well as the copy that
``lors.initialization`` imported, ``lors.cli.load_checkpoint`` as well as
``lors.checkpoint.load_checkpoint``. ``uninstall`` puts the originals back,
so an untraced round runs the unmodified program.

A span is ``[name, start, end, parent, op, child_s, step]``: ``parent`` is the
index of the enclosing span, ``op`` the id of the benchmark op it belongs to,
``child_s`` the summed duration of its direct children (the program is single
threaded, so children never overlap) and ``step`` the index of the enclosing
training-step span. Self time is ``end - start - child_s``. Spans are only
recorded while an op is open; the benchmark's own checks run outside ops.
Spans stay in memory until the run ends; ``Tracer.write_jsonl`` writes them
out.

A few hooks read the program's own counters at layer boundaries:

- ``adapters.variant_forward`` / ``variant_backward``: MAC deltas and saved
  elements of each layer pass, compared exactly with ``predict_cost``;
- ``tape.Tape.backward``: the peak saved-element count of the tape;
- ``initialization.init_gradient_svd``: passes a ``MemoryGauge`` when the
  caller gave none and records its peak;
- ``checkpoint.load_checkpoint`` / ``save_checkpoint``: file bytes;
- ``DenseMatrix._wrap`` / ``DenseMatrix.__init__``: counted, not spanned
  (each is one finiteness scan, and they are the most frequent calls).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

import lors
from lors import adapters
from lors.initialization import MemoryGauge

MODULES = ("adapters", "matrix", "tape", "train", "initialization", "svd",
           "prune", "checkpoint", "cli")

# Pure bookkeeping classes and trivial getters: wrapping them would multiply
# the span count without naming any work.
_SKIP_CLASSES = {"CostCounters", "SavedContext", "TapeNode", "_Context"}
_SKIP_METHODS = {("Tape", "value"), ("Tape", "node")}
_EXTRA_FUNCTIONS = (("train", "_run_step"),)

_clock = time.perf_counter


class Tracer:
    """Span store plus the per-op and per-step tallies the hooks collect."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None            # id of the open benchmark op, or None
        self.step = None          # index of the open train._run_step span
        self.step_variant: dict[int, str] = {}
        self.scans: dict[int, int] = defaultdict(int)        # step -> finiteness scans
        self.layer_passes: list[dict] = []                   # one per forward+backward
        self.saved_peak: dict[int, int] = defaultdict(int)   # step -> tape peak
        self.gauge_peaks: list[int] = []
        self.file_bytes = 0                                  # checkpoint bytes read or written
        self.failures: dict[int, list[str]] = defaultdict(list)
        self.op_kind: dict[int, str] = {}
        self._pending: dict[int, dict] = {}                  # id(ctx) -> forward stats

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, _clock(), 0.0, parent, self.op, 0.0, self.step])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = _clock()
        self.stack.pop()
        if idx == self.step:
            self.step = None
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def begin_op(self, op_id: int, kind: str) -> int:
        self.op = op_id
        self.op_kind[op_id] = kind
        return self.open("perfbench.op")

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op = None
        self._pending.clear()

    def fail(self, message: str) -> None:
        self.failures[self.op].append(message)

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, op, child_s, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "self_s": end - start - child_s,
                                     "step": step}) + "\n")


# ---------------------------------------------------------------------------
# hooks: (before(tracer, args, kwargs) -> token, after(tracer, token, args,
# kwargs, result)); both run inside the span
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _forward_before(tracer, args, kwargs):
    counters = _arg(args, kwargs, 2, "counters")
    return None if counters is None else (counters, counters.macs_forward)


def _forward_after(tracer, token, args, kwargs, result):
    if token is None:
        return
    counters, before = token
    layer, x = args[0], _arg(args, kwargs, 1, "x")
    _, ctx = result
    shape = (layer.out_features, layer.in_features, x.cols, layer.rank)
    pred = adapters.predict_cost(layer.variant, *shape)
    stats = {
        "variant": layer.variant, "step": tracer.step, "shape": shape,
        "macs_forward": counters.macs_forward - before,
        "saved": sum(t.rows * t.cols for t in adapters.counted_saved(layer, ctx)),
        "macs_backward": None, "pred": pred,
    }
    if stats["macs_forward"] != pred.macs_forward:
        tracer.fail(f"{layer.name} {layer.variant} forward MACs "
                    f"{stats['macs_forward']} != predicted {pred.macs_forward}")
    if stats["saved"] != pred.saved_elements:
        tracer.fail(f"{layer.name} {layer.variant} saved elements "
                    f"{stats['saved']} != predicted {pred.saved_elements}")
    tracer._pending[id(ctx)] = stats


def _backward_before(tracer, args, kwargs):
    counters = _arg(args, kwargs, 3, "counters")
    return None if counters is None else (counters, counters.macs_backward)


def _backward_after(tracer, token, args, kwargs, result):
    ctx = _arg(args, kwargs, 2, "ctx")
    stats = tracer._pending.pop(id(ctx), None)
    if token is None or stats is None:
        return
    counters, before = token
    stats["macs_backward"] = counters.macs_backward - before
    if stats["macs_backward"] != stats["pred"].macs_backward:
        tracer.fail(f"{args[0].name} {stats['variant']} backward MACs "
                    f"{stats['macs_backward']} != predicted {stats['pred'].macs_backward}")
    tracer.layer_passes.append(stats)


def _tape_backward_before(tracer, args, kwargs):
    if tracer.step is not None:
        peak = args[0].saved_ctx.peak
        tracer.saved_peak[tracer.step] = max(tracer.saved_peak[tracer.step], peak)


def _run_step_before(tracer, args, kwargs):
    # Steps do not nest; Tracer.close ends the step with its span.
    tracer.step = tracer.stack[-1]
    tracer.step_variant[tracer.step] = args[0].layers[0].variant


def _gradient_svd_before(tracer, args, kwargs):
    if len(args) <= 5 and kwargs.get("gauge") is None:
        kwargs["gauge"] = MemoryGauge()
    return kwargs["gauge"]


def _gradient_svd_after(tracer, gauge, args, kwargs, result):
    tracer.gauge_peaks.append(gauge.peak)


def _file_after(tracer, token, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    tracer.file_bytes += os.path.getsize(path)


HOOKS = {
    "adapters.variant_forward": (_forward_before, _forward_after),
    "adapters.variant_backward": (_backward_before, _backward_after),
    "tape.Tape.backward": (_tape_backward_before, None),
    "train._run_step": (_run_step_before, None),
    "initialization.init_gradient_svd": (_gradient_svd_before, _gradient_svd_after),
    "checkpoint.load_checkpoint": (None, _file_after),
    "checkpoint.save_checkpoint": (None, _file_after),
}


def _span_wrapper(tracer: Tracer, name: str, fn):
    before, after = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            token = before(tracer, args, kwargs) if before else None
            result = fn(*args, **kwargs)
            if after:
                after(tracer, token, args, kwargs, result)
            return result
        finally:
            tracer.close(idx)

    return wrapper


def _scan_counter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.step is not None:
            tracer.scans[tracer.step] += 1
        return fn(*args, **kwargs)

    return wrapper


class Installation:
    """The rebinding of every traced name; ``uninstall`` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.restore: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self.restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self.restore:
            raise RuntimeError("spans are already installed")
        modules = {m: importlib.import_module(f"lors.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[id(obj)] = _span_wrapper(self.tracer, f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and obj.__name__ not in _SKIP_CLASSES:
                    self._wrap_methods(short, obj)
        for short, attr in _EXTRA_FUNCTIONS:
            obj = getattr(modules[short], attr)
            wrappers[id(obj)] = _span_wrapper(self.tracer, f"{short}.{attr}", obj)
        dense = modules["matrix"].DenseMatrix
        self._set(dense, "_wrap",
                  classmethod(_scan_counter(self.tracer, dense.__dict__["_wrap"].__func__)))
        self._set(dense, "__init__", _scan_counter(self.tracer, dense.__dict__["__init__"]))
        namespaces = [lors] + [mod for name, mod in vars(lors).items()
                               if inspect.ismodule(mod) and mod.__name__.startswith("lors.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._set(ns, attr, wrappers[id(obj)])

    def _wrap_methods(self, short, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and not attr.startswith("_") \
                    and (cls.__name__, attr) not in _SKIP_METHODS:
                name = f"{short}.{cls.__name__}.{attr}"
                self._set(cls, attr, _span_wrapper(self.tracer, name, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def module_of(name: str) -> str:
    return name.split(".", 1)[0]


PRUNERS = {"magnitude": "prune.prune_magnitude", "two_four": "prune.prune_two_four",
           "activation": "prune.prune_activation_scaled"}


class _Tally:
    """Sums over the spans of one traced run, in one pass."""

    def __init__(self, tracer: Tracer):
        self.total = defaultdict(float)                  # name -> inclusive s
        self.calls = defaultdict(int)                    # name -> calls
        self.per_op = defaultdict(float)                 # (op, name) -> inclusive s
        self.self_s = defaultdict(lambda: defaultdict(float))  # op -> module -> self s
        self.op_s: dict[int, float] = {}                 # op -> duration
        self.in_step = defaultdict(float)                # (variant, name) -> inclusive s
        self.self_in_step = defaultdict(float)           # (variant, name) -> self s
        self.matrix_calls_in_steps = 0
        self.steps = defaultdict(list)                   # variant -> step span ids
        self.step_s = defaultdict(float)                 # variant -> summed step s
        for idx, (name, start, end, parent, op, child_s, step) in enumerate(tracer.spans):
            dur = end - start
            self.total[name] += dur
            self.calls[name] += 1
            self.per_op[op, name] += dur
            self.self_s[op][module_of(name)] += dur - child_s
            if name == "perfbench.op":
                self.op_s[op] = dur
            elif name == "train._run_step":
                variant = tracer.step_variant[idx]
                self.steps[variant].append(idx)
                self.step_s[variant] += dur
            elif step is not None:
                variant = tracer.step_variant[step]
                self.in_step[variant, name] += dur
                self.self_in_step[variant, name] += dur - child_s
                self.matrix_calls_in_steps += module_of(name) == "matrix"

    def per_call(self, name: str, scale: float = 1.0):
        calls = self.calls[name]
        return self.total[name] / calls * scale if calls else None


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def _variant_row(tracer: Tracer, tally: _Tally, variant: str) -> dict:
    steps = tally.steps.get(variant, [])
    n = len(steps)
    passes = [p for p in tracer.layer_passes if tracer.step_variant.get(p["step"]) == variant]
    fwd = tally.in_step[variant, "adapters.variant_forward"]
    bwd = tally.in_step[variant, "adapters.variant_backward"]
    macs = sum(p["macs_forward"] + p["macs_backward"] for p in passes)
    return {
        "steps": n,
        "step_s": tally.step_s.get(variant, 0.0),
        "fwd_s": fwd,
        "bwd_s": bwd,
        "matmul_s": tally.in_step[variant, "matrix.matmul"],
        "tape_backward_self_s": tally.self_in_step[variant, "tape.Tape.backward"],
        "macs_bwd": sum(p["macs_backward"] for p in passes) // n if n else 0,
        "saved": sum(p["saved"] for p in passes) // n if n else 0,
        "gmacs_per_s": macs / (fwd + bwd) / 1e9 if fwd + bwd > 0 else 0.0,
        "scans": sum(tracer.scans[s] for s in steps) / n if n else 0.0,
        "saved_peak": max((tracer.saved_peak[s] for s in steps), default=0),
    }


def analyze(tracer: Tracer, wl, ops) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds, and the same in seconds for reading.

    The metrics map name -> (value, unit). Times in them are shares (%) of the
    time they belong to, so that a layer a workload never calls reads 0
    rather than a time; counts are exact. The report holds the blocking-path
    self time per module and op kind, per-variant times in ms, the tracing
    overhead and per-call times.
    """
    tally = _Tally(tracer)
    total, n_ops = sum(tally.op_s.values()), len(tally.op_s)
    rows = {v: _variant_row(tracer, tally, v) for v in adapters.VARIANTS}
    m = {}
    for module in MODULES:
        m[f"{module}.self_pct"] = (
            _pct(sum(s.get(module, 0.0) for s in tally.self_s.values()), total), "%")
    for v, t in rows.items():
        m[f"adapters.fwd_pct.{v}"] = (_pct(t["fwd_s"], t["step_s"]), "%")
        m[f"adapters.bwd_pct.{v}"] = (_pct(t["bwd_s"], t["step_s"]), "%")
        m[f"adapters.macs_bwd.{v}"] = (t["macs_bwd"], "count")
        m[f"adapters.saved_elements.{v}"] = (t["saved"], "count")
        m[f"adapters.gmacs_per_s.{v}"] = (t["gmacs_per_s"], "GMAC/s")
        m[f"matrix.matmul_pct.{v}"] = (_pct(t["matmul_s"], t["step_s"]), "%")
        m[f"matrix.wrap_calls_per_step.{v}"] = (t["scans"], "count")
        m[f"tape.backward_self_pct.{v}"] = (_pct(t["tape_backward_self_s"], t["step_s"]), "%")
        m[f"tape.saved_peak.{v}"] = (t["saved_peak"], "count")
    n_steps = sum(t["steps"] for t in rows.values())
    m["matrix.ops_per_step"] = (tally.matrix_calls_in_steps / n_steps if n_steps else 0.0,
                                "count")
    m["train.optim_pct"] = (_pct(sum(tally.in_step[v, "train.OptimState.apply"] for v in rows),
                                 sum(t["step_s"] for t in rows.values())), "%")
    for name, span in (("batch", "train.Dataset.batch"), ("finetune", "train.finetune"),
                       ("evaluate", "train.evaluate")):
        m[f"train.{name}_pct"] = (_pct(tally.total[span], total), "%")
    m["initialization.gradient_svd_pct"] = (
        _pct(tally.total["initialization.init_gradient_svd"], total), "%")
    m["initialization.peak_extra_elements"] = (max(tracer.gauge_peaks, default=0), "count")
    m["svd.calls_per_op"] = (tally.calls["svd.svd"] / n_ops, "count")
    for method in PRUNERS:
        method_ops = [op for op, kind in tracer.op_kind.items() if kind == method]
        inside = sum(tally.per_op[op, p] for op in method_ops for p in PRUNERS.values())
        m[f"prune.pct.{method}"] = (_pct(inside, sum(tally.op_s[op] for op in method_ops)),
                                    "%")
    m["prune.layers_per_op"] = (sum(tally.calls[p] for p in PRUNERS.values()) / n_ops, "count")
    m["checkpoint.load_pct"] = (_pct(tally.total["checkpoint.load_checkpoint"], total), "%")
    m["checkpoint.save_pct"] = (_pct(tally.total["checkpoint.save_checkpoint"], total), "%")
    m["checkpoint.bytes_per_op"] = (tracer.file_bytes / n_ops, "B")
    rel = {True: defaultdict(float), False: defaultdict(float)}
    for op in ops:
        rel[op.traced][op.round] += op.rel
    traced_rel = statistics.median(rel[True].values())
    untraced_rel = statistics.median(rel[False].values())
    m["trace.overhead_pct"] = (_pct(traced_rel - untraced_rel, untraced_rel), "%")
    m["trace.spans_per_op"] = (len(tracer.spans) / n_ops, "count")

    blocking = {}
    for kind in wl.kinds:
        kind_ops = [op for op, k in tracer.op_kind.items() if k == kind]
        modules = sorted({mod for op in kind_ops for mod in tally.self_s[op]})
        blocking[kind] = {
            "op_ms": statistics.median(tally.op_s[op] * 1e3 for op in kind_ops),
            "self_ms": {mod: statistics.median(tally.self_s[op].get(mod, 0.0) * 1e3
                                               for op in kind_ops) for mod in modules},
        }
    per_variant = {
        v: {"steps": t["steps"],
            "step_ms": t["step_s"] / t["steps"] * 1e3,
            "adapters.fwd_ms": t["fwd_s"] / t["steps"] * 1e3,
            "adapters.bwd_ms": t["bwd_s"] / t["steps"] * 1e3,
            "adapters.macs_bwd": t["macs_bwd"],
            "adapters.gmacs_per_s": t["gmacs_per_s"],
            "adapters.saved_elements": t["saved"],
            "matrix.matmul_share": t["matmul_s"] / t["step_s"],
            "matrix.wrap_calls_per_step": t["scans"],
            "tape.backward_self_ms": t["tape_backward_self_s"] / t["steps"] * 1e3,
            "tape.saved_peak": t["saved_peak"]}
        for v, t in rows.items() if t["steps"]}
    wall = {True: defaultdict(list), False: defaultdict(list)}
    for op in ops:
        wall[op.traced][op.kind].append(op.seconds * 1e3)
    report = {
        "blocking_path": blocking,
        "per_variant": per_variant,
        "overhead_ms": {k: statistics.median(wall[True][k]) - statistics.median(wall[False][k])
                        for k in wl.kinds if wall[True][k] and wall[False][k]},
        "train.optim_ms": tally.per_call("train.OptimState.apply", 1e3),
        "train.batch_ms": tally.per_call("train.Dataset.batch", 1e3),
        "train.finetune_s": tally.per_call("train.finetune"),
        "train.evaluate_s": tally.per_call("train.evaluate"),
        "initialization.gradient_svd_s": tally.per_call("initialization.init_gradient_svd"),
        "initialization.share": tally.total["initialization.init_gradient_svd"] / total,
        "initialization.peak_extra_elements": max(tracer.gauge_peaks, default=0),
        "svd.calls": tally.calls["svd.svd"],
        "svd.s_per_call": tally.per_call("svd.svd"),
        "prune.s_per_layer": {k: tally.per_call(p) for k, p in PRUNERS.items()},
        "checkpoint.load_s": tally.per_call("checkpoint.load_checkpoint"),
        "checkpoint.save_s": tally.per_call("checkpoint.save_checkpoint"),
        "checkpoint.bytes_per_op": tracer.file_bytes / n_ops,
        "cli.self_s_per_op": sum(s.get("cli", 0.0) for s in tally.self_s.values()) / n_ops,
        "layer_passes_checked": len(tracer.layer_passes),
        "spans": len(tracer.spans),
    }
    return m, report
