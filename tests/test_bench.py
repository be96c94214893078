import functools
import importlib.util
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lors
from lors import adapters
from lors.bench import (
    BENCH_CSV_HEADER,
    close,
    fd_grad,
    random_sparse_base,
    run_bench,
    run_suites,
    run_variant_bench,
)
from lors.errors import ArgumentError
from lors.initialization import MemoryGauge, ProbeBatch, init_gradient_svd
from lors.matrix import DenseMatrix, Rng
from lors.prune import two_four_valid
from lors.tape import Tape
from lors.train import OptimState, model_from_weights, random_dense_weights, train_step


def test_fd_grad_quadratic():
    # f(M) = sum(M * M) has gradient 2M
    m = DenseMatrix(np.arange(6.0).reshape(2, 3) - 2.5)
    g = fd_grad(lambda v: float(np.sum(v.data * v.data)), m)
    assert np.allclose(g.data, 2.0 * m.data, rtol=1e-6, atol=1e-8)


def test_close_reports_worst_gap():
    a = DenseMatrix(np.array([[1.0, 2.0]]))
    b = DenseMatrix(np.array([[1.0, 2.5]]))
    ok, worst = close(a, b, rtol=0.0, atol=0.1)
    assert not ok and worst == 0.5
    ok, worst = close(a, a, rtol=0.0, atol=0.0)
    assert ok and worst == 0.0


def test_bench_row_counters_exact():
    row = run_variant_bench("lors", 4, 4, 4, 1, seed=3)
    assert row.mismatches() == []
    assert (row.macs_fwd_measured, row.macs_bwd_measured,
            row.saved_measured) == (96, 160, 16)
    assert row.wall_time_s is not None and row.wall_time_s >= 0.0


def test_bench_repeats_stable():
    row = run_variant_bench("spp", 4, 8, 3, 2, seed=1, repeats=3)
    assert row.mismatches() == []
    with pytest.raises(ArgumentError):
        run_variant_bench("spp", 4, 8, 3, 2, repeats=0)


def test_predict_only_rows():
    report = run_bench([(4, 4, 4, 1)], ["lora", "lors"], predict_only=True)
    for row in report.rows:
        assert row.macs_fwd_measured is None
        assert row.mismatches() == []  # nothing measured, nothing to mismatch
    text = report.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3
    # empty cells where measurements would go
    assert lines[1].split(",")[5] == ""
    obj = report.json_obj()
    assert obj[0]["macs_fwd_measured"] is None
    assert obj[1]["variant"] == "lors"
    assert obj[1]["macs_fwd_predicted"] == 96


def test_bench_schema_is_pinned_to_readme():
    schema = ("variant,R,C,L,r,macs_fwd_measured,macs_fwd_predicted,"
              "macs_bwd_measured,macs_bwd_predicted,saved_measured,saved_predicted,"
              "wall_time_s")
    assert BENCH_CSV_HEADER == schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CSV schemas", 1)[1].split("\n## ", 1)[0]
    assert f"\n{schema}\n" in section
    report = run_bench([(4, 4, 4, 1)], ["lora", "spp"], predict_only=True)
    columns = schema.split(",")
    for obj, line in zip(report.json_obj(), report.csv_text().splitlines()[1:]):
        assert list(obj) == columns
        assert len(line.split(",")) == len(columns)


def test_pool_keeps_only_the_shape_in_use_after_a_two_shape_bench(monkeypatch):
    """run_bench runs its shapes one after another, and the buffer pool keeps
    only the shape in use: after spp and sqft at 256 x 256 and then at
    16 x 16, the pool holds the 16 x 16 buffers alone, and the memory still
    held is below the nine RC that spp's saved set and transients can pool
    at 16 x 16 (measured 7.7 KB; keeping the 256 x 256 pool holds 1.6 MB)."""
    monkeypatch.setattr(adapters, "_POOL", {})
    run_bench([(8, 8, 4, 2)], ["spp", "sqft"])  # imports and first-use caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_bench([(256, 256, 8, 16), (16, 16, 8, 4)], ["spp", "sqft"])
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert list(adapters._POOL) == [(16, 16)]
    assert held < 9 * 16 * 16 * 8, held


def test_run_bench_rejects_unknown_variant():
    with pytest.raises(ArgumentError):
        run_bench([(4, 4, 4, 1)], ["loro"])


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ArgumentError):
        run_suites(["grad", "vibes"])


def test_random_sparse_base_patterns():
    base = random_sparse_base(Rng(0), 8, 8, zero_fraction=0.5)
    frac = 1.0 - np.count_nonzero(base.values.data) / 64.0
    assert 0.2 < frac < 0.8
    tf = random_sparse_base(Rng(1), 4, 8, two_four=True)
    assert two_four_valid(tf.values)
    dense = random_sparse_base(Rng(2), 4, 4, zero_fraction=0.0)
    assert np.all(dense.values.data != 0.0)


def load_spans():
    """perfbench/spans.py, imported from its file (perfbench is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_perfbench_spans_read_resolves_in_lors():
    """perfbench/spans.py wraps and reads these program names by string, and
    its gradient-SVD hook hands ``init_gradient_svd`` a ``MemoryGauge`` by
    keyword when a call has at most 5 positional arguments; a deletion,
    rename or signature change in lors would break the benchmark, not a test
    of its own."""
    spans = load_spans()
    names = list(spans.HOOKS) + [f"{m}.{a}" for m, a in spans._EXTRA_FUNCTIONS]
    for name in names:
        module, *attrs = name.split(".")
        target = functools.reduce(getattr, attrs, importlib.import_module(f"lors.{module}"))
        assert callable(target), name
    for attr in ("counted_saved", "predict_cost", "VARIANTS"):  # read by the layer hooks
        assert hasattr(spans.adapters, attr), attr
    # layers 4x6 (24 elements) and 8x4 (32): the gauge peaks at the larger dW
    model = model_from_weights(random_dense_weights(0, (6, 4, 8)), "lors", rank=2)
    args, kwargs = (model, ProbeBatch(Rng(1).normal_matrix(6, 8), Rng(2).normal_matrix(8, 8))), {}
    gauge = spans._gradient_svd_before(None, args, kwargs)
    assert isinstance(gauge, MemoryGauge) and kwargs == {"gauge": gauge}
    init_gradient_svd(*args, **kwargs)
    assert (gauge.peak, gauge.current) == (32, 0)
    assert Tape().saved_ctx.peak == 0


def _bindings():
    """Every name of the lors modules and of their classes, bound to what."""
    out = {}
    for mod in [lors] + [m for m in vars(lors).values() if inspect.ismodule(m)]:
        for attr, obj in vars(mod).items():
            out[mod.__name__, attr] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("lors."):
                out.update(((obj.__qualname__, k), v) for k, v in vars(obj).items())
    return out


def test_perfbench_hooks_fit_a_training_step_of_every_variant():
    """The hooks of perfbench/spans.py, installed around one train_step per
    variant on a 2-layer, 16-wide model: they record no failure, check one
    layer pass (forward and backward against ``predict_cost``) per layer, put
    no span on a counter tally, and ``uninstall`` rebinds every name as it
    was. This is the signature check that ``python3 -m pytest perfbench``
    makes over full rounds."""
    spans = load_spans()
    for module in spans.MODULES:  # install imports them all
        importlib.import_module(f"lors.{module}")
    before = _bindings()
    tracer = spans.Tracer()
    installation = spans.Installation(tracer)
    installation.install()
    try:
        op = tracer.begin_op(0, "step")
        for variant in adapters.VARIANTS:
            model = model_from_weights(random_dense_weights(0, (16, 16, 16)), variant,
                                       rank=4, prune_ratio=0.5)
            batch = ProbeBatch(Rng(1).normal_matrix(16, 8), Rng(2).normal_matrix(16, 8))
            train_step(model, batch, OptimState(kind="adaptive", lr=1e-3))
        tracer.end_op(op)
    finally:
        installation.uninstall()
    assert dict(tracer.failures) == {}
    assert [p["variant"] for p in tracer.layer_passes] == [
        v for v in adapters.VARIANTS for _ in range(2)]
    names = {span[0] for span in tracer.spans}
    assert "adapters.variant_backward" in names and "train._run_step" in names
    assert not [n for n in names if n.endswith(("add_macs", "add_elementwise"))]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
