"""Benchmark harness and verification suites.

The bench path runs one instrumented forward/backward per variant and shape,
then compares the measured MAC and saved-element tallies against the
closed-form predictions; any inequality is a hard failure (wall time is
reported but never gated, since it is hardware noise at these sizes). The
verify path bundles the package's oracle checks (finite differences,
cross-variant equivalence, the straight-through characterization, cost
formulas, init optimality, sparsity preservation) into named suites the CLI
can run and tabulate.
"""

from __future__ import annotations

import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError
from . import matrix as mx
from .matrix import DenseMatrix, Rng
from .prune import SparseWeight, prune_two_four, sparsity, two_four_valid
from .tape import CostCounters, Tape
from .adapters import (
    VARIANTS,
    AdaptedLayer,
    AdapterPair,
    SppAdapter,
    apply_layer,
    lors_forward,
    merge,
    predict_cost,
    spp_forward,
    spp_gc_forward,
    sqft_forward,
    sqft_gc_forward,
    variant_backward,
    variant_forward,
)
from .initialization import (
    InitSpec,
    ProbeBatch,
    first_step_update_check,
    fit_rank_r_rows,
    projection_residual,
    singular_tail,
)


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------

def random_sparse_base(rng: Rng, rows: int, cols: int, zero_fraction: float = 0.5,
                       two_four: bool = False) -> SparseWeight:
    """Random weight with an explicit zero pattern.

    Nonzero entries are offset away from zero so masking decisions are never
    ambiguous at float precision.
    """
    w = rng.normal_matrix(rows, cols, mean=0.0, std=1.0)
    w.data += np.sign(w.data) * 0.1
    if two_four:
        return prune_two_four(DenseMatrix(w.data))
    if zero_fraction > 0.0:
        keep = rng.uniforms(rows * cols).reshape(rows, cols) >= zero_fraction
        if not keep.any():
            keep.flat[0] = True
        w = DenseMatrix(w.data * keep)
    return SparseWeight(w)


def random_layer(rng: Rng, variant: str, R: int, C: int, r: int,
                 alpha: float = 2.0, zero_fraction: float = 0.5) -> AdaptedLayer:
    """A layer with a random sparse base and random nonzero adapter factors."""
    base = random_sparse_base(rng, R, C, zero_fraction)
    if variant in ("spp", "spp_gc"):
        if C % r != 0:
            raise ArgumentError(f"spp requires r | C, got r={r}, C={C}")
        adapter = SppAdapter(a=rng.normal_matrix(R, r, std=0.5),
                             b=rng.normal_matrix(1, C, std=0.5))
    else:
        adapter = AdapterPair(a=rng.normal_matrix(R, r, std=0.5),
                              b=rng.normal_matrix(r, C, std=0.5), alpha=alpha)
    return AdaptedLayer(base, adapter, variant)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def fd_grad(f: Callable[[DenseMatrix], float], m: DenseMatrix,
            h: float = 1e-5) -> DenseMatrix:
    """Central-difference gradient of a scalar function, entry by entry."""
    out = np.zeros_like(m.data)
    work = m.data.copy()
    for i in range(m.rows):
        for j in range(m.cols):
            orig = work[i, j]
            work[i, j] = orig + h
            f_plus = f(DenseMatrix(work))
            work[i, j] = orig - h
            f_minus = f(DenseMatrix(work))
            work[i, j] = orig
            out[i, j] = (f_plus - f_minus) / (2.0 * h)
    return DenseMatrix._wrap(out)


def close(a: DenseMatrix, b: DenseMatrix, rtol: float, atol: float):
    """allclose plus the worst elementwise gap, for failure messages."""
    ok = bool(np.allclose(a.data, b.data, rtol=rtol, atol=atol))
    return ok, float(np.max(np.abs(a.data - b.data)))


# ---------------------------------------------------------------------------
# bench harness
# ---------------------------------------------------------------------------

@dataclass
class BenchRow:
    variant: str
    R: int
    C: int
    L: int
    r: int
    macs_fwd_measured: Optional[int]
    macs_fwd_predicted: int
    macs_bwd_measured: Optional[int]
    macs_bwd_predicted: int
    saved_measured: Optional[int]
    saved_predicted: int
    wall_time_s: Optional[float]

    def mismatches(self) -> list[str]:
        cells = []
        for label in ("macs_fwd", "macs_bwd", "saved"):
            measured = getattr(self, f"{label}_measured")
            predicted = getattr(self, f"{label}_predicted")
            if measured is not None and measured != predicted:
                cells.append(
                    f"{self.variant} R={self.R} C={self.C} L={self.L} r={self.r} "
                    f"{label}: measured {measured} != predicted {predicted}"
                )
        return cells


BENCH_CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


@dataclass
class BenchReport:
    rows: list

    def mismatches(self) -> list[str]:
        out = []
        for row in self.rows:
            out.extend(row.mismatches())
        return out

    def csv_text(self) -> str:
        def cell(v):
            return "" if v is None else (repr(v) if isinstance(v, float) else str(v))

        lines = [BENCH_CSV_HEADER]
        lines.extend(",".join(cell(v) for v in astuple(w)) for w in self.rows)
        return "\n".join(lines) + "\n"

    def json_obj(self) -> list:
        return [asdict(w) for w in self.rows]


def run_variant_bench(variant: str, R: int, C: int, L: int, r: int,
                      seed: int = 0, repeats: int = 1) -> BenchRow:
    """One instrumented forward/backward; MAC and saved tallies are repeat-
    invariant, wall time is the median over repeats."""
    if repeats < 1:
        raise ArgumentError(f"repeats must be positive, got {repeats}")
    row = predict_only_row(variant, R, C, L, r)
    rng = Rng(seed)
    layer = random_layer(rng, variant, R, C, r)
    x = rng.normal_matrix(C, L)

    measured = None
    times = []
    for _ in range(repeats):
        counters = CostCounters()
        start = time.perf_counter()
        tape = Tape(counters=counters)
        x_id = tape.leaf(x, requires_grad=True, name="x")
        y_id = apply_layer(tape, layer, x_id)
        loss_id = tape.sum_all(y_id)
        tape.backward(loss_id)
        times.append(time.perf_counter() - start)
        snapshot = (counters.macs_forward, counters.macs_backward,
                    counters.saved_elements)
        if measured is None:
            measured = snapshot
        elif measured != snapshot:
            raise ArgumentError(
                f"nondeterministic counters for {variant}: {measured} vs {snapshot}"
            )
    return replace(row, macs_fwd_measured=measured[0], macs_bwd_measured=measured[1],
                   saved_measured=measured[2], wall_time_s=float(np.median(times)))


def predict_only_row(variant: str, R: int, C: int, L: int, r: int) -> BenchRow:
    """The predicted cells of a row; the measured ones are None."""
    pred = predict_cost(variant, R, C, L, r)
    return BenchRow(
        variant=variant, R=R, C=C, L=L, r=r,
        macs_fwd_measured=None, macs_fwd_predicted=pred.macs_forward,
        macs_bwd_measured=None, macs_bwd_predicted=pred.macs_backward,
        saved_measured=None, saved_predicted=pred.saved_elements,
        wall_time_s=None,
    )


def run_bench(shapes, variants, repeats: int = 1, seed: int = 0,
              predict_only: bool = False) -> BenchReport:
    rows = []
    for (R, C, L, r) in shapes:
        for variant in variants:
            if variant not in VARIANTS:
                raise ArgumentError(f"unknown variant {variant!r}")
            if predict_only:
                rows.append(predict_only_row(variant, R, C, L, r))
            else:
                rows.append(run_variant_bench(variant, R, C, L, r,
                                              seed=seed, repeats=repeats))
    return BenchReport(rows)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _dims(rng: Rng, spp: bool = False):
    R = 2 + int(rng.next_u64() % 5)
    if spp:
        r = 1 + int(rng.next_u64() % min(3, R))
        C = r * (1 + int(rng.next_u64() % 4))
    else:
        C = 2 + int(rng.next_u64() % 5)
        r = 1 + int(rng.next_u64() % min(3, R, C))
    L = 2 + int(rng.next_u64() % 5)
    return R, C, L, r


def suite_grad(seed: int = 0, instances: int = 12) -> list[CheckResult]:
    """Finite-difference checks of every hand-written backward, and of the
    tape-derived spp backward."""
    results = []
    rng = Rng(seed)
    for k in range(instances):
        for variant in ("lora", "sqft", "lors", "spp"):
            spp = variant == "spp"
            R, C, L, r = _dims(rng, spp=spp)
            layer = random_layer(rng, variant, R, C, r,
                                 zero_fraction=0.0 if variant == "lora" else 0.5)
            x = rng.normal_matrix(C, L)
            g = rng.normal_matrix(R, L)

            def loss_actual(layer_v=None, x_v=None, base=layer, xm=x, gm=g):
                ly = base if layer_v is None else layer_v
                y, _ = variant_forward(ly, xm if x_v is None else x_v)
                return float(np.sum(gm.data * y.data))

            y, ctx = variant_forward(layer, x)
            grads = variant_backward(layer, g, ctx)

            def replace_pair(a=None, b=None, base=layer):
                ad = base.adapter
                if isinstance(ad, SppAdapter):
                    new = SppAdapter(a=a or ad.a, b=b or ad.b)
                else:
                    new = AdapterPair(a=a or ad.a, b=b or ad.b, alpha=ad.alpha)
                return AdaptedLayer(base.base, new, base.variant, bias=base.bias)

            if variant == "lors":
                # Adapter gradients follow the mask-free surrogate; dX the
                # masked expression.
                def surrogate(a_v, b_v, ly=layer, xm=x, gm=g):
                    prod = mx.matmul(a_v, b_v)
                    w_eff = mx.add_scaled(ly.base.values, prod, ly.adapter.alpha)
                    return float(np.sum(gm.data * mx.matmul(w_eff, xm).data))

                fd_a = fd_grad(lambda a_v: surrogate(a_v, layer.adapter.b), layer.adapter.a)
                fd_b = fd_grad(lambda b_v: surrogate(layer.adapter.a, b_v), layer.adapter.b)
            else:
                fd_a = fd_grad(lambda a_v: loss_actual(replace_pair(a=a_v)), layer.adapter.a)
                fd_b = fd_grad(lambda b_v: loss_actual(replace_pair(b=b_v)), layer.adapter.b)
            fd_x = fd_grad(lambda x_v: loss_actual(x_v=x_v), x)

            for label, got, want in (("dA", grads.da, fd_a),
                                     ("dB", grads.db, fd_b),
                                     ("dX", grads.dx, fd_x)):
                ok, worst = close(got, want, rtol=1e-5, atol=1e-8)
                results.append(CheckResult(
                    "grad", f"{variant} {label} fd #{k} ({R}x{C}, L={L}, r={r})",
                    ok, f"worst gap {worst:.3e}"))
    return results


def suite_equiv(seed: int = 0, instances: int = 40) -> list[CheckResult]:
    """Forward agreement among the masked pair variants, the merge
    cross-check, and the Repeat vs block-diagonal spp equivalence."""
    results = []
    rng = Rng(seed)
    worst_pair = 0.0
    worst_merge = 0.0
    worst_spp = 0.0
    for _ in range(instances):
        R, C, L, r = _dims(rng)
        layer = random_layer(rng, "sqft", R, C, r)
        x = rng.normal_matrix(C, L)
        y_sqft, _ = sqft_forward(layer, x)
        y_gc, _ = sqft_gc_forward(layer, x)
        y_lors, _ = lors_forward(layer, x)
        worst_pair = max(worst_pair,
                         mx.max_abs_diff(y_sqft, y_gc),
                         mx.max_abs_diff(y_sqft, y_lors))
        y_merged = mx.matmul(merge(layer).values, x)
        worst_merge = max(worst_merge, mx.max_abs_diff(y_merged, y_lors))

        Rs, Cs, Ls, rs = _dims(rng, spp=True)
        spp_layer = random_layer(rng, "spp", Rs, Cs, rs)
        xs = rng.normal_matrix(Cs, Ls)
        y_rep, _ = spp_forward(spp_layer, xs)
        y_blk, _ = spp_gc_forward(spp_layer, xs)
        worst_spp = max(worst_spp, mx.max_abs_diff(y_rep, y_blk))
    results.append(CheckResult(
        "equiv", f"sqft == sqft_gc == lors forward over {instances} instances",
        worst_pair <= 1e-12, f"worst gap {worst_pair:.3e}"))
    results.append(CheckResult(
        "equiv", f"merged-weight forward == lors forward over {instances} instances",
        worst_merge <= 1e-12, f"worst gap {worst_merge:.3e}"))
    results.append(CheckResult(
        "equiv", f"spp Repeat == block-diagonal form over {instances} instances",
        worst_spp <= 1e-12, f"worst gap {worst_spp:.3e}"))
    return results


def suite_ste(seed: int = 0, instances: int = 30) -> list[CheckResult]:
    """lors adapter gradients equal the mask-free sqft gradients.

    Bitwise against a reference built in lors's own product order, and within
    1e-12 of the sqft schedule run with an all-ones mask (whose dY X^T grouping
    rounds differently)."""
    results = []
    rng = Rng(seed)
    bitwise_ok = True
    worst_cross = 0.0
    detail = ""
    for k in range(instances):
        R, C, L, r = _dims(rng)
        layer = random_layer(rng, "lors", R, C, r)
        x = rng.normal_matrix(C, L)
        g = rng.normal_matrix(R, L)
        _, ctx = lors_forward(layer, x)
        grads = variant_backward(layer, g, ctx)
        alpha = layer.adapter.alpha

        ref_da = mx.scale(mx.matmul(g, mx.matmul(mx.transpose(x),
                                                 mx.transpose(layer.adapter.b))), alpha)
        ref_db = mx.scale(mx.matmul(mx.matmul(mx.transpose(layer.adapter.a), g),
                                    mx.transpose(x)), alpha)
        if not (mx.bitwise_equal(grads.da, ref_da) and mx.bitwise_equal(grads.db, ref_db)):
            bitwise_ok = False
            detail = f"instance {k} ({R}x{C}, L={L}, r={r})"

        ones_mask = mx.ones(R, C)
        dy_xt = mx.matmul(g, mx.transpose(x))
        masked = mx.hadamard(dy_xt, ones_mask)
        sqft_da = mx.scale(mx.matmul(masked, mx.transpose(layer.adapter.b)), alpha)
        sqft_db = mx.scale(mx.matmul(mx.transpose(layer.adapter.a), masked), alpha)
        worst_cross = max(worst_cross,
                          mx.max_abs_diff(grads.da, sqft_da),
                          mx.max_abs_diff(grads.db, sqft_db))
    results.append(CheckResult(
        "ste", f"lors dA/dB bitwise == mask-free reference in lors order ({instances} instances)",
        bitwise_ok, detail or "all equal"))
    results.append(CheckResult(
        "ste", f"lors dA/dB vs all-ones sqft schedule within 1e-12 ({instances} instances)",
        worst_cross <= 1e-12, f"worst gap {worst_cross:.3e}"))
    return results


def suite_cost(seed: int = 0, instances: int = 24) -> list[CheckResult]:
    """Instrumented counters equal the closed-form predictions exactly."""
    results = []
    rng = Rng(seed)
    for k in range(instances):
        variant = VARIANTS[k % len(VARIANTS)]
        R, C, L, r = _dims(rng, spp=variant in ("spp", "spp_gc"))
        row = run_variant_bench(variant, R, C, L, r, seed=seed + k)
        bad = row.mismatches()
        results.append(CheckResult(
            "cost", f"{variant} counters == formulas ({R}x{C}, L={L}, r={r})",
            not bad, "; ".join(bad) or "exact"))
    return results


def suite_init(seed: int = 0, instances: int = 10,
               candidates: int = 50) -> list[CheckResult]:
    """SVD init optimality and the first-step update identity."""
    results = []
    rng = Rng(seed)
    worst_tail = 0.0
    beaten = 0
    np_rng = np.random.default_rng(seed)
    for k in range(instances):
        rows, cols = (8, 8) if k % 2 == 0 else (16, 12)
        r = (1, 2, 4)[k % 3]
        dw = rng.normal_matrix(rows, cols)
        b = fit_rank_r_rows(dw, r)
        res = projection_residual(dw, b)
        worst_tail = max(worst_tail, abs(res - singular_tail(dw, r)))
        for _ in range(candidates):
            q, _ = np.linalg.qr(np_rng.standard_normal((cols, r)))
            cand = DenseMatrix(q.T)
            if projection_residual(dw, cand) < res - 1e-9:
                beaten += 1
    results.append(CheckResult(
        "init", f"projection residual == singular tail over {instances} gradients",
        worst_tail <= 1e-8, f"worst gap {worst_tail:.3e}"))
    results.append(CheckResult(
        "init", f"SVD rows beat {candidates} random orthonormal candidates per gradient",
        beaten == 0, f"{beaten} candidates won"))

    layer = random_layer(rng, "lors", 6, 6, 2, zero_fraction=0.0)
    layer.adapter.a.data[:] = 0.0
    probe = ProbeBatch(rng.normal_matrix(6, 8), rng.normal_matrix(6, 8), "regression")
    report = first_step_update_check(layer, probe, lr=0.05)
    results.append(CheckResult(
        "init", "first-step update identity on a dense base",
        report.update_residual <= 1e-8,
        f"relative residual {report.update_residual:.3e}"))
    return results


def suite_sparsity(seed: int = 0, steps: int = 25) -> list[CheckResult]:
    """Short training runs must leave merge() inside the original pattern."""
    from .train import TrainConfig, finetune, make_teacher_data, model_from_weights, random_dense_weights

    results = []
    weights = random_dense_weights(seed, (8, 8, 8))
    teacher = model_from_weights(weights, "lors", rank=2)
    data = make_teacher_data(teacher, seed + 1, 64)
    for variant in VARIANTS:
        student = model_from_weights(weights, variant, rank=2, prune_ratio=0.5)
        config = TrainConfig(steps=steps, batch_size=16, lr=1e-2,
                             optimizer="sgd", variant=variant,
                             init=InitSpec("zero_A_random_B", seed=seed), seed=seed)
        finetune(student, data, config)
        ok = True
        for layer in student.layers:
            merged = merge(layer)
            if np.any(merged.values.data[~layer.original_mask] != 0.0):
                ok = False
        results.append(CheckResult(
            "sparsity", f"{variant}: merge stays inside the pruned pattern after {steps} steps",
            ok, ""))

    base = random_sparse_base(Rng(seed + 7), 8, 16, two_four=True)
    layer = AdaptedLayer(base, AdapterPair(a=Rng(seed + 8).normal_matrix(8, 2),
                                           b=Rng(seed + 9).normal_matrix(2, 16),
                                           alpha=2.0), "lors")
    merged = merge(layer)
    results.append(CheckResult(
        "sparsity", "2:4 base stays 2:4-valid through merge",
        two_four_valid(merged.values), f"sparsity {sparsity(merged):.2f}"))
    return results


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "grad": suite_grad,
    "equiv": suite_equiv,
    "ste": suite_ste,
    "cost": suite_cost,
    "init": suite_init,
    "sparsity": suite_sparsity,
}


def run_suites(names) -> list[CheckResult]:
    if not names:
        raise ArgumentError(f"no suite named, expected some of {sorted(SUITES)} or 'all'")
    results = []
    for name in names:
        if name not in SUITES:
            raise ArgumentError(
                f"unknown suite {name!r}, expected one of {sorted(SUITES)} or 'all'"
            )
        results.extend(SUITES[name]())
    return results
