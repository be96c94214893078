"""Benchmark of the lors toolkit: fine-tune steps, pruning recovery, and prune.

Usage, from the root of a checkout (the toolkit is imported from ``src/``)::

    python3 perfbench/run.py --workload finetune-w512 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one summary

Workloads (see ``workloads.py``): ``finetune-w512``, ``recovery-w64`` and
``prune-w512``. A run builds the workload, then runs rounds for
``--seconds``: one op of every kind of the workload, timed one by one and
checked after the round. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it starts with ``REPORT`` and holds the detail: per-kind times, the
environment, failures, and, when traced, the per-module self-time table.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: the time from before ``import lors`` to a built workload in a
  fresh interpreter, s. A run takes ``SETUP_SAMPLES`` of them, spread evenly
  over the run (the clock of the measured rounds pauses meanwhile), and
  reports the median;
- ``round_rel_p50``: median time of one round, in reference-kernel times;
- ``kind_rel_geomean``: geometric mean over op kinds of each kind's median
  time, in reference-kernel times;
- ``peak_rss_mb``: peak resident set size of this process, MiB.

A relative time is an op's wall time divided by the time of a fixed kernel
measured just before and just after it (see ``Reference``); raw wall times
in ms are in the ``REPORT`` line.

With ``--trace 1`` rounds alternate between untraced and traced (spans
installed, see ``spans.py``), and the metrics are the per-layer ones computed
from the traced rounds, plus the tracing overhead between the two halves.
When the run ends its spans are written to ``SPANS_DIR/<workload>.jsonl.gz``,
one JSON object per line.

BLAS runs one thread: the benchmark sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 for its own process before
numpy loads, because two-thread OpenBLAS step times spread several times wider
run to run. The exit code is 0 when every op passed its checks, 1 when a check
failed, and 2 when the toolkit cannot be imported from the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
SPANS_DIR = HERE / ".work-spans"


class ImportFailure(RuntimeError):
    pass


def import_lors():
    """Import the toolkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "lors" / "__init__.py").is_file():
        raise ImportFailure(f"no toolkit sources at {SRC / 'lors'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lors
    if Path(lors.__file__).resolve().parent != SRC / "lors":
        raise ImportFailure(f"imported lors from {lors.__file__}, not from {SRC}")
    return lors


_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import lors
t1 = time.perf_counter()
from workloads import WORKLOADS
wl = WORKLOADS[sys.argv[3]](int(sys.argv[4]), size=sys.argv[5], workdir=sys.argv[2])
wl.build()
t2 = time.perf_counter()
wl.close()
print(t1 - t0, t2 - t1)
"""


def setup_sample(workload: str, seed: int, size: str) -> tuple[float, float]:
    """Seconds to import ``lors`` and to build the workload in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE), workload, str(seed), size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    import_s, build_s = map(float, done.stdout.split()[-2:])
    return import_s, build_s


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

class Op:
    __slots__ = ("id", "round", "kind", "start", "seconds", "rel", "traced", "failures")

    def __init__(self, op_id, round_index, kind, traced):
        self.id, self.round, self.kind, self.traced = op_id, round_index, kind, traced
        self.start = self.seconds = self.rel = 0.0
        self.failures: list[str] = []


class Reference:
    """A fixed kernel timed between ops, the yardstick for ``*_rel`` metrics.

    On a shared machine the speed of one core swings between phases tens of
    percent apart, for seconds at a time, and raw medians of separate runs
    spread as widely. Each workload names the parts of the kernel (the
    ``_<part>`` methods) that do its kind of work; none of them calls
    ``lors``, so the kernel measures the machine, not the program. A sample
    repeats the kernel for at least ``MIN_SAMPLE_S`` and keeps the mean time
    of one kernel. Sampling happens before an op whenever ``EVERY_S`` has
    passed since the last sample, and once more after the last op; an op's
    relative time is its wall time over the mean kernel time of the samples
    just before and just after it.
    """

    EVERY_S = 1.0
    MIN_SAMPLE_S = 0.1

    def __init__(self, parts):
        rng = np.random.default_rng(20250115)
        self.parts = [getattr(self, f"_{name}") for name in parts]
        self.jacobi = rng.standard_normal((64, 64))
        self.g = rng.standard_normal((64, 64))
        self.x = rng.standard_normal((64, 32))
        self.a = rng.standard_normal((512, 512))
        self.b = rng.standard_normal((512, 32))
        self.e = rng.standard_normal((512, 512))
        self.groups = rng.standard_normal((2000, 4))
        self.keys = rng.standard_normal(1 << 17)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []

    def _gemm(self):
        """Six float64 512x512 @ 512x32 products."""
        for _ in range(6):
            self.a @ self.b

    def _elementwise(self):
        """Six scale-and-add passes over a 512x512 array and a finiteness scan."""
        z = self.e
        for _ in range(6):
            z = z * 0.5 + self.e
        np.isfinite(z).all()

    def _jacobi(self):
        """One one-sided Jacobi sweep over a 64x64 matrix, pair by pair in Python."""
        w = self.jacobi.copy()
        for i in range(63):
            for j in range(i + 1, 64):
                aii, ajj = float(w[:, i] @ w[:, i]), float(w[:, j] @ w[:, j])
                aij = float(w[:, i] @ w[:, j])
                tau = (ajj - aii) / (2.0 * aij)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                wi, wj = w[:, i].copy(), w[:, j].copy()
                w[:, i], w[:, j] = c * wi - c * t * wj, c * t * wi + c * wj

    def _small_matmul(self):
        """300 steps of a 64x64 @ 64x32 product, ReLU and finiteness scan."""
        h = self.x
        for _ in range(300):
            y = np.maximum(self.g @ h, 0.0)
            np.isfinite(y).all()
            h = y * 0.1 + self.x

    def _lexsort_groups(self):
        """2000 lexsorts of 4-element groups in a Python loop."""
        order = np.arange(4)
        for group in self.groups:
            np.lexsort((order, group))

    def _lexsort(self):
        """One lexsort of 2^17 keys."""
        np.lexsort((np.arange(self.keys.size), self.keys))

    def _python(self):
        """30000 iterations of a pure-Python integer loop."""
        total = 0
        for i in range(30000):
            total += i & 7

    def sample(self) -> None:
        start = time.perf_counter()
        runs = 0
        while True:
            for part in self.parts:
                part()
            runs += 1
            end = time.perf_counter()
            if end - start >= self.MIN_SAMPLE_S:
                break
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append((end - start) / runs)

    def sample_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.EVERY_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean kernel time of the samples just before ``start`` and just after ``end``."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        return (self.kernel_s[before] + self.kernel_s[after]) / 2

    def median_ms(self) -> float:
        return statistics.median(self.kernel_s) * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; returns the result line plus a ``report`` entry."""
    import_lors()
    import spans as spans_mod
    from workloads import WORKLOADS

    samples = [setup_sample(workload, seed, size)]
    wl = WORKLOADS[workload](seed, size=size, workdir=HERE)
    try:
        t0 = time.perf_counter()
        wl.build()
        build_s = time.perf_counter() - t0

        tracer = spans_mod.Tracer() if trace else None
        installation = spans_mod.Installation(tracer) if trace else None
        reference = Reference(wl.reference)
        ops: list[Op] = []
        min_rounds = 2 if trace else 1
        between = seconds / (SETUP_SAMPLES - 1)
        start, paused, index = time.perf_counter(), 0.0, 0
        while True:
            measured = time.perf_counter() - start - paused
            if index >= min_rounds and measured >= seconds:
                break
            if len(samples) < SETUP_SAMPLES - 1 and measured >= len(samples) * between:
                t0 = time.perf_counter()
                samples.append(setup_sample(workload, seed, size))
                paused += time.perf_counter() - t0
            # A traced round repeats the inputs of the untraced round before it.
            wl.begin_round(index // 2 if trace else index)
            ops += _round(wl, index, len(ops), tracer, installation, reference,
                          traced=trace and index % 2 == 1)
            index += 1
        reference.sample()
        while len(samples) < SETUP_SAMPLES:
            samples.append(setup_sample(workload, seed, size))
        setup_s = statistics.median(i + b for i, b in samples)
        for op in ops:
            op.rel = op.seconds / reference.around(op.start, op.start + op.seconds)
        final = wl.finish()
        report = _report(wl, ops, final, setup_s, samples, build_s, reference)
        if trace:
            metrics, report["trace"] = spans_mod.analyze(tracer, wl, ops)
            metrics["machine.gemm_gflops"] = (report["environment"]["gemm_gflops"], "GFLOP/s")
            SPANS_DIR.mkdir(exist_ok=True)
            spans_file = SPANS_DIR / f"{workload}.jsonl.gz"
            tracer.write_jsonl(spans_file)
            report["trace"]["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            metrics = _end_to_end(ops, wl.kinds, setup_s)
    finally:
        wl.close()

    failed = sum(1 for op in ops if op.failures) + (1 if final else 0)
    return {
        "correct": failed == 0,
        "attempted": len(ops) + 1,  # the final state check counts as one op
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "report": report,
    }


def _round(wl, index, first_id, tracer, installation, reference, traced) -> list[Op]:
    ops, results = [], []
    if traced:
        installation.install()
    try:
        for kind in wl.kinds:
            reference.sample_if_due()
            op = Op(first_id + len(ops), index, kind, traced)
            span = tracer.begin_op(op.id, kind) if traced else None
            op.start = time.perf_counter()
            try:
                result = wl.run(kind)
            except Exception as exc:  # the op failed; the run goes on
                result = None
                op.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            op.seconds = time.perf_counter() - op.start
            if traced:
                tracer.end_op(span)
                op.failures += tracer.failures.get(op.id, [])
            ops.append(op)
            results.append(result)
    finally:
        if traced:
            installation.uninstall()
    for op, result in zip(ops, results):
        if not op.failures:
            op.failures += wl.check(op.kind, result)
    return ops


def by_kind(ops, kinds, attr="seconds", traced=False) -> dict[str, list[float]]:
    """Per op kind, the ops' wall seconds or relative times (``attr="rel"``)."""
    out = {k: [] for k in kinds}
    for op in ops:
        if op.traced == traced:
            out[op.kind].append(getattr(op, attr))
    return out


def by_round(ops, attr="seconds", traced=False) -> list[float]:
    rounds = defaultdict(float)
    for op in ops:
        if op.traced == traced:
            rounds[op.round] += getattr(op, attr)
    return list(rounds.values())


def _end_to_end(ops, kinds, setup_s) -> dict:
    medians = [statistics.median(v) for v in by_kind(ops, kinds, "rel").values()]
    return {
        "setup_s": (setup_s, "s"),
        "round_rel_p50": (statistics.median(by_round(ops, "rel")), "ref"),
        "kind_rel_geomean": (math.exp(sum(map(math.log, medians)) / len(medians)), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def _report(wl, ops, final, setup_s, samples, build_s, reference) -> dict:
    times = {k: [t * 1e3 for t in v] for k, v in by_kind(ops, wl.kinds).items()}
    rel = by_kind(ops, wl.kinds, "rel")
    failures = [m for op in ops for m in op.failures] + final
    return {
        "workload": wl.name,
        "rounds": len({op.round for op in ops}),
        "ops_per_kind": {k: len(v) for k, v in times.items()},
        "kind_ms_p50": {k: statistics.median(v) for k, v in times.items() if v},
        "kind_rel_p50": {k: statistics.median(v) for k, v in rel.items() if v},
        "round_ms_p50": statistics.median(by_round(ops)) * 1e3,
        "reference_parts": list(wl.reference),
        "reference_ms_p50": reference.median_ms(),
        "reference_samples": len(reference.ends),
        "setup": {"setup_s": setup_s, "import_s": [i for i, _ in samples],
                  "build_s": [b for _, b in samples], "build_s_in_process": build_s},
        "workload_metrics": wl.report(times),
        "failures": failures[:20],
        "failure_count": len(failures),
        "environment": environment(),
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def gemm_calibration(repeats: int = 200) -> tuple[float, float]:
    """Achieved GFLOP/s of a 512x512 @ 512x32 float64 matmul, and its flops per
    byte of operands and result."""
    m, k, n = 512, 512, 32
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    for _ in range(10):
        a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    flops = 2 * m * k * n
    return flops / statistics.median(times) / 1e9, flops / (8 * (m * k + k * n + m * n))


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _llc_size():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, None)
    for index in base.glob("index*"):
        level = _read(str(index / "level")).strip()
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), _read(str(index / "size")).strip())
    return best[1]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lors").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    gflops, flops_per_byte = gemm_calibration()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "llc_size": _llc_size(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "gemm_gflops": gflops,
        "gemm_flops_per_byte": flops_per_byte,
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _summary_lines(result: dict) -> list[str]:
    report = result["report"]
    lines = [f"== {report['workload']}: {result['attempted']} ops attempted, "
             f"{result['failed']} failed, {report['rounds']} rounds"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in report["workload_metrics"].items():
        if isinstance(value, (int, float)):
            lines.append(f"  {name:<40} {value:>14.6g}")
    for message in report["failures"]:
        lines.append(f"  FAILED: {message}")
    return lines


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter; its result plus ``report`` and
    ``exit_code``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("REPORT "):
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2].split(" ", 1)[1])
    result["exit_code"] = done.returncode
    return result


def run_all(args) -> int:
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        try:
            result = run_child(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"== {exc}", file=sys.stderr)
            status = status or 2
            continue
        print("\n".join(_summary_lines(result)))
        status = status or result["exit_code"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        import_lors()
    except ImportFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of "
                     f"{sorted(WORKLOADS)} or 'all'")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), size=args.size)
    print("\n".join(_summary_lines(result)))
    print("REPORT " + json.dumps(result.pop("report")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
