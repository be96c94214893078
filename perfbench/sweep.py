"""Run the benchmark over several seeds and summarize the spread of each metric.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seeds 0-9                 # every workload
    python3 perfbench/sweep.py --workloads recovery-w64 --seeds 0-4 --seconds 10
    python3 perfbench/sweep.py --seeds 0-9 --write perfbench/baseline.json

Runs are sequential, seeds in the outer loop and workloads in the inner one,
so slow drift of the machine spreads over every workload. For each
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound in
``BENCHMARK.json``. ``--write`` stores the summary, the per-run results (with
the span analysis when traced), the workload detail and the environment of
the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, run_child


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _detail(result: dict) -> dict:
    """Numbers of the REPORT line worth a spread: raw times and workload detail."""
    report = result["report"]
    return {"round_ms_p50": report["round_ms_p50"],
            "reference_ms_p50": report["reference_ms_p50"],
            **report["workload_metrics"]}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            result = run_child(w, seed, args.seconds, args.trace)
            runs[w].append(result)
            print(f"{w} seed {seed}: exit {result['exit_code']}, "
                  f"{result['attempted']} ops, {result['failed']} failed", flush=True)

    summary = {}
    for w, results in runs.items():
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        detail = {}
        for key in _detail(results[0]):
            values = [_detail(r)[key] for r in results]
            if all(isinstance(v, (int, float)) for v in values):
                detail[key] = summarize(values)
        summary[w] = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
            "detail": detail,
        }
        print(f"== {w}: failed ops per run {summary[w]['failed']}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            share = f"{s['spread'] / bound:6.2f} of bound" if bound else ""
            print(f"  {name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {share}")
            print(f"    values {' '.join(f'{v:.6g}' for v in s['values'])}")
        for key, s in detail.items():
            print(f"  {key:<36} median {s['median']:<12.6g} spread {s['spread']:.4f}")

    if args.write:
        first = next(iter(runs.values()))[0]["report"]["environment"]
        out = {"run_seconds": args.seconds, "trace": args.trace, "environment": first,
               "workloads": summary,
               "runs": {w: [{**{k: r[k] for k in ("correct", "attempted", "failed", "metrics")},
                             "trace": r["report"].get("trace")}
                            for r in results] for w, results in runs.items()}}
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(f == 0 for s in summary.values() for f in s["failed"]) else 1


if __name__ == "__main__":
    sys.exit(main())
