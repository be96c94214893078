"""Smoke tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout. They
check that a clean run passes every gate and emits every metric named in
``BENCHMARK.json`` with its unit, that the toolkit's fault switches turn into
failed ops, and that the benchmark refuses to run without the toolkit.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_lors()
from lors import adapters  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _expected(trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _run(workload, trace, seconds=0.5):
    return bench.run(workload, seed=3, seconds=seconds, trace=trace, size="tiny")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_passes_and_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert result["failed"] == 0, result["report"]["failures"]
    assert result["correct"] is True
    assert result["attempted"] >= 2
    assert _units(result) == _expected(trace)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_counts_match_untraced_and_prediction():
    result = _run("finetune-w512", trace=True, seconds=1.0)
    assert result["failed"] == 0
    trace = result["report"]["trace"]
    tallies = result["report"]["workload_metrics"]["step_tallies"]
    assert trace["layer_passes_checked"] > 0
    with gzip.open(ROOT / trace["spans_file"], "rt", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == trace["spans"]
    for variant, row in trace["per_variant"].items():
        # every layer pass was compared with predict_cost inside the trace; the
        # step tallies of traced and untraced steps were compared by check()
        assert row["adapters.macs_bwd"] > 0
        assert tallies[variant]["macs_backward"] >= row["adapters.macs_bwd"]


def test_cost_model_fault_fails_traced_steps(monkeypatch):
    monkeypatch.setitem(adapters.FAULT_INJECTION, "cost_model_off_by_one", True)
    result = _run("finetune-w512", trace=True)
    assert result["failed"] > 0
    assert result["correct"] is False
    assert any("backward MACs" in m for m in result["report"]["failures"])
    assert _units(result) == _expected(True)


def test_sign_flip_fault_fails_recovery(monkeypatch):
    monkeypatch.setitem(adapters.FAULT_INJECTION, "lors_backward_sign_flip", True)
    result = _run("recovery-w64", trace=False, seconds=0.0)
    assert result["failed"] > 0
    assert result["correct"] is False
    assert _units(result) == _expected(False)


def test_sign_flip_fault_fails_finetune(monkeypatch):
    monkeypatch.setitem(adapters.FAULT_INJECTION, "lors_backward_sign_flip", True)
    result = _run("finetune-w512", trace=False)
    failures = result["report"]["failures"]
    assert result["failed"] > 0
    assert any(m.startswith("lors layers.") and "adapter gradient" in m for m in failures)
    assert all(m.startswith("lors") for m in failures)


def test_wrong_pruner_output_fails(monkeypatch):
    from lors import cli, prune
    monkeypatch.setattr(cli, "prune_magnitude", lambda w, ratio: prune.prune_magnitude(w, 0.25))
    result = _run("prune-w512", trace=False, seconds=0.0)
    assert result["failed"] == 1
    assert all(m.startswith("magnitude") for m in result["report"]["failures"])


def test_prune_that_skips_saving_fails(monkeypatch):
    from lors import cli
    saved = set()

    def save_once(path, tensors):
        # a build that writes each output only the first time it is asked
        if path not in saved:
            saved.add(path)
            cli_save(path, tensors)

    cli_save = cli.save_checkpoint
    monkeypatch.setattr(cli, "save_checkpoint", save_once)
    result = _run("prune-w512", trace=False)
    rounds = result["report"]["rounds"]
    assert rounds >= 2
    # the first round writes and passes, every later op finds no output
    assert result["failed"] == 3 * (rounds - 1)
    assert all("does not load" in m for m in result["report"]["failures"])


def test_result_line_and_exit_code():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "prune-w512", "--seed", "1",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_to_run_without_the_toolkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune-w512", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
