import json
import struct
import sys
import types

import numpy as np
import pytest

from lors.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from lors import cli
from lors.cli import EXIT_COUNTER, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, main
from lors.errors import ArgumentError
from lors.matrix import DenseMatrix


def make_ckpt(path, dims=(6, 8, 4), seed=0, bias=True):
    """Write a dense model checkpoint: layers.i.weight (+ optional bias)."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for i in range(len(dims) - 1):
        r, c = dims[i + 1], dims[i]
        tensors[f"layers.{i}.weight"] = DenseMatrix(rng.normal(size=(r, c)))
        if bias:
            tensors[f"layers.{i}.bias"] = DenseMatrix(rng.normal(size=(r, 1)))
    save_checkpoint(path, tensors)
    return path


def test_prune_magnitude(tmp_path, capsys):
    src = make_ckpt(tmp_path / "base.lors")
    out = tmp_path / "sparse.lors"
    code = main(["prune", "--input", str(src), "--output", str(out),
                 "--method", "magnitude", "--ratio", "0.25"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["method"] == "magnitude"
    assert set(summary["tensors"]) == {"layers.0.weight", "layers.1.weight"}
    for stats in summary["tensors"].values():
        assert stats["sparsity"] == pytest.approx(0.25)
        assert stats["pattern"] == "unstructured"
    loaded = load_checkpoint(out)
    # biases pass through untouched
    assert "layers.0.bias" in loaded
    w = loaded["layers.0.weight"].data
    assert np.count_nonzero(w == 0.0) == w.size // 4


def test_prune_two_four(tmp_path, capsys):
    src = make_ckpt(tmp_path / "base.lors", dims=(8, 8))
    out = tmp_path / "sparse.lors"
    assert main(["prune", "--input", str(src), "--output", str(out),
                 "--method", "two_four"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["tensors"]["layers.0.weight"]["pattern"] == "two_four"
    w = load_checkpoint(out)["layers.0.weight"].data
    groups = w.reshape(-1, 4)
    assert np.all(np.count_nonzero(groups, axis=1) == 2)


def test_prune_activation_requires_calib(tmp_path, capsys):
    src = make_ckpt(tmp_path / "base.lors")
    code = main(["prune", "--input", str(src), "--output",
                 str(tmp_path / "o.lors"), "--method", "activation"])
    assert code == EXIT_IO
    assert "calib" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["magnitude", "two_four"])
def test_prune_rejects_calib_without_activation(tmp_path, capsys, method):
    """Only the activation method reads --calib; with another method it is an
    argument error, raised before the input or the calibration is read."""
    out = tmp_path / "o.lors"
    code = main(["prune", "--input", str(tmp_path / "missing.lors"), "--output", str(out),
                 "--method", method, "--calib", str(tmp_path / "nonexistent.lors")])
    assert code == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: --calib is read only by method 'activation', not {method!r}\n")
    assert not out.exists()


_BAD_RATIOS = [("magnitude", r, f"--ratio must be in [0, 1), got {float(r)}")
               for r in ("2", "1.0", "-0.1", "nan", "inf")] + [
    ("two_four", "0.9", "--ratio must be 0.5 for method 'two_four', which removes "
                        "2 of every 4 entries, got 0.9")]


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("method,ratio,message", _BAD_RATIOS)
def test_prune_rejects_bad_ratio_before_reading(tmp_path, capsys, method, ratio, message,
                                               via_config):
    """A --ratio outside [0, 1), or any but 0.5 with two_four (which always
    removes half), is an argument error raised before the input is read: not a
    missing-file error, and not a silent 50% output."""
    out = tmp_path / "o.lors"
    argv = ["prune", "--input", str(tmp_path / "missing.lors"), "--output", str(out),
            "--method", method]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ratio": float(ratio)}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--ratio", ratio]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_SUBCOMMANDS = {
    "prune": ["prune", "--input", "base.lors", "--output", "o.lors"],
    "train": ["train", "--ckpt", "base.lors", "--out", "o.lors", "--steps", "1"],
    "bench": ["bench", "--shapes", "4,4,4,1"],
    "verify": ["verify", "--suite", "grad"],
    "init-inspect": ["init-inspect", "--ckpt", "base.lors"],
}

# manifest names that are not nonempty strings, by file label
_BAD_NAMES = {"list": [1], "int": 5, "null": None, "empty": ""}

# (argv, LORS_SEED, exit code, stderr fragment); paths are relative to a
# directory that holds base.lors (a dense checkpoint with no 'calib' tensor),
# empty.json (an empty file), list.json (a JSON list) and name-<label>.lors
# (a 1x1 tensor named by _BAD_NAMES[label]), and no missing.lors.
_MALFORMED = [
    (["bench", "--shapes", "4,4,4"], None, EXIT_IO, "must be R,C,L,r"),
    (["bench", "--shapes", "4,4,x,1"], None, EXIT_IO, "non-integer entries"),
    (["bench", "--shapes", ";"], None, EXIT_IO, "no shapes given"),
    (["bench", "--shapes", "4,4,4,0"], None, EXIT_IO, "dimensions must be positive"),
    (["bench", "--shapes", "4,4,4,1", "--repeats", "0"], None, EXIT_IO,
     "repeats must be positive"),
    (["bench", "--predict-only", "--repeats", "0", "--shapes", "4,4,4,1", "--variants", "lors"],
     None, EXIT_IO, "--repeats must be positive"),
    (["bench", "--variants", ""], None, EXIT_IO, "no variant named"),
    (["bench", "--variants", ","], None, EXIT_IO, "no variant named"),
    (["bench", "--variants", "lors,nope"], None, EXIT_IO, "unknown variant 'nope'"),
    (["train", "--ckpt", "missing.lors", "--out", "o.lors", "--rank", "0"], None,
     EXIT_IO, "--rank must be >= 1, got 0"),
    (["init-inspect", "--ckpt", "missing.lors", "--rank", "-1"], None,
     EXIT_IO, "--rank must be >= 1, got -1"),
    (["train", "--ckpt", "missing.lors", "--out", "o.lors", "--samples", "0"], None,
     EXIT_IO, "--samples must be >= 1, got 0"),
    (["train", "--ckpt", "missing.lors", "--out", "o.lors", "--samples", "-5"], None,
     EXIT_IO, "--samples must be >= 1, got -5"),
    (["init-inspect", "--ckpt", "missing.lors", "--samples", "0"], None,
     EXIT_IO, "--samples must be >= 1, got 0"),
    (["init-inspect", "--ckpt", "missing.lors", "--samples", "-5"], None,
     EXIT_IO, "--samples must be >= 1, got -5"),
    (["prune", "--input", "base.lors", "--output", "o.lors", "--method", "activation",
      "--calib", "base.lors"], None, EXIT_IO, "has no 'calib' tensor"),
    # an output whose directory is missing, or is a file, fails before any work
    (["train", "--ckpt", "base.lors", "--out", "o.lors", "--metrics", "nodir/m.csv",
      "--steps", "1", "--samples", "8", "--batch-size", "4", "--rank", "1"], None, EXIT_IO,
     "argument --metrics: cannot write nodir/m.csv: no such directory"),
    (["train", "--ckpt", "base.lors", "--out", "nodir/x.lors", "--steps", "1", "--samples", "8",
      "--batch-size", "4", "--rank", "1"], None, EXIT_IO,
     "argument --out: cannot write nodir/x.lors: no such directory"),
    (["train", "--ckpt", "missing.lors", "--out", "base.lors/x.lors"], None, EXIT_IO,
     "argument --out: cannot write base.lors/x.lors: no such directory"),
    (["prune", "--input", "base.lors", "--output", "nodir/o.lors"], None, EXIT_IO,
     "argument --output: cannot write nodir/o.lors: no such directory"),
    (["bench", "--shapes", "4,4,4,1", "--variants", "lors", "--csv", "nodir/b.csv"], None,
     EXIT_IO, "argument --csv: cannot write nodir/b.csv: no such directory"),
    (["bench", "--shapes", "4,4,4,1", "--variants", "lors", "--json", "base.lors/b.json"],
     None, EXIT_IO, "argument --json: cannot write base.lors/b.json: no such directory"),
] + [
    (_SUBCOMMANDS[cmd] + ["--config", cfg], None, EXIT_IO, message)
    for cmd in _SUBCOMMANDS
    for cfg, message in (("empty.json", "cannot read config"),
                         ("list.json", "must hold a JSON object"))
] + [
    (_SUBCOMMANDS[cmd], seed, EXIT_IO, "LORS_SEED must be an integer")
    for cmd in _SUBCOMMANDS for seed in ("bananas", "1.5", "")
] + [
    (["prune", "--input", "missing.lors", "--output", "o.lors", "--method", method,
      "--ratio", ratio], None, EXIT_IO, message)
    for method, ratio, message in _BAD_RATIOS
] + [
    (["prune", "--input", f"name-{label}.lors", "--output", "o.lors"], None, EXIT_IO,
     f"tensor name must be a nonempty string, got {name!r}")
    for label, name in _BAD_NAMES.items()
]


@pytest.mark.parametrize("argv,seed,code,fragment", _MALFORMED,
                         ids=[" ".join(row[0]) + (f" LORS_SEED={row[1]!r}" if row[1] is not None
                                                  else "") for row in _MALFORMED])
def test_malformed_input_exits_with_documented_code(tmp_path, capsys, monkeypatch,
                                                    argv, seed, code, fragment):
    """Every malformed flag, config, checkpoint or LORS_SEED ends in its
    documented exit code with a one-line error, never a traceback, and
    writes no output."""
    monkeypatch.chdir(tmp_path)
    make_ckpt(tmp_path / "base.lors", dims=(4, 4))
    (tmp_path / "empty.json").write_text("")
    (tmp_path / "list.json").write_text("[1, 2]")
    for label, name in _BAD_NAMES.items():
        manifest = json.dumps([{"name": name, "shape": [1, 1], "dtype": "f64",
                                "offset": 0}]).encode()
        (tmp_path / f"name-{label}.lors").write_bytes(
            struct.pack("<4sIQ", MAGIC, VERSION, len(manifest)) + manifest + bytes(8))
    if seed is not None:
        monkeypatch.setenv("LORS_SEED", seed)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert fragment in err
    assert not (tmp_path / "o.lors").exists()


def test_prune_two_four_accepts_its_own_ratio(tmp_path, capsys):
    src = make_ckpt(tmp_path / "base.lors", dims=(8, 8))
    out = tmp_path / "sparse.lors"
    assert main(["prune", "--input", str(src), "--output", str(out),
                 "--method", "two_four", "--ratio", "0.5"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["tensors"]["layers.0.weight"]["sparsity"] == 0.5


def test_prune_activation(tmp_path, capsys):
    src = make_ckpt(tmp_path / "base.lors", dims=(6, 8))
    calib_path = tmp_path / "calib.lors"
    rng = np.random.default_rng(3)
    save_checkpoint(calib_path, {"calib": DenseMatrix(rng.normal(size=(6, 16)))})
    code = main(["prune", "--input", str(src), "--output",
                 str(tmp_path / "o.lors"), "--method", "activation",
                 "--calib", str(calib_path), "--ratio", "0.5"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["tensors"]["layers.0.weight"]["sparsity"] == pytest.approx(0.5)


def test_train_end_to_end(tmp_path, capsys):
    src = make_ckpt(tmp_path / "base.lors", dims=(5, 6, 4))
    sparse = tmp_path / "sparse.lors"
    main(["prune", "--input", str(src), "--output", str(sparse)])
    capsys.readouterr()

    out = tmp_path / "tuned.lors"
    metrics = tmp_path / "metrics.csv"
    code = main(["train", "--ckpt", str(sparse), "--out", str(out),
                 "--metrics", str(metrics), "--variant", "lors",
                 "--steps", "5", "--samples", "64", "--batch-size", "16",
                 "--rank", "2", "--seed", "0"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 5
    assert summary["final_loss"] is not None

    merged = load_checkpoint(out)
    assert set(merged) == {"layers.0.weight", "layers.0.bias",
                           "layers.1.weight", "layers.1.bias"}
    # merged weights keep the pruned support
    for name in ("layers.0.weight", "layers.1.weight"):
        base = load_checkpoint(sparse)[name].data
        assert np.all(merged[name].data[base == 0.0] == 0.0)

    lines = metrics.read_text().strip().splitlines()
    assert lines[0].startswith("step,")
    assert len(lines) == 1 + 5


def test_train_rejects_nonfinite_lr(tmp_path, capsys):
    src = make_ckpt(tmp_path / "base.lors", dims=(4, 4))
    for lr in ("nan", "inf"):
        out = tmp_path / f"tuned-{lr}.lors"
        code = main(["train", "--ckpt", str(src), "--out", str(out),
                     "--steps", "2", "--rank", "1", "--lr", lr])
        assert code == EXIT_IO, lr
        assert "lr must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_train_rejects_nonfinite_alpha_and_std_up_front(tmp_path, capsys):
    missing = tmp_path / "never-read.lors"
    cases = [(["--alpha", v], "alpha must be finite") for v in ("inf", "nan", "0")]
    cases += [(["--init", "zero_A_random_B", "--std", v], "std must be finite")
              for v in ("nan", "inf")]
    for flags, message in cases:
        out = tmp_path / "tuned.lors"
        code = main(["train", "--ckpt", str(missing), "--out", str(out),
                     "--steps", "2", "--rank", "1"] + flags)
        assert code == EXIT_IO, flags
        assert message in capsys.readouterr().err, flags
        assert not out.exists()


def test_train_metrics_default_path(tmp_path, capsys):
    src = make_ckpt(tmp_path / "b.lors", dims=(4, 4))
    sparse = tmp_path / "s.lors"
    main(["prune", "--input", str(src), "--output", str(sparse)])
    capsys.readouterr()
    out = tmp_path / "t.lors"
    assert main(["train", "--ckpt", str(sparse), "--out", str(out),
                 "--steps", "2", "--samples", "32", "--rank", "1"]) == EXIT_OK
    assert (tmp_path / "t.lors.metrics.csv").exists()


def test_bench_counters_match(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--shapes", "4,4,4,1;8,8,8,2",
                 "--variants", "lora,lors", "--csv", str(csv_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == csv_path.read_text().splitlines()[0]
    # 2 shapes x 2 variants
    assert len(csv_path.read_text().strip().splitlines()) == 1 + 4


def test_bench_fault_trips_counter_exit(capsys):
    code = main(["bench", "--shapes", "4,4,4,1",
                 "--inject-fault", "cost-model-off-by-one"])
    assert code == EXIT_COUNTER
    assert "counter mismatch" in capsys.readouterr().err


def test_bench_fault_always_reset(capsys):
    main(["bench", "--shapes", "4,4,4,1",
          "--inject-fault", "cost-model-off-by-one"])
    capsys.readouterr()
    assert main(["bench", "--shapes", "4,4,4,1"]) == EXIT_OK


def test_bench_bad_shapes(capsys):
    assert main(["bench", "--shapes", "4,4,4"]) == EXIT_IO
    assert "R,C,L,r" in capsys.readouterr().err


def test_verify_all(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    last = out.strip().splitlines()[-1]
    total = int(last.split("/")[1].split()[0])
    assert last.startswith(f"{total}/{total}")


def test_verify_detects_sign_fault(capsys):
    code = main(["verify", "--inject-fault", "lors-backward-sign"])
    assert code == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_verify_suite_subset(capsys):
    assert main(["verify", "--suite", "grad"]) == EXIT_OK
    out = capsys.readouterr().out
    assert all(line.startswith("grad:") or "checks passed" in line
               for line in out.strip().splitlines())


@pytest.mark.parametrize("suite", ["", ","])
def test_verify_rejects_empty_suite_list(suite, capsys):
    assert main(["verify", "--suite", suite]) == EXIT_IO
    assert "no suite named" in capsys.readouterr().err


def test_init_inspect(tmp_path, capsys):
    src = make_ckpt(tmp_path / "b.lors", dims=(6, 8, 4))
    sparse = tmp_path / "s.lors"
    main(["prune", "--input", str(src), "--output", str(sparse)])
    capsys.readouterr()
    assert main(["init-inspect", "--ckpt", str(sparse), "--rank", "2"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["layers"]) == 2
    assert report["peak_extra_elements"] == report["max_layer_elements"] == 8 * 6
    for diag in report["layers"]:
        assert diag["projection_residual"] >= 0.0


def test_config_defaults_and_precedence(tmp_path, capsys):
    src = make_ckpt(tmp_path / "b.lors")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ratio": 0.75}))

    out1 = tmp_path / "o1.lors"
    main(["prune", "--config", str(cfg), "--input", str(src),
          "--output", str(out1)])
    s1 = json.loads(capsys.readouterr().out)
    assert s1["tensors"]["layers.0.weight"]["sparsity"] == pytest.approx(0.75)

    # explicit flag beats the config default
    out2 = tmp_path / "o2.lors"
    main(["prune", "--config", str(cfg), "--input", str(src),
          "--output", str(out2), "--ratio", "0.25"])
    s2 = json.loads(capsys.readouterr().out)
    assert s2["tensors"]["layers.0.weight"]["sparsity"] == pytest.approx(0.25)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    src = make_ckpt(tmp_path / "b.lors")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ratio": 0.5, "speed": "ludicrous"}))
    code = main(["prune", "--config", str(cfg), "--input", str(src),
                 "--output", str(tmp_path / "o.lors")])
    assert code == EXIT_IO
    assert "speed" in capsys.readouterr().err


def test_config_must_be_object(tmp_path, capsys):
    src = make_ckpt(tmp_path / "b.lors")
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["prune", "--config", str(cfg), "--input", str(src),
                 "--output", str(tmp_path / "o.lors")]) == EXIT_IO
    capsys.readouterr()


def test_config_supplies_required_flags(tmp_path, capsys):
    src = make_ckpt(tmp_path / "b.lors", dims=(4, 4))
    out = tmp_path / "t.lors"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ckpt": str(src), "out": str(out), "steps": 2,
                               "samples": 32, "rank": 1}))
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["steps"] == 2
    assert out.exists()

    cfg.write_text(json.dumps({"shapes": "4,4,4,1", "predict_only": True}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_OK
    assert main(["bench", "--config", str(cfg), "--shapes", "4,4,4"]) == EXIT_IO
    capsys.readouterr()


def test_config_values_pass_argparse_checks(tmp_path, capsys):
    src = make_ckpt(tmp_path / "b.lors", dims=(4, 4))
    out = tmp_path / "t.lors"
    cfg = tmp_path / "cfg.json"
    for bad in ({"steps": 1.5}, {"variant": "nope"}, {"seed": True},
                {"metrics": None}, {"rank": [1]}):
        cfg.write_text(json.dumps(bad))
        code = main(["train", "--config", str(cfg), "--ckpt", str(src),
                     "--out", str(out), "--rank", "1"])
        assert code == EXIT_IO, bad
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()
    cfg.write_text(json.dumps({"predict_only": "yes"}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_IO
    capsys.readouterr()


def test_env_seed_matches_explicit_flag(tmp_path, capsys, monkeypatch):
    src = make_ckpt(tmp_path / "b.lors", dims=(4, 4))
    sparse = tmp_path / "s.lors"
    main(["prune", "--input", str(src), "--output", str(sparse)])
    capsys.readouterr()

    def train(metrics, extra):
        assert main(["train", "--ckpt", str(sparse),
                     "--out", str(tmp_path / (metrics + ".lors")),
                     "--metrics", str(tmp_path / metrics),
                     "--steps", "3", "--samples", "32", "--rank", "1",
                     *extra]) == EXIT_OK
        capsys.readouterr()
        return (tmp_path / metrics).read_text()

    monkeypatch.setenv("LORS_SEED", "7")
    via_env = train("env.csv", [])
    monkeypatch.delenv("LORS_SEED")
    via_flag = train("flag.csv", ["--seed", "7"])
    assert via_env == via_flag


def test_env_seed_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("LORS_SEED", "bananas")
    assert main(["verify", "--suite", "grad"]) == EXIT_IO
    assert "LORS_SEED" in capsys.readouterr().err


def test_missing_checkpoint_exit_io(tmp_path, capsys):
    code = main(["prune", "--input", str(tmp_path / "nope.lors"),
                 "--output", str(tmp_path / "o.lors")])
    assert code == EXIT_IO
    capsys.readouterr()


def test_nonfinite_checkpoint_exit_numeric(tmp_path, capsys):
    manifest = json.dumps([{"name": "layers.0.weight", "shape": [1, 2],
                            "dtype": "f64", "offset": 0}]).encode()
    payload = np.array([np.inf, 1.0]).tobytes()
    blob = struct.Struct("<4sIQ").pack(MAGIC, VERSION, len(manifest))
    p = tmp_path / "inf.lors"
    p.write_bytes(blob + manifest + payload)
    code = main(["prune", "--input", str(p), "--output", str(tmp_path / "o.lors")])
    assert code == EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["lors", "lora", "spp"])
def test_train_overflow_names_step_and_layer(variant, tmp_path, capsys):
    """1e160 weights give finite outputs whose loss overflows at step 0:
    exit 3, the message names the step and the layer, and nothing is written."""
    ckpt = tmp_path / "big.lors"
    save_checkpoint(ckpt, {"layers.0.weight": DenseMatrix(np.full((8, 8), 1e160))})
    out = tmp_path / "o.lors"
    with np.errstate(over="ignore"):
        code = main(["train", "--ckpt", str(ckpt), "--out", str(out),
                     "--variant", variant, "--steps", "3"])
    assert code == EXIT_NUMERIC
    assert ("numeric error: step 0: non-finite loss of layers.0"
            in capsys.readouterr().err)
    assert not out.exists()


def test_numeric_failure_prints_one_stderr_line(tmp_path, capsys):
    """The check_finite message is all a numeric failure prints: numpy's
    floating-point warnings stay silent inside the CLI."""
    ckpt = tmp_path / "big.lors"
    save_checkpoint(ckpt, {"layers.0.weight": DenseMatrix(np.full((8, 8), 1e160))})
    code = main(["train", "--ckpt", str(ckpt), "--out", str(tmp_path / "o.lors"),
                 "--steps", "3"])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [
        "numeric error: step 0: non-finite loss of layers.0"]


def test_prune_overflowing_calibration_exits_numeric(tmp_path, capsys):
    src = make_ckpt(tmp_path / "d.lors", dims=(4, 4))
    calib = tmp_path / "c.lors"
    save_checkpoint(calib, {"calib": DenseMatrix(np.full((4, 3), 1e200))})
    out = tmp_path / "o.lors"
    assert main(["prune", "--input", str(src), "--output", str(out),
                 "--method", "activation", "--calib", str(calib)]) == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [
        "numeric error: non-finite calibration feature norms"]
    assert not out.exists()


def test_prune_overflowing_activation_scores_exits_numeric(tmp_path, capsys):
    """Finite weights and norms whose products overflow: exit 3, nothing written."""
    src = tmp_path / "d.lors"
    save_checkpoint(src, {"layers.0.weight": DenseMatrix([[4e300, 3e300, 2e300, 1e300]])})
    calib = tmp_path / "c.lors"
    save_checkpoint(calib, {"calib": DenseMatrix(np.full((4, 1), 1e10))})
    out = tmp_path / "o.lors"
    assert main(["prune", "--input", str(src), "--output", str(out),
                 "--method", "activation", "--calib", str(calib)]) == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [
        "numeric error: non-finite activation scores"]
    assert not out.exists()


def test_init_inspect_overflowing_squares_stay_json(tmp_path, capsys):
    """A finite dW whose squares overflow: every norm in the report is finite,
    so the output is strict JSON."""
    rng = np.random.default_rng(0)
    ckpt = tmp_path / "wide.lors"
    save_checkpoint(ckpt, {"layers.0.weight": DenseMatrix(rng.normal(size=(8, 8)) * 1e155),
                           "layers.1.weight": DenseMatrix(rng.normal(size=(8, 8)) * 1e-156)})
    assert main(["init-inspect", "--ckpt", str(ckpt)]) == EXIT_OK

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")
    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["layers"][1]["grad_norm"] > 1e154
    assert report["layers"][1]["singular_tail"] > 0.0


def test_no_command_prints_help(capsys):
    assert main([]) == EXIT_IO
    assert "usage:" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    assert main(["bench", "--warp-factor", "9"]) == 2
    capsys.readouterr()


def _full_parser_exit(argv):
    """The oracle: argv parsed by the full build_parser() alone, with main's
    mapping of a parse that stops to an exit code."""
    try:
        parser, submap = cli.build_parser()
        args = parser.parse_args(cli._with_config(argv, submap))
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_IO
    assert args.command is None, "every oracle case stops in the parser"
    parser.print_help()
    return EXIT_IO


# per subcommand: a flag whose choices refuse "nope", one whose type refuses
# "x", and a call that lacks a required flag (None: the subcommand has none)
_CHECKED_FLAGS = {
    "prune": ("--method", "--ratio", ["prune", "--input", "base.lors"]),
    "train": ("--variant", "--steps", ["train", "--out", "o.lors"]),
    "bench": ("--inject-fault", "--repeats", None),
    "verify": ("--inject-fault", None, None),
    "init-inspect": ("--task", "--rank", ["init-inspect", "--rank", "2"]),
}


def _parse_cases(cmd, choice_flag, typed_flag, missing):
    base = _SUBCOMMANDS[cmd]
    cases = [[cmd, "-h"], base + ["-h"], [cmd, "--warp-factor", "9"],
             base + ["--warp-factor", "9"], base + ["stray"], base + ["--", "stray"],
             base + [choice_flag, "nope"], base + [choice_flag], base + ["--config"]]
    cases += [base + ["--config", cfg] for cfg in
              ("empty.json", "list.json", "missing.json", "unknown.json", "badvalue.json")]
    cases.append(base + ["--config", "unknown.json", "--warp-factor", "9"])
    cases += [base + [typed_flag, "x"]] if typed_flag else []
    cases += [missing, missing + ["--warp-factor", "9"]] if missing else []
    return cases


_PARSE_CASES = [[], ["-h"], ["--help"], ["nope"], ["nope", "-h"], ["--warp", "prune"]] + [
    case for cmd, flags in _CHECKED_FLAGS.items() for case in _parse_cases(cmd, *flags)] + [
    # abbreviated and "=" forms of --config, and a --calib that names no config
    _SUBCOMMANDS["prune"] + ["--conf", "unknown.json"],
    _SUBCOMMANDS["train"] + ["--c", "list.json"],
    _SUBCOMMANDS["bench"] + ["--config=badvalue.json"],
    _SUBCOMMANDS["prune"] + ["--method", "activation", "--calib", "c.lors", "--warp-factor", "9"],
]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_lean_parse_matches_full_parser(tmp_path, capsys, monkeypatch, argv):
    """A call builds only its subcommand's parser, yet every argument error,
    help text and exit code is the full parser's, byte for byte."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text("")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "unknown.json").write_text('{"warp_factor": 9}')
    (tmp_path / "badvalue.json").write_text('{"config": 1, "seed": [1]}')
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert (code, out, err) == (_full_parser_exit(argv), *capsys.readouterr())


@pytest.mark.parametrize("tokens, reads_config", [
    (["--method", "activation", "--calib", "c.lors", "--calib=c.lors", "--", "-c"], False),
    (["--c", "missing.json"], True),
    (["--conf", "missing.json"], True),
    (["--config=missing.json"], True),
    (["--calib", "c.lors", "--co=missing.json"], True),
])
def test_config_preparser_runs_only_when_a_token_can_name_config(monkeypatch, tokens,
                                                                 reads_config):
    """_with_config builds its --config pre-parser only when some token is
    "--c" through "--config", alone or with "=value"; otherwise argv passes
    through untouched."""
    built, real = [], cli.argparse.ArgumentParser
    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(
        ArgumentParser=lambda *args, **kw: built.append(args) or real(*args, **kw)))
    argv = _SUBCOMMANDS["prune"] + tokens
    if reads_config:
        with pytest.raises(ArgumentError, match="cannot read config missing.json"):
            cli._with_config(argv, {"prune": None})
    else:
        assert cli._with_config(argv, {"prune": None}) == argv
    assert len(built) == reads_config


@pytest.mark.parametrize("argv", [
    _SUBCOMMANDS["prune"] + ["--method", "two_four", "--rat", "0.5"],
    _SUBCOMMANDS["train"] + ["--batch-size", "8", "--seed=3", "--variant", "sqft"],
    ["bench", "--predict-only", "--shapes", "4,4,4,1;8,8,8,2", "--inject-fault",
     "lors-backward-sign"],
    ["verify", "--suite", "grad,cost"],
    ["init-inspect", "--ckpt", "base.lors", "--rank", "2", "--config", "cfg.json"],
])
def test_lean_parse_gives_the_full_namespace(tmp_path, monkeypatch, argv):
    """A well-formed call parses to the full parser's namespace (less its
    subcommand name) without building the full parser."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"samples": 16, "task": "clusters"}')
    parser, submap = cli.build_parser()
    full = vars(parser.parse_args(cli._with_config(argv, submap)))
    assert full.pop("command") == argv[0]

    def refuse():
        raise AssertionError("the full parser was built")
    monkeypatch.setattr(cli, "build_parser", refuse)
    assert vars(cli._parse(argv)) == full
