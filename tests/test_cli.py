import json
import struct

import numpy as np
import pytest

from lors.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from lors.cli import EXIT_COUNTER, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, main
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


def test_no_command_prints_help(capsys):
    assert main([]) == EXIT_IO
    assert "usage:" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    assert main(["bench", "--warp-factor", "9"]) == 2
    capsys.readouterr()
