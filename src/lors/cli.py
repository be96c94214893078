"""Command-line surface: prune, train, bench, verify, init-inspect.

Exit codes: 0 success, 1 verification failure, 2 I/O or format problem,
3 numeric failure, 4 counter-vs-formula mismatch. The default seed is 0,
overridable by the LORS_SEED environment variable; every subcommand also
accepts --config pointing at a JSON file of flag defaults, checked like typed
flags (explicit flags win).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from .errors import (
    ArgumentError,
    CheckpointFormatError,
    NumericError,
    ShapeError,
)
from .prune import (
    CalibrationBatch,
    SparseWeight,
    prune_activation_scaled,
    prune_magnitude,
    prune_two_four,
    sparsity,
)
from .adapters import FAULT_INJECTION, VARIANTS, check_alpha, make_layer, merge
from .initialization import (
    InitSpec,
    MemoryGauge,
    STRATEGIES,
    init_gradient_svd,
)
from .train import (
    Dataset,
    ToyModel,
    TrainConfig,
    evaluate,
    finetune,
    make_cluster_data,
    make_teacher_data,
    model_from_weights,
    random_dense_weights,
)
from .bench import run_bench, run_suites, SUITES
from .checkpoint import load_checkpoint, model_weight_names, save_checkpoint

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_COUNTER = 4

FAULTS = {
    "lors-backward-sign": "lors_backward_sign_flip",
    "cost-model-off-by-one": "cost_model_off_by_one",
}


def _env_seed() -> int:
    raw = os.environ.get("LORS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ArgumentError(f"LORS_SEED must be an integer, got {raw!r}")


def _parse_shapes(text: str):
    shapes = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 4:
            raise ArgumentError(
                f"shape {part!r} must be R,C,L,r (four comma-separated integers)"
            )
        try:
            shapes.append(tuple(int(p) for p in pieces))
        except ValueError:
            raise ArgumentError(f"shape {part!r} has non-integer entries")
    if not shapes:
        raise ArgumentError("no shapes given")
    return shapes


def _output_path(path: str) -> str:
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"cannot write {path}: no such directory")
    return path


@contextmanager
def _injected(fault):
    """Switch the named ``--inject-fault`` hook on inside the block and off
    again however the block ends; no fault named, no change."""
    if fault is None:
        yield
        return
    FAULT_INJECTION[FAULTS[fault]] = True
    try:
        yield
    finally:
        FAULT_INJECTION[FAULTS[fault]] = False


def _load_model(path, variant: str, rank: int, alpha: float, samples: int,
                head: str = "regression") -> ToyModel:
    """Zeroed adapters over a checkpoint's weights; alpha, rank and the
    dataset's sample count are checked before the file is read."""
    check_alpha(alpha)
    if rank < 1:
        raise ArgumentError(f"--rank must be >= 1, got {rank}")
    if samples < 1:
        raise ArgumentError(f"--samples must be >= 1, got {samples}")
    tensors = load_checkpoint(path)
    names = model_weight_names(tensors)
    layers = []
    for i, name in enumerate(names):
        # each loaded tensor is its own array, so the layers take them uncopied
        layers.append(make_layer(SparseWeight(tensors[name]), rank=rank, variant=variant,
                                 alpha=alpha, bias=tensors.get(f"layers.{i}.bias"),
                                 name=f"layers.{i}"))
    return ToyModel(layers, head=head)


def _task_dataset(task: str, model: ToyModel, seed: int, n: int) -> Dataset:
    if task == "teacher":
        dims = [model.in_features] + [ly.out_features for ly in model.layers]
        teacher = model_from_weights(random_dense_weights(seed + 7919, dims),
                                     variant="lors", rank=1)
        return make_teacher_data(teacher, seed=seed + 104729, n=n)
    if task == "clusters":
        return make_cluster_data(seed=seed + 104729, k=model.out_features,
                                 dim=model.in_features, n=n)
    raise ArgumentError(f"unknown task {task!r}, expected teacher or clusters")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_prune(args) -> int:
    if args.method == "activation" and not args.calib:
        raise ArgumentError("method 'activation' requires --calib")
    if args.method != "activation" and args.calib is not None:
        raise ArgumentError(f"--calib is read only by method 'activation', not {args.method!r}")
    if not (0.0 <= args.ratio < 1.0):
        raise ArgumentError(f"--ratio must be in [0, 1), got {args.ratio}")
    if args.method == "two_four" and args.ratio != 0.5:
        raise ArgumentError(f"--ratio must be 0.5 for method 'two_four', which removes "
                            f"2 of every 4 entries, got {args.ratio}")
    tensors = load_checkpoint(args.input)
    calib = None
    if args.method == "activation":
        calib_tensors = load_checkpoint(args.calib)
        if "calib" not in calib_tensors:
            raise CheckpointFormatError(
                f"calibration checkpoint {args.calib} has no 'calib' tensor"
            )
        calib = CalibrationBatch(calib_tensors["calib"])

    out = {}
    summary = {"method": args.method, "tensors": {}}
    for name, m in tensors.items():
        if not name.endswith(".weight"):
            out[name] = m
            continue
        if args.method == "magnitude":
            sw = prune_magnitude(m, args.ratio)
        elif args.method == "activation":
            sw = prune_activation_scaled(m, calib, args.ratio)
        else:
            sw = prune_two_four(m)
        out[name] = sw.values
        summary["tensors"][name] = {
            "rows": m.rows, "cols": m.cols,
            "sparsity": sparsity(sw), "pattern": sw.pattern,
        }
    if not summary["tensors"]:
        raise CheckpointFormatError("checkpoint holds no '.weight' tensors to prune")
    save_checkpoint(args.output, out)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_train(args) -> int:
    init = InitSpec(strategy=args.init, seed=args.seed, std=args.std)
    config = TrainConfig(steps=args.steps, batch_size=args.batch_size,
                         lr=args.lr, optimizer=args.optimizer,
                         variant=args.variant, init=init, seed=args.seed)
    head = "classification" if args.task == "clusters" else "regression"
    model = _load_model(args.ckpt, args.variant, args.rank, args.alpha, args.samples, head=head)
    dataset = _task_dataset(args.task, model, args.seed, args.samples)
    _, trace = finetune(model, dataset, config)

    merged_tensors = {}
    for i, layer in enumerate(model.layers):
        merged_tensors[f"layers.{i}.weight"] = merge(layer).values
        if layer.bias is not None:
            merged_tensors[f"layers.{i}.bias"] = layer.bias
    save_checkpoint(args.out, merged_tensors)

    metrics_path = args.metrics or (str(args.out) + ".metrics.csv")
    trace.save_csv(metrics_path)

    summary = {
        "steps": args.steps,
        "variant": args.variant,
        "init": args.init,
        "final_loss": trace.final_loss if trace.rows else None,
        "eval": evaluate(model, dataset),
        "out": str(args.out),
        "metrics": str(metrics_path),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ArgumentError(f"--repeats must be positive, got {args.repeats}")
    shapes = _parse_shapes(args.shapes)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    with _injected(args.inject_fault):
        report = run_bench(shapes, variants, repeats=args.repeats,
                           seed=args.seed, predict_only=args.predict_only)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.csv_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.json_obj(), fh, indent=2)
            fh.write("\n")
    print(report.csv_text(), end="")
    mismatches = report.mismatches()
    if mismatches:
        for cell in mismatches:
            print(f"counter mismatch: {cell}", file=sys.stderr)
        return EXIT_COUNTER
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [
        s.strip() for s in args.suite.split(",") if s.strip()]
    with _injected(args.inject_fault):
        results = run_suites(names)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    failures = 0
    for r in results:
        status = "pass" if r.ok else "FAIL"
        label = f"{r.suite}: {r.name}"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{label:<{width}}  {status}{detail}")
        if not r.ok:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_init_inspect(args) -> int:
    model = _load_model(args.ckpt, "lors", args.rank, args.alpha, args.samples)
    dataset = _task_dataset(args.task, model, args.seed, max(args.samples, 32))
    probe = dataset.head(32)
    gauge = MemoryGauge()
    diagnostics = []
    init_gradient_svd(model, probe, r=args.rank, gauge=gauge,
                      diagnostics=diagnostics)
    report = {
        "layers": diagnostics,
        "peak_extra_elements": gauge.peak,
        "max_layer_elements": max(
            ly.out_features * ly.in_features for ly in model.layers),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# subcommand -> help text; _define holds each one's handler and flags
COMMANDS = {
    "prune": "prune '.weight' tensors in a checkpoint",
    "train": "finetune adapters over a sparse checkpoint",
    "bench": "compare measured counters with formulas",
    "verify": "run oracle suites and print a pass/fail table",
    "init-inspect": "dump per-layer SVD residuals for gradient-based init",
}


def _define(p, name: str, seed: int):
    """Give parser p the handler and the flags of subcommand ``name``: the one
    definition behind both the full parser and a single subcommand's."""
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults (explicit flags win)")
    if name == "prune":
        p.set_defaults(handler=cmd_prune)
        p.add_argument("--input", required=True)
        p.add_argument("--output", required=True, type=_output_path)
        p.add_argument("--method", choices=("magnitude", "activation", "two_four"),
                       default="magnitude")
        p.add_argument("--ratio", type=float, default=0.5,
                       help="fraction removed, in [0, 1); two_four takes only 0.5")
        p.add_argument("--calib", default=None,
                       help="checkpoint holding a 'calib' tensor (method activation only)")
    elif name == "train":
        p.set_defaults(handler=cmd_train)
        p.add_argument("--ckpt", required=True)
        p.add_argument("--out", required=True, type=_output_path)
        p.add_argument("--metrics", default=None, type=_output_path, help="metrics CSV path")
        p.add_argument("--variant", choices=VARIANTS, default="lors")
        p.add_argument("--init", choices=STRATEGIES, default="zero_A_zero_B")
        p.add_argument("--task", choices=("teacher", "clusters"), default="teacher")
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--samples", type=int, default=512,
                       help="synthetic dataset size")
        p.add_argument("--lr", type=float, default=1e-2)
        p.add_argument("--optimizer", choices=("sgd", "adaptive"), default="sgd")
        p.add_argument("--rank", type=int, default=4)
        p.add_argument("--alpha", type=float, default=2.0)
        p.add_argument("--std", type=float, default=0.02,
                       help="random-init standard deviation")
        p.add_argument("--seed", type=int, default=seed)
    elif name == "bench":
        p.set_defaults(handler=cmd_bench)
        p.add_argument("--shapes", default="64,64,64,16",
                       help="semicolon-separated R,C,L,r tuples")
        p.add_argument("--variants", default=",".join(VARIANTS))
        p.add_argument("--repeats", type=int, default=1)
        p.add_argument("--csv", default=None, type=_output_path)
        p.add_argument("--json", default=None, type=_output_path)
        p.add_argument("--predict-only", action="store_true",
                       help="emit only closed-form predictions (no measurement)")
        p.add_argument("--seed", type=int, default=seed)
    elif name == "verify":
        p.set_defaults(handler=cmd_verify)
        p.add_argument("--suite", default="all",
                       help=f"comma-separated subset of {sorted(SUITES)}, or 'all'")
    elif name == "init-inspect":
        p.set_defaults(handler=cmd_init_inspect)
        p.add_argument("--ckpt", required=True)
        p.add_argument("--rank", type=int, default=4)
        p.add_argument("--alpha", type=float, default=2.0)
        p.add_argument("--task", choices=("teacher", "clusters"), default="teacher")
        p.add_argument("--samples", type=int, default=64)
        p.add_argument("--seed", type=int, default=seed)
    if name in ("bench", "verify"):
        p.add_argument("--inject-fault", choices=sorted(FAULTS), default=None,
                       help="debug hook: corrupt a computation to test failure paths")
    return p


def build_parser():
    seed = _env_seed()
    parser = argparse.ArgumentParser(
        prog="lors", description="Sparsity-preserving low-rank adapter toolkit")
    subparsers = parser.add_subparsers(dest="command")
    submap = {name: _define(subparsers.add_parser(name, help=help_text), name, seed)
              for name, help_text in COMMANDS.items()}
    return parser, submap


def _with_config(argv: list, submap) -> list:
    """argv with the --config file's entries inserted as flags after the
    subcommand, so argparse checks them like typed flags and explicit ones win."""
    # only a token "--c" through "--config", alone or as "--x=value", can name it
    flags = (token.split("=", 1)[0] for token in argv[1:])
    if not argv or argv[0] not in submap or not any(
            len(flag) > 2 and "--config".startswith(flag) for flag in flags):
        return argv
    pre = argparse.ArgumentParser(prog=f"lors {argv[0]}", add_help=False)
    pre.add_argument("--config", default=None)
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ArgumentError("config file must hold a JSON object")
    actions = {a.dest: a for a in submap[argv[0]]._actions
               if a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        raise ArgumentError(f"config keys not recognized: {unknown}")
    tokens = []
    for key, value in cfg.items():
        # store_true flags take JSON true/false; every other flag a string or number
        is_switch = actions[key].nargs == 0
        if isinstance(value, bool) != is_switch or not isinstance(value, (str, int, float)):
            raise ArgumentError(f"config key {key!r} cannot take {value!r}")
        flag = actions[key].option_strings[-1]
        tokens += ([flag] if value else []) if is_switch else [f"{flag}={value}"]
    return argv[:1] + tokens + argv[1:]


def _parse(argv: list):
    """The namespace of argv. A call builds only its subcommand's parser; the
    full parser handles the rest: no or an unknown subcommand, top-level help,
    unrecognized arguments (SystemExit wherever argparse stops)."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        lean = _define(argparse.ArgumentParser(prog=f"lors {name}"), name, _env_seed())
        args, extra = lean.parse_known_args(_with_config(argv, {name: lean})[1:])
        if not extra:
            return args
    parser, submap = build_parser()
    args = parser.parse_args(_with_config(argv, submap))
    if args.command is None:
        parser.print_help()
        parser.exit(EXIT_IO)
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_IO

    # The check_finite boundaries catch every non-finite value and name it, so
    # numpy's floating-point warnings would only repeat them, with source paths.
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(args)
    except (CheckpointFormatError, ArgumentError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
