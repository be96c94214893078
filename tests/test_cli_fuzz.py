"""A fuzz of every input path of the command line: generated argv for all
five subcommands, ``--config`` files (valid, malformed, not UTF-8, deeply
nested), odd ``LORS_SEED`` values and checkpoint bytes (valid, truncated,
bit-flipped, with malformed manifests). ``cli.main`` runs in process, and
every call must return one of the documented exit codes 0-4 with no
exception escaping.

Every drawn size is capped: models are 6 -> 8 -> 4 wide, counts (steps,
samples, repeats, shape entries) stay single or low double digits, and no
file is larger than about 100 kB, so no case allocates more than a few MiB.
Huge counts such as ``--repeats 2**63`` are valid values that run
practically forever, so they stay out.
"""

import contextlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lors.checkpoint import MAGIC, VERSION, save_checkpoint
from lors.cli import main
from lors.matrix import DenseMatrix

COMMANDS = ("prune", "train", "bench", "verify", "init-inspect")

SEEDS = (("0", "7", "-3", " 5 ", "18446744073709551617", "-99999999999999999999"),
         ("abc", "", "1e3", "0x10"))
SUITES = ("all", "grad", "equiv", "ste", "cost", "init", "sparsity", "ste,cost")

# flag -> (values a run takes, values it must refuse or that send it down an
# odd path); "path", "calib", "out" and "shapes" are drawn by ``cases``, and
# None marks a switch
FLAGS = {
    "prune": {"--input": "path", "--output": "out", "--calib": "calib",
              "--method": (("magnitude", "activation", "two_four"), ("nope",)),
              "--ratio": (("0", "0.25", "0.5"), ("1", "-1", "nan", "inf", "x", ""))},
    "train": {"--ckpt": "path", "--out": "out", "--metrics": "out",
              "--variant": (("lora", "sqft", "sqft_gc", "spp", "spp_gc", "lors"), ("nope",)),
              "--init": (("zero_A_zero_B", "zero_A_random_B", "gradient_svd"), ("nope",)),
              "--task": (("teacher", "clusters"), ("nope",)),
              "--steps": (("0", "1", "3"), ("-1", "1.5", "x", "")),
              "--batch-size": (("1", "4", "16"), ("0", "-1", "x")),
              "--samples": (("1", "8", "40"), ("0", "-1", "x")),
              "--lr": (("0", "1e-3", "0.5"), ("-1", "nan", "inf", "1e308", "y")),
              "--optimizer": (("sgd", "adaptive"), ("nope",)),
              "--rank": (("1", "2", "4"), ("0", "-1", "9", "x")),
              "--alpha": (("0.5", "2"), ("0", "-1", "nan", "inf", "1e308")),
              "--std": (("0", "0.02", "1"), ("-1", "nan", "1e308")),
              "--seed": SEEDS},
    "bench": {"--shapes": "shapes",
              "--variants": (("lors", "lora,spp", "spp_gc,sqft"), ("", ",", "nope")),
              "--repeats": (("1", "3"), ("0", "-1", "x")), "--csv": "out", "--json": "out",
              "--predict-only": None, "--seed": SEEDS,
              "--inject-fault": (("lors-backward-sign", "cost-model-off-by-one"), ("nope",))},
    "verify": {"--suite": (SUITES, ("", ",", "nope")),
               "--inject-fault": (("lors-backward-sign",), ("nope",))},
    "init-inspect": {"--ckpt": "path",
                     "--rank": (("1", "2", "4"), ("0", "-1", "9", "x")),
                     "--alpha": (("0.5", "2"), ("0", "nan", "1e308")),
                     "--task": (("teacher", "clusters"), ("nope",)),
                     "--samples": (("1", "8", "40"), ("0", "-1", "x")),
                     "--seed": SEEDS},
}
REQUIRED = {"prune": ("--input", "--output"), "train": ("--ckpt", "--out"),
            "init-inspect": ("--ckpt",)}


def _checkpoint_bytes(tensors) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        save_checkpoint(path, {k: DenseMatrix(v) for k, v in tensors.items()})
        return path.read_bytes()


_RNG = np.random.default_rng(0)
MODEL = _checkpoint_bytes({"layers.0.weight": _RNG.normal(size=(8, 6)),
                           "layers.0.bias": _RNG.normal(size=(8, 1)),
                           "layers.1.weight": _RNG.normal(size=(4, 8))})
CALIB = _checkpoint_bytes({"calib": _RNG.normal(size=(6, 5))})

NESTED = b"[" * 100000  # past the JSON parser's recursion limit

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)


def _with_manifest(text: bytes, payload: bytes = b"", version: int = VERSION,
                   declared=None) -> bytes:
    declared = len(text) if declared is None else declared
    return struct.pack("<4sIQ", MAGIC, version, declared) + text + payload


@st.composite
def manifests(draw) -> bytes:
    """A header and a manifest (drawn entries, drawn JSON, deep nesting or
    bytes that are not UTF-8), then a payload."""
    entry = st.fixed_dictionaries({}, optional={
        "name": st.sampled_from(("layers.0.weight", "layers.0.bias", "calib", "", 3)),
        "shape": st.lists(st.integers(-2, 2**40), max_size=3) | json_values,
        "dtype": st.sampled_from(("f64", "f32", None)),
        "offset": st.integers(-8, 2**62) | json_values,
    })
    kind = draw(st.sampled_from(("entries", "entries", "json", "nested", "not utf-8")))
    if kind == "nested":
        text = NESTED
    elif kind == "not utf-8":
        text = b'[{"name": "\xff"}]'
    else:
        text = json.dumps(draw(st.lists(entry, max_size=3) if kind == "entries"
                               else json_values)).encode()
        if not draw(st.integers(0, 3)):
            text = text[:draw(st.integers(0, len(text)))]
    declared = draw(st.sampled_from((None, None, None, len(text) + 1, 2**63)))
    payload = b"\0" * draw(st.sampled_from((0, 8, 64, 512)))
    version = draw(st.sampled_from((VERSION,) * 4 + (VERSION + 1,)))
    return _with_manifest(text, payload, version, declared)


@st.composite
def file_bytes(draw) -> bytes:
    kind = draw(st.sampled_from(("model", "calib", "truncated", "flipped", "manifest",
                                 "manifest", "config", "bytes")))
    if kind == "model":
        return MODEL
    if kind == "calib":
        return CALIB
    if kind == "truncated":
        return MODEL[:draw(st.integers(0, len(MODEL) - 1))]
    if kind == "flipped":
        at = draw(st.integers(0, len(MODEL) - 1))
        return MODEL[:at] + bytes([MODEL[at] ^ draw(st.integers(1, 255))]) + MODEL[at + 1:]
    if kind == "manifest":
        return draw(manifests())
    if kind == "config":
        return draw(configs())
    return draw(st.binary(max_size=64))


@st.composite
def configs(draw, command=None) -> bytes:
    """A --config file: an object of ``command``'s flags with the values it
    takes, or (no command) an object of any flags and values, or text that is
    not one (malformed, not UTF-8, nested past the parser's recursion)."""
    kind = "object" if command else draw(
        st.sampled_from(("object", "json", "malformed", "not utf-8", "nested")))
    if kind == "object":
        flags = FLAGS[command or draw(st.sampled_from(COMMANDS))]
        # a run's config sets switches and valued flags, never files
        names = sorted(f for f, v in flags.items() if not (command and isinstance(v, str)))
        obj = {}
        for flag in draw(st.lists(st.sampled_from(names + ["--bogus"] * (not command)),
                                  max_size=4, unique=True)):
            spec = flags.get(flag)
            if isinstance(spec, tuple):
                obj[flag] = draw(st.sampled_from(spec[0] if command else sum(spec, ())))
            else:
                obj[flag] = draw(st.booleans() if command else st.booleans() | st.integers(-2, 8))
        return json.dumps({f[2:].replace("-", "_"): v for f, v in obj.items()}).encode()
    if kind == "json":
        return json.dumps(draw(json_values)).encode()
    if kind == "malformed":
        return draw(st.sampled_from((b"{", b"[1,", b'{"steps": }', b"", b"nul")))
    if kind == "not utf-8":
        return b'{"steps": "\xff\xfe"}'
    return NESTED


@st.composite
def shapes(draw, odd: bool) -> str:
    entry = st.integers(1, 6).map(str)
    if odd:
        entry = entry | st.sampled_from(("0", "-1", "x", ""))
    entries = st.lists(entry, min_size=4, max_size=4) if not odd else st.lists(
        entry, min_size=3, max_size=5)
    return ";".join(",".join(draw(entries)) for _ in range(draw(st.integers(1, 2))))


@st.composite
def cases(draw):
    """(argv, LORS_SEED or None, {file name: bytes}), file names relative to
    the case's directory. Half the cases take values a run accepts, so they
    get past the parser and into the subcommand; the other half mix in
    refused values, missing or unreadable files, broken config files,
    unknown commands and tokens, and odd seeds."""
    odd = draw(st.booleans())
    command = draw(st.sampled_from(COMMANDS + (("", "nope") if odd else ())))
    argv, files = [command] if command else [], {}

    def new_file(data):
        name = f"f{len(files)}"
        files[name] = data
        return name

    def value(spec):
        if spec in ("path", "calib"):
            if not odd:
                return new_file(CALIB if spec == "calib" else MODEL)
            choice = draw(st.sampled_from(("file", "file", "missing", "directory")))
            if choice == "file":
                return new_file(draw(file_bytes()))
            return "nofile" if choice == "missing" else "."
        if spec == "out":
            return draw(st.sampled_from(("out.bin", "no/such/dir/out.bin", "."))) if odd \
                else "out.bin"
        if spec == "shapes":
            return draw(shapes(odd))
        return draw(st.sampled_from(sum(spec, ()) if odd else spec[0]))

    # no subcommand or an unknown one: any subcommand's flags
    flags = FLAGS.get(command) or {f: v for each in FLAGS.values() for f, v in each.items()}
    required = REQUIRED.get(command, ()) if not odd or draw(st.booleans()) else ()
    optional = sorted(set(flags) - set(required))
    for flag in [*required, *draw(st.lists(st.sampled_from(optional), max_size=4,
                                           unique=True))]:
        if flags[flag] is None:
            argv.append(flag)
        else:
            text = value(flags[flag])
            argv += draw(st.sampled_from(([flag, text], [f"{flag}={text}"])))
    if command and odd and draw(st.integers(0, 3)):
        data = draw(configs() if draw(st.integers(0, 3)) else file_bytes())
        argv += ["--config", new_file(data)]
    elif command and not odd and draw(st.booleans()):
        argv += ["--config", new_file(draw(configs(command)))]
    if odd and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--bogus", "junk", "-x", "--"))))
    seed = draw(st.none() | st.sampled_from(sum(SEEDS, ()) if odd else SEEDS[0]))
    return argv, seed, files


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
# the undecodable inputs that once ended in a traceback, always run
@example((["verify", "--config", "f0"], None, {"f0": NESTED}))
@example((["bench", "--config", "f0"], None, {"f0": b'{"seed": "\xff"}'}))
@example((["init-inspect", "--ckpt", "f0"], None, {"f0": _with_manifest(NESTED)}))
@example((["init-inspect", "--ckpt", "f0"], None, {"f0": _with_manifest(b'["\xff"]')}))
def test_every_input_path_ends_in_a_documented_exit_code(case):
    argv, seed, files = case
    prior_seed, prior_dir = os.environ.get("LORS_SEED"), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        os.chdir(tmp)
        if seed is None:
            os.environ.pop("LORS_SEED", None)
        else:
            os.environ["LORS_SEED"] = seed
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(prior_dir)
            if prior_seed is None:
                os.environ.pop("LORS_SEED", None)
            else:
                os.environ["LORS_SEED"] = prior_seed
    assert code in (0, 1, 2, 3, 4), (argv, seed, code)
