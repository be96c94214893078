import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lors.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    model_weight_names,
    save_checkpoint,
)
from lors.errors import CheckpointFormatError, NumericError
from lors.matrix import DenseMatrix, transpose
from lors.prune import SparseWeight

_HEADER = struct.Struct("<4sIQ")


def sample_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "layers.0.weight": DenseMatrix(rng.normal(size=(4, 6))),
        "layers.1.weight": DenseMatrix(rng.normal(size=(3, 4))),
        "layers.0.bias": DenseMatrix(rng.normal(size=(4, 1))),
    }


def test_round_trip_is_bitwise(tmp_path):
    path = tmp_path / "model.lors"
    tensors = sample_tensors()
    # include awkward values: negative zero survives, order preserved
    tensors["edge"] = DenseMatrix(np.array([[0.0, 1e-310, 1e308, 7.0]]))
    tensors["edge"].data[0, 0] = -0.0
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(tensors)
    for name, m in tensors.items():
        assert loaded[name].shape == m.shape
        assert np.array_equal(loaded[name].data, m.data, equal_nan=False), name
        # -0.0 specifically: array_equal treats it equal to 0.0, check bits
        assert loaded[name].data.tobytes() == m.data.tobytes(), name


def test_refuses_empty(tmp_path):
    with pytest.raises(CheckpointFormatError):
        save_checkpoint(tmp_path / "x.lors", {})


def test_missing_file():
    with pytest.raises(CheckpointFormatError):
        load_checkpoint("/nonexistent/path/x.lors")


def corrupt(path, out, mutate):
    blob = bytearray(path.read_bytes())
    mutate(blob)
    out.write_bytes(bytes(blob))
    return out


def test_bad_magic(tmp_path):
    path = tmp_path / "good.lors"
    save_checkpoint(path, sample_tensors())
    bad = corrupt(path, tmp_path / "bad.lors", lambda b: b.__setitem__(0, ord("X")))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad)


def test_bad_version(tmp_path):
    path = tmp_path / "good.lors"
    save_checkpoint(path, sample_tensors())
    bad = corrupt(path, tmp_path / "bad.lors", lambda b: b.__setitem__(4, 99))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(bad)


def test_truncated_header(tmp_path):
    p = tmp_path / "tiny.lors"
    p.write_bytes(b"LOR")
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(p)


def test_truncated_payload(tmp_path):
    path = tmp_path / "good.lors"
    save_checkpoint(path, sample_tensors())
    blob = path.read_bytes()
    bad = tmp_path / "bad.lors"
    bad.write_bytes(blob[:-8])
    with pytest.raises(CheckpointFormatError, match="payload"):
        load_checkpoint(bad)


def test_manifest_not_json(tmp_path):
    manifest = b"not json at all!"
    blob = _HEADER.pack(MAGIC, VERSION, len(manifest)) + manifest
    p = tmp_path / "bad.lors"
    p.write_bytes(blob)
    with pytest.raises(CheckpointFormatError, match="JSON"):
        load_checkpoint(p)


def test_manifest_nested_past_the_parsers_recursion(tmp_path):
    manifest = b"[" * 100000
    p = tmp_path / "deep.lors"
    p.write_bytes(_HEADER.pack(MAGIC, VERSION, len(manifest)) + manifest)
    with pytest.raises(CheckpointFormatError, match="not valid UTF-8 JSON: maximum recursion"):
        load_checkpoint(p)


def write_with_manifest(path, manifest, payload):
    mb = json.dumps(manifest).encode()
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, len(mb)) + mb + payload)
    return path


def test_manifest_must_be_list(tmp_path):
    p = write_with_manifest(tmp_path / "bad.lors", {"name": "x"}, b"")
    with pytest.raises(CheckpointFormatError, match="list"):
        load_checkpoint(p)


def test_manifest_entry_validation(tmp_path):
    payload = np.zeros(4).tobytes()
    cases = [
        ["just a string"],
        [{"name": "x", "shape": [2, 2], "dtype": "f64"}],              # missing offset
        [{"name": "x", "shape": [2, 2], "dtype": "f32", "offset": 0}],  # wrong dtype
        [{"name": "x", "shape": [2], "dtype": "f64", "offset": 0}],     # 1-D shape
        [{"name": "x", "shape": [2, 0], "dtype": "f64", "offset": 0}],  # zero dim
        [{"name": "x", "shape": [2, 2], "dtype": "f64", "offset": 8}],  # runs past end
        [{"name": "x", "shape": [1, 2], "dtype": "f64", "offset": 0},
         {"name": "x", "shape": [1, 2], "dtype": "f64", "offset": 16}],  # duplicate
        [{"name": "x", "shape": [True, 2], "dtype": "f64", "offset": 0}],  # bool dim
        [{"name": "x", "shape": [1, 2], "dtype": "f64", "offset": False}],  # bool offset
    ]
    for i, manifest in enumerate(cases):
        p = write_with_manifest(tmp_path / f"bad{i}.lors", manifest, payload)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(p)


def test_overlapping_tensors_rejected(tmp_path):
    payload = np.arange(6.0).tobytes()
    manifest = [
        {"name": "a", "shape": [1, 4], "dtype": "f64", "offset": 0},
        {"name": "b", "shape": [1, 4], "dtype": "f64", "offset": 8},
    ]
    p = write_with_manifest(tmp_path / "bad.lors", manifest, payload)
    with pytest.raises(CheckpointFormatError, match="overlap"):
        load_checkpoint(p)


def test_shared_payload_without_overlap_is_fine(tmp_path):
    # adjacent but disjoint extents load cleanly
    payload = np.arange(4.0).tobytes()
    manifest = [
        {"name": "a", "shape": [1, 2], "dtype": "f64", "offset": 0},
        {"name": "b", "shape": [1, 2], "dtype": "f64", "offset": 16},
    ]
    p = write_with_manifest(tmp_path / "ok.lors", manifest, payload)
    loaded = load_checkpoint(p)
    assert np.array_equal(loaded["a"].data, [[0.0, 1.0]])
    assert np.array_equal(loaded["b"].data, [[2.0, 3.0]])


def test_model_weight_names():
    t = sample_tensors()
    assert model_weight_names(t) == ["layers.0.weight", "layers.1.weight"]
    with pytest.raises(CheckpointFormatError):
        model_weight_names({"foo": t["layers.0.weight"]})
    with pytest.raises(CheckpointFormatError):
        model_weight_names({"layers.1.weight": t["layers.0.weight"]})  # gap at 0


def test_nonempty_name_required(tmp_path):
    with pytest.raises(CheckpointFormatError):
        save_checkpoint(tmp_path / "x.lors", {"": DenseMatrix(np.ones((1, 1)))})


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_save_refuses_nonfinite_tensor_and_writes_nothing(tmp_path, bad):
    """The loader rejects non-finite payloads, so the writer never makes one."""
    w = DenseMatrix(np.ones((2, 3)))
    w.data[1, 0] = bad
    path = tmp_path / "bad.lors"
    with pytest.raises(NumericError, match="non-finite tensor 'layers.0.weight'"):
        save_checkpoint(path, {"layers.0.bias": DenseMatrix(np.ones((2, 1))),
                               "layers.0.weight": w})
    assert not path.exists()


def _tensor_bytes(tensors):
    return [(name, m.shape, m.data.tobytes()) for name, m in tensors.items()]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["edit", "insert", "truncate"]),
       at=st.integers(0, 2**20), byte=st.integers(0, 255))
def test_single_byte_damage_is_refused_or_round_trips(tmp_path_factory, kind, at, byte):
    """One byte of a small checkpoint edited, inserted or cut off at: the load
    raises CheckpointFormatError, or NumericError where a payload double
    became non-finite (exit 3, as for any non-finite checkpoint), or returns
    tensors that save and load again bitwise."""
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    save_checkpoint(work / "good.lors", {
        "layers.0.weight": DenseMatrix([[1.5, -0.25, 3.0], [0.0, 2.0, -7.5]]),
        "layers.0.bias": DenseMatrix([[0.5], [-1.0]]),
    })
    blob = bytearray((work / "good.lors").read_bytes())
    at %= len(blob)
    if kind == "edit":
        blob[at] = byte
    elif kind == "insert":
        blob.insert(at, byte)
    else:
        del blob[at:]
    (work / "bad.lors").write_bytes(bytes(blob))
    try:
        loaded = load_checkpoint(work / "bad.lors")
    except CheckpointFormatError:
        return
    except NumericError as exc:
        assert "non-finite" in str(exc)
        return
    save_checkpoint(work / "again.lors", loaded)
    assert _tensor_bytes(load_checkpoint(work / "again.lors")) == _tensor_bytes(loaded)


def _oracle_bytes(tensors, pad=0):
    """The documented layout, built independently of save_checkpoint; ``pad``
    spaces after the manifest JSON move the payload to any offset."""
    manifest, chunks, offset = [], [], 0
    for name, m in tensors.items():
        raw = m.data.astype("<f8").tobytes(order="C")
        manifest.append({"name": name, "shape": list(m.data.shape), "dtype": "f64",
                         "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    mb = json.dumps(manifest).encode("utf-8") + b" " * pad
    return struct.pack("<4sIQ", b"LORS", 1, len(mb)) + mb + b"".join(chunks)


@pytest.mark.parametrize("pad", [0, 1, 3, 5])
def test_save_writes_the_documented_bytes_for_any_layout(tmp_path, pad):
    """A C-ordered tensor, an F-ordered one (a transpose view) and a sliced
    non-contiguous one are each written as row-major little-endian doubles,
    and the documented bytes load back bitwise whatever the manifest's length
    (``pad`` spaces after its JSON; odd pads put the payload off 8-byte
    alignment)."""
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 9))
    base[0, 0] = -0.0
    c_ordered = DenseMatrix(base)
    f_ordered = transpose(DenseMatrix(base[:4, :5]))
    sliced = DenseMatrix(np.ones((1, 1)))
    sliced.data = base[::2, 1::3]
    assert f_ordered.data.flags.f_contiguous and not f_ordered.data.flags.c_contiguous
    assert not (sliced.data.flags.c_contiguous or sliced.data.flags.f_contiguous)
    tensors = {"c": c_ordered, "f": f_ordered, "sliced": sliced}
    save_checkpoint(tmp_path / "t.lors", tensors)
    assert (tmp_path / "t.lors").read_bytes() == _oracle_bytes(tensors)
    (tmp_path / "padded.lors").write_bytes(_oracle_bytes(tensors, pad))
    loaded = load_checkpoint(tmp_path / "padded.lors")
    for name, m in tensors.items():
        assert loaded[name].data.tobytes() == m.data.tobytes(), name


@pytest.mark.parametrize("pad", range(8))
def test_loaded_tensors_are_aligned_writable_and_separate(tmp_path, pad):
    """Whatever the payload offset modulo 8 (trailing manifest whitespace
    moves it), every loaded tensor is its own aligned, writable, C-contiguous
    float64 array, and SparseWeight normalizes a loaded weight in place."""
    w = np.array([[-0.0, 1.5, -2.0], [3.25, 0.0, -0.0]])
    bias = np.array([[0.5], [-1.0]])
    manifest = [{"name": "layers.0.weight", "shape": [2, 3], "dtype": "f64", "offset": 0},
                {"name": "layers.0.bias", "shape": [2, 1], "dtype": "f64", "offset": 48}]
    mb = json.dumps(manifest).encode() + b" " * pad
    path = tmp_path / "t.lors"
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, len(mb)) + mb + w.tobytes() + bias.tobytes())
    loaded = load_checkpoint(path)
    arrays = [m.data for m in loaded.values()]
    for arr in arrays:
        assert arr.dtype == np.float64
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
    assert not np.shares_memory(arrays[0], arrays[1])
    assert loaded["layers.0.weight"].data.tobytes() == w.tobytes()
    assert loaded["layers.0.bias"].data.tobytes() == bias.tobytes()
    weight = loaded["layers.0.weight"]
    sw = SparseWeight(weight)
    assert sw.values is weight
    assert np.array_equal(np.signbit(weight.data), w < 0.0)


def _traced_peak(fn, *args):
    """Bytes tracemalloc sees allocated at the peak of fn(*args)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_load_holds_one_copy_of_the_tensors(tmp_path):
    """Each tensor is read straight into its own array: no whole-file buffer
    and no second copy, so a load peaks near the tensors' own bytes
    (measured 1.03x; reading the file whole first made it 2.03x)."""
    rng = np.random.default_rng(3)
    tensors = {}
    for i in range(4):
        tensors[f"layers.{i}.weight"] = DenseMatrix(rng.normal(size=(128, 128)))
        tensors[f"layers.{i}.bias"] = DenseMatrix(rng.normal(size=(128, 1)))
    save_checkpoint(tmp_path / "m.lors", tensors)
    nbytes = sum(m.data.nbytes for m in tensors.values())
    del tensors
    peak = _traced_peak(load_checkpoint, tmp_path / "m.lors")
    assert peak <= 1.25 * nbytes, peak / nbytes


def test_tensor_larger_than_the_file_is_refused_before_any_read(tmp_path):
    """Every manifest entry is checked against the file size before a tensor
    array exists: a valid 512 KiB first tensor is never allocated when the
    second claims far more than the file holds."""
    first = np.arange(256 * 256, dtype="<f8")
    manifest = [{"name": "a", "shape": [256, 256], "dtype": "f64", "offset": 0},
                {"name": "b", "shape": [2**20, 2**20], "dtype": "f64",
                 "offset": first.nbytes}]
    p = write_with_manifest(tmp_path / "huge.lors", manifest, first.tobytes())

    def load():
        with pytest.raises(CheckpointFormatError,
                           match=r"tensor 'b' extent \[524288, 8796093546496\) falls "
                                 r"outside the 524288-byte payload"):
            load_checkpoint(p)

    assert _traced_peak(load) < first.nbytes // 8


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_checkpoint_loads_from_a_pipe(tmp_path):
    """A file that is not a regular one (``--input <(cat model.lors)``) is
    read whole and loads like the file it came from."""
    save_checkpoint(tmp_path / "m.lors", sample_tensors())
    blob = (tmp_path / "m.lors").read_bytes()
    r, w = os.pipe()
    try:
        os.write(w, blob)  # a few hundred bytes: fits the pipe's buffer
        os.close(w)
        w = None
        loaded = load_checkpoint(f"/dev/fd/{r}")
    finally:
        os.close(r)
        if w is not None:
            os.close(w)
    assert _tensor_bytes(loaded) == _tensor_bytes(sample_tensors())
