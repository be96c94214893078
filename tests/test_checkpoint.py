import json
import struct

import numpy as np
import pytest

from lors.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    model_weight_names,
    save_checkpoint,
)
from lors.errors import CheckpointFormatError, NumericError
from lors.matrix import DenseMatrix

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
