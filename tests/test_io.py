import json

import numpy as np
import numpy.testing as npt
import pytest

from a2fpn import tensor_io
from a2fpn.tensor_io import TensorFormatError


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 3, 4), (2, 2, 3, 3)])
def test_tensor_roundtrip_bit_exact(tmp_path, rng, dtype, shape):
    arr = rng.standard_normal(shape).astype(dtype)
    path = tmp_path / "t.a2tsr"
    tensor_io.save_tensor(path, arr)
    back = tensor_io.load_tensor(path)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    npt.assert_array_equal(back, arr)


def test_save_is_deterministic(tmp_path, rng):
    arr = rng.standard_normal((3, 4))
    tensor_io.save_tensor(tmp_path / "a.a2tsr", arr)
    tensor_io.save_tensor(tmp_path / "b.a2tsr", arr)
    assert (tmp_path / "a.a2tsr").read_bytes() == (tmp_path / "b.a2tsr").read_bytes()


def test_noncontiguous_input_saved_correctly(tmp_path, rng):
    arr = rng.standard_normal((6, 6))[::2, 1:4]
    tensor_io.save_tensor(tmp_path / "t.a2tsr", arr)
    npt.assert_array_equal(tensor_io.load_tensor(tmp_path / "t.a2tsr"), arr)


def test_bad_magic_raises(tmp_path):
    p = tmp_path / "junk.a2tsr"
    p.write_bytes(b"NOTFMT\x01" + b"\0" * 32)
    with pytest.raises(TensorFormatError):
        tensor_io.load_tensor(p)


def test_unsupported_version_raises(tmp_path, rng):
    p = tmp_path / "t.a2tsr"
    tensor_io.save_tensor(p, rng.standard_normal(3))
    blob = bytearray(p.read_bytes())
    blob[6] = 9
    p.write_bytes(bytes(blob))
    with pytest.raises(TensorFormatError):
        tensor_io.load_tensor(p)


def test_truncated_payload_raises(tmp_path, rng):
    p = tmp_path / "t.a2tsr"
    tensor_io.save_tensor(p, rng.standard_normal(8))
    p.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(TensorFormatError):
        tensor_io.load_tensor(p)


def test_format_error_is_a_value_error():
    assert issubclass(TensorFormatError, ValueError)


def test_params_directory_roundtrip(tmp_path, rng):
    params = {
        "mgc.l3.psi.weight": rng.standard_normal((4, 8)),
        "td.l2.smooth.bias": rng.standard_normal(8).astype(np.float32),
    }
    tensor_io.save_params(tmp_path / "ckpt", params)
    back = tensor_io.load_params(tmp_path / "ckpt")
    assert sorted(back) == sorted(params)
    for name in params:
        npt.assert_array_equal(back[name], params[name])
        assert back[name].dtype == params[name].dtype


def test_manifest_lists_sorted_symbols(tmp_path, rng):
    tensor_io.save_params(tmp_path / "ckpt", {"b.w": rng.standard_normal(2),
                                              "a.w": rng.standard_normal(2)})
    doc = json.loads((tmp_path / "ckpt" / tensor_io.MANIFEST_NAME).read_text())
    assert doc["symbols"] == ["a.w", "b.w"]


def _write_manifest(d, text):
    d.mkdir(parents=True, exist_ok=True)
    (d / tensor_io.MANIFEST_NAME).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("text", [
    "{not json",  # not JSON
    '["a2tsr-manifest"]',  # JSON, but not an object
    '{"format": "npz", "version": 1, "symbols": []}',  # another format
    '{"version": 1, "symbols": []}',  # no format
    '{"format": "a2tsr-manifest", "version": 1}',  # no symbols
    '{"format": "a2tsr-manifest", "version": 1, "symbols": "a.w"}',  # not a list
    '{"format": "a2tsr-manifest", "version": 1, "symbols": ["a.w", 3]}',  # not all strings
])
def test_load_params_rejects_a_malformed_manifest(tmp_path, rng, text):
    tensor_io.save_params(tmp_path / "ckpt", {"a.w": rng.standard_normal(2)})
    _write_manifest(tmp_path / "ckpt", text)
    with pytest.raises(TensorFormatError):
        tensor_io.load_params(tmp_path / "ckpt")


def test_load_params_rejects_a_manifest_that_is_not_utf8(tmp_path):
    (tmp_path / "ckpt").mkdir()
    (tmp_path / "ckpt" / tensor_io.MANIFEST_NAME).write_bytes(b'{"symbols": ["\xff"]}')
    with pytest.raises(TensorFormatError):
        tensor_io.load_params(tmp_path / "ckpt")


@pytest.mark.parametrize("symbol", ["../../x", "../x", "sub/x", "sub\\x", "..", ".", "", "x\0y"])
def test_load_params_reads_no_symbol_outside_its_directory(tmp_path, rng, symbol):
    # a tensor that a path-traversing symbol would reach is never read
    d = tmp_path / "a" / "b" / "ckpt"
    (d / "sub").mkdir(parents=True)
    tensor_io.save_tensor(tmp_path / "a" / "x.a2tsr", rng.standard_normal(2))
    tensor_io.save_tensor(d / "sub" / "x.a2tsr", rng.standard_normal(2))
    _write_manifest(d, json.dumps({"format": "a2tsr-manifest", "version": 1, "symbols": [symbol]}))
    with pytest.raises(TensorFormatError, match="not a plain file name"):
        tensor_io.load_params(d)


def _load_or_format_error(path):
    """The loaded array, or None when load_tensor raised TensorFormatError."""
    try:
        return tensor_io.load_tensor(path)
    except TensorFormatError:
        return None


def test_truncations_and_bit_flips_load_or_raise_format_error(tmp_path, rng):
    arr = rng.standard_normal((3, 4)).astype(np.float32)
    src = tmp_path / "t.a2tsr"
    tensor_io.save_tensor(src, arr)
    blob = src.read_bytes()
    p = tmp_path / "fuzz.a2tsr"
    for n in range(len(blob)):
        p.write_bytes(blob[:n])
        assert _load_or_format_error(p) is None, f"truncated to {n} bytes"
    payload_start = len(blob) - arr.nbytes
    flips = rng.integers(0, 8 * len(blob), 300)
    for bit in np.concatenate([flips, [8 * payload_start + 3]]):
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
        p.write_bytes(bytes(bad))
        got = _load_or_format_error(p)
        if bit // 8 >= payload_start:
            # the format has no checksum: a payload flip loads, as a different value
            assert got is not None and got.shape == arr.shape and not np.array_equal(got, arr)
