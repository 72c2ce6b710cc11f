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
    import json

    tensor_io.save_params(tmp_path / "ckpt", {"b.w": rng.standard_normal(2),
                                              "a.w": rng.standard_normal(2)})
    doc = json.loads((tmp_path / "ckpt" / tensor_io.MANIFEST_NAME).read_text())
    assert doc["symbols"] == ["a.w", "b.w"]


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
