import numpy as np
import numpy.testing as npt
import pytest

from a2fpn import nn_ops, oracles
from a2fpn.nn_ops import ConvParams


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_matches_oracle(rng, stride, pad):
    x = rng.standard_normal((3, 6, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    got = nn_ops.conv2d(ConvParams(w, b, stride=stride, padding=pad), x)
    want = oracles.conv2d_oracle(w, b, x, stride, pad)
    npt.assert_allclose(got, want, atol=1e-12)


def test_conv2d_identity_kernel(rng):
    x = rng.standard_normal((3, 5, 5))
    w = np.eye(3).reshape(3, 3, 1, 1)
    npt.assert_allclose(nn_ops.conv2d(ConvParams(w, np.zeros(3)), x), x, atol=1e-15)


def test_conv2d_bwd_bias_is_spatial_sum(rng):
    x = rng.standard_normal((2, 4, 4))
    p = ConvParams(rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3), padding=1)
    _, cache = nn_ops.conv2d_fwd(p, x)
    gy = rng.standard_normal((3, 4, 4))
    _, _, gb = nn_ops.conv2d_bwd(cache, gy)
    npt.assert_allclose(gb, gy.sum(axis=(1, 2)), atol=1e-12)


WINOGRAD_SHAPES = [
    (2, 3, 9, 6, 1),  # h_out 9: tile-row blocks of 2, 2 and 1
    (3, 2, 11, 3, 0),  # w_out 1
    (1, 2, 8, 5, 2),  # h_out 10, w_out 7
    (2, 2, 1, 7, 1),  # h_out 1: a single tile row
]


def _two_tile_row_blocks(monkeypatch, cin, cout, h, w, pad):
    """Shrink the block cap to two tile rows, so small shapes cross blocks."""
    h_out, w_out = h + 2 * pad - 2, w + 2 * pad - 2
    th, tw = -(-h_out // 2), -(-w_out // 2)
    monkeypatch.setattr(nn_ops, "_WINOGRAD_BLOCK_BYTES", 2 * 16 * max(cin, cout) * tw * 8)
    assert nn_ops._winograd_rows(cin, cout, tw, 8) == 2
    assert th == 1 or -(-th // 2) >= 3
    return h_out, w_out


def _spy(monkeypatch, name, calls):
    real = getattr(nn_ops, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(nn_ops, name, spy)


def _cached_arrays(cache):
    # a cached view counts with the array it keeps alive
    return [a if a.base is None else a.base for a in cache if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("cin,cout,h,w,pad", WINOGRAD_SHAPES)
def test_winograd_blocks_match_loop_oracles(monkeypatch, cin, cout, h, w, pad):
    h_out, w_out = _two_tile_row_blocks(monkeypatch, cin, cout, h, w, pad)
    rng = np.random.default_rng([cin, cout, h, w, pad])
    x = rng.standard_normal((cin, h, w))
    p = ConvParams(rng.standard_normal((cout, cin, 3, 3)), rng.standard_normal(cout), padding=pad)
    y, cache = nn_ops._winograd_fwd(p, x)
    assert y.shape == (cout, h_out, w_out) and y.flags.c_contiguous
    npt.assert_allclose(y, oracles.conv2d_oracle(p.weight, p.bias, x, 1, pad), rtol=0, atol=1e-12)
    gy = rng.standard_normal(y.shape)
    want = oracles.conv2d_bwd_oracle(p.weight, p.bias, x, gy, 1, pad)
    for got, ref in zip(nn_ops._winograd_bwd(cache, gy), want):
        npt.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cin,cout,h,w,pad", WINOGRAD_SHAPES)
def test_conv2d_between_the_thresholds_runs_im2col_forward_winograd_backward(
        monkeypatch, cin, cout, h, w, pad):
    h_out, w_out = _two_tile_row_blocks(monkeypatch, cin, cout, h, w, pad)
    rng = np.random.default_rng([cin, cout, h, w, pad, 1])
    x = rng.standard_normal((cin, h, w))
    p = ConvParams(rng.standard_normal((cout, cin, 3, 3)), rng.standard_normal(cout), padding=pad)
    monkeypatch.setattr(nn_ops, "_WINOGRAD_MIN_SIZE", 1 << 63)
    y_im2col, _ = nn_ops.conv2d_fwd(p, x)
    monkeypatch.setattr(nn_ops, "_WINOGRAD_MIN_SIZE", 1)
    calls = []
    _spy(monkeypatch, "_winograd_fwd", calls)
    _spy(monkeypatch, "_winograd_bwd", calls)
    y, cache = nn_ops.conv2d_fwd(p, x)
    assert calls == []
    npt.assert_array_equal(y, y_im2col)
    npt.assert_allclose(y, oracles.conv2d_oracle(p.weight, p.bias, x, 1, pad), rtol=0, atol=1e-12)
    padded = cin * (h + 2 * pad + h_out % 2) * (w + 2 * pad + w_out % 2)
    cached = _cached_arrays(cache)
    assert cached and all(a.size <= padded for a in cached)
    gy = rng.standard_normal(y.shape)
    got = nn_ops.conv2d_bwd(cache, gy)
    assert calls == ["_winograd_bwd"]
    for g, ref in zip(got, oracles.conv2d_bwd_oracle(p.weight, p.bias, x, gy, 1, pad)):
        npt.assert_allclose(g, ref, rtol=0, atol=1e-12)


def test_winograd_f32_matches_f64_and_caches_no_tiles(monkeypatch, rng):
    c, h, w = 64, 48, 48
    # at this size the default block cap splits the tile rows into two blocks
    assert nn_ops._winograd_rows(c, c, w // 2, 4) < h // 2
    x = rng.standard_normal((c, h, w))
    wgt = rng.standard_normal((c, c, 3, 3)) / 24
    b = rng.standard_normal(c)
    gy = rng.standard_normal((c, h, w))
    # the f64 reference takes the im2col path: this shape is below the crossover
    assert not nn_ops._use_winograd(wgt.shape, 1, h, w)
    y64, cache64 = nn_ops.conv2d_fwd(ConvParams(wgt, b, padding=1), x)
    want = (y64,) + nn_ops.conv2d_bwd(cache64, gy)
    p32 = ConvParams(wgt.astype(np.float32), b.astype(np.float32), padding=1)
    calls = []
    _spy(monkeypatch, "_winograd_fwd", calls)
    _spy(monkeypatch, "_winograd_bwd", calls)
    # the backward takes Winograd from the first threshold on; the forward
    # runs im2col below the second and Winograd from it
    monkeypatch.setattr(nn_ops, "_WINOGRAD_MIN_SIZE", c * c * h * w)
    for fwd_min, route in ((c * c * h * w + 1, []), (c * c * h * w, ["_winograd_fwd"])):
        monkeypatch.setattr(nn_ops, "_WINOGRAD_FWD_MIN_SIZE", fwd_min)
        calls.clear()
        y32, cache32 = nn_ops.conv2d_fwd(p32, x.astype(np.float32))
        got = (y32,) + nn_ops.conv2d_bwd(cache32, gy.astype(np.float32))
        assert calls == route + ["_winograd_bwd"]
        for g, r in zip(got, want):
            assert g.dtype == np.float32
            assert np.max(np.abs(g - r)) <= 1e-5 * np.max(np.abs(r))
        padded = c * (h + 2) * (w + 2)
        cached = _cached_arrays(cache32)
        assert cached and all(a.size <= padded for a in cached)


def test_conv2d_selects_winograd_above_the_threshold_only(monkeypatch, rng):
    calls = []
    _spy(monkeypatch, "_winograd_fwd", calls)
    _spy(monkeypatch, "_winograd_bwd", calls)

    def run(cout, cin, n):
        p = ConvParams(rng.standard_normal((cout, cin, 3, 3)).astype(np.float32), padding=1)
        y, cache = nn_ops.conv2d_fwd(p, rng.standard_normal((cin, n, n)).astype(np.float32))
        nn_ops.conv2d_bwd(cache, np.ones_like(y))
        return cache

    # every conv caches its input, padded, as a batch of one: never a column
    # matrix.  The largest toy-training conv, 16 channels at 32², stays on im2col
    assert run(16, 16, 32)[2].shape == (1, 16, 34, 34) and calls == []
    # the 64-channel kernel encoder at 64² (100 logits) sits below the crossover
    assert run(100, 64, 64)[2].shape == (1, 64, 66, 66) and calls == []
    # the neck's 256-channel convs at 32² and 64²: im2col forward, Winograd
    # backward
    for n in (32, 64):
        cache = run(256, 256, n)
        assert calls == ["_winograd_bwd"] and len(cache) == 3 and cache[2].shape == (1, 256, n + 2, n + 2)
        calls.clear()
    # at 128² both directions take Winograd
    assert run(256, 256, 128)[2].shape == (1, 256, 130, 130)
    assert calls == ["_winograd_fwd", "_winograd_bwd"]
    # strided and non-3×3 convs never take it, however large
    for k, stride in ((3, 2), (1, 1), (5, 1)):
        assert not nn_ops._use_winograd((256, 256, k, k), stride, 128, 128)


def test_conv2d_1x1_caches_a_view_of_the_input(rng):
    x = rng.standard_normal((4, 3, 5))
    p = ConvParams(rng.standard_normal((2, 4, 1, 1)), rng.standard_normal(2))
    y, cache = nn_ops.conv2d_fwd(p, x)
    assert np.shares_memory(cache[2], x)
    npt.assert_allclose(y, oracles.conv2d_oracle(p.weight, p.bias, x, 1, 0), atol=1e-12)


@pytest.mark.parametrize("pad", [0, 1])
def test_conv2d_1x1_backward_matches_oracle(rng, pad):
    # the input gradient is the column gradient itself, cropped when padded
    x = rng.standard_normal((4, 3, 5))
    p = ConvParams(rng.standard_normal((2, 4, 1, 1)), rng.standard_normal(2), padding=pad)
    y, cache = nn_ops.conv2d_fwd(p, x)
    gy = rng.standard_normal(y.shape)
    got = nn_ops.conv2d_bwd(cache, gy)
    assert got[0].shape == x.shape
    for g, ref in zip(got, oracles.conv2d_bwd_oracle(p.weight, p.bias, x, gy, 1, pad)):
        npt.assert_allclose(g, ref, rtol=0, atol=1e-12)


def test_max_pool_matches_oracle(rng):
    x = rng.standard_normal((3, 6, 8))
    npt.assert_array_equal(nn_ops.max_pool2d(x), oracles.max_pool2d_oracle(x))


def test_max_pool_routes_gradient_to_argmax():
    x = np.array([[[1.0, 5.0], [2.0, 3.0]]])
    _, cache = nn_ops.max_pool2d_fwd(x)
    g = nn_ops.max_pool2d_bwd(cache, np.array([[[7.0]]]))
    npt.assert_array_equal(g, np.array([[[0.0, 7.0], [0.0, 0.0]]]))


def test_max_pool_ties_and_nan_windows_follow_argmax():
    # windows: a four-way tie, a NaN in second place, a tie in second and third place
    x = np.array([[[1.0, 1.0, 2.0, np.nan, -1.0, 5.0],
                   [1.0, 1.0, np.nan, 3.0, 5.0, 0.0]]])
    y, cache = nn_ops.max_pool2d_fwd(x)
    npt.assert_array_equal(y, np.array([[[1.0, np.nan, 5.0]]]))
    g = nn_ops.max_pool2d_bwd(cache, np.array([[[10.0, 20.0, 30.0]]]))
    npt.assert_array_equal(g, np.array([[[10.0, 0.0, 0.0, 20.0, 0.0, 30.0],
                                         [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]]))


def test_bilinear_matches_oracle(rng):
    x = rng.standard_normal((2, 3, 5))
    npt.assert_allclose(nn_ops.bilinear_upsample(x, 2),
                        oracles.bilinear_upsample_oracle(x, 2), atol=1e-12)


def test_bilinear_preserves_constants():
    x = np.full((2, 3, 4), 0.7)
    npt.assert_allclose(nn_ops.bilinear_upsample(x, 2), np.full((2, 6, 8), 0.7), atol=1e-12)


def test_nearest_upsample_replicates(rng):
    x = rng.standard_normal((1, 2, 2))
    y = nn_ops.nearest_upsample(x, 2)
    npt.assert_array_equal(y[0, :2, :2], np.full((2, 2), x[0, 0, 0]))
    assert y.shape == (1, 4, 4)


def test_pixel_shuffle_matches_oracle(rng):
    x = rng.standard_normal((8, 3, 4))
    npt.assert_array_equal(nn_ops.pixel_shuffle(x, 2), oracles.pixel_shuffle_oracle(x, 2))


def test_pixel_shuffle_roundtrip(rng):
    x = rng.standard_normal((12, 2, 5))
    npt.assert_array_equal(nn_ops.pixel_unshuffle(nn_ops.pixel_shuffle(x, 2), 2), x)


def test_concat_channels_splits_backward(rng):
    a = rng.standard_normal((2, 3, 3))
    b = rng.standard_normal((5, 3, 3))
    y, cache = nn_ops.concat_channels_fwd(a, b)
    npt.assert_array_equal(y, np.concatenate([a, b], axis=0))
    gy = rng.standard_normal(y.shape)
    ga, gb = nn_ops.concat_channels_bwd(cache, gy)
    npt.assert_array_equal(ga, gy[:2])
    npt.assert_array_equal(gb, gy[2:])


def test_conv2d_rejects_bad_input_rank(rng):
    p = ConvParams(rng.standard_normal((2, 2, 1, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        nn_ops.conv2d(p, rng.standard_normal((2, 4)))
