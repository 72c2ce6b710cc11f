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


@pytest.mark.parametrize("cin,cout,h,w,pad", [
    (2, 3, 9, 6, 1),  # h_out 9: tile-row blocks of 2, 2 and 1
    (3, 2, 11, 3, 0),  # w_out 1
    (1, 2, 8, 5, 2),  # h_out 10, w_out 7
    (2, 2, 1, 7, 1),  # h_out 1: a single tile row
])
def test_winograd_blocks_match_loop_oracles(monkeypatch, cin, cout, h, w, pad):
    h_out, w_out = h + 2 * pad - 2, w + 2 * pad - 2
    th, tw = -(-h_out // 2), -(-w_out // 2)
    # shrink the block cap to two tile rows, so small shapes cross blocks
    monkeypatch.setattr(nn_ops, "_WINOGRAD_BLOCK_BYTES", 2 * 16 * max(cin, cout) * tw * 8)
    assert nn_ops._winograd_rows(cin, cout, tw, 8) == 2
    assert th == 1 or -(-th // 2) >= 3
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


def test_winograd_f32_matches_f64_and_caches_no_tiles(rng):
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
    p32 = ConvParams(wgt.astype(np.float32), b.astype(np.float32), padding=1)
    y32, cache32 = nn_ops._winograd_fwd(p32, x.astype(np.float32))
    got = (y32,) + nn_ops._winograd_bwd(cache32, gy.astype(np.float32))
    want = (y64,) + nn_ops.conv2d_bwd(cache64, gy)
    for g, r in zip(got, want):
        assert g.dtype == np.float32
        assert np.max(np.abs(g - r)) <= 1e-5 * np.max(np.abs(r))
    padded = c * (h + 2) * (w + 2)
    # a cached view counts with the array it keeps alive
    cached = [a if a.base is None else a.base for a in cache32 if isinstance(a, np.ndarray)]
    assert cached and all(a.size <= padded for a in cached)


def test_conv2d_selects_winograd_above_the_threshold_only(monkeypatch, rng):
    calls = []
    real = nn_ops._winograd_fwd

    def spy(p, x):
        calls.append(p.weight.shape)
        return real(p, x)

    monkeypatch.setattr(nn_ops, "_winograd_fwd", spy)
    # the largest toy-training conv: 16 channels at 32² stays on im2col
    small = ConvParams(rng.standard_normal((16, 16, 3, 3)).astype(np.float32), padding=1)
    _, cache = nn_ops.conv2d_fwd(small, rng.standard_normal((16, 32, 32)).astype(np.float32))
    assert calls == [] and cache[2].shape == (16 * 9, 32 * 32)
    # the neck's 256-channel convs: 64² (the largest at a 256² input) stays
    # on im2col, 128² takes Winograd
    big = ConvParams(rng.standard_normal((256, 256, 3, 3)).astype(np.float32), padding=1)
    _, cache = nn_ops.conv2d_fwd(big, rng.standard_normal((256, 64, 64)).astype(np.float32))
    assert calls == [] and cache[2].shape == (256 * 9, 64 * 64)
    _, cache = nn_ops.conv2d_fwd(big, rng.standard_normal((256, 128, 128)).astype(np.float32))
    assert calls == [(256, 256, 3, 3)] and cache[3].shape == (16, 256, 256)
    # strided and non-3×3 convs never take it, however large
    for k, stride in ((3, 2), (1, 1), (5, 1)):
        assert not nn_ops._use_winograd((256, 256, k, k), stride, 128, 128)


def test_conv2d_1x1_caches_a_view_of_the_input(rng):
    x = rng.standard_normal((4, 3, 5))
    p = ConvParams(rng.standard_normal((2, 4, 1, 1)), rng.standard_normal(2))
    y, cache = nn_ops.conv2d_fwd(p, x)
    assert np.shares_memory(cache[2], x)
    npt.assert_allclose(y, oracles.conv2d_oracle(p.weight, p.bias, x, 1, 0), atol=1e-12)


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
