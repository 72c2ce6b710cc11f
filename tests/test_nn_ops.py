import numpy as np
import numpy.testing as npt
import pytest

from a2fpn import nn_ops, oracles
from a2fpn.nn_ops import ConvParams
from conftest import traced_peak


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_matches_oracle(rng, stride, pad):
    x = rng.standard_normal((3, 6, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    got = nn_ops.conv2d_fwd(ConvParams(w, b, stride=stride, padding=pad), x)[0]
    want = oracles.conv2d_oracle(w, b, x, stride, pad)
    npt.assert_allclose(got, want, atol=1e-12)


def test_conv2d_identity_kernel(rng):
    x = rng.standard_normal((3, 5, 5))
    w = np.eye(3).reshape(3, 3, 1, 1)
    npt.assert_allclose(nn_ops.conv2d_fwd(ConvParams(w, np.zeros(3)), x)[0], x, atol=1e-15)


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
    monkeypatch.setattr(nn_ops, "_BLOCK_BYTES", 2 * 16 * max(cin, cout) * tw * 8)
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


BLOCKED_SHAPES = [  # n, cin, cout, k, stride, pad, h, w; every h_out is 7
    (1, 3, 4, 3, 1, 1, 7, 5),
    (2, 3, 4, 3, 1, 1, 7, 5),
    (1, 2, 3, 3, 2, 1, 13, 6),
    (2, 2, 3, 3, 2, 1, 14, 6),
    (2, 4, 3, 1, 1, 0, 7, 5),  # a batched 1×1 conv
    (1, 4, 3, 3, 1, 1, 7, 5),  # cout ≤ cin: gx gathers, stride 1
    (2, 4, 3, 3, 1, 1, 7, 5),
]


@pytest.mark.parametrize("n,cin,cout,k,stride,pad,h,w", BLOCKED_SHAPES)
def test_im2col_row_blocks_match_loop_oracle(monkeypatch, n, cin, cout, k, stride, pad, h, w):
    h_out, w_out = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    # a cap of two output rows of columns: blocks of 2, 2, 2 and 1 rows per image
    monkeypatch.setattr(nn_ops, "_BLOCK_BYTES", 2 * cin * k * k * w_out * 8)
    assert h_out == 7
    calls = []
    _spy(monkeypatch, "_im2col_rows", calls)
    rng = np.random.default_rng([n, cin, cout, k, stride, h])
    x = rng.standard_normal((n, cin, h, w))
    p = ConvParams(rng.standard_normal((cout, cin, k, k)), rng.standard_normal(cout),
                   stride=stride, padding=pad)
    y, _ = nn_ops.conv2d_fwd(p, x if n > 1 else x[0])
    assert calls == ["_im2col_rows"] and y.flags.c_contiguous
    for xi, yi in zip(x, y.reshape(n, cout, h_out, w_out)):
        npt.assert_allclose(yi, oracles.conv2d_oracle(p.weight, p.bias, xi, stride, pad),
                            rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,cin,cout,k,stride,pad,h,w", BLOCKED_SHAPES)
def test_im2col_backward_row_blocks_match_loop_oracle(monkeypatch, n, cin, cout, k, stride, pad, h, w):
    h_out, w_out = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    # the same cap as the forward's test: gw's columns, and a stride-1
    # gather's columns of gy, are built in blocks of at most two output rows
    monkeypatch.setattr(nn_ops, "_BLOCK_BYTES", 2 * cin * k * k * w_out * 8)
    calls = []
    _spy(monkeypatch, "_gw_rows", calls)
    _spy(monkeypatch, "_im2col_rows", calls)
    rng = np.random.default_rng([n, cin, cout, k, stride, h, 1])
    x = rng.standard_normal((n, cin, h, w))
    p = ConvParams(rng.standard_normal((cout, cin, k, k)), rng.standard_normal(cout),
                   stride=stride, padding=pad)
    y, cache = nn_ops.conv2d_fwd(p, x if n > 1 else x[0])
    gy = rng.standard_normal(y.shape)
    calls.clear()
    gx, gw, gb = nn_ops.conv2d_bwd(cache, gy)
    gather_rows = (k > 1 and stride == 1
                   and nn_ops._use_gather(p.weight.shape, stride, n, h_out, w_out))
    assert calls == ["_gw_rows"] + ["_im2col_rows"] * gather_rows
    gx, gy = gx.reshape(x.shape), gy.reshape(n, cout, h_out, w_out)
    want_gw, want_gb = np.zeros_like(p.weight), np.zeros_like(p.bias)
    for xi, gyi, gxi in zip(x, gy, gx):
        want = oracles.conv2d_bwd_oracle(p.weight, p.bias, xi, gyi, stride, pad)
        npt.assert_allclose(gxi, want[0], rtol=0, atol=1e-12)
        want_gw += want[1]
        want_gb += want[2]
    npt.assert_allclose(gw, want_gw, rtol=0, atol=1e-12)
    npt.assert_allclose(gb, want_gb, rtol=0, atol=1e-12)


def test_im2col_forward_streams_its_columns(rng):
    # c=256 3×3 at 64², a 37.7 MB column matrix, stays within its maps, the
    # padded input it caches, one column block and 1 MB
    x = rng.standard_normal((256, 64, 64)).astype(np.float32)
    p = ConvParams((rng.standard_normal((256, 256, 3, 3)) / 48).astype(np.float32),
                   np.zeros(256, np.float32), padding=1)
    (y, cache), peak = traced_peak(lambda: nn_ops.conv2d_fwd(p, x))
    xp = cache[2]
    assert xp.shape == (1, 256, 66, 66)
    assert peak <= x.nbytes + xp.nbytes + y.nbytes + nn_ops._BLOCK_BYTES + (1 << 20)


def test_im2col_backward_streams_its_columns(rng):
    # a 64→64 3×3 conv at 64², whose column matrices (of x for gw, of gy for
    # the gathered gx) are 9.4 MB each, stays within its maps, one column
    # block and 1 MB
    x = rng.standard_normal((64, 64, 64)).astype(np.float32)
    p = ConvParams((rng.standard_normal((64, 64, 3, 3)) / 24).astype(np.float32),
                   np.zeros(64, np.float32), padding=1)
    assert not nn_ops._use_winograd(p.weight.shape, 1, 64, 64)
    y, cache = nn_ops.conv2d_fwd(p, x)
    gy = rng.standard_normal(y.shape).astype(np.float32)
    (gx, _, _), peak = traced_peak(lambda: nn_ops.conv2d_bwd(cache, gy))
    assert gx.shape == x.shape
    assert peak <= x.nbytes + gy.nbytes + gx.nbytes + nn_ops._BLOCK_BYTES + (1 << 20)


def test_winograd_backward_works_in_blocks(rng):
    # c=256 at 32²: beyond U, gU and the gradients, the backward holds about
    # two blocks of transformed tiles at a time, and no (16, cout, cin)
    # product per block
    c, n = 256, 32
    x = rng.standard_normal((c, n, n)).astype(np.float32)
    p = ConvParams((rng.standard_normal((c, c, 3, 3)) / 48).astype(np.float32),
                   np.zeros(c, np.float32), padding=1)
    assert nn_ops._use_winograd(p.weight.shape, 1, n, n)
    y, cache = nn_ops.conv2d_fwd(p, x)
    gy = rng.standard_normal(y.shape).astype(np.float32)
    (gx, gw, _), peak = traced_peak(lambda: nn_ops.conv2d_bwd(cache, gy))
    u = 16 * c * c * 4  # U, and gU
    gxp = gx if gx.base is None else gx.base  # gx is a view of the padded gradient
    assert peak <= 2 * u + gxp.nbytes + gw.nbytes + 2 * nn_ops._BLOCK_BYTES + (1 << 20)


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
    npt.assert_array_equal(nn_ops.max_pool2d_fwd(x)[0], oracles.max_pool2d_oracle(x))


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



def test_max_pool_caches_no_array_of_its_own(rng):
    x = rng.standard_normal((2, 3, 6, 8)).astype(np.float32)
    y, cache = nn_ops.max_pool2d_fwd(x)
    arrays = [a for a in cache if isinstance(a, np.ndarray)]
    assert arrays and all(np.shares_memory(a, x) or np.shares_memory(a, y) for a in arrays)


@pytest.mark.parametrize("s", [2, 3])
def test_max_pool_windows_follow_np_max_and_argmax(rng, s):
    # few distinct values and some NaNs: ties and NaN windows are common
    x = rng.integers(0, 3, (2, 3, 2 * s, 3 * s)).astype(np.float64)
    x[rng.random(x.shape) < 0.1] = np.nan
    y, cache = nn_ops.max_pool2d_fwd(x, s)
    win = x.reshape(2, 3, 2, s, 3, s).swapaxes(3, 4).reshape(2, 3, 2, 3, s * s)
    npt.assert_array_equal(y, np.max(win, axis=-1))
    gy = rng.standard_normal(y.shape)
    gwin = np.zeros(win.shape)
    np.put_along_axis(gwin, np.argmax(win, axis=-1)[..., None], gy[..., None], axis=-1)
    want = gwin.reshape(2, 3, 2, 3, s, s).swapaxes(3, 4).reshape(x.shape)
    npt.assert_array_equal(nn_ops.max_pool2d_bwd(cache, gy), want)


def _max_pool_bwd_by_copyto(cache, gy):
    """max_pool2d_bwd as a zero-filled gradient that each phase copies gy into where it claims."""
    x, y, s = cache
    gx = np.zeros(x.shape, dtype=gy.dtype)
    open_ = np.ones(y.shape, dtype=bool)
    nan = np.isnan(y)
    for t in range(s * s):
        ph = x[..., t // s :: s, t % s :: s]
        if t < s * s - 1:
            hit = ((ph == y) | (nan & np.isnan(ph))) & open_
            open_ ^= hit
        else:
            hit = open_
        np.copyto(gx[..., t // s :: s, t % s :: s], gy, where=hit)
    return gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_max_pool_adjoint_adds_the_copied_adjoint_bit_for_bit(dtype, s, n):
    rng = np.random.default_rng([s, n])
    lead = (n,) if n > 1 else ()  # one image runs as (c, h, w)
    # few distinct values and some NaNs: ties and NaN windows are common
    x = rng.integers(0, 3, lead + (3, 2 * s, 3 * s)).astype(dtype)
    x[rng.random(x.shape) < 0.1] = np.nan
    y, cache = nn_ops.max_pool2d_fwd(x, s)
    gy = rng.standard_normal(y.shape).astype(dtype)
    gy.flat[:4] = np.inf, np.nan, -0.0, -np.inf  # a non-finite gy, and a signed zero
    out = rng.standard_normal(x.shape).astype(dtype)
    out.flat[::5] = -0.0
    want = out + _max_pool_bwd_by_copyto(cache, gy)
    got = nn_ops.max_pool2d_bwd(cache, gy, out)
    assert got is out
    npt.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
    # with no out, the copied adjoint itself: -0.0 stays -0.0 where gy is -0.0
    npt.assert_array_equal(nn_ops.max_pool2d_bwd(cache, gy).view(np.uint8),
                           _max_pool_bwd_by_copyto(cache, gy).view(np.uint8))


def test_max_pool_s3_matches_oracle_and_rejects_partial_windows(rng):
    x = rng.standard_normal((2, 6, 9))
    npt.assert_array_equal(nn_ops.max_pool2d_fwd(x, 3)[0], oracles.max_pool2d_oracle(x, 3))
    with pytest.raises(ValueError):
        nn_ops.max_pool2d_fwd(rng.standard_normal((2, 6, 8)), 3)

def test_bilinear_matches_oracle(rng):
    x = rng.standard_normal((2, 3, 5))
    npt.assert_allclose(nn_ops.bilinear_upsample_fwd(x, 2)[0],
                        oracles.bilinear_upsample_oracle(x, 2), atol=1e-12)


def test_bilinear_preserves_constants():
    x = np.full((2, 3, 4), 0.7)
    npt.assert_allclose(nn_ops.bilinear_upsample_fwd(x, 2)[0], np.full((2, 6, 8), 0.7), atol=1e-12)


def test_nearest_upsample_replicates(rng):
    x = rng.standard_normal((1, 2, 2))
    y = nn_ops.nearest_upsample(x, 2)
    npt.assert_array_equal(y[0, :2, :2], np.full((2, 2), x[0, 0, 0]))
    assert y.shape == (1, 4, 4)


def test_conv2d_rejects_bad_input_rank(rng):
    p = ConvParams(rng.standard_normal((2, 2, 1, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        nn_ops.conv2d_fwd(p, rng.standard_normal((2, 4)))


@pytest.mark.parametrize("shape,stride,n,winograd", [
    ((16, 3, 3, 3), 2, 8, False),  # the toy stem: gx would fold
    ((8, 16, 3, 3), 1, 2, False),  # gx would gather
    ((4, 3, 3, 3), 1, 1, True),  # Winograd, with the threshold patched down
])
def test_conv2d_bwd_without_gx_keeps_the_param_grads(monkeypatch, rng, shape, stride, n, winograd):
    if winograd:
        monkeypatch.setattr(nn_ops, "_WINOGRAD_MIN_SIZE", 1)
    x = rng.standard_normal((n, shape[1], 12, 12)).astype(np.float32)
    p = ConvParams(rng.standard_normal(shape).astype(np.float32),
                   rng.standard_normal(shape[0]).astype(np.float32), stride=stride, padding=1)
    y, cache = nn_ops.conv2d_fwd(p, x)
    gy = rng.standard_normal(y.shape).astype(np.float32)
    assert nn_ops._use_winograd(p.weight.shape, stride, *y.shape[-2:]) == winograd
    gx, gw, gb = nn_ops.conv2d_bwd(cache, gy)
    none, gw2, gb2 = nn_ops.conv2d_bwd(cache, gy, need_gx=False)
    assert gx.shape == x.shape and none is None
    npt.assert_array_equal(gw2, gw)
    npt.assert_array_equal(gb2, gb)
