import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from a2fpn import fusion, nn_ops, oracles, pyramid, tensor_core as tc
from a2fpn.levels import LevelFeature
from a2fpn.nn_ops import ConvParams
from conftest import make_fusion_store


def test_up_kernels_are_tap_distributions(rng):
    convs = fusion._kpred_convs(make_fusion_store(rng, kind="up"), "", 1)
    coarse = rng.standard_normal((8, 3, 4))
    pooled = rng.standard_normal((8, 3, 4))
    kern, _ = fusion.predict_kernels_fwd(np.concatenate([coarse, pooled]), convs, 2)
    # on the coarse grid: 9 taps for each of the 4 outputs of a cell
    assert kern.shape == (36, 3, 4)
    npt.assert_allclose(kern.reshape(9, 4, 3, 4).sum(axis=0), 1.0, atol=1e-12)
    assert (kern > 0).all()


def test_down_kernels_are_tap_distributions(rng):
    convs = fusion._kpred_convs(make_fusion_store(rng, kind="down"), "", 2)  # stride s going down
    fine = rng.standard_normal((8, 6, 8))
    ups = rng.standard_normal((8, 6, 8))
    kern, _ = fusion.predict_kernels_fwd(np.concatenate([fine, ups]), convs, 2)
    assert kern.shape == (9, 3, 4)
    npt.assert_allclose(kern.sum(axis=0), 1.0, atol=1e-12)


def test_kernels_are_distributions_in_f32(rng):
    convs = fusion._kpred_convs(make_fusion_store(rng, kind="up"), "", 1)
    coarse = rng.standard_normal((8, 2, 2)).astype(np.float32)
    pooled = rng.standard_normal((8, 2, 2)).astype(np.float32)
    kern, _ = fusion.predict_kernels_fwd(np.concatenate([coarse, pooled]), convs, 2)
    npt.assert_allclose(kern.reshape(9, 4, 2, 2).sum(axis=0), 1.0, atol=1e-6)


def test_reassemble_up_matches_loop_oracle(rng):
    coarse = rng.standard_normal((3, 2, 3))
    kern = tc.softmax_fwd(rng.standard_normal((9, 4, 2, 3)), axis=0)[0].reshape(36, 2, 3)
    got = fusion.reassemble_up_fwd(coarse, kern, 2)[0]
    want = oracles.reassemble_up_oracle(coarse, oracles.pixel_shuffle_oracle(kern, 2), 2, 3)
    npt.assert_allclose(got, want, atol=1e-13)


def test_reassemble_down_matches_loop_oracle(rng):
    fine = rng.standard_normal((3, 4, 6))
    kern = tc.softmax_fwd(rng.standard_normal((9, 2, 3)), axis=0)[0]
    got = fusion.reassemble_down_fwd(fine, kern, 2)[0]
    npt.assert_allclose(got, oracles.reassemble_down_oracle(fine, kern, 2, 3), atol=1e-13)


@pytest.mark.parametrize("c,h,w,k,s", [
    (2, 7, 3, 3, 2),  # several row blocks, the last one short
    (3, 5, 4, 5, 3),
    (2, 1, 1, 3, 2),
    (1, 1, 6, 5, 2),
    (3, 6, 1, 1, 3),
    (2, 4, 5, 1, 2),
])
def test_reassemble_up_row_blocks_match_loop_oracles(monkeypatch, c, h, w, k, s):
    # shrink the block cap to two coarse rows, so small shapes cross blocks
    monkeypatch.setattr(nn_ops, "_BLOCK_BYTES", 2 * w * c * k * k * 8)
    assert fusion._unfold_rows(w, c, k * k, 8) == 2
    rng = np.random.default_rng([c, h, w, k, s])
    coarse = rng.standard_normal((c, h, w))
    kern = rng.standard_normal((k * k * s * s, h, w))
    fine_kern = oracles.pixel_shuffle_oracle(kern, s)  # the paper's per-output layout
    gout = rng.standard_normal((c, s * h, s * w))
    out, cache = fusion.reassemble_up_fwd(coarse, kern, s)
    npt.assert_allclose(out, oracles.reassemble_up_oracle(coarse, fine_kern, s, k), rtol=0, atol=1e-12)
    gc, gk = fusion.reassemble_up_bwd(cache, gout)
    want_gc, want_gk = oracles.reassemble_up_bwd_oracle(coarse, fine_kern, gout, s, k)
    npt.assert_allclose(gc, want_gc, rtol=0, atol=1e-12)
    npt.assert_allclose(oracles.pixel_shuffle_oracle(gk, s), want_gk, rtol=0, atol=1e-12)


def _reassemble_up_by_cells(coarse, kernels, s, k):
    """reassemble_up_fwd/bwd's arithmetic with np.pad, sliding_window_view and
    one 6-axis copy between each block and the cells' s×s pixels: the same
    GEMMs on the same operands, so the same bits as the phase copies."""
    r, k2 = (k - 1) // 2, k * k
    cb, kb = nn_ops._lift(coarse), nn_ops._lift(kernels)
    n, c, h, w = cb.shape
    cpt = np.pad(cb.transpose(0, 2, 3, 1), ((0, 0), (r, r), (r, r), (0, 0)))
    windows = sliding_window_view(cpt, (k, k), axis=(1, 2))
    kcell = fusion._kernel_cells(kb, s)
    out = np.empty((n, c, s * h, s * w), dtype=coarse.dtype)
    ocell = out.reshape(n, c, h, s, w, s).transpose(0, 2, 4, 1, 3, 5)
    blocks = list(fusion._row_blocks(n, h, fusion._unfold_rows(w, c, k2, cpt.itemsize)))
    for i0, i1, y0, y1 in blocks:
        ut = windows[i0:i1, y0:y1].transpose(0, 1, 2, 4, 5, 3).reshape(-1, w, k2, c)
        kt = np.ascontiguousarray(kcell[i0:i1, y0:y1]).reshape(-1, w, k2, s * s)
        ocell[i0:i1, y0:y1] = np.matmul(ut.swapaxes(2, 3), kt).reshape(i1 - i0, y1 - y0, w, c, s, s)

    def bwd(gout):
        gcell = nn_ops._lift(gout).reshape(n, c, h, s, w, s).transpose(0, 2, 4, 1, 3, 5)
        gkern = np.empty(kb.shape, dtype=kb.dtype)
        gkcell = fusion._kernel_cells(gkern, s)
        gcpt = np.zeros(cpt.shape, dtype=cpt.dtype)
        for i0, i1, y0, y1 in blocks:
            ni, ny = i1 - i0, y1 - y0
            g = gcell[i0:i1, y0:y1].reshape(-1, w, c, s * s)
            ut = windows[i0:i1, y0:y1].transpose(0, 1, 2, 4, 5, 3).reshape(-1, w, k2, c)
            gkcell[i0:i1, y0:y1] = np.matmul(ut, g).reshape(ni, ny, w, k2, s * s)
            kt = np.ascontiguousarray(kcell[i0:i1, y0:y1]).reshape(-1, w, k2, s * s)
            gut = np.matmul(kt, g.swapaxes(2, 3)).reshape(ni, ny, w, k2, c)
            for t in range(k2):
                dy, dx = divmod(t, k)
                gcpt[i0:i1, y0 + dy : y0 + dy + ny, dx : dx + w] += gut[:, :, :, t]
        gc = np.ascontiguousarray(gcpt[:, r : r + h, r : r + w].transpose(0, 3, 1, 2))
        return (gc, gkern) if coarse.ndim == 4 else (gc[0], gkern[0])

    return (out if coarse.ndim == 4 else out[0]), bwd


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("two_row_blocks", [False, True])
def test_reassemble_up_phase_copies_keep_the_cell_copy_bits(monkeypatch, dtype, n, s, k,
                                                            two_row_blocks):
    c, h, w = 3, 5, 4
    if two_row_blocks:  # blocks of rows of one image, the last one short
        monkeypatch.setattr(nn_ops, "_BLOCK_BYTES", 2 * w * c * k * k * np.dtype(dtype).itemsize)
    rng = np.random.default_rng([n, s, k, two_row_blocks])
    lead = (n,) if n > 1 else ()  # one image runs as (c, h, w)
    coarse = rng.standard_normal(lead + (c, h, w)).astype(dtype)
    # unnormalized, so at k = 1 too each phase has kernels of its own
    kern = rng.standard_normal(lead + (k * k * s * s, h, w)).astype(dtype)
    gout = rng.standard_normal(lead + (c, s * h, s * w)).astype(dtype)
    out, cache = fusion.reassemble_up_fwd(coarse, kern, s)
    want_out, want_bwd = _reassemble_up_by_cells(coarse, kern, s, k)
    assert out.dtype == dtype
    npt.assert_array_equal(out, want_out)
    for got, want in zip(fusion.reassemble_up_bwd(cache, gout), want_bwd(gout)):
        assert got.dtype == dtype
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize("shape,k", [((1, 5, 4, 3), 3), ((2, 7, 9, 2), 5), ((3, 4, 4, 1), 1),
                                     ((1, 5, 5, 4), 5)])
def test_window_view_equals_sliding_window_view(rng, shape, k):
    xpt = rng.standard_normal(shape)
    want = sliding_window_view(xpt, (k, k), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    npt.assert_array_equal(fusion._windows(xpt, k), want)


@pytest.mark.parametrize("k,s", [
    (3, 3),  # padded extents 3·h + 2 and 3·w + 2: phase planes of unequal length
    (5, 3),
    (5, 2),  # taps reach plane offsets dy // s up to 2
])
@pytest.mark.parametrize("n", [1, 3])
def test_reassemble_down_phase_planes_match_loop_oracles(monkeypatch, k, s, n):
    rng = np.random.default_rng([k, s, n])
    c, h, w = 3, 3, 4
    # one channel per output block, so the forward crosses blocks
    monkeypatch.setattr(fusion, "_DOWN_BLOCK_BYTES", n * h * w * 8)
    fine = rng.standard_normal((n, c, s * h, s * w))
    kern = rng.standard_normal((n, k * k, h, w))
    gout = rng.standard_normal((n, c, h, w))
    out, cache = fusion.reassemble_down_fwd(fine, kern, s)
    gf, gk = fusion.reassemble_down_bwd(cache, gout)
    for i in range(n):
        npt.assert_allclose(out[i], oracles.reassemble_down_oracle(fine[i], kern[i], s, k), rtol=0, atol=1e-12)
        want_gf, want_gk = oracles.reassemble_down_bwd_oracle(fine[i], kern[i], gout[i], s, k)
        npt.assert_allclose(gf[i], want_gf, rtol=0, atol=1e-12)
        npt.assert_allclose(gk[i], want_gk, rtol=0, atol=1e-12)


def test_reassemble_down_f32_equals_the_strided_view_formula(monkeypatch, rng):
    # the phase planes and channel blocks reorder memory, not arithmetic:
    # same products, same tap order
    s, k, r, h, w = 2, 5, 2, 6, 5
    monkeypatch.setattr(fusion, "_DOWN_BLOCK_BYTES", 3 * 2 * h * w * 4)  # blocks of 3, 3, 2 channels
    fine = rng.standard_normal((2, 8, s * h, s * w)).astype(np.float32)
    kern = tc.softmax_fwd(rng.standard_normal((2, k * k, h, w)), axis=1)[0].astype(np.float32)
    fp = np.pad(fine, ((0, 0), (0, 0), (r, r), (r, r)))
    want = np.zeros((2, 8, h, w), dtype=np.float32)
    for dy in range(k):
        for dx in range(k):
            want += kern[:, dy * k + dx, None] * fp[..., dy : dy + s * h : s, dx : dx + s * w : s]
    npt.assert_array_equal(fusion.reassemble_down_fwd(fine, kern, s)[0], want)

def test_reassemble_up_f32_matches_f64_and_caches_no_unfold(rng):
    c, h, w, k, s = 64, 16, 24, 5, 2
    # at this size the default block cap splits the level into several blocks
    assert fusion._unfold_rows(w, c, k * k, 4) < h
    coarse = rng.standard_normal((c, h, w))
    kern = tc.softmax_fwd(rng.standard_normal((k * k, s * s, h, w)), axis=0)[0].reshape(-1, h, w)
    gout = rng.standard_normal((c, s * h, s * w))
    out64, cache64 = fusion.reassemble_up_fwd(coarse, kern, s)
    gc64, gk64 = fusion.reassemble_up_bwd(cache64, gout)
    out32, cache32 = fusion.reassemble_up_fwd(coarse.astype(np.float32), kern.astype(np.float32), s)
    gc32, gk32 = fusion.reassemble_up_bwd(cache32, gout.astype(np.float32))
    for got, want in ((out32, out64), (gc32, gc64), (gk32, gk64)):
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
    padded = (c, h + k - 1, w + k - 1)
    # a cached view counts with the array it keeps alive
    cached = [a if a.base is None else a.base for a in cache32 if isinstance(a, np.ndarray)]
    assert any(a.shape == padded for a in cache32 if isinstance(a, np.ndarray))
    assert all(a.size <= max(np.prod(padded), kern.size) for a in cached)


def test_reassemble_up_interior_constant_map(rng):
    # normalized kernels average a constant neighborhood back to itself;
    # only border cells see zero padding, so check the interior
    coarse = np.full((2, 4, 5), 1.5)
    kern = tc.softmax_fwd(rng.standard_normal((9, 4, 4, 5)), axis=0)[0].reshape(36, 4, 5)
    out = fusion.reassemble_up_fwd(coarse, kern, 2)[0]
    npt.assert_allclose(out[:, 2:-2, 2:-2], 1.5, atol=1e-12)


def test_reassemble_down_interior_constant_map(rng):
    fine = np.full((2, 8, 10), -0.25)
    kern = tc.softmax_fwd(rng.standard_normal((9, 4, 5)), axis=0)[0]
    out = fusion.reassemble_down_fwd(fine, kern, 2)[0]
    npt.assert_allclose(out[:, 1:-1, 1:-1], -0.25, atol=1e-12)


def test_reassemble_up_center_tap_is_floor_gather(rng):
    # a delta kernel on the middle tap makes out(x, y) = coarse(x//s, y//s)
    coarse = rng.standard_normal((3, 2, 3))
    kern = np.zeros((9, 4, 2, 3))
    kern[4] = 1.0
    out = fusion.reassemble_up_fwd(coarse, kern.reshape(36, 2, 3), 2)[0]
    npt.assert_array_equal(out, np.repeat(np.repeat(coarse, 2, axis=1), 2, axis=2))


def test_reassemble_down_center_tap_is_stride_gather(rng):
    fine = rng.standard_normal((3, 4, 6))
    kern = np.zeros((9, 2, 3))
    kern[4] = 1.0
    out = fusion.reassemble_down_fwd(fine, kern, 2)[0]
    npt.assert_array_equal(out, fine[:, ::2, ::2])


def test_reassemble_rejects_wrong_cover(rng):
    with pytest.raises(ValueError):
        fusion.reassemble_up_fwd(rng.standard_normal((2, 2, 2)), np.ones((36, 3, 3)), 2)
    with pytest.raises(ValueError):
        fusion.reassemble_down_fwd(rng.standard_normal((2, 4, 4)), np.ones((9, 3, 3)), 2)
    with pytest.raises(ValueError):
        fusion.reassemble_up_fwd(rng.standard_normal((2, 2, 2)), np.ones((32, 2, 2)), 2)
    # up-kernels on the fine grid are not the predictor's layout
    with pytest.raises(ValueError):
        fusion.reassemble_up_fwd(rng.standard_normal((2, 2, 2)), np.ones((9, 4, 4)), 2)
    # an even tap size (k = 2) has no centre tap
    with pytest.raises(ValueError, match="tap size must be odd"):
        fusion.reassemble_up_fwd(np.ones((2, 3, 3)), np.ones((16, 3, 3)), 2)
    with pytest.raises(ValueError, match="tap size must be odd"):
        fusion.reassemble_down_fwd(np.ones((2, 6, 6)), np.ones((4, 3, 3)), 2)


def test_gate_ranges(rng):
    a = rng.standard_normal((8, 3, 4))
    b = rng.standard_normal((8, 3, 4))
    for act, hi in (("two_sigmoid", 2.0), ("sigmoid", 1.0)):
        weights = fusion._gate_weights(make_fusion_store(rng, scale=1.0), "")
        high, low = fusion.channel_gates_fwd(np.concatenate([a, b]), weights, fusion.GATE_ACTS[act])[0]
        assert high.shape == (8,) and low.shape == (8,)
        assert (high > 0).all() and (high < hi).all()
        assert (low > 0).all() and (low < hi).all()


def test_zeroed_gate_head_is_exactly_neutral(rng):
    # w3 = 0 makes the pre-activation zero; 2σ(0) = 1 exactly, and σ(0) = 0.5
    x = rng.standard_normal((16, 2, 2))
    for act, neutral in (("two_sigmoid", 1.0), ("sigmoid", 0.5)):
        weights = fusion._gate_weights(make_fusion_store(rng, zero_gates=True), "")
        high, low = fusion.channel_gates_fwd(x, weights, fusion.GATE_ACTS[act])[0]
        assert high.tolist() == [neutral] * 8
        assert low.tolist() == [neutral] * 8


def test_two_sigmoid_gates_are_twice_the_sigmoid_gates(rng):
    # the gate is r·σ(pre): with the same parameters, two_sigmoid's gates and
    # every gradient under the same cotangent are exactly twice sigmoid's,
    # for one image and for a batch
    weights = fusion._gate_weights(make_fusion_store(rng, scale=1.0), "")
    for lead in ((), (2,)):
        x = rng.standard_normal(lead + (16, 2, 3))
        ghigh, glow = rng.standard_normal(lead + (8,)), rng.standard_normal(lead + (8,))
        xt = x.reshape(lead + (16, -1)).swapaxes(-1, -2)
        runs = []
        for act in ("sigmoid", "two_sigmoid"):
            gates, cache = fusion.channel_gates_fwd(x, weights, fusion.GATE_ACTS[act])
            runs.append((gates, *fusion.channel_gates_bwd(cache, ghigh, glow,
                                                          lambda gz: (xt @ gz[..., None])[..., 0])))
        (gates1, (l1, r1), pg1), (gates2, (l2, r2), pg2) = runs
        for g1, g2 in zip(gates1, gates2):
            assert np.array_equal(g2, 2.0 * g1)
        # the input gradient comes as factors: lhs = [w1ᵀ | gz], rhs = [glogits; attn]
        assert np.array_equal(l2 @ r2, 2.0 * (l1 @ r1))
        assert set(pg1) == set(pg2)
        for k in pg1:
            assert np.array_equal(pg2[k], 2.0 * pg1[k]), (lead, k)


def test_neutral_gates_reduce_to_plain_addition_bit_exact(rng):
    store = make_fusion_store(rng, zero_gates=True)
    upper = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    lateral = LevelFeature(2, rng.standard_normal((8, 6, 8)))
    gated = fusion.fuse_fwd(upper, lateral, store, guided=True, gated=True)[0]
    plain = fusion.fuse_fwd(upper, lateral, store, guided=True, gated=False)[0]
    npt.assert_array_equal(gated.data, plain.data)


def test_neutral_gates_bottomup_bit_exact(rng):
    store = make_fusion_store(rng, kind="down", zero_gates=True)
    lower = LevelFeature(2, rng.standard_normal((8, 6, 8)))
    td = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    gated = fusion.fuse_fwd(lower, td, store, guided=True, gated=True)[0]
    plain = fusion.fuse_fwd(lower, td, store, guided=True, gated=False)[0]
    npt.assert_array_equal(gated.data, plain.data)


def test_carafe_baseline_is_the_composed_plain_pipeline(rng):
    # re-derive the whole unguided, ungated path from the individual ops
    store = make_fusion_store(rng, guided=False)
    upper = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    lateral = LevelFeature(2, rng.standard_normal((8, 6, 8)))
    out = fusion.fuse_fwd(upper, lateral, store, guided=False, gated=False)[0]
    kern, _ = fusion.predict_kernels_fwd(upper.data, fusion._kpred_convs(store, "", 1), 2)
    up = fusion.reassemble_up_fwd(upper.data, kern, 2)[0]
    want = nn_ops.conv2d_fwd(ConvParams.from_store(store, "smooth"), up + lateral.data)[0]
    npt.assert_array_equal(out.data, want)


def test_cap_baseline_is_the_composed_plain_pipeline(rng):
    store = make_fusion_store(rng, kind="down", guided=False)
    lower = LevelFeature(2, rng.standard_normal((8, 6, 8)))
    td = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    out = fusion.fuse_fwd(lower, td, store, guided=False, gated=False)[0]
    kern, _ = fusion.predict_kernels_fwd(lower.data, fusion._kpred_convs(store, "", 2), 2)
    down = fusion.reassemble_down_fwd(lower.data, kern, 2)[0]
    want = nn_ops.conv2d_fwd(ConvParams.from_store(store, "smooth"), td.data + down)[0]
    npt.assert_array_equal(out.data, want)


def test_guidance_changes_the_kernels(rng):
    store = make_fusion_store(rng, guided=True)
    upper = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    lateral = LevelFeature(2, rng.standard_normal((8, 6, 8)))
    guided = fusion.fuse_fwd(upper, lateral, store, guided=True, gated=False)[0]
    pooled = nn_ops.max_pool2d_fwd(lateral.data)[0]
    convs = fusion._kpred_convs(store, "", 1)
    kern_a, _ = fusion.predict_kernels_fwd(np.concatenate([upper.data, pooled]), convs, 2)
    kern_b, _ = fusion.predict_kernels_fwd(np.concatenate([upper.data, np.zeros_like(pooled)]),
                                           convs, 2)
    assert not np.allclose(kern_a, kern_b)
    assert guided.data.shape == lateral.data.shape


def test_fuse_shape_validation(rng):
    store = make_fusion_store(rng)
    with pytest.raises(ValueError):
        fusion.fuse_fwd(LevelFeature(3, rng.standard_normal((8, 3, 4))),
                        LevelFeature(2, rng.standard_normal((8, 5, 8))), store)
    with pytest.raises(ValueError):
        fusion.fuse_fwd(LevelFeature(2, rng.standard_normal((8, 5, 8))),
                        LevelFeature(3, rng.standard_normal((8, 3, 4))), store)


@pytest.mark.parametrize("fine_shape", [(8, 7, 8), (8, 6, 12), (8, 3, 4), (8, 9, 8), (6, 6, 8)],
                         ids=["not-a-multiple", "unequal-ratios", "s1", "s3-by-s2", "channels"])
@pytest.mark.parametrize("kind", ["up", "down"])
def test_fuse_refuses_levels_that_are_not_one_integer_multiple(rng, kind, fine_shape):
    # the scale is read from the extents: fine must be s× coarse on both
    # axes, one integer s ≥ 2, with the same leading axes
    store = make_fusion_store(rng, kind=kind)
    coarse = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    fine = LevelFeature(2, rng.standard_normal(fine_shape))
    src, dst = (coarse, fine) if kind == "up" else (fine, coarse)
    with pytest.raises(ValueError) as refused:
        fusion.fuse_fwd(src, dst, store)
    assert f"level 2 {fine_shape} is not one integer multiple s ≥ 2" in str(refused.value)


def test_fuse_refuses_predictor_logits_that_are_not_an_odd_tap_count(rng):
    # the tap size is read from the logits: k²·s² going up, k² going down, k odd
    upper = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    lateral = LevelFeature(2, rng.standard_normal((8, 6, 8)))
    with pytest.raises(ValueError, match="tap size must be odd, got 4"):
        fusion.fuse_fwd(upper, lateral, make_fusion_store(rng, k=4))
    with pytest.raises(ValueError, match="tap size must be odd, got 2"):
        fusion.fuse_fwd(lateral, upper, make_fusion_store(rng, k=2, kind="down"))
    # 36 logits are k = 3 at s = 2, but k = 2 at s = 3
    with pytest.raises(ValueError, match="tap size must be odd, got 2"):
        fusion.fuse_fwd(upper, LevelFeature(2, rng.standard_normal((8, 9, 12))),
                        make_fusion_store(rng))
    store = make_fusion_store(rng)
    for name in ("kpred.predictor.weight", "kpred.predictor.bias"):
        store[name] = store[name][:10]
    with pytest.raises(ValueError, match="10 predictor logits are not k²·4"):
        fusion.fuse_fwd(upper, lateral, store)
    store = make_fusion_store(rng, kind="down")
    for name in ("kpred.predictor.weight", "kpred.predictor.bias"):
        store[name] = store[name][:8]
    with pytest.raises(ValueError, match="kernel axis 8 is not a square tap count"):
        fusion.fuse_fwd(lateral, upper, store)


def test_fuse_refuses_an_unknown_gate_act(rng):
    upper = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    lateral = LevelFeature(2, rng.standard_normal((8, 6, 8)))
    with pytest.raises(ValueError, match="gate_act must be one of .* got 'tanh'"):
        fusion.fuse_fwd(upper, lateral, make_fusion_store(rng), gate_act="tanh")


def test_fuse_levels_and_strides_carry_over(rng):
    store = make_fusion_store(rng)
    upper = LevelFeature(4, rng.standard_normal((8, 2, 2)))
    lateral = LevelFeature(3, rng.standard_normal((8, 4, 4)))
    out = fusion.fuse_fwd(upper, lateral, store)[0]
    assert (out.level, out.stride) == (3, 8)


@pytest.mark.parametrize("kind", ["up", "down"])
def test_guided_site_concatenates_once(monkeypatch, rng, kind):
    # the kernel predictor and the gates read the same [src, guide] array
    read = []
    for name in ("predict_kernels_fwd", "channel_gates_fwd"):
        real = getattr(fusion, name)
        monkeypatch.setattr(fusion, name, lambda x, *a, real=real: read.append(x) or real(x, *a))
    store = make_fusion_store(rng, kind=kind)
    coarse = LevelFeature(3, rng.standard_normal((8, 3, 4)))
    fine = LevelFeature(2, rng.standard_normal((8, 6, 8)))
    src, dst = (coarse, fine) if kind == "up" else (fine, coarse)
    fusion.fuse_fwd(src, dst, store)
    assert len(read) == 2 and read[0] is read[1] and read[0].shape[-3] == 16


def test_guided_topdown_site_with_s3(rng):
    # a 3×3 max-pool guidance lands on the source grid; 3² · 3² = 81 logits
    store = make_fusion_store(rng, s=3)
    assert store["kpred.predictor.weight"].shape[0] == 81
    upper = LevelFeature(3, rng.standard_normal((8, 2, 3)))
    lateral = LevelFeature(2, rng.standard_normal((8, 6, 9)))
    out, cache = fusion.fuse_fwd(upper, lateral, store)
    x = np.concatenate([upper.data, oracles.max_pool2d_oracle(lateral.data, 3)])
    kern = fusion.predict_kernels_fwd(x, fusion._kpred_convs(store, "", 1), 3)[0]
    assert kern.shape == (81, 2, 3)
    high, low = fusion.channel_gates_fwd(x, fusion._gate_weights(store, ""), 2.0)[0]
    up = fusion.reassemble_up_fwd(upper.data, kern, 3)[0]
    pre = high[:, None, None] * up + low[:, None, None] * lateral.data
    want = nn_ops.conv2d_fwd(ConvParams.from_store(store, "smooth"), pre)[0]
    npt.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    gsrc, gdst, _ = fusion.fuse_bwd(cache, rng.standard_normal(out.data.shape))
    assert gsrc.shape == upper.data.shape and gdst.shape == lateral.data.shape


def _over_images(a, ndim):
    """a summed over its leading axes down to its last ndim."""
    return a.reshape((-1,) + a.shape[a.ndim - ndim:]).sum(axis=0)


def _explicit_fuse_bwd(cache, gout, src, dst, store, s, guided):
    """fuse_bwd with the readers' gradient formed at full width: [src; guide]
    built here whole, the explicit Wᵀ·g1 + gz⊗attn + w1ᵀ⊗glogits over every
    channel of it, split, its guide half passed through the guide's own
    adjoint, and the reader weights' gradients taken from the whole input."""
    _, up, _, _, re, gates, c_guide, c_kern, c_re, c_gate, c_sm = cache
    x, dst = src.data, dst.data
    if guided:
        resample_fwd = nn_ops.max_pool2d_fwd if up else nn_ops.bilinear_upsample_fwd
        x = np.concatenate([x, resample_fwd(dst, s)[0]], axis=-3)
    x = x.reshape(x.shape[:-2] + (-1,))  # the reader input, flat
    gpre, gw_s, gb_s = nn_ops.conv2d_bwd(c_sm, gout)
    pg = {"smooth.weight": gw_s, "smooth.bias": gb_s}
    if gates is not None:
        hi, lo = (g[..., None, None] for g in gates)
        gre, gdst = (hi * gpre, lo * gpre) if up else (lo * gpre, hi * gpre)
        coarse, fine = (re, dst) if up else (dst, re)
        ghigh, glow = (gpre * coarse).sum(axis=(-2, -1)), (gpre * fine).sum(axis=(-2, -1))
        (glhs, grhs), gate_pg = fusion.channel_gates_bwd(
            c_gate, ghigh, glow, lambda gz: np.einsum("...cp,...c->...p", x, gz))
        gz, glogits, attn = glhs[..., 1], grhs[..., 0, :], grhs[..., 1, :]
        assert np.array_equal(attn, c_gate[0])
    else:
        gre, gdst = gpre, gpre.copy()
    reassemble_bwd = fusion.reassemble_up_bwd if up else fusion.reassemble_down_bwd
    gsrc, gkern = reassemble_bwd(c_re, gre)
    (wt, g1), kpred_pg = fusion.predict_kernels_bwd(c_kern, gkern)
    w = store["kpred.compressor.weight"][:, :, 0, 0]
    gx = np.einsum("mc,...mp->...cp", w, g1)
    if gates is not None:
        w1 = store["gate.w1.weight"][0]
        gx = gx + gz[..., :, None] * attn[..., None, :] + w1[:, None] * glogits[..., None, :]
        pg["gate.w1.weight"] = _over_images(np.einsum("...p,...cp->...c", glogits, x), 1)[None]
        pg.update(gate_pg)
    c = gsrc.shape[-3]
    gsrc = gsrc + gx[..., :c, :].reshape(gsrc.shape)
    if guided:
        gguide = gx[..., c:, :].reshape(gsrc.shape)
        gdst = gdst + (nn_ops.max_pool2d_bwd if up else nn_ops.bilinear_upsample_bwd)(c_guide, gguide)
    pg["kpred.compressor.weight"] = _over_images(np.einsum("...mp,...cp->...mc", g1, x), 2)[..., None, None]
    pg["kpred.compressor.bias"] = _over_images(g1.sum(axis=-1), 1)
    pg.update(kpred_pg)
    return gsrc, gdst, pg


@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["image", "n1", "n3"])
@pytest.mark.parametrize("guided,gated", [(True, True), (True, False), (False, True), (False, False)])
@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("kind", ["up", "down"])
def test_site_backward_equals_the_full_width_reader_gradient(rng, kind, s, guided, gated, lead):
    # the factored adjoint (rank c_m + 2, the guide half moved through the
    # guide's adjoint before it is widened) is an identity, exact in f64
    store = make_fusion_store(rng, kind=kind, guided=guided, s=s)
    coarse = LevelFeature(3, rng.standard_normal(lead + (8, 2, 3)))
    fine = LevelFeature(2, rng.standard_normal(lead + (8, 2 * s, 3 * s)))
    src, dst = (coarse, fine) if kind == "up" else (fine, coarse)
    out, cache = fusion.fuse_fwd(src, dst, store, guided=guided, gated=gated)
    gout = rng.standard_normal(out.data.shape)
    want = _explicit_fuse_bwd(cache, gout, src, dst, store, s, guided)
    got = fusion.fuse_bwd(cache, gout)
    npt.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    npt.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    assert list(got[2]) == list(want[2])  # the same names, in the same order
    for name, g in want[2].items():
        assert got[2][name].shape == g.shape, name
        npt.assert_allclose(got[2][name], g, rtol=0, atol=1e-12, err_msg=name)


# f32 error of the site's gradients against f64, relative to each gradient's
# largest magnitude, on the draw below: the full-width backward this one
# replaced read at most 1.3e-6 (up) and 8.6e-7 (down) on it, the factored
# one 1.3e-6 and 8.3e-7.  The bound is about twice the former.
SITE_F32_TOL = 3e-6


@pytest.mark.parametrize("kind", ["up", "down"])
def test_site_backward_f32_error_at_paper_width(kind):
    # c = 256, c_m = 64, k = 5, initialised as the neck initialises it
    rng = np.random.default_rng(0)
    store = pyramid.init_params(pyramid.PyramidConfig())
    coarse, fine = rng.standard_normal((256, 16, 16)), rng.standard_normal((256, 32, 32))
    up = kind == "up"
    grads = []
    for dt in (np.float64, np.float32):
        s = {k: v.astype(dt) for k, v in store.items()}
        c, f = LevelFeature(4, coarse.astype(dt)), LevelFeature(3, fine.astype(dt))
        out, cache = fusion.fuse_fwd(*((c, f) if up else (f, c)), s, "td.l4" if up else "bu.l4")
        gsrc, gdst, pg = fusion.fuse_bwd(cache, np.random.default_rng(1).standard_normal(
            out.data.shape).astype(dt))
        grads.append({"src": gsrc, "dst": gdst, **pg})
    ref, got = grads
    for name, g in ref.items():
        assert got[name].dtype == np.float32
        err = np.max(np.abs(got[name] - g)) / np.max(np.abs(g))
        assert err < SITE_F32_TOL, (name, err)
