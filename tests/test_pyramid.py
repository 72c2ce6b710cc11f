import numpy as np
import numpy.testing as npt
import pytest

from a2fpn import nn_ops, pyramid
from a2fpn.levels import LevelFeature
from a2fpn.nn_ops import ConvParams
from a2fpn.pyramid import ARCHS, ConfigError, PyramidConfig


def small_cfg(arch, **kw):
    base = dict(arch=arch, c=8, a=1, c_m=4, k_up=3, k_dn=3, k_en=1,
                dtype="f64", backbone=(4, 4, 8, 8), image_size=(64, 64))
    base.update(kw)
    return PyramidConfig(**base)


def small_levels(rng, widths=(4, 4, 8, 8), h=16, w=16):
    return [LevelFeature(lvl, 2 ** lvl,
                         rng.standard_normal((widths[lvl - 2], h >> (lvl - 2), w >> (lvl - 2))))
            for lvl in (2, 3, 4, 5)]


# -- configuration ----------------------------------------------------------

def test_defaults_follow_the_arch():
    full = PyramidConfig(arch="a2fpn")
    assert (full.drop_extra_level, full.pool_top, full.drop_finest_smooth) == (False, False, False)
    assert full.top_level == 6
    lite = PyramidConfig(arch="a2fpn_lite")
    assert (lite.drop_extra_level, lite.pool_top, lite.drop_finest_smooth) == (True, True, True)
    assert lite.top_level == 5


def test_context_column_formula():
    cfg = PyramidConfig(a=64)
    assert [cfg.n_context(i) for i in (2, 3, 4, 5)] == [256, 192, 128, 64]


@pytest.mark.parametrize("bad", [
    dict(arch="fancy"),
    dict(c=6),
    dict(k_up=4),
    dict(k_dn=2),
    dict(gate_act="tanh"),
    dict(dtype="f16"),
    dict(collect_levels=()),
    dict(collect_levels=(1, 2)),
    dict(image_size=(100, 64)),
    dict(drop_extra_level=True, pool_top=False),
    dict(backbone="resnet"),
    dict(backbone=(32, 64)),
])
def test_config_validation_rejects(bad):
    with pytest.raises(ConfigError):
        PyramidConfig(**bad)


def test_config_dict_roundtrip_and_digest():
    cfg = small_cfg("a2fpn_lite", seed=7)
    again = PyramidConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()
    assert len(cfg.digest()) == 64
    assert cfg.digest() != small_cfg("a2fpn_lite", seed=8).digest()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        PyramidConfig.from_dict({"arch": "fpn", "depth": 50})


def test_from_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        PyramidConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        PyramidConfig.from_file(bad)


# -- parameters --------------------------------------------------------------

def test_init_params_deterministic():
    cfg = small_cfg("a2fpn")
    a = pyramid.init_params(cfg)
    b = pyramid.init_params(cfg)
    assert sorted(a) == sorted(b)
    for k in a:
        npt.assert_array_equal(a[k], b[k])
    c = pyramid.init_params(small_cfg("a2fpn", seed=1))
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_params_dtype_and_psi_orthonormal():
    cfg = small_cfg("a2fpn", dtype="f32")
    store = pyramid.init_params(cfg)
    assert all(v.dtype == np.float32 for v in store.values())
    psi = pyramid.init_params(small_cfg("a2fpn"))["mgc.l2.psi.weight"]
    npt.assert_allclose(psi @ psi.T, np.eye(psi.shape[0]), atol=1e-12)


def test_init_params_scope_flags():
    cfg = small_cfg("a2fpn")
    neck = pyramid.init_params(cfg)
    assert not any(k.startswith("backbone.") or k.startswith("head.") for k in neck)
    full = pyramid.init_params(cfg, with_backbone=True, with_head=True)
    assert any(k.startswith("backbone.") for k in full)
    assert any(k.startswith("head.") for k in full)


def test_lite_store_has_no_extra_level_or_finest_smooth():
    lite = pyramid.init_params(small_cfg("a2fpn_lite"))
    assert not any(k.startswith("extra.") for k in lite)
    assert "bu.l2.smooth.weight" not in lite
    assert not any(".l6." in k for k in lite)
    full = pyramid.init_params(small_cfg("a2fpn"))
    assert "extra.f6.weight" in full and "bu.l2.smooth.weight" in full


# -- toy backbone -------------------------------------------------------------

def test_toy_backbone_levels(rng):
    cfg = small_cfg("fpn")
    store = pyramid.init_params(cfg, with_backbone=True)
    image = rng.standard_normal((3, 64, 64))
    levels, _ = pyramid.toy_backbone_fwd(image, store)
    assert [(f.level, f.stride) for f in levels] == [(2, 4), (3, 8), (4, 16), (5, 32)]
    assert [f.data.shape for f in levels] == [(4, 16, 16), (4, 8, 8), (8, 4, 4), (8, 2, 2)]


def test_toy_backbone_rejects_bad_images(rng):
    store = pyramid.init_params(small_cfg("fpn"), with_backbone=True)
    with pytest.raises(ValueError):
        pyramid.toy_backbone_fwd(rng.standard_normal((1, 64, 64)), store)
    with pytest.raises(ValueError):
        pyramid.toy_backbone_fwd(rng.standard_normal((3, 60, 64)), store)


# -- necks --------------------------------------------------------------------

@pytest.mark.parametrize("arch", ARCHS)
def test_every_arch_emits_five_levels(rng, arch):
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    outs = pyramid.forward_pyramid(small_levels(rng), store, cfg)
    assert [f.level for f in outs] == [2, 3, 4, 5, 6]
    assert [f.stride for f in outs] == [4, 8, 16, 32, 64]
    assert all(f.channels == cfg.c for f in outs)
    assert [f.data.shape[1:] for f in outs] == [(16, 16), (8, 8), (4, 4), (2, 2), (1, 1)]


def test_fpn_matches_straight_line_composition(rng):
    # re-derive the classic neck with direct op calls against the dispatcher
    cfg = small_cfg("fpn")
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    outs = pyramid.forward_pyramid(levels, store, cfg)

    lat = {f.level: nn_ops.conv2d(ConvParams(store[f"fpn.lateral.l{f.level}.weight"],
                                             store[f"fpn.lateral.l{f.level}.bias"]), f.data)
           for f in levels}
    merged = {5: lat[5]}
    for lvl in (4, 3, 2):
        merged[lvl] = lat[lvl] + nn_ops.nearest_upsample(merged[lvl + 1], 2)
    for i, lvl in enumerate((2, 3, 4, 5)):
        want = nn_ops.conv2d(ConvParams(store[f"fpn.smooth.l{lvl}.weight"],
                                        store[f"fpn.smooth.l{lvl}.bias"], padding=1),
                             merged[lvl])
        npt.assert_array_equal(outs[i].data, want)
    npt.assert_array_equal(outs[4].data, nn_ops.max_pool2d(outs[3].data))


def test_pafpn_shares_the_fpn_finest_level(rng):
    cfg = small_cfg("pafpn")
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    pa = pyramid.forward_pyramid(levels, store, cfg)
    fp = pyramid.forward_fpn(levels, store, cfg)
    npt.assert_array_equal(pa[0].data, fp[0].data)
    # the coarser levels pick up the bottom-up chain and must differ
    assert not np.array_equal(pa[1].data, fp[1].data)


def test_a2fpn_full_uses_the_extra_level(rng):
    cfg = small_cfg("a2fpn")
    store = pyramid.init_params(cfg)
    outs, cache = pyramid.forward_a2fpn_fwd(small_levels(rng), store, cfg)
    assert "extra" in cache and "td.l5" in cache and "bu.l6" in cache
    assert [f.level for f in outs] == [2, 3, 4, 5, 6]


def test_a2fpn_lite_pools_its_top_level(rng):
    cfg = small_cfg("a2fpn_lite")
    store = pyramid.init_params(cfg)
    outs, cache = pyramid.forward_a2fpn_fwd(small_levels(rng), store, cfg)
    assert "extra" not in cache and "pool_top" in cache
    npt.assert_array_equal(outs[4].data, nn_ops.max_pool2d(outs[3].data))


def test_forward_is_deterministic(rng):
    cfg = small_cfg("a2fpn")
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    a = pyramid.forward_pyramid(levels, store, cfg)
    b = pyramid.forward_pyramid(levels, store, cfg)
    for fa, fb in zip(a, b):
        npt.assert_array_equal(fa.data, fb.data)


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_backward_covers_exactly_the_neck_params(rng, arch):
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    outs, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg)
    gouts = [np.ones_like(f.data) for f in outs]
    glevels, pg = pyramid.forward_a2fpn_bwd(cache, gouts)
    assert set(pg) == set(store)
    for k in pg:
        assert pg[k].shape == store[k].shape
    for f in levels:
        assert glevels[f.level].shape == f.data.shape


def test_backward_gradients_are_finite(rng):
    cfg = small_cfg("a2fpn")
    store = pyramid.init_params(cfg)
    outs, cache = pyramid.forward_a2fpn_fwd(small_levels(rng), store, cfg)
    glevels, pg = pyramid.forward_a2fpn_bwd(cache, [np.ones_like(f.data) for f in outs])
    assert all(np.isfinite(g).all() for g in pg.values())
    assert all(np.isfinite(g).all() for g in glevels.values())


def test_forward_rejects_misordered_levels(rng):
    cfg = small_cfg("fpn")
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    with pytest.raises(ValueError):
        pyramid.forward_pyramid(levels[::-1], store, cfg)


# -- image batches -----------------------------------------------------------

@pytest.mark.parametrize("arch", ARCHS)
def test_batched_neck_matches_each_image(rng, arch):
    # three images through the backbone and neck at once equal each image alone
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg, with_backbone=True)
    images = rng.standard_normal((3, 3, 64, 64))
    levels, _ = pyramid.toy_backbone_fwd(images, store)
    assert [f.data.shape for f in levels] == [(3, 4, 16, 16), (3, 4, 8, 8), (3, 8, 4, 4), (3, 8, 2, 2)]
    outs = pyramid.forward_pyramid(levels, store, cfg)
    for i, image in enumerate(images):
        single = pyramid.forward_pyramid(pyramid.toy_backbone_fwd(image, store)[0], store, cfg)
        for fb, fs in zip(outs, single):
            assert fb.data.shape == (3,) + fs.data.shape and fb.channels == fs.channels
            npt.assert_allclose(fb.data[i], fs.data, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_batched_backward_sums_the_images_param_grads(rng, arch):
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    batch = [LevelFeature(f.level, f.stride, np.stack([f.data, 2 * f.data[::-1]]))
             for f in small_levels(rng)]
    outs, cache = pyramid.forward_a2fpn_fwd(batch, store, cfg)
    gouts = [rng.standard_normal(f.data.shape) for f in outs]
    glevels, pg = pyramid.forward_a2fpn_bwd(cache, gouts)
    want_pg = {}
    for i in range(2):
        single = [LevelFeature(f.level, f.stride, f.data[i]) for f in batch]
        _, c1 = pyramid.forward_a2fpn_fwd(single, store, cfg)
        g1, p1 = pyramid.forward_a2fpn_bwd(c1, [g[i] for g in gouts])
        for lvl, g in g1.items():
            npt.assert_allclose(glevels[lvl][i], g, rtol=1e-10, atol=1e-10)
        for k, g in p1.items():
            want_pg[k] = want_pg.get(k, 0) + g
    assert set(pg) == set(want_pg) == set(store)
    for k, g in pg.items():
        npt.assert_allclose(g, want_pg[k], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_backward_drops_the_fusion_caches(rng, arch):
    # the fusion stages' caches are freed once their chain's backward is done
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    outs, cache = pyramid.forward_a2fpn_fwd(small_levels(rng), store, cfg)
    assert any(k.startswith("td.") for k in cache) and any(k.startswith("bu.l3") for k in cache)
    pyramid.forward_a2fpn_bwd(cache, [np.ones_like(f.data) for f in outs])
    assert not [k for k in cache if k.startswith(("td.", "bu.")) and k != "bu.l2.smooth"]
