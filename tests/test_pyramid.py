import hashlib
import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from a2fpn import nn_ops, pyramid, verify
from a2fpn.levels import LevelFeature
from a2fpn.nn_ops import ConvParams
from a2fpn.pyramid import ARCHS, ConfigError, PyramidConfig
from conftest import traced_peak


def small_cfg(arch, **kw):
    base = dict(arch=arch, c=8, a=1, c_m=4, k_up=3, k_dn=3, k_en=1,
                dtype="f64", backbone=(4, 4, 8, 8), image_size=(64, 64))
    base.update(kw)
    return PyramidConfig(**base)


def small_levels(rng, widths=(4, 4, 8, 8), h=16, w=16):
    return [LevelFeature(lvl, rng.standard_normal((widths[lvl - 2], h >> (lvl - 2), w >> (lvl - 2))))
            for lvl in (2, 3, 4, 5)]


# -- configuration ----------------------------------------------------------

def test_defaults_follow_the_arch():
    full = PyramidConfig(arch="a2fpn")
    assert not full.lite and full.top_level == 6
    lite = PyramidConfig(arch="a2fpn_lite")
    assert lite.lite and lite.top_level == 5
    assert [a for a in ARCHS if PyramidConfig(arch=a).lite] == ["a2fpn_lite"]


@pytest.mark.parametrize("key", ["drop_extra_level", "pool_top", "drop_finest_smooth",
                                 "use_concat_guidance", "collect_levels"])
def test_from_dict_rejects_removed_keys(key):
    with pytest.raises(ConfigError, match=key):
        PyramidConfig.from_dict({"arch": "a2fpn", key: None})


def test_sites_run_top_down_then_bottom_up():
    # top-down sites reassemble at k_up, bottom-up ones at k_dn
    assert pyramid._sites(small_cfg("a2fpn", k_up=5, k_dn=3)) == [
        ("td.l5", 6, 5, 5), ("td.l4", 5, 4, 5), ("td.l3", 4, 3, 5), ("td.l2", 3, 2, 5),
        ("bu.l3", 2, 3, 3), ("bu.l4", 3, 4, 3), ("bu.l5", 4, 5, 3), ("bu.l6", 5, 6, 3)]
    assert pyramid._sites(small_cfg("a2fpn_lite", k_up=3, k_dn=7)) == [
        ("td.l4", 5, 4, 3), ("td.l3", 4, 3, 3), ("td.l2", 3, 2, 3),
        ("bu.l3", 2, 3, 7), ("bu.l4", 3, 4, 7), ("bu.l5", 4, 5, 7)]


def test_context_column_formula():
    cfg = PyramidConfig(a=64)
    assert [cfg.n_context(i) for i in (2, 3, 4, 5)] == [256, 192, 128, 64]


# fixed ids, so that a case keeps its name when another case is removed
@pytest.mark.parametrize("bad", [
    dict(arch="fancy"),
    dict(c=6),
    dict(k_up=4),
    dict(k_dn=2),
    dict(gate_act="tanh"),
    dict(dtype="f16"),
    dict(image_size=(100, 64)),
    dict(backbone="resnet"),
    dict(backbone=(32, 64)),
    dict(c=8.0),
    dict(a=1.5),
    dict(c_m=2.5),
    dict(k_up=3.0),
    dict(c=True),
    dict(seed=-1),
    dict(lambda_o="x"),
    dict(k_en=2),
    dict(image_size=(0, 64)),
    dict(image_size=(64.5, 64)),
    dict(backbone=(4.5, 4, 8, 8)),
], ids=[f"bad{i}" for i in (0, 1, 2, 3, 4, 5, 8, 10, 11, *range(12, 23))])
def test_config_validation_rejects(bad):
    with pytest.raises(ConfigError):
        PyramidConfig(**bad)


def test_even_encoder_kernel_is_a_config_error():
    # every conv pads (k−1)//2, which keeps the extent only for odd k
    with pytest.raises(ConfigError, match="k_en"):
        PyramidConfig.from_dict({"c": 8, "k_en": 2})


def test_config_dict_roundtrip_and_digest():
    cfg = small_cfg("a2fpn_lite", seed=7)
    again = PyramidConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()
    assert len(cfg.digest()) == 64
    assert cfg.digest() != small_cfg("a2fpn_lite", seed=8).digest()


def test_numpy_integers_give_the_same_config_document():
    cfg = small_cfg("a2fpn", c=np.int64(8), seed=np.int32(7), image_size=np.array([64, 64]))
    assert cfg.digest() == small_cfg("a2fpn", seed=7).digest()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        PyramidConfig.from_dict({"arch": "fpn", "depth": 50})


def test_from_dict_rejects_a_scalar_image_size():
    with pytest.raises(ConfigError):
        PyramidConfig.from_dict({"arch": "fpn", "image_size": 64})


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


# sha256 over each entry's name, dtype, shape and bytes, in store order, of
# init_params(tiny_config(arch), with_backbone=True, with_head=True): the
# store's names, order, shapes and random draws are pinned
INIT_DIGESTS = {
    "fpn": "20abb82e7bd01d883926ba286f889ed270867b1dfffdc034aff1c70c627a81dc",
    "pafpn": "fe8d60d6bce5a79d7c0a2a8055c9c4bbd72c309b828a958d9ab02bde2ddf5f6b",
    "a2fpn": "30c0bd1b9abc00a33e66d108a445b00a607a91db4e2c3bd3da9cf1ddf0e21f33",
    "a2fpn_lite": "0713f66e759a8411a9ff680b2b4cf76d0b1e8286e6e18d18265b4714cd42ef04",
}


@pytest.mark.parametrize("arch", ARCHS)
def test_init_params_bits_are_pinned(arch):
    store = pyramid.init_params(verify.tiny_config(arch), with_backbone=True, with_head=True)
    h = hashlib.sha256()
    for name, v in store.items():
        h.update(f"{name}|{v.dtype.str}|{v.shape}|".encode())
        h.update(v.tobytes())
    assert h.hexdigest() == INIT_DIGESTS[arch]


@pytest.mark.parametrize("arch", ARCHS)
def test_init_params_follows_param_shapes(arch):
    cfg = verify.tiny_config(arch)
    store = pyramid.init_params(cfg, with_backbone=True, with_head=True)
    shapes = pyramid.param_shapes(cfg, with_backbone=True, with_head=True)
    assert [(k, v.shape) for k, v in store.items()] == list(shapes.items())


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

    lat = {f.level: nn_ops.conv2d_fwd(ConvParams(store[f"fpn.lateral.l{f.level}.weight"],
                                                 store[f"fpn.lateral.l{f.level}.bias"]), f.data)[0]
           for f in levels}
    merged = {5: lat[5]}
    for lvl in (4, 3, 2):
        merged[lvl] = lat[lvl] + nn_ops.nearest_upsample(merged[lvl + 1], 2)
    for i, lvl in enumerate((2, 3, 4, 5)):
        want = nn_ops.conv2d_fwd(ConvParams(store[f"fpn.smooth.l{lvl}.weight"],
                                            store[f"fpn.smooth.l{lvl}.bias"], padding=1),
                                 merged[lvl])[0]
        npt.assert_array_equal(outs[i].data, want)
    npt.assert_array_equal(outs[4].data, nn_ops.max_pool2d_fwd(outs[3].data)[0])


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
    npt.assert_array_equal(outs[4].data, nn_ops.max_pool2d_fwd(outs[3].data)[0])


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


class _RecordingStore(dict):
    """A parameter store that records every name read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_forward_reads_exactly_the_stored_neck(rng, arch):
    # every stage reads its parameters by the names param_shapes lists
    cfg = small_cfg(arch)
    store = _RecordingStore(pyramid.init_params(cfg))
    pyramid.forward_a2fpn_fwd(small_levels(rng), store, cfg)
    assert store.read == set(pyramid.param_shapes(cfg))


def test_backward_gradients_are_finite(rng):
    cfg = small_cfg("a2fpn")
    store = pyramid.init_params(cfg)
    outs, cache = pyramid.forward_a2fpn_fwd(small_levels(rng), store, cfg)
    glevels, pg = pyramid.forward_a2fpn_bwd(cache, [np.ones_like(f.data) for f in outs])
    assert all(np.isfinite(g).all() for g in pg.values())
    assert all(np.isfinite(g).all() for g in glevels.values())


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_inference_keeps_no_backward_caches(rng, arch):
    # forward_pyramid frees each stage's cache as the stage returns: the same
    # bits as the training forward in well under its memory
    cfg = PyramidConfig(arch=arch, c=64, image_size=(256, 256))
    store = pyramid.init_params(cfg, with_backbone=True)
    levels = pyramid.toy_backbone_fwd(rng.standard_normal((3, 256, 256)).astype(np.float32),
                                      store)[0]
    (outs, cache), peak_train = traced_peak(lambda: pyramid.forward_a2fpn_fwd(levels, store, cfg))
    del cache
    infer, peak_infer = traced_peak(lambda: pyramid.forward_pyramid(levels, store, cfg))
    assert pyramid.forward_a2fpn_fwd(levels, store, cfg, keep_cache=False)[1] is None
    for a, b in zip(outs, infer):
        npt.assert_array_equal(a.data, b.data)
    assert peak_infer <= 0.6 * peak_train


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
    batch = [LevelFeature(f.level, np.stack([f.data, 2 * f.data[::-1]]))
             for f in small_levels(rng)]
    outs, cache = pyramid.forward_a2fpn_fwd(batch, store, cfg)
    gouts = [rng.standard_normal(f.data.shape) for f in outs]
    glevels, pg = pyramid.forward_a2fpn_bwd(cache, gouts)
    want_pg = {}
    for i in range(2):
        single = [LevelFeature(f.level, f.data[i]) for f in batch]
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
    # every site's cache, and the finest smooth's, is gone after the backward
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    outs, cache = pyramid.forward_a2fpn_fwd(small_levels(rng), store, cfg)
    assert any(k.startswith("td.") for k in cache) and any(k.startswith("bu.l3") for k in cache)
    pyramid.forward_a2fpn_bwd(cache, [np.ones_like(f.data) for f in outs])
    assert not [k for k in cache if k.startswith(("td.", "bu."))]


def _owned_arrays(obj, found):
    """Every array reachable from obj, through containers and the fields of
    parameter and level objects, as the array that owns its memory (a
    cached view keeps it alive), keyed by id."""
    if isinstance(obj, np.ndarray):
        owner = obj if obj.base is None else obj.base
        found[id(owner)] = owner
    elif isinstance(obj, dict):
        for v in obj.values():
            _owned_arrays(v, found)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _owned_arrays(v, found)
    elif hasattr(obj, "__dict__"):
        _owned_arrays(vars(obj), found)
    return found


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_training_caches_hold_no_reader_input_queries_or_embeddings(rng, arch):
    # no backward reads a fusion site's [src; guide] or the context module's
    # q = θ·fm and emb = φ·fm, so no cache keeps them: no cached array has
    # 2c channels (no other does at these widths), and none equals a q or
    # an emb computed here as the forward computes them
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    cache = pyramid.forward_a2fpn_fwd(levels, store, cfg)[1]
    ignore = {id(a) for a in store.values()} | {id(f.data) for f in levels}
    cached = [a for key, a in _owned_arrays(cache, {}).items() if key not in ignore]
    assert len(cached) > 50
    assert not [a.shape for a in cached if a.ndim >= 3 and a.shape[-3] == 2 * cfg.c]
    feats = levels if cfg.lite else levels + [pyramid.make_extra_level_fwd(levels[-1], store)[0]]
    products = []
    for f in feats:
        fm = f.data.reshape(f.data.shape[0], -1)
        names = [f"mgc.l{f.level}.{w}.weight" for w in ("theta", "phi")]
        products += [store[name] @ fm for name in names if name in store]
    assert len(products) == len(feats) + 4  # q at every level, emb at levels 2-5
    assert not [a.shape for a in cached for b in products if a.shape == b.shape and np.array_equal(a, b)]


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_the_tap_sizes_come_from_the_store_not_the_config(rng, arch):
    # a store built at k_up = k_dn = 3 runs at 3 under a config that says 1:
    # the forward reads each site's tap size from its predictor's logits
    cfg = small_cfg(arch, k_up=3, k_dn=3)
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    want = pyramid.forward_pyramid(levels, store, cfg)
    got = pyramid.forward_pyramid(levels, store, replace(cfg, k_up=1, k_dn=1))
    for g, w in zip(got, want):
        assert g.level == w.level and np.array_equal(g.data, w.data)


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_backward_frees_each_site_cache_before_the_next_site(monkeypatch, rng, arch):
    # when a site's backward runs, the cache holds only the sites still to come
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    outs, cache = pyramid.forward_a2fpn_fwd(small_levels(rng), store, cfg)
    order = [prefix for prefix, *_ in reversed(pyramid._sites(cfg))]
    held = []
    real_bwd = pyramid.fusion.fuse_bwd

    def spy(site_cache, gout):
        held.append(sorted(k for k in cache if k in order))
        return real_bwd(site_cache, gout)

    monkeypatch.setattr(pyramid.fusion, "fuse_bwd", spy)
    pyramid.forward_a2fpn_bwd(cache, [np.ones_like(f.data) for f in outs])
    assert held == [sorted(order[i + 1:]) for i in range(len(order))]


# -- partial forward -----------------------------------------------------------

def _levels_for(rng, batched):
    levels = small_levels(rng)
    if batched:
        levels = [LevelFeature(f.level, np.stack([f.data, -0.5 * f.data[..., ::-1]]))
                  for f in levels]
    return levels


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
def test_reading_p2_alone_runs_only_the_top_down_sites(monkeypatch, rng, arch, batched):
    # p2 keeps its bits, the other outputs are None, and of the fusion sites
    # only the top-down chain runs, with or without a cache
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    levels = _levels_for(rng, batched)
    full, _ = pyramid.forward_a2fpn_fwd(levels, store, cfg)
    real = pyramid.fusion.fuse_fwd
    calls = []

    def spy(src, dst, *args):
        calls.append((src.level, dst.level))
        return real(src, dst, *args)

    monkeypatch.setattr(pyramid.fusion, "fuse_fwd", spy)
    top_down = [(src, dst) for _, src, dst, _ in pyramid._sites(cfg) if src > dst]
    assert len(top_down) == cfg.top_level - 2
    for keep_cache in (True, False):
        calls.clear()
        outs, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg, keep_cache, reads=(2,))
        assert calls == top_down
        assert outs[0].level == 2 and np.array_equal(outs[0].data, full[0].data)
        assert outs[1:] == [None] * 4
        if keep_cache:
            assert not [k for k in cache if k.startswith("bu.l") and k != "bu.l2.smooth"]
            assert "pool_top" not in cache
        else:
            assert cache is None


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
def test_p2_only_backward_matches_the_full_cache(rng, arch, batched):
    # the partial cache's backward with [gp2] has the bits of the full
    # cache's with zero maps for the four unread levels, in f64 and f32
    for dtype in ("f64", "f32"):
        cfg = small_cfg(arch, dtype=dtype)
        store = pyramid.init_params(cfg)
        levels = [LevelFeature(f.level, f.data.astype(cfg.np_dtype))
                  for f in _levels_for(rng, batched)]
        outs, full_cache = pyramid.forward_a2fpn_fwd(levels, store, cfg)
        gp2 = rng.standard_normal(outs[0].data.shape).astype(cfg.np_dtype)
        want_levels, want_pg = pyramid.forward_a2fpn_bwd(
            full_cache, [gp2] + [np.zeros_like(f.data) for f in outs[1:]])
        _, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg, reads=(2,))
        glevels, pg = pyramid.forward_a2fpn_bwd(cache, [gp2])
        assert not [k for k in cache if k.startswith(("td.", "bu."))]
        assert set(pg) == set(want_pg) == set(store)
        for k, g in pg.items():
            assert g.dtype == want_pg[k].dtype and np.array_equal(g, want_pg[k]), (dtype, k)
        assert set(glevels) == set(want_levels)
        for lvl, g in glevels.items():
            assert g.dtype == want_levels[lvl].dtype and np.array_equal(g, want_levels[lvl])


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_a_read_level_runs_the_bottom_up_sites_below_it(rng, arch):
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    full, _ = pyramid.forward_a2fpn_fwd(levels, store, cfg)
    outs, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg, reads=(2, 4))
    assert sorted(k for k in cache if k.startswith("bu.l") and k != "bu.l2.smooth") == ["bu.l3", "bu.l4"]
    assert [f is None for f in outs] == [False, True, False, True, True]
    for i in (0, 2):
        assert np.array_equal(outs[i].data, full[i].data)
    # the top level alone needs the whole bottom-up chain, but no finest smooth
    outs, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg, reads=(6,))
    assert [p for p, *_ in pyramid._sites(cfg) if p in cache] == [p for p, *_ in pyramid._sites(cfg)]
    assert "bu.l2.smooth" not in cache
    assert outs[:4] == [None] * 4 and np.array_equal(outs[4].data, full[4].data)


@pytest.mark.parametrize("reads", [(7,), (1, 2), (), (2, 2.5)])
def test_forward_rejects_unknown_read_levels(rng, reads):
    cfg = small_cfg("a2fpn")
    with pytest.raises(ValueError, match="output levels"):
        pyramid.forward_a2fpn_fwd(small_levels(rng), pyramid.init_params(cfg), cfg, reads=reads)


@pytest.mark.parametrize("arch", ["a2fpn", "a2fpn_lite"])
def test_a_gradient_for_an_unread_output_is_refused(rng, arch):
    # so is None for a read output.  A p2 gradient after a forward that did
    # not read p2 is refused in the lite neck too, where p2 is the top-down
    # chain's level 2, which every forward makes
    cfg = small_cfg(arch)
    store = pyramid.init_params(cfg)
    levels = small_levels(rng)
    outs, _ = pyramid.forward_a2fpn_fwd(levels, store, cfg)
    for reads, given in [((2,), (2, 6)), ((2,), (6,)), ((3,), (2,)), ((3,), (2, 3)),
                         ((2, 4), (2, 3, 4)), ((2,), ()), ((2, 4), (2,)), ((2, 4), (4,)),
                         ((2, 3, 4, 5, 6), (2, 3, 4, 5))]:
        _, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg, reads=reads)
        gouts = [np.ones_like(f.data) if f.level in given else None for f in outs]
        want = f"read levels {list(reads)}, but levels {list(given)} have gradients"
        with pytest.raises(ValueError, match=re.escape(want)):
            pyramid.forward_a2fpn_bwd(cache, gouts)
    # a sixth gradient names a level past p6
    _, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg)
    with pytest.raises(ValueError, match=re.escape("levels [2, 3, 4, 5, 6, 7] have")):
        pyramid.forward_a2fpn_bwd(cache, [np.ones_like(f.data) for f in outs] + [np.ones(1)])
