import numpy as np
import numpy.testing as npt
import pytest

from a2fpn import mgc, oracles, pyramid
from a2fpn.levels import LevelFeature
from a2fpn.tape import Tape


def test_compatibility_columns_are_distributions(rng):
    q = rng.standard_normal((7, 4)).astype(np.float32)
    k = rng.standard_normal((4, 5)).astype(np.float32)
    m = mgc.compatibility_fwd(q, k, 4)[0]
    assert m.shape == (5, 7)  # keys × queries
    npt.assert_allclose(m.sum(axis=0), 1.0, atol=1e-6)


def test_compatibility_matches_oracle(rng):
    q = rng.standard_normal((6, 4))
    k = rng.standard_normal((4, 3))
    npt.assert_allclose(mgc.compatibility_fwd(q, k, 4)[0],
                        oracles.compatibility_oracle(q, k, 4), atol=1e-12)


def test_compatibility_invariant_to_key_rescale(rng):
    # L2 normalization runs over the key feature axis, so stretching any
    # key column by a positive factor cannot move the map
    q = rng.standard_normal((6, 4))
    k = rng.standard_normal((4, 5)) + 0.1
    scales = rng.uniform(0.25, 30.0, size=5)
    npt.assert_allclose(mgc.compatibility_fwd(q, k * scales, 4)[0],
                        mgc.compatibility_fwd(q, k, 4)[0], atol=1e-12)


def test_compatibility_not_invariant_to_query_rescale(rng):
    # queries are deliberately left unnormalized
    q = rng.standard_normal((6, 4))
    k = rng.standard_normal((4, 5)) + 0.1
    assert not np.allclose(mgc.compatibility_fwd(q * 3.0, k, 4)[0], mgc.compatibility_fwd(q, k, 4)[0])


def test_compatibility_rejects_dim_mismatch(rng):
    with pytest.raises(ValueError):
        mgc.compatibility_fwd(rng.standard_normal((3, 4)), rng.standard_normal((5, 2)), 4)
    with pytest.raises(ValueError):
        mgc.compatibility_fwd(rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), 8)


def test_collect_context_shapes(rng):
    fdata = rng.standard_normal((4, 3, 5))
    psi = rng.standard_normal((6, 4))   # 6 context columns
    phi = rng.standard_normal((8, 4))   # embed to 8 channels
    bank, _ = mgc.collect_context_fwd(fdata, psi, phi)
    assert bank.shape == (8, 6)


def test_collect_pools_constant_map_exactly(rng):
    # every attention column is a distribution, so a constant embedding
    # pools back to itself
    fdata = np.ones((4, 3, 3))
    psi = rng.standard_normal((5, 4))
    phi = rng.standard_normal((8, 4))
    bank, _ = mgc.collect_context_fwd(fdata, psi, phi)
    want = (phi @ np.ones(4)).reshape(8, 1) * np.ones((1, 5))
    npt.assert_allclose(bank, want, atol=1e-12)


def test_orthogonal_loss_zero_at_orthonormal_rows():
    qr, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 3)))
    store = {"mgc.l2.theta.weight": np.zeros((8, 8)), "mgc.l2.xi.weight": np.zeros((8, 8)),
             "mgc.l2.psi.weight": qr.T, "mgc.l2.phi.weight": np.zeros((8, 8))}
    assert mgc.orthogonal_reg(store, 1e-4)[0] < 1e-25


def test_orthogonal_loss_positive_off_manifold(rng):
    psi = rng.standard_normal((3, 8)) * 2.0
    store = {"mgc.l2.theta.weight": np.zeros((8, 8)), "mgc.l2.xi.weight": np.zeros((8, 8)),
             "mgc.l2.psi.weight": psi, "mgc.l2.phi.weight": np.zeros((8, 8))}
    loss, grads = mgc.orthogonal_reg(store, 1e-4)
    d = psi @ psi.T - np.eye(3)
    npt.assert_allclose(loss, 1e-4 * np.sum(d * d), atol=1e-12)
    assert list(grads) == ["mgc.l2.psi.weight"]
    npt.assert_allclose(grads["mgc.l2.psi.weight"], 4e-4 * (d @ psi), atol=1e-12)


def test_gcn_layer_zero_mix_is_identity(rng):
    g = rng.standard_normal((8, 5))
    weights = (rng.standard_normal((2, 8)), rng.standard_normal((2, 8)), np.zeros((8, 8)))
    npt.assert_array_equal(mgc.gcn_layer_fwd(g, weights)[0], g)


def test_reason_multilevel_concats_columns(rng):
    weights = (0.3 * rng.standard_normal((2, 8)),
               0.3 * rng.standard_normal((2, 8)),
               0.3 * rng.standard_normal((8, 8)))
    banks = [rng.standard_normal((8, 3)), rng.standard_normal((8, 5))]
    fused = mgc.reason_multilevel_fwd(banks, weights)[0]
    assert fused.shape == (8, 8)
    with pytest.raises(ValueError):
        mgc.reason_multilevel_fwd([banks[0], rng.standard_normal((4, 2))], weights)


def _gcn_store(rng, prefix, c):
    return {f"{prefix}.w{i}.weight": 0.4 * rng.standard_normal((c if i == 3 else c // 4, c))
            for i in (1, 2, 3)}


def _tiny_mgc_store(rng, c=8, collect=(2, 3), distribute=(2, 3, 4)):
    store = {}
    for i, lvl in enumerate(distribute):
        name = f"mgc.l{lvl}"
        store[f"{name}.theta.weight"] = 0.4 * rng.standard_normal((c, c))
        store[f"{name}.xi.weight"] = 0.4 * rng.standard_normal((c, c))
        if lvl in collect:
            n = 4 - i
            qr, _ = np.linalg.qr(rng.standard_normal((c, n)))
            store[f"{name}.psi.weight"] = qr.T
            store[f"{name}.phi.weight"] = 0.4 * rng.standard_normal((c, c))
            store.update(_gcn_store(rng, f"{name}.gcn", c))
    store.update(_gcn_store(rng, "mgc.shared_gcn", c))
    store["mgc.out.weight"] = 0.4 * rng.standard_normal((c, c))
    return store


def test_mgc_forward_enriches_every_level(rng):
    store = _tiny_mgc_store(rng)
    feats = [LevelFeature(2, rng.standard_normal((8, 4, 4))),
             LevelFeature(3, rng.standard_normal((8, 2, 2))),
             LevelFeature(4, rng.standard_normal((8, 1, 2)))]
    outs = mgc.mgc_forward_fwd(feats, store)[0]
    assert [f.level for f in outs] == [2, 3, 4]
    for before, after in zip(feats, outs):
        assert after.data.shape == before.data.shape
        assert not np.allclose(after.data, before.data)


def test_mgc_forward_zero_out_weight_is_residual_projection(rng):
    # with the output mix zeroed, distribution degenerates to the xi path
    store = _tiny_mgc_store(rng)
    store["mgc.out.weight"] = np.zeros_like(store["mgc.out.weight"])
    feats = [LevelFeature(2, rng.standard_normal((8, 4, 4))),
             LevelFeature(3, rng.standard_normal((8, 2, 2)))]
    outs = mgc.mgc_forward_fwd(feats, store)[0]
    for f in feats:
        xi = store[f"mgc.l{f.level}.xi.weight"]
        want = (xi @ f.data.reshape(8, -1)).reshape(f.data.shape)
        got = next(o for o in outs if o.level == f.level)
        npt.assert_allclose(got.data, want, atol=1e-12)


def test_mgc_forward_requires_a_collector(rng):
    store = _tiny_mgc_store(rng, collect=())
    feats = [LevelFeature(2, rng.standard_normal((8, 2, 2)))]
    with pytest.raises(ValueError):
        mgc.mgc_forward_fwd(feats, store)


def test_mgc_forward_refuses_a_level_with_no_theta(rng):
    store = _tiny_mgc_store(rng)
    del store["mgc.l4.theta.weight"]
    feats = [LevelFeature(2, rng.standard_normal((8, 4, 4))),
             LevelFeature(3, rng.standard_normal((8, 2, 2))),
             LevelFeature(4, rng.standard_normal((8, 1, 2)))]
    with pytest.raises(ValueError, match="no parameters for level 4"):
        mgc.mgc_forward_fwd(feats, store)


def test_mgc_backward_covers_all_param_names(rng):
    store = _tiny_mgc_store(rng)
    feats = [LevelFeature(2, rng.standard_normal((8, 4, 4))),
             LevelFeature(3, rng.standard_normal((8, 2, 2))),
             LevelFeature(4, rng.standard_normal((8, 1, 2)))]
    outs, tape = mgc.mgc_forward_fwd(feats, store, Tape())
    pg = tape.backward({f"f{o.level}": np.ones_like(o.data) for o in outs})
    glevels = {lvl: pg.pop(f"f{lvl}") for lvl in (2, 3, 4)}
    assert [g.shape for g in glevels.values()] == [f.data.shape for f in feats]
    assert not tape
    want = {"mgc.out.weight"}
    want |= {f"mgc.shared_gcn.w{i}.weight" for i in (1, 2, 3)}
    for lvl in (2, 3, 4):
        want |= {f"mgc.l{lvl}.theta.weight", f"mgc.l{lvl}.xi.weight"}
    for lvl in (2, 3):
        want |= {f"mgc.l{lvl}.psi.weight", f"mgc.l{lvl}.phi.weight"}
        want |= {f"mgc.l{lvl}.gcn.w{i}.weight" for i in (1, 2, 3)}
    assert set(pg) == want


def test_out_weight_gradient_sums_the_levels_from_the_finest_up(rng):
    # the replay takes the distributions from level 2 up, so in f32 the
    # gradient of mgc.out.weight has the bits of the ascending-level sum of
    # each level's distribute_context_bwd, which the descending sum does not
    store = {k: v.astype(np.float32)
             for k, v in _tiny_mgc_store(rng, collect=(2, 3, 4), distribute=(2, 3, 4, 5, 6)).items()}
    feats = [LevelFeature(lvl, rng.standard_normal((8, 2 ** (6 - lvl), 2)).astype(np.float32))
             for lvl in (2, 3, 4, 5, 6)]
    outs, tape = mgc.mgc_forward_fwd(feats, store, Tape())
    seeds = {f"f{o.level}": rng.standard_normal(o.data.shape).astype(np.float32) for o in outs}
    caches = {outs[0]: c for bwd, c, _, outs in tape if bwd is mgc.distribute_context_bwd}
    per_level = [mgc.distribute_context_bwd(caches[f"f{lvl}"], seeds[f"f{lvl}"])[4]
                 for lvl in (2, 3, 4, 5, 6)]
    ascending, descending = per_level[0], per_level[-1]
    for g in per_level[1:]:
        ascending = ascending + g
    for g in per_level[-2::-1]:
        descending = descending + g
    assert not np.array_equal(ascending, descending)
    got = tape.backward(seeds)["mgc.out.weight"]
    assert got.dtype == np.float32 and np.array_equal(got, ascending)


def _t(a):
    return a.swapaxes(-1, -2)


def _over_images(a, ndim):
    """a summed over its leading axes down to its last ndim."""
    return a.reshape((-1,) + a.shape[a.ndim - ndim:]).sum(axis=0)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["image", "n3"])
@pytest.mark.parametrize("c,n", [(8, 5), (4, 12)], ids=["n<c", "n>c"])
def test_distribute_context_bwd_equals_the_full_width_form(rng, c, n, lead):
    # routing the query gradient through the n context columns is an
    # identity, exact in f64, whichever of n and c is the larger
    c_i = 6
    fdata = rng.standard_normal(lead + (c_i, 3, 4))
    fused = rng.standard_normal(lead + (c, n))
    theta, xi, w_o = (rng.standard_normal(shape) for shape in ((c, c_i), (c, c_i), (c, c)))
    out, cache = mgc.distribute_context_fwd(fdata, fused, theta, xi, w_o)
    gout = rng.standard_normal(out.shape)
    got = mgc.distribute_context_bwd(cache, gout)
    # the c × h·w form: the query gradient gq built in full, from the queries
    # q = θ·fm rebuilt here, since the cache keeps none
    fm, attn, ctx, cf = cache[1], cache[2], cache[3], cache[8]
    assert cf[0] is None
    cf = (_t(theta @ fm),) + cf[1:]
    go = gout.reshape(gout.shape[:-2] + (-1,))
    gctx = go @ _t(attn)
    gqt, gkeys = mgc.compatibility_bwd(cf, _t(ctx) @ go)
    gq = _t(gqt)
    assert gq.shape == lead + (c, 12)
    want = ((theta.T @ gq + xi.T @ go).reshape(fdata.shape), w_o.T @ gctx + gkeys,
            _over_images(gq @ _t(fm), 2), _over_images(go @ _t(fm), 2),
            _over_images(gctx @ _t(fused), 2))
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        npt.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["image", "n3"])
@pytest.mark.parametrize("c,n", [(8, 3), (4, 10)], ids=["n<c", "n>c"])
def test_collect_context_bwd_equals_the_full_width_form(rng, c, n, lead):
    # routing the embedding gradient through the n context columns is an
    # identity, exact in f64
    c_i = 5
    fdata = rng.standard_normal(lead + (c_i, 3, 4))
    psi, phi = rng.standard_normal((n, c_i)), rng.standard_normal((c, c_i))
    bank, cache = mgc.collect_context_fwd(fdata, psi, phi)
    gbank = rng.standard_normal(bank.shape)
    got = mgc.collect_context_bwd(cache, gbank)
    # the c × h·w form: the embedding gradient gemb built in full, from the
    # embedding emb = φ·fm rebuilt here, since the cache keeps none
    fm, attn, cf = cache[1], cache[2], cache[4]
    emb = phi @ fm
    gemb = gbank @ _t(attn)
    assert gemb.shape == lead + (c, 12)
    gpsi, gfm = mgc.compatibility_bwd(cf, _t(emb) @ gbank)
    want = ((gfm + phi.T @ gemb).reshape(fdata.shape), _over_images(gpsi, 2),
            _over_images(gemb @ _t(fm), 2))
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        npt.assert_allclose(g, w, rtol=0, atol=1e-12)


# f32 error of each gradient against f64, relative to its largest magnitude,
# largest over the gradients, on the draw below: the c × h·w backward this
# one replaced read 1.28e-5 (distribute) and 7.0e-7 (collect) on it, the
# rank-n one 1.28e-5 and 7.1e-7.  Each bound is about twice the former.
CONTEXT_F32_TOL = {"distribute": 2.6e-5, "collect": 1.4e-6}


@pytest.mark.parametrize("which", ["distribute", "collect"])
def test_context_backward_f32_error_at_paper_width(which):
    # level 2 of a 256² neck as the neck initialises it: c_i = 32 at 64²,
    # c = 256 and n = 80 context columns (n_2 = 32 collected here)
    store = pyramid.init_params(pyramid.PyramidConfig())
    grads = []
    for dt in (np.float64, np.float32):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((32, 64, 64)).astype(dt)
        if which == "distribute":
            fused = rng.standard_normal((256, 80)).astype(dt)
            names = ("mgc.l2.theta.weight", "mgc.l2.xi.weight", "mgc.out.weight")
            out, cache = mgc.distribute_context_fwd(f, fused, *(store[k].astype(dt) for k in names))
            grads.append(mgc.distribute_context_bwd(cache, rng.standard_normal(out.shape).astype(dt)))
        else:
            names = ("mgc.l2.psi.weight", "mgc.l2.phi.weight")
            out, cache = mgc.collect_context_fwd(f, *(store[k].astype(dt) for k in names))
            grads.append(mgc.collect_context_bwd(cache, rng.standard_normal(out.shape).astype(dt)))
    for want, got in zip(*grads, strict=True):
        assert got.dtype == np.float32
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err < CONTEXT_F32_TOL[which], err
