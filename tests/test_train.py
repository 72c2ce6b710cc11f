import dataclasses
import inspect
import os
import sys

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import a2fpn
from a2fpn import fusion, nn_ops, pyramid, train
from a2fpn.pyramid import init_params
from a2fpn.tape import Tape
from a2fpn.train import TrainReport, synth_shapes, toy_train_config, train_toy, write_loss_csv


def _pass(images, masks, store, cfg):
    """(loss, param grads) of the toy objective, recorded on a tape and replayed."""
    tape = Tape()
    loss, _ = train._objective(images, masks, store, cfg, tape)
    return loss, tape.backward({})


def test_synth_data_shapes_and_masks():
    cfg = toy_train_config("a2fpn")
    images, masks = synth_shapes(cfg)
    assert len(images) == len(masks) == train.BATCH
    for img, mask in zip(images, masks):
        assert img.shape == (3, 64, 64)
        assert mask.shape == (64, 64)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert 0 < mask.sum() < mask.size  # some foreground, some background


def test_synth_data_is_seed_deterministic():
    cfg = toy_train_config("a2fpn")
    a_images, a_masks = synth_shapes(cfg)
    b_images, b_masks = synth_shapes(cfg)
    npt.assert_array_equal(a_images, b_images)
    npt.assert_array_equal(a_masks, b_masks)
    c_images, _ = synth_shapes(toy_train_config("a2fpn", seed=5))
    assert not np.array_equal(a_images[0], c_images[0])


def test_bce_matches_naive_formula(rng):
    z = rng.standard_normal((4, 4))
    y = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
    p = 1.0 / (1.0 + np.exp(-z))
    want = float(np.mean(-y * np.log(p) - (1 - y) * np.log1p(-p)))
    npt.assert_allclose(train._bce_with_logits(z, y), want, atol=1e-12)


def test_bce_is_stable_at_extreme_logits():
    z = np.array([[60.0, -60.0]])
    y = np.array([[1.0, 0.0]])
    assert train._bce_with_logits(z, y) < 1e-12
    y_wrong = np.array([[0.0, 1.0]])
    loss = train._bce_with_logits(z, y_wrong)
    assert np.isfinite(loss) and loss > 50


@pytest.mark.parametrize("arch", train.TRAIN_ARCHS)
def test_short_training_decreases_loss(arch):
    report, store = train_toy(toy_train_config(arch), steps=30)
    assert not report.diverged
    assert report.final_loss < report.initial_loss
    assert len(report.rows) == 31
    assert all(np.isfinite(v).all() for v in store.values())
    assert all(r[2] >= 0 for r in report.rows)  # orthogonality penalty


def test_zero_lr_freezes_the_loss():
    report, _ = train_toy(toy_train_config("a2fpn"), steps=5, lr=0.0)
    losses = {r[1] for r in report.rows}
    assert len(losses) == 1


def test_negative_steps_are_refused():
    with pytest.raises(ValueError, match="steps must be >= 0"):
        train_toy(toy_train_config("a2fpn_lite"), steps=-1)


def test_a_missing_gradient_stops_training(monkeypatch):
    # a backward that drops one parameter's gradient must not leave that
    # parameter frozen: the first site's backward loses gate.w3's.  The head
    # reads p2 alone, so the bottom-up sites are skipped and the first
    # fuse_bwd call is td.l2's
    real = fusion.fuse_bwd
    calls = []

    def drop_one(cache, gout):
        gsrc, gdst, pg = real(cache, gout)
        if not calls:
            del pg["td.l2.gate.w3.weight"]
        calls.append(1)
        return gsrc, gdst, pg

    monkeypatch.setattr(fusion, "fuse_bwd", drop_one)
    with pytest.raises(KeyError, match=r"'td\.l2\.gate\.w3\.weight'"):
        train_toy(toy_train_config("a2fpn"), steps=1)


@pytest.mark.parametrize("arch", train.TRAIN_ARCHS)
def test_final_row_is_the_loss_of_the_trained_store(arch):
    # the last row is taken forward only, with the bits of the loss and
    # penalty that a recorded pass gives at the returned store
    cfg = toy_train_config(arch)
    for steps in (0, 3):
        report, store = train_toy(cfg, steps=steps)
        loss, reg = train._objective(*synth_shapes(cfg), store, cfg, Tape())
        assert report.rows[-1] == (steps, loss, reg)


@pytest.mark.parametrize("arch", train.TRAIN_ARCHS)
def test_training_reads_p2_alone_with_the_bits_of_a_full_forward(monkeypatch, arch):
    # every neck forward of a run, the final row's included, reads p2 alone;
    # a run whose forwards compute every level, and whose backwards get zero
    # maps for the four levels the loss does not read, has the same rows and store
    cfg = toy_train_config(arch)
    want, want_store = train_toy(cfg, steps=3)
    real_fwd = train.forward_a2fpn_fwd
    asked = []

    def every_level(levels, store, cfg, keep_cache=True, reads=None, tape=None):
        asked.append(reads)
        outs, cache = real_fwd(levels, store, cfg, keep_cache=keep_cache, tape=tape)
        if tape is not None:
            zeros = {f"f{f.level}": np.zeros_like(f.data) for f in outs[1:]}
            tape.append((lambda grads: grads, zeros, (), ()))
        return outs, cache

    monkeypatch.setattr(train, "forward_a2fpn_fwd", every_level)
    got, got_store = train_toy(cfg, steps=3)
    assert asked == [(2,)] * 4
    assert got.rows == want.rows
    assert set(got_store) == set(want_store)
    for k, v in got_store.items():
        assert np.array_equal(v, want_store[k]), k


def test_training_is_invocation_deterministic():
    a, _ = train_toy(toy_train_config("a2fpn_lite"), steps=8)
    b, _ = train_toy(toy_train_config("a2fpn_lite"), steps=8)
    assert a.rows == b.rows


def test_huge_lr_reports_divergence():
    np_err = np.seterr(all="ignore")
    try:
        report, _ = train_toy(toy_train_config("a2fpn"), steps=40, lr=50.0)
    finally:
        np.seterr(**np_err)
    assert report.diverged
    assert not report.converged


def test_report_convergence_rule():
    r = TrainReport(arch="a2fpn", steps=2, lr=0.1, seed=0,
                    rows=[(0, 1.0, 0.0), (1, 0.5, 0.0), (2, 0.09, 0.0)])
    assert r.converged and not r.diverged
    r2 = TrainReport(arch="a2fpn", steps=1, lr=0.1, seed=0,
                     rows=[(0, 1.0, 0.0), (1, 0.5, 0.0)])
    assert not r2.converged


def test_loss_csv_roundtrip(tmp_path):
    report, _ = train_toy(toy_train_config("a2fpn_lite"), steps=3)
    path = tmp_path / "loss.csv"
    write_loss_csv(path, report.rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss,reg_loss"
    assert len(lines) == 5
    for line, row in zip(lines[1:], report.rows):
        step, loss, reg = line.split(",")
        assert int(step) == row[0]
        assert float(loss) == row[1]  # repr round-trips exactly
        assert float(reg) == row[2]


@pytest.mark.parametrize("arch", train.TRAIN_ARCHS)
@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_batch_pass_matches_mean_of_single_image_passes(arch, dtype):
    # one batched forward+backward over all 8 images against 8 single-image
    # passes: the loss and each gradient are the mean over the images
    cfg = dataclasses.replace(toy_train_config(arch), dtype=dtype)
    images, masks = synth_shapes(cfg)
    store = init_params(cfg, with_backbone=True, with_head=True)
    loss, grads = _pass(images, masks, store, cfg)
    singles = [_pass(images[i:i + 1], masks[i:i + 1], store, cfg) for i in range(len(images))]
    want_loss = np.mean([s[0] for s in singles])
    assert set(grads) == set(singles[0][1]) == set(store)
    if dtype == "f64":
        assert abs(loss - want_loss) <= 1e-10
    else:
        assert abs(loss - want_loss) <= 1e-5 * abs(want_loss)
    for key, g in grads.items():
        want = np.mean([s[1][key] for s in singles], axis=0)
        assert g.shape == store[key].shape and g.dtype == store[key].dtype
        err = np.max(np.abs(g - want))
        if dtype == "f64":
            assert err <= 1e-10, f"{key}: {err:.2e}"
        else:
            assert err <= 1e-5 * np.max(np.abs(want)), f"{key}: {err:.2e}"


def test_training_passes_reject_a_single_image():
    # one image is the batch images[i:i + 1]; unbatched, the head would
    # broadcast its (1, W) logit row against the (H, W) mask
    cfg = toy_train_config("a2fpn")
    images, masks = synth_shapes(cfg, count=1)
    store = init_params(cfg, with_backbone=True, with_head=True)
    for tape in (Tape(), None):
        with pytest.raises(ValueError, match="the head takes a batch"):
            train._objective(images[0], masks[0], store, cfg, tape)


# numpy's Python-level helpers that cost more than their work on the toy
# step's small arrays: np.pad, sliding_window_view, and the wrapper that
# np.sum, np.max and the other fromnumeric reductions go through
_SLOW_HELPERS = {
    inspect.unwrap(np.pad).__code__: "np.pad",
    inspect.unwrap(sliding_window_view).__code__: "sliding_window_view",
    inspect.unwrap(np.sum).__globals__["_wrapreduction"].__code__: "fromnumeric._wrapreduction",
}


def _slow_helper_calls(fn, pkg=os.path.dirname(a2fpn.__file__)):
    """(helper, caller) for each call of a _SLOW_HELPERS entry that code
    under pkg makes, directly or through other numpy code, while fn runs."""
    npdir = os.path.dirname(np.__file__)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in _SLOW_HELPERS:
            caller = frame.f_back
            while caller is not None and caller.f_code.co_filename.startswith(npdir):
                caller = caller.f_back
            if caller is not None and caller.f_code.co_filename.startswith(pkg):
                seen.add((_SLOW_HELPERS[frame.f_code], caller.f_code.co_name))

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(outer)
    return seen


def _takes_np_max(a):
    return np.max(a, axis=0)


@pytest.mark.parametrize("arch", train.TRAIN_ARCHS)
def test_training_step_stays_off_numpys_python_helpers(arch):
    cfg = toy_train_config(arch)
    store = init_params(cfg, with_backbone=True, with_head=True)
    images, masks = synth_shapes(cfg)
    assert _slow_helper_calls(lambda: _pass(images, masks, store, cfg)) == set()
    # the guard sees such a call
    assert ("fromnumeric._wrapreduction", "_takes_np_max") in _slow_helper_calls(
        lambda: _takes_np_max(np.ones(3)), pkg=os.path.dirname(__file__))


def test_no_toy_training_conv_reaches_winograd(monkeypatch):
    # the path choice is per image; even counted over the whole batch of 8
    # images, every toy conv (the largest is 2²⁰) stays below the threshold
    sizes = []
    real = nn_ops.conv2d_fwd

    def spy(p, x):
        y, cache = real(p, x)
        cout, cin = p.weight.shape[:2]
        sizes.append(x.shape[0] * cout * cin * y.shape[-2] * y.shape[-1])
        return y, cache

    for mod in (train, pyramid, fusion):
        monkeypatch.setattr(mod, "conv2d_fwd", spy)
    cfg = toy_train_config("a2fpn")
    images, masks = synth_shapes(cfg)
    assert images.shape[0] == train.BATCH == 8
    _pass(images, masks, init_params(cfg, with_backbone=True, with_head=True), cfg)
    assert len(sizes) == 24
    assert max(sizes) < nn_ops._WINOGRAD_MIN_SIZE


def _toy_train_pass():
    cfg = toy_train_config("a2fpn")
    images, masks = synth_shapes(cfg)
    _pass(images, masks, init_params(cfg, with_backbone=True, with_head=True), cfg)


def _fwdbwd_256_pass():
    cfg = pyramid.PyramidConfig(arch="a2fpn", c=256, image_size=(256, 256))
    store = init_params(cfg, with_backbone=True)
    levels, _ = pyramid.toy_backbone_fwd(synth_shapes(cfg, count=1)[0][0], store)
    outs, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg)
    pyramid.forward_a2fpn_bwd(cache, [np.ones_like(o.data) for o in outs])


def _pinned(rows):
    """{(cout, cin, k, stride, n, h_out): route} from (cout, cin, k, stride, n, {h_out: route})."""
    return {(co, ci, k, s, n, h): r for co, ci, k, s, n, by_h in rows for h, r in by_h.items()}


# Every conv backward of one toy-train pass (a batch of 8 at 64²) and of a
# 256² neck's forward+backward (one image, c=256), with the way it takes gx:
# "gather" and "fold" are the im2col routes, "none" the stem conv, whose
# image gradient the training pass does not ask for.  The toy-train pass
# skips the bottom-up sites, whose outputs its loss does not read, so their
# stride-2 predictors (25 ← 16) have no backward.  No site's 1×1 compressor
# runs conv2d_bwd: fusion.fuse_bwd takes its gradients with the gates' at
# low rank.
_G, _F = "gather", "fold"
PINNED_ROUTES = {
    "toy-train": _pinned([
        (1, 16, 1, 1, 8, {16: _G}),  # head
        (16, 3, 3, 2, 8, {32: "none"}),  # stem
        (16, 16, 3, 1, 8, {1: _F, 2: _G, 4: _G, 8: _G, 16: _G}),
        (16, 16, 3, 2, 8, {16: _G}),
        (16, 64, 3, 2, 8, {1: _F}),
        (32, 16, 3, 2, 8, {8: _F}),
        (64, 32, 3, 2, 8, {4: _F}),
        (64, 64, 3, 2, 8, {2: _F}),
        (100, 16, 3, 1, 8, {1: _F, 2: _F, 4: _F, 8: _F}),
    ]),
    "fwdbwd-256": _pinned([
        (25, 64, 3, 2, 1, {4: _F, 8: _F, 16: _G, 32: _G}),
        (64, 64, 3, 1, 1, {4: _F, 8: _F, 16: _G, 32: _G, 64: _G}),
        (100, 64, 3, 1, 1, {4: _F, 8: _F, 16: _F, 32: _F}),
        (256, 256, 3, 1, 1, {4: _F, 8: _F, 16: _F, 32: "winograd", 64: "winograd"}),
        (256, 256, 3, 2, 1, {4: _F}),
    ]),
}


@pytest.mark.parametrize("workload,run", [("toy-train", _toy_train_pass), ("fwdbwd-256", _fwdbwd_256_pass)])
def test_conv_backward_routes_are_pinned(monkeypatch, workload, run):
    taken = []
    for name, route in (("_gx_gather", _G), ("_gx_fold", _F), ("_winograd_bwd", "winograd")):
        def spy(*args, _real=getattr(nn_ops, name), _route=route):
            taken.append(_route)
            return _real(*args)
        monkeypatch.setattr(nn_ops, name, spy)
    routes = {}
    real = nn_ops.conv2d_bwd

    def conv_spy(cache, gy, need_gx=True):
        del taken[:]
        out = real(cache, gy, need_gx)
        p = cache[0]
        cout, cin, k, _ = p.weight.shape
        key = (cout, cin, k, p.stride, gy.shape[0] if gy.ndim == 4 else 1, gy.shape[-1])
        route = taken[0] if taken else "none"
        assert (out[0] is None) == (route == "none") and routes.setdefault(key, route) == route
        return out

    for mod in (train, pyramid, fusion):
        monkeypatch.setattr(mod, "conv2d_bwd", conv_spy)
    run()
    assert routes == PINNED_ROUTES[workload]
