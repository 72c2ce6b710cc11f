import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from a2fpn import fusion, nn_ops, pyramid, train
from a2fpn.pyramid import init_params
from a2fpn.train import TrainReport, synth_shapes, toy_train_config, train_toy, write_loss_csv


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
    loss, grads = train.batch_pass(images, masks, store, cfg)
    singles = [train.batch_pass(images[i], masks[i], store, cfg) for i in range(len(images))]
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
    train.batch_pass(images, masks, init_params(cfg, with_backbone=True, with_head=True), cfg)
    assert len(sizes) == 40
    assert max(sizes) < nn_ops._WINOGRAD_MIN_SIZE
