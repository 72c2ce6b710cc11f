"""End-to-end acceptance gates.

One test per criterion; ``pytest -v`` prints one pass/fail line for each.
The runtime-heavy pieces (full gradient suite, two 500-step trainings)
live here rather than in the per-module tests.
"""

import time

import numpy as np
import numpy.testing as npt

from a2fpn import analysis, fusion, mgc, nn_ops, pyramid, train, verify
from a2fpn.levels import LevelFeature
from a2fpn.pyramid import PyramidConfig
from conftest import make_fusion_params

RNG = np.random.default_rng(1234)


def test_criterion_1_gradient_suite_under_60s():
    t0 = time.perf_counter()
    reports, ok = verify.run_all_checks(seed=0)
    elapsed = time.perf_counter() - t0
    failed = [f"{r.op}: {r.max_rel_err:.2e} > {r.tol:.0e}" for r in reports if not r.passed]
    assert ok, "gradient checks failed: " + "; ".join(failed)
    assert len(reports) >= 30
    primitives = [r for r in reports if r.tol == verify.PRIMITIVE_TOL]
    assert primitives and all(r.max_rel_err < 1e-6 for r in primitives)
    composites = [r for r in reports if r.tol == verify.COMPOSITE_TOL]
    assert composites and all(r.max_rel_err < 1e-4 for r in composites)
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"criterion 1: {len(reports)} ops, worst "
          f"{max(r.max_rel_err for r in reports):.2e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_50_shapes():
    entries, ok = verify.oracle_suite(seed=0, cases=50)
    assert ok, "oracle sweeps failed: " + "; ".join(e.op for e in entries if not e.passed)
    by_name = {e.op: e for e in entries}
    required = ("conv2d", "conv2d_bwd", "conv2d_winograd", "conv2d_winograd_bwd",
                "attention_pool", "compatibility", "reassemble_up",
                "reassemble_down", "reassemble_up_bwd", "reassemble_down_bwd",
                "pixel_shuffle", "bilinear_upsample", "bilinear_upsample_bwd")
    for name in required:
        e = by_name[name]
        assert e.cases >= 50, f"{name}: only {e.cases} shapes"
        assert e.max_abs_err <= 1e-12, f"{name}: {e.max_abs_err:.2e} > 1e-12"
    print("criterion 2: " + ", ".join(f"{n}={by_name[n].max_abs_err:.1e}" for n in required))


def test_criterion_3_invariants():
    rng = np.random.default_rng(77)

    # attention columns are distributions (f32)
    q32 = rng.standard_normal((9, 8)).astype(np.float32)
    k32 = rng.standard_normal((8, 7)).astype(np.float32)
    amap = mgc.compatibility(q32, k32, 8)
    npt.assert_allclose(amap.sum(axis=0), 1.0, atol=1e-6)

    # predicted reassembly kernels are distributions (f32)
    p32 = make_fusion_params(rng, kind="up")
    coarse32 = rng.standard_normal((8, 3, 4)).astype(np.float32)
    pooled32 = rng.standard_normal((8, 3, 4)).astype(np.float32)
    kern, _ = fusion.predict_up_kernels_fwd(coarse32, pooled32, p32)
    npt.assert_allclose(kern.sum(axis=0), 1.0, atol=1e-6)

    # positive per-key rescaling cannot move the map (f64)
    q = rng.standard_normal((6, 8))
    k = rng.standard_normal((8, 5)) + 0.1
    scales = rng.uniform(0.25, 40.0, size=5)
    npt.assert_allclose(mgc.compatibility(q, k * scales, 8),
                        mgc.compatibility(q, k, 8), atol=1e-12)

    # constant maps reassemble to the same constant away from the border
    kup = np.apply_along_axis(lambda v: np.exp(v) / np.exp(v).sum(), 0,
                              rng.standard_normal((9, 8, 10)))
    out_up = fusion.reassemble_up(np.full((2, 4, 5), 1.5), kup, 2)
    npt.assert_allclose(out_up[:, 2:-2, 2:-2], 1.5, atol=1e-12)
    kdn = np.apply_along_axis(lambda v: np.exp(v) / np.exp(v).sum(), 0,
                              rng.standard_normal((9, 4, 5)))
    out_dn = fusion.reassemble_down(np.full((2, 8, 10), -0.25), kdn, 2)
    npt.assert_allclose(out_dn[:, 1:-1, 1:-1], -0.25, atol=1e-12)

    # zero gate head -> 2σ(0) = 1 -> gated merge equals the plain sum, bit-exact
    p_neutral = make_fusion_params(rng, zero_gates=True)
    upper = LevelFeature(3, 8, rng.standard_normal((8, 3, 4)))
    lateral = LevelFeature(2, 4, rng.standard_normal((8, 6, 8)))
    gated = fusion.fuse_topdown(upper, lateral, p_neutral, guided=True, gated=True)
    plain = fusion.fuse_topdown(upper, lateral, p_neutral, guided=True, gated=False)
    assert np.array_equal(gated.data, plain.data)
    p_neutral_dn = make_fusion_params(rng, kind="down", zero_gates=True)
    lower = LevelFeature(2, 4, rng.standard_normal((8, 6, 8)))
    td = LevelFeature(3, 8, rng.standard_normal((8, 3, 4)))
    gated_dn = fusion.fuse_bottomup(lower, td, p_neutral_dn, guided=True, gated=True)
    plain_dn = fusion.fuse_bottomup(lower, td, p_neutral_dn, guided=True, gated=False)
    assert np.array_equal(gated_dn.data, plain_dn.data)

    # orthogonality penalty vanishes at the orthonormal initialization
    cfg = PyramidConfig(arch="a2fpn", c=8, a=1, c_m=4, k_up=3, k_dn=3, k_en=1,
                        dtype="f64", backbone=(4, 4, 8, 8), image_size=(64, 64))
    store = pyramid.init_params(cfg)
    params = pyramid._mgc_view(store, cfg)
    loss = mgc.orthogonal_reg_loss(params)
    assert loss < 1e-20, f"orthogonality penalty at init = {loss:.2e}"
    print("criterion 3: distributions, rescale invariance, constant maps, "
          "neutral gates, orthonormal init all hold")


def test_criterion_4_complexity_table_deltas():
    params_delta = (analysis.count_params("pafpn").total_params
                    - analysis.count_params("fpn").total_params)
    assert params_delta == 3_540_480, f"pafpn-fpn params {params_delta:,}"

    flops_delta = (analysis.count_flops("pafpn").total_flops
                   - analysis.count_flops("fpn").total_flops)
    rel = abs(flops_delta - 25.77e9) / 25.77e9
    assert rel < 1e-3, f"pafpn-fpn flops {flops_delta:,} off by {rel:.2%}"

    # informational comparison for the attention neck; the published layer
    # inventory is coarse, so itemize and allow ±20%
    d = analysis.diff_report(analysis.count_flops("a2fpn"), analysis.count_flops("pafpn"))
    p_rel = (d.total_params - 9.77e6) / 9.77e6
    conv_delta = (analysis.count_flops("a2fpn").category_flops("conv")
                  - analysis.count_flops("pafpn").category_flops("conv"))
    f_rel = (conv_delta - 66.34e9) / 66.34e9
    print(f"criterion 4: pafpn-fpn params {params_delta:,} exact, "
          f"flops {flops_delta / 1e9:.4f}G ({rel:.4%} from 25.77G)")
    print(f"  a2fpn-pafpn params {d.total_params:,} ({p_rel:+.1%} vs 9.77M), "
          f"conv flops {conv_delta / 1e9:.2f}G ({f_rel:+.1%} vs 66.34G)")
    print("  itemized differences:")
    print(analysis.format_diff(d))
    assert abs(p_rel) <= 0.20, f"a2fpn-pafpn params off by {p_rel:+.1%}"
    assert abs(f_rel) <= 0.20, f"a2fpn-pafpn conv flops off by {f_rel:+.1%}"


def test_criterion_5_shape_and_stride_contract():
    for arch, c in (("fpn", 256), ("pafpn", 256), ("a2fpn", 256), ("a2fpn_lite", 128)):
        cfg = PyramidConfig(arch=arch, c=c, image_size=(256, 256), backbone="toy")
        store = pyramid.init_params(cfg, with_backbone=True)
        rng = np.random.default_rng([0, 5])
        image = rng.standard_normal((3, 256, 256)).astype(cfg.np_dtype)
        levels, _ = pyramid.toy_backbone_fwd(image, store)
        outs = pyramid.forward_pyramid(levels, store, cfg)
        assert len(outs) == 5, f"{arch}: {len(outs)} levels"
        assert [f.stride for f in outs] == [4, 8, 16, 32, 64]
        assert all(f.channels == c for f in outs), f"{arch}: wrong widths"
        assert [f.data.shape[1:] for f in outs] == [
            (64, 64), (32, 32), (16, 16), (8, 8), (4, 4)]
    print("criterion 5: all four necks emit 5 levels, strides {4,8,16,32,64}, "
          "c=256 (128 lite) on a 256x256 image")


def test_criterion_6_toy_training_converges_and_reproduces():
    t0 = time.perf_counter()
    prefix = 30
    for arch in ("a2fpn", "a2fpn_lite"):
        cfg = train.toy_train_config(arch)
        report, _ = train.train_toy(cfg, steps=500)
        ratio = report.final_loss / report.initial_loss
        assert not report.diverged, f"{arch} diverged"
        assert ratio < 0.10, f"{arch}: final/initial = {ratio:.3f}"

        # the first rows of the long run must be reproduced bit-for-bit by
        # each of three fresh invocations
        want = report.rows[: prefix + 1]
        for run in range(3):
            again, _ = train.train_toy(cfg, steps=prefix)
            assert again.rows == want, f"{arch}: fresh run {run} diverges bitwise"
        print(f"criterion 6: {arch} {report.initial_loss:.4f} -> "
              f"{report.final_loss:.4f} (ratio {ratio:.4f})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"toy training took {elapsed:.0f}s"
    print(f"criterion 6: both runs + fresh-run reproduction in {elapsed:.0f}s")


def test_criterion_7_baselines_and_gate_variants():
    rng = np.random.default_rng(99)

    # with guidance off and gates pinned, the guided ops ARE the baselines,
    # and both equal the hand-composed plain pipeline bit for bit
    p_up = make_fusion_params(rng, guided=False)
    upper = LevelFeature(3, 8, rng.standard_normal((8, 3, 4)))
    lateral = LevelFeature(2, 4, rng.standard_normal((8, 6, 8)))
    base_up = fusion.carafe_baseline(upper, lateral, p_up)
    flagged_up = fusion.fuse_topdown(upper, lateral, p_up, guided=False, gated=False)
    kern_up, _ = fusion.predict_up_kernels_fwd(upper.data, None, p_up)
    composed_up = nn_ops.conv2d(
        p_up.smooth, fusion.reassemble_up(upper.data, kern_up, 2) + lateral.data)
    assert np.array_equal(base_up.data, flagged_up.data)
    assert np.array_equal(base_up.data, composed_up)

    p_dn = make_fusion_params(rng, kind="down", guided=False)
    lower = LevelFeature(2, 4, rng.standard_normal((8, 6, 8)))
    td = LevelFeature(3, 8, rng.standard_normal((8, 3, 4)))
    base_dn = fusion.cap_baseline(lower, td, p_dn)
    flagged_dn = fusion.fuse_bottomup(lower, td, p_dn, guided=False, gated=False)
    kern_dn, _ = fusion.predict_down_kernels_fwd(lower.data, None, p_dn)
    composed_dn = nn_ops.conv2d(
        p_dn.smooth, td.data + fusion.reassemble_down(lower.data, kern_dn, 2))
    assert np.array_equal(base_dn.data, flagged_dn.data)
    assert np.array_equal(base_dn.data, composed_dn)

    # both gate activations must train stably on both variants
    import dataclasses
    for arch in ("a2fpn", "a2fpn_lite"):
        for act in ("sigmoid", "two_sigmoid"):
            cfg = dataclasses.replace(train.toy_train_config(arch), gate_act=act)
            report, _ = train.train_toy(cfg, steps=60)
            assert not report.diverged, f"{arch}/{act} diverged"
            assert report.final_loss < report.initial_loss, f"{arch}/{act} failed to improve"
    print("criterion 7: baselines identical bit-for-bit; "
          "sigmoid and two_sigmoid both train stably")
