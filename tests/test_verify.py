import json

import numpy as np
import pytest

from a2fpn import verify
from a2fpn.verify import (
    COMPOSITE_TOL,
    ORACLE_TOL,
    PRIMITIVE_TOL,
    REGISTRY,
    check_gradients,
    finite_diff_grad,
    oracle_suite,
    rel_err,
)


def test_rel_err_basics():
    assert rel_err(1.0, 1.0) == 0.0
    assert rel_err(2.0, 1.0) == 0.5
    # the floor keeps near-zero pairs from dividing by zero
    assert rel_err(0.0, 0.0) == 0.0
    assert rel_err(1e-12, 0.0) < 1e-3


def test_finite_diff_matches_quadratic(rng):
    x = rng.standard_normal(6)
    a = rng.standard_normal(6)
    g = finite_diff_grad(lambda v: float(v @ v + a @ v), x)
    np.testing.assert_allclose(g, 2 * x + a, atol=1e-8)


GRADCHECK_NAMES = (
    "matmul", "softmax", "l2_normalize", "sigmoid", "two_sigmoid", "relu", "layer_norm",
    "conv2d", "conv2d_stride2", "conv2d_1x1", "conv2d_winograd", "conv2d_n2",
    "conv2d_stride2_n2", "conv2d_winograd_n2", "conv2d_gather_n2", "conv2d_stride2_gather_n2",
    "max_pool2d", "bilinear_upsample", "pixel_shuffle", "concat_channels",
    "compatibility", "collect_context", "orthogonal_reg", "gcn_layer", "reason_multilevel",
    "distribute_context", "mgc_forward", "mgc_forward_n2",
    "predict_up_kernels", "predict_down_kernels", "reassemble_up", "reassemble_down",
    "channel_gates", "reassemble_up_n2", "reassemble_down_n2", "channel_gates_n2",
    "fuse_topdown", "fuse_bottomup", "carafe_baseline", "cap_baseline", "fuse_topdown_s3",
    "toy_backbone", "make_extra_level", "a2fpn_full", "a2fpn_lite", "a2fpn_full_n2",
)
ORACLE_NAMES = (
    "conv2d", "conv2d_bwd", "conv2d_gx_gather", "conv2d_gx_fold",
    "conv2d_winograd", "conv2d_winograd_bwd", "attention_pool", "compatibility",
    "reassemble_up", "reassemble_down", "reassemble_up_bwd", "reassemble_down_bwd",
    "pixel_shuffle", "pixel_shuffle_roundtrip", "bilinear_upsample", "bilinear_upsample_bwd",
    "max_pool2d", "matmul", "softmax", "layer_norm",
)


def test_registry_names_are_well_formed():
    # every check, by name and in report order: a dropped or renamed check fails here
    assert tuple(REGISTRY) == GRADCHECK_NAMES
    for name, (builder, tol, cap) in REGISTRY.items():
        assert callable(builder)
        assert tol in (PRIMITIVE_TOL, COMPOSITE_TOL)
        assert cap >= 0


def test_single_check_report_fields():
    r = check_gradients("matmul")
    assert r.op == "matmul" and r.passed
    assert r.max_rel_err < PRIMITIVE_TOL
    assert r.coords > 0
    d = r.to_dict()
    assert {"op", "max_rel_err", "tol", "passed", "coords"} <= set(d)


def test_unknown_op_rejected():
    with pytest.raises(KeyError):
        check_gradients("transmogrify")


def test_probe_detects_a_corrupted_gradient():
    # the harness itself is under test here: a wrong analytic gradient
    # must push the measured error far past the tolerance
    builder, tol, cap = REGISTRY["matmul"]
    arrays, loss, grads_fn = builder(verify._op_rng("matmul", 0))
    grads = grads_fn()
    key = sorted(grads)[0]
    grads[key] = grads[key] + 0.05
    worst, _ = verify._probe(arrays, loss, grads, verify.DEFAULT_EPS,
                             np.random.default_rng(0), 0)
    assert worst > 100 * tol


def test_gradcheck_report_is_serializable(tmp_path):
    reports = [check_gradients("softmax"), check_gradients("relu")]
    doc = verify.save_gradcheck_report(tmp_path / "g.json", reports)
    assert doc["passed"]
    loaded = json.loads((tmp_path / "g.json").read_text())
    assert len(loaded["checks"]) == 2


def test_oracle_suite_runs_fifty_cases_each():
    entries, ok = oracle_suite(seed=3, cases=50)
    assert ok
    # every sweep, by name and in run order: a dropped or renamed sweep fails here
    assert tuple(e.op for e in entries) == ORACLE_NAMES
    for e in entries:
        # the round trip is a fixed 20 cases, whatever ``cases`` asks
        assert e.cases == (20 if e.op == "pixel_shuffle_roundtrip" else 50)
        assert e.max_abs_err <= ORACLE_TOL


def test_oracle_report_saved(tmp_path):
    entries, _ = oracle_suite(seed=1, cases=5)
    verify.save_oracle_report(tmp_path / "o.json", entries)
    doc = json.loads((tmp_path / "o.json").read_text())
    assert doc["passed"] and len(doc["oracles"]) == len(entries)


def test_gradcheck_seed_changes_the_draw():
    a = check_gradients("softmax", seed=0)
    b = check_gradients("softmax", seed=1)
    assert a.passed and b.passed
    assert a.max_rel_err != b.max_rel_err


def test_mgc_forward_passes_at_twelve_seeds():
    for op in ("mgc_forward", "mgc_forward_n2"):
        for seed in range(12):
            r = check_gradients(op, seed=seed)
            assert r.passed and r.tol == COMPOSITE_TOL, (op, seed, r.max_rel_err)


def test_directional_probe_detects_a_corrupted_gradient():
    # the graph weights are probed along one direction each: a wrong
    # gradient in any one of their coordinates must still fail the check
    op = "mgc_forward"
    builder, tol, cap = REGISTRY[op]
    arrays, loss, grads_fn = builder(verify._op_rng(op, 0))
    for key in verify.DIRECTIONAL[op]:
        grads = grads_fn()
        grads[key] = grads[key].copy()
        grads[key].flat[3] += 0.05 * np.abs(grads[key]).max()
        worst, _ = verify._probe(arrays, loss, grads, verify.DEFAULT_EPS,
                                 np.random.default_rng(0), cap, verify.DIRECTIONAL[op])
        assert worst > 10 * tol, key


def test_conv_gradcheck_projection_follows_the_seed():
    # with the drawn arrays made equal, the two seeds' losses differ only by
    # their projections r, which must come from each check's own draw
    names = [op for op in REGISTRY if op.startswith("conv2d")]
    assert len(names) == 9
    for op in names:
        builder = REGISTRY[op][0]
        (a0, loss0, _), (a1, loss1, _) = (builder(verify._op_rng(op, seed)) for seed in (0, 1))
        for key in a0:
            a1[key][...] = a0[key]
        assert loss0() != loss1(), op
