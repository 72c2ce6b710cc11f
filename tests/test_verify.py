import hashlib
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
    oracle_suite,
    rel_err,
)


def test_rel_err_basics():
    assert rel_err(1.0, 1.0) == 0.0
    assert rel_err(2.0, 1.0) == 0.5
    # the floor keeps near-zero pairs from dividing by zero
    assert rel_err(0.0, 0.0) == 0.0
    assert rel_err(1e-12, 0.0) < 1e-3


def test_probe_passes_a_known_gradient(rng):
    # a quadratic, whose central difference is exact up to rounding: every
    # coordinate is probed and agrees with the true gradient
    x = rng.standard_normal(6)
    a = rng.standard_normal(6)
    worst, coords = verify._probe({"x": x}, lambda: float(x @ x + a @ x), {"x": 2 * x + a},
                                  verify.DEFAULT_EPS, np.random.default_rng(0), 0)
    assert coords == 6
    assert worst < 1e-8


GRADCHECK_NAMES = (
    "softmax", "l2_normalize", "sigmoid", "relu", "layer_norm",
    "conv2d", "conv2d_stride2", "conv2d_1x1", "conv2d_winograd", "conv2d_n2",
    "conv2d_stride2_n2", "conv2d_winograd_n2", "conv2d_gather_n2", "conv2d_stride2_gather_n2",
    "max_pool2d", "bilinear_upsample", "concat_channels",
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
    "bilinear_upsample", "bilinear_upsample_bwd", "max_pool2d", "softmax", "layer_norm",
)


def test_registry_names_are_well_formed():
    # every check, by name and in report order: a dropped or renamed check fails here
    assert tuple(REGISTRY) == GRADCHECK_NAMES
    for name, (builder, tol, cap) in REGISTRY.items():
        assert callable(builder)
        assert tol in (PRIMITIVE_TOL, COMPOSITE_TOL)
        assert cap >= 0


# sha256 over each check's arrays (name, dtype, shape and bytes, in array
# order) as its builder draws them at seed 0, and over the generator's state
# after the build: the arrays, and the count and order of all the draws
# (the projections' too), are pinned
DRAW_DIGESTS = {
    "softmax": "8ffc8d6401bdabe3834985a97b1864e488f74f9ae8be7074e4f531aaab841a6c",
    "l2_normalize": "4cff3696e4cb7e7d6692b938bea5999dc9b78d735ca5d6cad1088ba56a56ac6b",
    "sigmoid": "0782a69bd85dd36456d50040d4d4c96112efc0d8ba40abc1f798b8f2ca428caf",
    "relu": "2a015c24eb14d24b89d0c1ab0c869b60c460b5bf844e14720a5f2b855e9c8169",
    "layer_norm": "2b3cb0ddfafe354ae727ade2975eae9ddde5631b0554c2ab0b4ee473d4dbf3a4",
    "conv2d": "c27667d7dc000c61a745b9c994f61e8c8e321e9072798fb44c13ef5b039e2356",
    "conv2d_stride2": "32214be65f178f886c7b19743a7258f91152f60790ea34c0f0722d560709351c",
    "conv2d_1x1": "bde067e5260703194637b3333240df27d2be165d48bd71ba347f9204c64ee9df",
    "conv2d_winograd": "8a4c4e8fe8f6448f4709317bf5916faf3bc9ec0f94c111bbece14070316e2da3",
    "conv2d_n2": "9ea3842f3e7cbfb8b1675d27c8aa086a26c0ff7665dc09af457a23a79e8d1329",
    "conv2d_stride2_n2": "0c16fd768dbcda22b1e2bdb64ca76d626d92b11f0e2a9b55de93869192ff2c3e",
    "conv2d_winograd_n2": "74fa7cc72a978bec8bc3ea8ab692a9e2dd87349be79e75928e71ebfbfe190fa8",
    "conv2d_gather_n2": "88a440d58b935d90dfe00d71c0e1682ef8d54906a3ecf170eb31315803a87139",
    "conv2d_stride2_gather_n2": "bc9d560492bbc677deeef5804c6c446822d2134d059771a23a1590b6ce785437",
    "max_pool2d": "910af3d4d6b0fc33a4598bfe0c098b268311dcd23c1d72ed98271b65989d3805",
    "bilinear_upsample": "d3a6116c1f52349467038602cd55e5d588a2d32ad4a5da308bd14cdff2639004",
    "concat_channels": "b9739b17b7636aab4b72e73e754c4955d928db4829afb926801b8b7bfe161065",
    "compatibility": "75994716985f2dd02a09f396dbcdf7af4f52f6770f8232a34db91a2d9248a54b",
    "collect_context": "416abf594d697f7be2c8f2d906c8db1858ad6229fea9f205d7bff47546abd1b8",
    "orthogonal_reg": "bd9af4902775db28c5627ea397eda335e8f94f383d664fbba9d572c7c228cea1",
    "gcn_layer": "b978cc9bde14894a1383c9cdec89f2da99aceb0e19c6c0a624a1502b14ec3be6",
    "reason_multilevel": "e01e7fb4133798da0e612145562770994cb1228b71ae04e4bc34572bdd97f55a",
    "distribute_context": "27ca2b3155b62f69f1c890ae91d668d754a7a6fc9989f103a7c4ab3a1b7f174c",
    "mgc_forward": "880a7a9b939bb0f23a323a5b5c3099078786770b74552919c37264ab3cde64ca",
    "mgc_forward_n2": "5761ef99108535c97936cad2b9778367fb7ab211423accf4bf83b250ec3c3880",
    "predict_up_kernels": "6d472fad9271a22377ca9621c10e2f8ca0a68c88ace6d9960dba5c011ced9cd5",
    "predict_down_kernels": "28ed2c95c8988902cd2d3632eca3ffac0825a17888b63fce8fcff3e45f01dbd5",
    "reassemble_up": "9597eef3bc837c94c1293e988dbfa17dbdcda2f689c3b01b260d346842f6c15f",
    "reassemble_down": "949557553977436fb4de6bcc8146d85a437264517167e3e55cbb77b90c9f9dff",
    "channel_gates": "3f461a82008aab5c641b57b47f079a315eba25fc0ebd374f66c9c041bd41e26a",
    "reassemble_up_n2": "f81ebe1ad08b7687fcbf83c422273a4df963fcb91c76bd7a26ebed09bcd846cb",
    "reassemble_down_n2": "dfd56105cebf0413a8d956f124028cfad6947897072b4b0cbf33ef055d6c09b4",
    "channel_gates_n2": "22523bea1e2b2160acd788f4c93f36f82337055fc5f8b057c4f1ca6ee9036d60",
    "fuse_topdown": "804a1d9a29d3fc22de436812781a7e73c59f29240323a3a747d2326f49ea7b0a",
    "fuse_bottomup": "41f537fbcc83c1dec25d574b34d2a322a4a961d4cd6aa2fc8cf1c137a4620fcb",
    "carafe_baseline": "f7d5dad57e928e78afdf37925994ddeaafe6e03bedbd0462cc576608eda1f601",
    "cap_baseline": "a3302ae1135aba3f92cde246c3458832ec05e3e27bdfe13e281854206c03d426",
    "fuse_topdown_s3": "6546e9fdd64a7460b7930e302a8ea21064a4b1e966f677a87ecd64f5d01bb31d",
    "toy_backbone": "85800dd121b53dd3396359ba5cf4274c80fc2f2240a8ad938010c3ab3be12398",
    "make_extra_level": "a49f9376c0c21733e095ea1787be4743c1e036611a02631bcfcc8a0b1f30f5a5",
    "a2fpn_full": "85be9a01288cb9a3fe2f05fe309dbc518b5032f9cc13eb2f20b0bdf8bfb1f5a1",
    "a2fpn_lite": "ec70766ca4d48233a377c0f6731478bfceb3435101cec1af43874e14c49ff446",
    "a2fpn_full_n2": "a3c55972f3cdc0254e86a0daabb19dbc0b462d43f638d4a37bd4fd7bf301dc53",
}


@pytest.mark.parametrize("op", GRADCHECK_NAMES)
def test_gradcheck_draws_are_pinned(op):
    rng = verify._op_rng(op, 0)
    arrays, _, _ = REGISTRY[op][0](rng)
    h = hashlib.sha256()
    for name, v in arrays.items():
        h.update(f"{name}|{v.dtype.str}|{v.shape}|".encode())
        h.update(v.tobytes())
    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    assert h.hexdigest() == DRAW_DIGESTS[op]


def test_single_check_report_fields():
    r = check_gradients("softmax")
    assert r.op == "softmax" and r.passed
    assert r.max_rel_err < PRIMITIVE_TOL
    assert r.coords > 0
    d = r.to_dict()
    assert {"op", "max_rel_err", "tol", "passed", "coords"} <= set(d)


def test_unknown_op_rejected():
    with pytest.raises(KeyError):
        check_gradients("transmogrify")


@pytest.mark.parametrize("kw", [{"eps": 0.0}, {"eps": -1e-5}, {"eps": float("nan")},
                                {"eps": float("inf")}, {"tol": 0.0}, {"tol": -1.0},
                                {"tol": float("nan")}, {"tol": float("inf")}],
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_a_step_or_tolerance_that_is_not_positive_and_finite_is_refused(kw):
    name = next(iter(kw))
    with pytest.raises(ValueError, match=f"positive finite {name}"):
        check_gradients("softmax", **kw)


def test_probe_detects_a_corrupted_gradient():
    # the harness itself is under test here: a wrong analytic gradient
    # must push the measured error far past the tolerance
    builder, tol, cap = REGISTRY["softmax"]
    arrays, loss, grads_fn = builder(verify._op_rng("softmax", 0))
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
        assert e.cases == 50
        assert e.max_abs_err <= ORACLE_TOL


@pytest.mark.parametrize("cases", [0, -3])
def test_an_empty_oracle_sweep_is_refused(cases):
    # a sweep of no case compares nothing, so it cannot pass
    with pytest.raises(ValueError, match="cases >= 1"):
        oracle_suite(cases=cases)


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
