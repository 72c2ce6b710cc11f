"""Finite-difference gradient checks and loop-oracle comparisons.

Every check builds f64 inputs from its own seeded generator, runs a fixed
random-projection loss, and compares hand-derived adjoints against central
differences coordinate by coordinate.  Large composite ops probe a seeded
subset of coordinates per array so the whole registry stays well under a
minute; primitives are probed exhaustively.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fusion, mgc, nn_ops, oracles
from .levels import LevelFeature
from .nn_ops import (
    ConvParams,
    bilinear_upsample,
    bilinear_upsample_bwd,
    bilinear_upsample_fwd,
    concat_channels_bwd,
    concat_channels_fwd,
    conv2d,
    conv2d_bwd,
    conv2d_fwd,
    max_pool2d,
    max_pool2d_bwd,
    max_pool2d_fwd,
    pixel_shuffle,
    pixel_shuffle_bwd,
    pixel_shuffle_fwd,
    pixel_unshuffle,
)
from .pyramid import (
    PyramidConfig,
    forward_a2fpn_bwd,
    forward_a2fpn_fwd,
    init_params,
    make_extra_level_bwd,
    make_extra_level_fwd,
    toy_backbone_bwd,
    toy_backbone_fwd,
)
from .tensor_core import (
    LAYERNORM_EPS,
    layer_norm,
    layer_norm_bwd,
    layer_norm_fwd,
    l2_normalize_bwd,
    l2_normalize_fwd,
    matmul,
    matmul_bwd,
    matmul_fwd,
    relu_bwd,
    relu_fwd,
    sigmoid_bwd,
    sigmoid_fwd,
    softmax_bwd,
    softmax_fwd,
    two_sigmoid_bwd,
    two_sigmoid_fwd,
)

DEFAULT_EPS = 1e-5
PRIMITIVE_TOL = 1e-6
COMPOSITE_TOL = 1e-4
ORACLE_TOL = 1e-12


@dataclass
class GradCheckReport:
    op: str
    shapes: str
    eps: float
    tol: float
    max_rel_err: float
    coords: int
    passed: bool
    seconds: float

    def to_dict(self):
        # plain builtins only; numpy scalars are not JSON-serializable
        return {
            "op": self.op,
            "shapes": self.shapes,
            "eps": float(self.eps),
            "tol": float(self.tol),
            "max_rel_err": float(self.max_rel_err),
            "coords": int(self.coords),
            "passed": bool(self.passed),
            "seconds": round(float(self.seconds), 4),
        }


@dataclass
class OracleEntry:
    op: str
    cases: int
    max_abs_err: float
    tol: float
    passed: bool
    seconds: float

    def to_dict(self):
        return {
            "op": self.op,
            "cases": int(self.cases),
            "max_abs_err": float(self.max_abs_err),
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "seconds": round(float(self.seconds), 4),
        }


def rel_err(a, n):
    """|a−n| scaled by the larger magnitude, floored to dodge 0/0."""
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def finite_diff_grad(f, x, eps=DEFAULT_EPS):
    """Central differences of a scalar function at every coordinate of x."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = np.zeros_like(x, dtype=np.float64)
    for idx in range(x.size):
        orig = x.flat[idx]
        x.flat[idx] = orig + eps
        fp = f(x)
        x.flat[idx] = orig - eps
        fm = f(x)
        x.flat[idx] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite value at coordinate {idx}")
        g.flat[idx] = (fp - fm) / (2.0 * eps)
    return g


def _op_rng(name, seed):
    return np.random.default_rng([seed] + list(name.encode("utf-8")))


def _shapes_of(arrays):
    return ", ".join(f"{k}{list(v.shape)}" for k, v in arrays.items())


def _probe(arrays, loss_fn, analytic, eps, rng, cap):
    """Max relative error between analytic grads and sampled central FD."""
    worst = 0.0
    checked = 0
    for key, arr in arrays.items():
        g = analytic[key]
        if g is None or np.isscalar(g):
            g = np.zeros_like(arr) + (0.0 if g is None else g)
        if cap and arr.size > cap:
            idxs = np.sort(rng.choice(arr.size, size=cap, replace=False))
        else:
            idxs = range(arr.size)
        for idx in idxs:
            orig = arr.flat[idx]
            arr.flat[idx] = orig + eps
            fp = loss_fn()
            arr.flat[idx] = orig - eps
            fm = loss_fn()
            arr.flat[idx] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                return float("inf"), checked
            worst = max(worst, rel_err(g.flat[idx], (fp - fm) / (2.0 * eps)))
            checked += 1
    return worst, checked


# ---------------------------------------------------------------------------
# builders: (arrays, loss_fn, grad_fn) triples over shared mutable arrays
# ---------------------------------------------------------------------------

def _signed(rng, shape, lo=0.2, hi=1.5):
    # magnitudes bounded away from 0 keep kinked ops (relu, max) FD-safe
    return rng.uniform(lo, hi, shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _build_matmul(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    r = rng.standard_normal((3, 5))
    arrays = {"a": a, "b": b}

    def loss():
        return float(np.sum(matmul(a, b) * r))

    def grads():
        _, cache = matmul_fwd(a, b)
        ga, gb = matmul_bwd(cache, r)
        return {"a": ga, "b": gb}

    return arrays, loss, grads


def _build_softmax(rng):
    t = rng.standard_normal((4, 7))
    r = rng.standard_normal((4, 7))

    def loss():
        y, _ = softmax_fwd(t, axis=1)
        return float(np.sum(y * r))

    def grads():
        _, cache = softmax_fwd(t, axis=1)
        return {"t": softmax_bwd(cache, r)}

    return {"t": t}, loss, grads


def _build_l2_normalize(rng):
    t = rng.standard_normal((5, 4)) + 0.1
    r = rng.standard_normal((5, 4))

    def loss():
        y, _ = l2_normalize_fwd(t, axis=0)
        return float(np.sum(y * r))

    def grads():
        _, cache = l2_normalize_fwd(t, axis=0)
        return {"t": l2_normalize_bwd(cache, r)}

    return {"t": t}, loss, grads


def _build_sigmoid(rng):
    t = rng.standard_normal((3, 5))
    r = rng.standard_normal((3, 5))

    def loss():
        y, _ = sigmoid_fwd(t)
        return float(np.sum(y * r))

    def grads():
        _, cache = sigmoid_fwd(t)
        return {"t": sigmoid_bwd(cache, r)}

    return {"t": t}, loss, grads


def _build_two_sigmoid(rng):
    t = rng.standard_normal((3, 5))
    r = rng.standard_normal((3, 5))

    def loss():
        y, _ = two_sigmoid_fwd(t)
        return float(np.sum(y * r))

    def grads():
        _, cache = two_sigmoid_fwd(t)
        return {"t": two_sigmoid_bwd(cache, r)}

    return {"t": t}, loss, grads


def _build_relu(rng):
    t = _signed(rng, (4, 6))
    r = rng.standard_normal((4, 6))

    def loss():
        y, _ = relu_fwd(t)
        return float(np.sum(y * r))

    def grads():
        _, cache = relu_fwd(t)
        return {"t": relu_bwd(cache, r)}

    return {"t": t}, loss, grads


def _build_layer_norm(rng):
    t = rng.standard_normal((3, 4, 6))
    gain = rng.standard_normal(6)
    shift = rng.standard_normal(6)
    r = rng.standard_normal((3, 4, 6))
    arrays = {"t": t, "gain": gain, "shift": shift}

    def loss():
        return float(np.sum(layer_norm(t, gain, shift) * r))

    def grads():
        _, cache = layer_norm_fwd(t, gain, shift)
        gt, ggain, gshift = layer_norm_bwd(cache, r)
        return {"t": gt, "gain": ggain, "shift": gshift}

    return arrays, loss, grads


def _conv_builder(x_shape, w_shape, stride, padding, fwd=conv2d_fwd, bwd=conv2d_bwd):
    def build(rng):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[0])
        p = ConvParams(w, b, stride=stride, padding=padding)
        r_holder = {}

        def loss():
            y, _ = fwd(p, x)
            if "r" not in r_holder:
                r_holder["r"] = np.random.default_rng(7).standard_normal(y.shape)
            return float(np.sum(y * r_holder["r"]))

        def grads():
            _, cache = fwd(p, x)
            loss()  # materialize the projection
            gx, gw, gb = bwd(cache, r_holder["r"])
            return {"x": gx, "w": gw, "b": gb}

        return {"x": x, "w": w, "b": b}, loss, grads

    return build


def _build_max_pool2d(rng):
    # a scaled permutation guarantees window entries differ by ≫ 2·eps
    x = rng.permutation(3 * 6 * 8).astype(np.float64).reshape(3, 6, 8) / 24.0
    r = rng.standard_normal((3, 3, 4))

    def loss():
        return float(np.sum(max_pool2d(x) * r))

    def grads():
        _, cache = max_pool2d_fwd(x)
        return {"x": max_pool2d_bwd(cache, r)}

    return {"x": x}, loss, grads


def _build_bilinear_upsample(rng):
    x = rng.standard_normal((3, 4, 5))
    r = rng.standard_normal((3, 8, 10))

    def loss():
        return float(np.sum(bilinear_upsample(x) * r))

    def grads():
        _, cache = bilinear_upsample_fwd(x)
        return {"x": bilinear_upsample_bwd(cache, r)}

    return {"x": x}, loss, grads


def _build_pixel_shuffle(rng):
    x = rng.standard_normal((8, 3, 4))
    r = rng.standard_normal((2, 6, 8))

    def loss():
        return float(np.sum(pixel_shuffle(x) * r))

    def grads():
        _, cache = pixel_shuffle_fwd(x)
        return {"x": pixel_shuffle_bwd(cache, r)}

    return {"x": x}, loss, grads


def _build_concat_channels(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((3, 3, 4))
    r = rng.standard_normal((5, 3, 4))

    def loss():
        y, _ = concat_channels_fwd(a, b)
        return float(np.sum(y * r))

    def grads():
        _, cache = concat_channels_fwd(a, b)
        ga, gb = concat_channels_bwd(cache, r)
        return {"a": ga, "b": gb}

    return {"a": a, "b": b}, loss, grads


def _build_compatibility(rng):
    q = rng.standard_normal((5, 4))
    k = rng.standard_normal((4, 6))
    r = rng.standard_normal((6, 5))

    def loss():
        y, _ = mgc.compatibility_fwd(q, k, 4)
        return float(np.sum(y * r))

    def grads():
        _, cache = mgc.compatibility_fwd(q, k, 4)
        gq, gk = mgc.compatibility_bwd(cache, r)
        return {"q": gq, "k": gk}

    return {"q": q, "k": k}, loss, grads


def _build_collect_context(rng):
    fdata = rng.standard_normal((4, 3, 3))
    psi = rng.standard_normal((2, 4))
    phi = rng.standard_normal((8, 4))
    r = rng.standard_normal((8, 2))
    arrays = {"fdata": fdata, "psi": psi, "phi": phi}

    def loss():
        y, _ = mgc.collect_context_fwd(fdata, psi, phi)
        return float(np.sum(y * r))

    def grads():
        _, cache = mgc.collect_context_fwd(fdata, psi, phi)
        gf, gpsi, gphi = mgc.collect_context_bwd(cache, r)
        return {"fdata": gf, "psi": gpsi, "phi": gphi}

    return arrays, loss, grads


def _build_orthogonal_reg(rng):
    psi2 = rng.standard_normal((3, 5))
    psi3 = rng.standard_normal((2, 6))
    params = mgc.MgcParams(
        levels={
            2: mgc.MgcLevelParams(theta=np.zeros((1, 5)), xi=np.zeros((1, 5)), psi=psi2,
                                  phi=np.zeros((1, 5))),
            3: mgc.MgcLevelParams(theta=np.zeros((1, 6)), xi=np.zeros((1, 6)), psi=psi3,
                                  phi=np.zeros((1, 6))),
        },
        lambda_o=0.25,
    )

    def loss():
        return float(mgc.orthogonal_reg_loss(params))

    def grads():
        g = mgc.orthogonal_reg_grads(params)
        return {"psi2": g[2], "psi3": g[3]}

    return {"psi2": psi2, "psi3": psi3}, loss, grads


def _gcn_triplet(rng, c):
    return mgc.GcnParams(
        rng.standard_normal((c // 4, c)),
        rng.standard_normal((c // 4, c)),
        rng.standard_normal((c, c)),
    )


def _build_gcn_layer(rng):
    g = rng.standard_normal((8, 5))
    t = _gcn_triplet(rng, 8)
    r = rng.standard_normal((8, 5))
    arrays = {"g": g, "w1": t.w1, "w2": t.w2, "w3": t.w3}

    def loss():
        y, _ = mgc.gcn_layer_fwd(g, t)
        return float(np.sum(y * r))

    def grads():
        _, cache = mgc.gcn_layer_fwd(g, t)
        gg, gw1, gw2, gw3 = mgc.gcn_layer_bwd(cache, r)
        return {"g": gg, "w1": gw1, "w2": gw2, "w3": gw3}

    return arrays, loss, grads


def _build_reason_multilevel(rng):
    b2 = rng.standard_normal((8, 3))
    b3 = rng.standard_normal((8, 2))
    t = _gcn_triplet(rng, 8)
    r = rng.standard_normal((8, 5))
    arrays = {"b2": b2, "b3": b3, "w1": t.w1, "w2": t.w2, "w3": t.w3}

    def loss():
        y, _ = mgc.reason_multilevel_fwd([b2, b3], t)
        return float(np.sum(y * r))

    def grads():
        _, cache = mgc.reason_multilevel_fwd([b2, b3], t)
        gbanks, gw1, gw2, gw3 = mgc.reason_multilevel_bwd(cache, r)
        return {"b2": gbanks[0], "b3": gbanks[1], "w1": gw1, "w2": gw2, "w3": gw3}

    return arrays, loss, grads


def _build_distribute_context(rng):
    fdata = rng.standard_normal((4, 3, 3))
    fused = rng.standard_normal((8, 5))
    theta = rng.standard_normal((8, 4))
    xi = rng.standard_normal((8, 4))
    w_o = rng.standard_normal((8, 8))
    r = rng.standard_normal((8, 3, 3))
    arrays = {"fdata": fdata, "fused": fused, "theta": theta, "xi": xi, "w_o": w_o}

    def loss():
        y, _ = mgc.distribute_context_fwd(fdata, fused, theta, xi, w_o)
        return float(np.sum(y * r))

    def grads():
        _, cache = mgc.distribute_context_fwd(fdata, fused, theta, xi, w_o)
        gf, gfu, gth, gxi, gwo = mgc.distribute_context_bwd(cache, r)
        return {"fdata": gf, "fused": gfu, "theta": gth, "xi": gxi, "w_o": gwo}

    return arrays, loss, grads


def _build_mgc_forward(rng, lead=()):
    # the graph layers' w1/w2 are damped so their adjacency softmax stays in
    # its smooth regime: undamped, some draws saturate it, the true w1/w2
    # gradients fall to ~1e-9, and finite differences then measure only
    # roundoff of the ~1e2 loss
    c = 8
    f2 = rng.standard_normal(lead + (4, 4, 4))
    f3 = rng.standard_normal(lead + (6, 2, 2))
    arrays = {
        "f2": f2,
        "f3": f3,
        "mgc.l2.psi.weight": rng.standard_normal((2, 4)),
        "mgc.l2.phi.weight": rng.standard_normal((c, 4)),
        "mgc.l2.theta.weight": rng.standard_normal((c, 4)),
        "mgc.l2.xi.weight": rng.standard_normal((c, 4)),
        "mgc.l2.gcn.w1.weight": 0.3 * rng.standard_normal((c // 4, c)),
        "mgc.l2.gcn.w2.weight": 0.3 * rng.standard_normal((c // 4, c)),
        "mgc.l2.gcn.w3.weight": rng.standard_normal((c, c)),
        "mgc.l3.theta.weight": rng.standard_normal((c, 6)),
        "mgc.l3.xi.weight": rng.standard_normal((c, 6)),
        "mgc.shared_gcn.w1.weight": 0.3 * rng.standard_normal((c // 4, c)),
        "mgc.shared_gcn.w2.weight": 0.3 * rng.standard_normal((c // 4, c)),
        "mgc.shared_gcn.w3.weight": rng.standard_normal((c, c)),
        "mgc.out.weight": rng.standard_normal((c, c)),
    }
    params = mgc.MgcParams(
        levels={
            2: mgc.MgcLevelParams(
                theta=arrays["mgc.l2.theta.weight"],
                xi=arrays["mgc.l2.xi.weight"],
                psi=arrays["mgc.l2.psi.weight"],
                phi=arrays["mgc.l2.phi.weight"],
                gcn=mgc.GcnParams(
                    arrays["mgc.l2.gcn.w1.weight"],
                    arrays["mgc.l2.gcn.w2.weight"],
                    arrays["mgc.l2.gcn.w3.weight"],
                ),
            ),
            3: mgc.MgcLevelParams(
                theta=arrays["mgc.l3.theta.weight"], xi=arrays["mgc.l3.xi.weight"]
            ),
        },
        shared_gcn=mgc.GcnParams(
            arrays["mgc.shared_gcn.w1.weight"],
            arrays["mgc.shared_gcn.w2.weight"],
            arrays["mgc.shared_gcn.w3.weight"],
        ),
        out_weight=arrays["mgc.out.weight"],
    )
    r2 = rng.standard_normal(lead + (c, 4, 4))
    r3 = rng.standard_normal(lead + (c, 2, 2))

    def fwd():
        levels = [LevelFeature(2, 4, f2), LevelFeature(3, 8, f3)]
        return mgc.mgc_forward_fwd(levels, params)

    def loss():
        outs, _ = fwd()
        return float(np.sum(outs[0].data * r2) + np.sum(outs[1].data * r3))

    def grads():
        _, cache = fwd()
        glevels, pg = mgc.mgc_forward_bwd(cache, [r2, r3])
        return {"f2": glevels[2], "f3": glevels[3], **pg}

    return arrays, loss, grads


def _tiny_fusion_params(rng, kind, guided=True):
    # draws are damped so the tap softmax and the sigmoid gates stay in
    # their smooth regime; saturated units have ~zero true gradient and
    # finite differences then measure only roundoff.  c=8 keeps the gate
    # bottleneck at 4 channels: layer norm over 2 would pin the normalized
    # vector at +-1 and zero out every upstream gradient.
    c, c_m, k = 8, 3, 3
    src = 2 * c if guided else c
    logits = 4 * k * k if kind == "up" else k * k
    arrays = {
        "kpred.compressor.weight": 0.3 * rng.standard_normal((c_m, src, 1, 1)),
        "kpred.compressor.bias": 0.3 * rng.standard_normal(c_m),
        "kpred.encoder.weight": 0.3 * rng.standard_normal((c_m, c_m, 3, 3)),
        "kpred.encoder.bias": 0.3 * rng.standard_normal(c_m),
        "kpred.predictor.weight": 0.3 * rng.standard_normal((logits, c_m, 1, 1)),
        "kpred.predictor.bias": 0.3 * rng.standard_normal(logits),
        "gate.w1.weight": 0.3 * rng.standard_normal((1, src)),
        "gate.w2.weight": 0.3 * rng.standard_normal((c // 2, src)),
        "gate.w3.weight": 0.3 * rng.standard_normal((2 * c, c // 2)),
        "gate.ln.gain": 0.3 * rng.standard_normal(c // 2),
        "gate.ln.shift": 0.3 * rng.standard_normal(c // 2),
        "smooth.weight": 0.3 * rng.standard_normal((c, c, 3, 3)),
        "smooth.bias": 0.3 * rng.standard_normal(c),
    }
    p = fusion.FusionParams(
        compressor=ConvParams(arrays["kpred.compressor.weight"], arrays["kpred.compressor.bias"]),
        encoder=ConvParams(arrays["kpred.encoder.weight"], arrays["kpred.encoder.bias"], padding=1),
        predictor=ConvParams(
            arrays["kpred.predictor.weight"],
            arrays["kpred.predictor.bias"],
            stride=1 if kind == "up" else 2,
        ),
        gate_w1=arrays["gate.w1.weight"],
        gate_w2=arrays["gate.w2.weight"],
        gate_w3=arrays["gate.w3.weight"],
        ln_gain=arrays["gate.ln.gain"],
        ln_shift=arrays["gate.ln.shift"],
        smooth=ConvParams(arrays["smooth.weight"], arrays["smooth.bias"], padding=1),
        k=k,
        s=2,
    )
    return p, arrays


def _build_predict_up_kernels(rng):
    p, p_arrays = _tiny_fusion_params(rng, "up")
    coarse = rng.standard_normal((8, 2, 3))
    pooled = rng.standard_normal((8, 2, 3))
    r = rng.standard_normal((9, 4, 6))
    arrays = {"coarse": coarse, "pooled": pooled}
    arrays.update({k: v for k, v in p_arrays.items() if k.startswith("kpred.")})

    def loss():
        y, _ = fusion.predict_up_kernels_fwd(coarse, pooled, p)
        return float(np.sum(y * r))

    def grads():
        _, cache = fusion.predict_up_kernels_fwd(coarse, pooled, p)
        gc, gf, pg = fusion.predict_up_kernels_bwd(cache, r)
        return {"coarse": gc, "pooled": gf, **pg}

    return arrays, loss, grads


def _build_predict_down_kernels(rng):
    p, p_arrays = _tiny_fusion_params(rng, "down")
    fine = rng.standard_normal((8, 4, 6))
    ups = rng.standard_normal((8, 4, 6))
    r = rng.standard_normal((9, 2, 3))
    arrays = {"fine": fine, "ups": ups}
    arrays.update({k: v for k, v in p_arrays.items() if k.startswith("kpred.")})

    def loss():
        y, _ = fusion.predict_down_kernels_fwd(fine, ups, p)
        return float(np.sum(y * r))

    def grads():
        _, cache = fusion.predict_down_kernels_fwd(fine, ups, p)
        gf, gu, pg = fusion.predict_down_kernels_bwd(cache, r)
        return {"fine": gf, "ups": gu, **pg}

    return arrays, loss, grads


def _build_reassemble_up(rng, lead=()):
    coarse = rng.standard_normal(lead + (3, 2, 3))
    kern = rng.standard_normal(lead + (9, 4, 6))
    r = rng.standard_normal(lead + (3, 4, 6))

    def loss():
        y, _ = fusion.reassemble_up_fwd(coarse, kern, 2)
        return float(np.sum(y * r))

    def grads():
        _, cache = fusion.reassemble_up_fwd(coarse, kern, 2)
        gc, gk = fusion.reassemble_up_bwd(cache, r)
        return {"coarse": gc, "kern": gk}

    return {"coarse": coarse, "kern": kern}, loss, grads


def _build_reassemble_down(rng, lead=()):
    fine = rng.standard_normal(lead + (3, 4, 6))
    kern = rng.standard_normal(lead + (9, 2, 3))
    r = rng.standard_normal(lead + (3, 2, 3))

    def loss():
        y, _ = fusion.reassemble_down_fwd(fine, kern, 2)
        return float(np.sum(y * r))

    def grads():
        _, cache = fusion.reassemble_down_fwd(fine, kern, 2)
        gf, gk = fusion.reassemble_down_bwd(cache, r)
        return {"fine": gf, "kern": gk}

    return {"fine": fine, "kern": kern}, loss, grads


def _build_channel_gates(rng, lead=()):
    p, p_arrays = _tiny_fusion_params(rng, "up")
    a = rng.standard_normal(lead + (8, 2, 3))
    b = rng.standard_normal(lead + (8, 2, 3))
    rh = rng.standard_normal(lead + (8,))
    rl = rng.standard_normal(lead + (8,))
    arrays = {"a": a, "b": b}
    arrays.update({k: v for k, v in p_arrays.items() if k.startswith("gate.")})

    def loss():
        g, _ = fusion.channel_gates_fwd(a, b, p)
        return float(np.sum(g.high_gate * rh) + np.sum(g.low_gate * rl))

    def grads():
        _, cache = fusion.channel_gates_fwd(a, b, p)
        ga, gb, pg = fusion.channel_gates_bwd(cache, rh, rl)
        return {"a": ga, "b": gb, **pg}

    return arrays, loss, grads


def _fuse_builder(direction, guided):
    def build(rng):
        kind = "up" if direction == "td" else "down"
        p, p_arrays = _tiny_fusion_params(rng, kind, guided=guided)
        coarse = LevelFeature(3, 8, rng.standard_normal((8, 2, 3)))
        fine = LevelFeature(2, 4, rng.standard_normal((8, 4, 6)))
        arrays = {"coarse": coarse.data, "fine": fine.data}
        arrays.update(p_arrays)
        if not guided:  # gates off too: the plain-reassembly baselines
            for key in list(arrays):
                if key.startswith("gate."):
                    del arrays[key]
        out_shape = (8, 4, 6) if direction == "td" else (8, 2, 3)
        r = rng.standard_normal(out_shape)

        def fwd():
            if direction == "td":
                return fusion.fuse_topdown_fwd(coarse, fine, p, guided=guided, gated=guided)
            return fusion.fuse_bottomup_fwd(fine, coarse, p, guided=guided, gated=guided)

        def loss():
            out, _ = fwd()
            return float(np.sum(out.data * r))

        def grads():
            _, cache = fwd()
            if direction == "td":
                gup, glat, pg = fusion.fuse_topdown_bwd(cache, r)
                return {"coarse": gup, "fine": glat, **pg}
            glow, gtd, pg = fusion.fuse_bottomup_bwd(cache, r)
            return {"coarse": gtd, "fine": glow, **pg}

        return arrays, loss, grads

    return build


def _build_toy_backbone(rng):
    widths = (2, 3, 4, 5)
    names = ("backbone.stem1", "backbone.stem2", "backbone.stage3",
             "backbone.stage4", "backbone.stage5")
    chain = (3, widths[0], widths[0], widths[1], widths[2], widths[3])
    store = {}
    for i, name in enumerate(names):
        store[f"{name}.weight"] = rng.standard_normal((chain[i + 1], chain[i], 3, 3)) * 0.5
        store[f"{name}.bias"] = rng.standard_normal(chain[i + 1]) * 0.1
    image = rng.standard_normal((3, 64, 64))
    rs = {lvl: rng.standard_normal((widths[lvl - 2], 64 // 2 ** lvl, 64 // 2 ** lvl))
          for lvl in (2, 3, 4, 5)}
    arrays = {"image": image, **store}

    def loss():
        levels, _ = toy_backbone_fwd(image, store)
        return float(sum(np.sum(f.data * rs[f.level]) for f in levels))

    def grads():
        _, caches = toy_backbone_fwd(image, store)
        gimage, pg = toy_backbone_bwd(caches, rs)
        return {"image": gimage, **pg}

    return arrays, loss, grads


def _build_make_extra_level(rng):
    f5 = LevelFeature(5, 32, rng.standard_normal((5, 2, 2)))
    store = {
        "extra.f6.weight": rng.standard_normal((6, 5, 3, 3)),
        "extra.f6.bias": rng.standard_normal(6),
    }
    r = rng.standard_normal((6, 1, 1))
    arrays = {"f5": f5.data, **store}

    def loss():
        out, _ = make_extra_level_fwd(f5, store)
        return float(np.sum(out.data * r))

    def grads():
        _, cache = make_extra_level_fwd(f5, store)
        gf5, pg = make_extra_level_bwd(cache, r)
        return {"f5": gf5, **pg}

    return arrays, loss, grads


def tiny_config(arch="a2fpn"):
    """The c=8 configuration the whole-network gradient check runs on."""
    return PyramidConfig(
        arch=arch, c=8, a=1, c_m=4, k_up=3, k_dn=3, k_en=1,
        dtype="f64", backbone=(4, 4, 8, 8), image_size=(64, 64),
    )


def _net_builder(arch, lead=()):
    def build(rng):
        cfg = tiny_config(arch)
        store = init_params(cfg)
        # re-randomize so the check is not anchored to the init's statistics
        for key, v in store.items():
            if key.endswith("psi.weight"):
                continue  # keep orthonormal rows; any values would do
            store[key] = v + rng.standard_normal(v.shape) * 0.05
        feats = {
            2: rng.standard_normal(lead + (4, 16, 16)),
            3: rng.standard_normal(lead + (4, 8, 8)),
            4: rng.standard_normal(lead + (8, 4, 4)),
            5: rng.standard_normal(lead + (8, 2, 2)),
        }
        arrays = {f"f{lvl}": feats[lvl] for lvl in feats}
        arrays.update(store)

        def fwd():
            levels = [LevelFeature(lvl, 2 ** lvl, feats[lvl]) for lvl in (2, 3, 4, 5)]
            return forward_a2fpn_fwd(levels, store, cfg)

        outs0, _ = fwd()
        rs = [rng.standard_normal(o.data.shape) for o in outs0]

        def loss():
            outs, _ = fwd()
            return float(sum(np.sum(o.data * r) for o, r in zip(outs, rs)))

        def grads():
            _, cache = fwd()
            glevels, pg = forward_a2fpn_bwd(cache, rs)
            return {**{f"f{lvl}": g for lvl, g in glevels.items()}, **pg}

        return arrays, loss, grads

    return build


# name -> (builder, tolerance, per-array coordinate cap; 0 = exhaustive).
# Entries ending in _n2 run the same op on a batch of two images, whose
# shared parameters take the sum of the two images' gradients.
REGISTRY = {
    "matmul": (_build_matmul, PRIMITIVE_TOL, 0),
    "softmax": (_build_softmax, PRIMITIVE_TOL, 0),
    "l2_normalize": (_build_l2_normalize, PRIMITIVE_TOL, 0),
    "sigmoid": (_build_sigmoid, PRIMITIVE_TOL, 0),
    "two_sigmoid": (_build_two_sigmoid, PRIMITIVE_TOL, 0),
    "relu": (_build_relu, PRIMITIVE_TOL, 0),
    "layer_norm": (_build_layer_norm, PRIMITIVE_TOL, 0),
    "conv2d": (_conv_builder((2, 5, 5), (3, 2, 3, 3), 1, 1), PRIMITIVE_TOL, 0),
    "conv2d_stride2": (_conv_builder((2, 7, 7), (3, 2, 3, 3), 2, 1), PRIMITIVE_TOL, 0),
    "conv2d_1x1": (_conv_builder((3, 4, 5), (2, 3, 1, 1), 1, 0), PRIMITIVE_TOL, 0),
    # the Winograd path, called directly: real shapes that select it are far too big here
    "conv2d_winograd": (_conv_builder((2, 5, 7), (3, 2, 3, 3), 1, 1, nn_ops._winograd_fwd,
                                      nn_ops._winograd_bwd), PRIMITIVE_TOL, 0),
    "conv2d_n2": (_conv_builder((2, 2, 5, 5), (3, 2, 3, 3), 1, 1), PRIMITIVE_TOL, 0),
    "conv2d_stride2_n2": (_conv_builder((2, 2, 7, 7), (3, 2, 3, 3), 2, 1), PRIMITIVE_TOL, 0),
    "conv2d_winograd_n2": (_conv_builder((2, 2, 5, 7), (3, 2, 3, 3), 1, 1, nn_ops._winograd_fwd,
                                         nn_ops._winograd_bwd), PRIMITIVE_TOL, 0),
    "max_pool2d": (_build_max_pool2d, PRIMITIVE_TOL, 0),
    "bilinear_upsample": (_build_bilinear_upsample, PRIMITIVE_TOL, 0),
    "pixel_shuffle": (_build_pixel_shuffle, PRIMITIVE_TOL, 0),
    "concat_channels": (_build_concat_channels, PRIMITIVE_TOL, 0),
    "compatibility": (_build_compatibility, COMPOSITE_TOL, 0),
    "collect_context": (_build_collect_context, COMPOSITE_TOL, 0),
    "orthogonal_reg": (_build_orthogonal_reg, COMPOSITE_TOL, 0),
    "gcn_layer": (_build_gcn_layer, COMPOSITE_TOL, 0),
    "reason_multilevel": (_build_reason_multilevel, COMPOSITE_TOL, 0),
    "distribute_context": (_build_distribute_context, COMPOSITE_TOL, 0),
    "mgc_forward": (_build_mgc_forward, COMPOSITE_TOL, 16),
    "mgc_forward_n2": (partial(_build_mgc_forward, lead=(2,)), COMPOSITE_TOL, 16),
    "predict_up_kernels": (_build_predict_up_kernels, COMPOSITE_TOL, 32),
    "predict_down_kernels": (_build_predict_down_kernels, COMPOSITE_TOL, 32),
    "reassemble_up": (_build_reassemble_up, COMPOSITE_TOL, 0),
    "reassemble_down": (_build_reassemble_down, COMPOSITE_TOL, 0),
    "channel_gates": (_build_channel_gates, COMPOSITE_TOL, 0),
    "reassemble_up_n2": (partial(_build_reassemble_up, lead=(2,)), COMPOSITE_TOL, 0),
    "reassemble_down_n2": (partial(_build_reassemble_down, lead=(2,)), COMPOSITE_TOL, 0),
    "channel_gates_n2": (partial(_build_channel_gates, lead=(2,)), COMPOSITE_TOL, 0),
    "fuse_topdown": (_fuse_builder("td", True), COMPOSITE_TOL, 24),
    "fuse_bottomup": (_fuse_builder("bu", True), COMPOSITE_TOL, 24),
    "carafe_baseline": (_fuse_builder("td", False), COMPOSITE_TOL, 24),
    "cap_baseline": (_fuse_builder("bu", False), COMPOSITE_TOL, 24),
    "toy_backbone": (_build_toy_backbone, COMPOSITE_TOL, 32),
    "make_extra_level": (_build_make_extra_level, COMPOSITE_TOL, 0),
    "a2fpn_full": (_net_builder("a2fpn"), COMPOSITE_TOL, 3),
    "a2fpn_lite": (_net_builder("a2fpn_lite"), COMPOSITE_TOL, 3),
    "a2fpn_full_n2": (_net_builder("a2fpn", lead=(2,)), COMPOSITE_TOL, 3),
}


def check_gradients(op, seed=0, eps=DEFAULT_EPS, tol=None):
    """Run one registered check; see REGISTRY for the op list."""
    if op not in REGISTRY:
        raise KeyError(f"unregistered op {op!r}; have {sorted(REGISTRY)}")
    builder, default_tol, cap = REGISTRY[op]
    tol = default_tol if tol is None else tol
    t0 = time.perf_counter()
    arrays, loss_fn, grad_fn = builder(_op_rng(op, seed))
    analytic = grad_fn()
    worst, checked = _probe(arrays, loss_fn, analytic, eps, _op_rng("coords:" + op, seed), cap)
    dt = time.perf_counter() - t0
    return GradCheckReport(
        op=op, shapes=_shapes_of(arrays), eps=eps, tol=tol,
        max_rel_err=worst, coords=checked, passed=worst < tol, seconds=dt,
    )


def run_all_checks(seed=0, eps=DEFAULT_EPS, tol=None):
    reports = [check_gradients(op, seed=seed, eps=eps, tol=tol) for op in REGISTRY]
    return reports, all(r.passed for r in reports)


def save_gradcheck_report(path, reports):
    doc = {"checks": [r.to_dict() for r in reports], "passed": all(r.passed for r in reports)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc


# ---------------------------------------------------------------------------
# oracle comparisons
# ---------------------------------------------------------------------------

def _sweep(op, cases, fn, t0):
    worst = 0.0
    for _ in range(cases):
        worst = max(worst, fn())
    return OracleEntry(op, cases, worst, ORACLE_TOL, worst <= ORACLE_TOL,
                       time.perf_counter() - t0)


def _max_diff(got, want):
    """Largest absolute difference over paired arrays; a pair of Nones counts 0."""
    return max(0.0 if a is None and b is None else float(np.max(np.abs(a - b)))
               for a, b in zip(got, want))


def _lead(rng):
    """Leading axes of one sweep case: a single image, or a batch of n ∈ {1, 3}."""
    return ((), (1,), (3,))[int(rng.integers(3))]


def _per_image(lead, oracle, *arrays, summed=()):
    """The oracle run image by image over the arrays' leading batch axis.

    For a single image (lead == ()) this is oracle(*arrays).  For a batch,
    each result is the images' results stacked; of a tuple of results, the
    ones at the indices in ``summed`` (parameter gradients) are summed over
    the images instead.
    """
    if not lead:
        return oracle(*arrays)
    per = [oracle(*args) for args in zip(*arrays)]
    if not isinstance(per[0], tuple):
        return np.stack(per)
    return tuple(None if col[0] is None else sum(col) if i in summed else np.stack(col)
                 for i, col in enumerate(zip(*per)))


def oracle_suite(seed=0, cases=50):
    """Production kernels vs straight-line loop references, random shapes.

    Each case runs on a single image or on a batch of n ∈ {1, 3}; a batched
    result must equal the per-image oracles stacked, and a batched parameter
    gradient their sum.
    """
    rng = np.random.default_rng([seed, 0x0A])
    entries = []

    def conv_draw():
        lead = _lead(rng)
        cin, cout = rng.integers(1, 4, 2)
        k = int(rng.choice([1, 2, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1]))
        h, w = rng.integers(3, 8, 2)
        x = rng.standard_normal(lead + (cin, h, w))
        wgt = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout) if rng.random() < 0.5 else None
        return lead, x, wgt, b, stride, pad

    def conv_case():
        lead, x, wgt, b, stride, pad = conv_draw()
        y = conv2d(ConvParams(wgt, b, stride=stride, padding=pad), x)
        want = _per_image(lead, lambda xi: oracles.conv2d_oracle(wgt, b, xi, stride, pad), x)
        return float(np.max(np.abs(y - want)))

    entries.append(_sweep("conv2d", cases, conv_case, time.perf_counter()))

    def conv_bwd_case():
        lead, x, wgt, b, stride, pad = conv_draw()
        y, cache = conv2d_fwd(ConvParams(wgt, b, stride=stride, padding=pad), x)
        gy = rng.standard_normal(y.shape)
        want = _per_image(lead, lambda xi, gi: oracles.conv2d_bwd_oracle(wgt, b, xi, gi, stride, pad),
                          x, gy, summed=(1, 2))
        return _max_diff(conv2d_bwd(cache, gy), want)

    entries.append(_sweep("conv2d_bwd", cases, conv_bwd_case, time.perf_counter()))

    # The Winograd path is called directly, since conv2d_fwd selects it only
    # far above oracle-sized shapes.  Extents run from 1 and need not match,
    # so odd and single-tile outputs both occur.
    def winograd_case():
        lead = _lead(rng)
        cin, cout = rng.integers(1, 4, 2)
        pad = int(rng.choice([0, 1, 2]))
        h, w = rng.integers(max(1, 3 - 2 * pad), 8, 2)
        x = rng.standard_normal(lead + (cin, h, w))
        wgt = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout) if rng.random() < 0.5 else None
        p = ConvParams(wgt, b, padding=pad)
        return lead, p, x, nn_ops._winograd_fwd(p, x)

    def winograd_fwd_case():
        lead, p, x, (y, _) = winograd_case()
        want = _per_image(lead, lambda xi: oracles.conv2d_oracle(p.weight, p.bias, xi, 1, p.padding), x)
        return float(np.max(np.abs(y - want)))

    entries.append(_sweep("conv2d_winograd", cases, winograd_fwd_case, time.perf_counter()))

    def winograd_bwd_case():
        lead, p, x, (y, cache) = winograd_case()
        gy = rng.standard_normal(y.shape)
        want = _per_image(lead, lambda xi, gi: oracles.conv2d_bwd_oracle(p.weight, p.bias, xi, gi, 1,
                                                                          p.padding),
                          x, gy, summed=(1, 2))
        return _max_diff(nn_ops._winograd_bwd(cache, gy), want)

    entries.append(_sweep("conv2d_winograd_bwd", cases, winograd_bwd_case, time.perf_counter()))

    def pool_attn_case():
        lead = _lead(rng)
        c, n, m = rng.integers(2, 6, 3)
        values = rng.standard_normal(lead + (c, n))
        attn = rng.standard_normal(lead + (n, m))
        want = _per_image(lead, oracles.attention_pool_oracle, values, attn)
        return float(np.max(np.abs(matmul(values, attn) - want)))

    entries.append(_sweep("attention_pool", cases, pool_attn_case, time.perf_counter()))

    def compat_case():
        lead = _lead(rng)
        nq, d, nk = rng.integers(2, 6, 3)
        q = rng.standard_normal(lead + (nq, d))
        k = rng.standard_normal(lead + (d, nk))
        y = mgc.compatibility(q, k, d)
        want = _per_image(lead, lambda qi, ki: oracles.compatibility_oracle(qi, ki, d), q, k)
        return float(np.max(np.abs(y - want)))

    entries.append(_sweep("compatibility", cases, compat_case, time.perf_counter()))

    def re_up_case():
        lead = _lead(rng)
        c = int(rng.integers(1, 4))
        h, w = rng.integers(2, 5, 2)
        k = int(rng.choice([1, 3, 5]))
        coarse = rng.standard_normal(lead + (c, h, w))
        kern = rng.standard_normal(lead + (k * k, 2 * h, 2 * w))
        y, _ = fusion.reassemble_up_fwd(coarse, kern, 2)
        want = _per_image(lead, lambda ci, ki: oracles.reassemble_up_oracle(ci, ki, 2, k), coarse, kern)
        return float(np.max(np.abs(y - want)))

    entries.append(_sweep("reassemble_up", cases, re_up_case, time.perf_counter()))

    def re_down_case():
        lead = _lead(rng)
        c = int(rng.integers(1, 4))
        h, w = rng.integers(2, 5, 2)
        k = int(rng.choice([1, 3, 5]))
        fine = rng.standard_normal(lead + (c, 2 * h, 2 * w))
        kern = rng.standard_normal(lead + (k * k, h, w))
        y = fusion.reassemble_down(fine, kern, 2)
        want = _per_image(lead, lambda fi, ki: oracles.reassemble_down_oracle(fi, ki, 2, k), fine, kern)
        return float(np.max(np.abs(y - want)))

    entries.append(_sweep("reassemble_down", cases, re_down_case, time.perf_counter()))

    def re_up_bwd_case():
        lead = _lead(rng)
        c = int(rng.integers(1, 4))
        h, w = rng.integers(1, 5, 2)
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.choice([2, 3]))
        coarse = rng.standard_normal(lead + (c, h, w))
        kern = rng.standard_normal(lead + (k * k, s * h, s * w))
        gout = rng.standard_normal(lead + (c, s * h, s * w))
        _, cache = fusion.reassemble_up_fwd(coarse, kern, s)
        got = fusion.reassemble_up_bwd(cache, gout)
        want = _per_image(lead, lambda ci, ki, gi: oracles.reassemble_up_bwd_oracle(ci, ki, gi, s, k),
                          coarse, kern, gout)
        return _max_diff(got, want)

    entries.append(_sweep("reassemble_up_bwd", cases, re_up_bwd_case, time.perf_counter()))

    def re_down_bwd_case():
        lead = _lead(rng)
        c = int(rng.integers(1, 4))
        h, w = rng.integers(1, 5, 2)
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.choice([2, 3]))
        fine = rng.standard_normal(lead + (c, s * h, s * w))
        kern = rng.standard_normal(lead + (k * k, h, w))
        gout = rng.standard_normal(lead + (c, h, w))
        _, cache = fusion.reassemble_down_fwd(fine, kern, s)
        got = fusion.reassemble_down_bwd(cache, gout)
        want = _per_image(lead, lambda fi, ki, gi: oracles.reassemble_down_bwd_oracle(fi, ki, gi, s, k),
                          fine, kern, gout)
        return _max_diff(got, want)

    entries.append(_sweep("reassemble_down_bwd", cases, re_down_bwd_case, time.perf_counter()))

    def shuffle_case():
        lead = _lead(rng)
        q = int(rng.integers(1, 4))
        h, w = rng.integers(1, 5, 2)
        x = rng.standard_normal(lead + (4 * q, h, w))
        want = _per_image(lead, lambda xi: oracles.pixel_shuffle_oracle(xi, 2), x)
        return float(np.max(np.abs(pixel_shuffle(x) - want)))

    entries.append(_sweep("pixel_shuffle", cases, shuffle_case, time.perf_counter()))

    def roundtrip_case():
        lead = _lead(rng)
        q = int(rng.integers(1, 4))
        h, w = rng.integers(1, 5, 2)
        x = rng.standard_normal(lead + (4 * q, h, w))
        return float(np.max(np.abs(pixel_unshuffle(pixel_shuffle(x)) - x)))

    entries.append(_sweep("pixel_shuffle_roundtrip", 20, roundtrip_case, time.perf_counter()))

    def bilinear_case():
        lead = _lead(rng)
        c = int(rng.integers(1, 4))
        h, w = rng.integers(1, 7, 2)
        x = rng.standard_normal(lead + (c, h, w))
        want = _per_image(lead, lambda xi: oracles.bilinear_upsample_oracle(xi, 2), x)
        return float(np.max(np.abs(bilinear_upsample(x) - want)))

    entries.append(_sweep("bilinear_upsample", cases, bilinear_case, time.perf_counter()))

    def bilinear_bwd_case():
        lead = _lead(rng)
        c = int(rng.integers(1, 4))
        h, w = rng.integers(1, 7, 2)
        x = rng.standard_normal(lead + (c, h, w))
        y, cache = bilinear_upsample_fwd(x)
        gy = rng.standard_normal(y.shape)
        want = _per_image(lead, lambda gi: oracles.bilinear_upsample_bwd_oracle((c, h, w), gi, 2), gy)
        return float(np.max(np.abs(bilinear_upsample_bwd(cache, gy) - want)))

    entries.append(_sweep("bilinear_upsample_bwd", cases, bilinear_bwd_case, time.perf_counter()))

    def pool_case():
        lead = _lead(rng)
        c = int(rng.integers(1, 4))
        h, w = 2 * rng.integers(1, 5, 2)
        x = rng.standard_normal(lead + (c, h, w))
        return float(np.max(np.abs(max_pool2d(x) - _per_image(lead, oracles.max_pool2d_oracle, x))))

    entries.append(_sweep("max_pool2d", cases, pool_case, time.perf_counter()))

    def matmul_case():
        lead = _lead(rng)
        m, k, n = rng.integers(1, 6, 3)
        a = rng.standard_normal(lead + (m, k))
        b = rng.standard_normal(lead + (k, n))
        return float(np.max(np.abs(matmul(a, b) - _per_image(lead, oracles.matmul_oracle, a, b))))

    entries.append(_sweep("matmul", cases, matmul_case, time.perf_counter()))

    def softmax_case():
        lead = _lead(rng)
        n = int(rng.integers(2, 8))
        v = rng.standard_normal(lead + (n,))
        y, _ = softmax_fwd(v, axis=-1)
        return float(np.max(np.abs(y - _per_image(lead, oracles.softmax_oracle, v))))

    entries.append(_sweep("softmax", cases, softmax_case, time.perf_counter()))

    def ln_case():
        lead = _lead(rng)
        n = int(rng.integers(2, 8))
        v = rng.standard_normal(lead + (n,))
        gain = rng.standard_normal(n)
        shift = rng.standard_normal(n)
        y = layer_norm(v, gain, shift)
        want = _per_image(lead, lambda vi: oracles.layer_norm_oracle(vi, gain, shift, LAYERNORM_EPS), v)
        return float(np.max(np.abs(y - want)))

    entries.append(_sweep("layer_norm", cases, ln_case, time.perf_counter()))

    return entries, all(e.passed for e in entries)


def save_oracle_report(path, entries):
    doc = {"oracles": [e.to_dict() for e in entries], "passed": all(e.passed for e in entries)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc
