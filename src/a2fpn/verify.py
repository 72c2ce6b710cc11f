"""Finite-difference gradient checks and loop-oracle comparisons.

Every check builds f64 inputs from its own seeded generator, runs a fixed
random-projection loss, and compares hand-derived adjoints against central
differences coordinate by coordinate.  Large composite ops probe a seeded
subset of coordinates per array so the whole registry stays well under a
minute; primitives are probed exhaustively.  The arrays listed in
DIRECTIONAL are probed as a whole, along one random unit direction.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fusion, mgc, nn_ops, oracles
from .levels import LevelFeature
from .nn_ops import (
    ConvParams,
    bilinear_upsample_bwd,
    bilinear_upsample_fwd,
    conv2d_bwd,
    conv2d_fwd,
    max_pool2d_bwd,
    max_pool2d_fwd,
)
from .pyramid import (
    BackboneSpec,
    PyramidConfig,
    backbone_shapes,
    extra_level_shapes,
    forward_a2fpn_bwd,
    forward_a2fpn_fwd,
    init_params,
    make_extra_level_fwd,
    toy_backbone_fwd,
)
from .tape import Tape
from .tensor_core import (
    LAYERNORM_EPS,
    layer_norm_bwd,
    layer_norm_fwd,
    l2_normalize_bwd,
    l2_normalize_fwd,
    relu_bwd,
    relu_fwd,
    sigmoid_bwd,
    sigmoid_fwd,
    softmax_bwd,
    softmax_fwd,
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


def _op_rng(name, seed):
    return np.random.default_rng([seed] + list(name.encode("utf-8")))


def _shapes_of(arrays):
    return ", ".join(f"{k}{list(v.shape)}" for k, v in arrays.items())


def _central(loss_fn, arr, where, step, eps):
    """Central difference of loss_fn as arr[where] moves along step:
    (f(x + eps·step) − f(x − eps·step)) / 2eps, or None when either side is
    not finite.  arr[where] is restored afterwards."""
    orig = arr[where].copy()
    arr[where] = orig + eps * step
    fp = loss_fn()
    arr[where] = orig - eps * step
    fm = loss_fn()
    arr[where] = orig
    if not (np.isfinite(fp) and np.isfinite(fm)):
        return None
    return (fp - fm) / (2.0 * eps)


def _probe(arrays, loss_fn, analytic, eps, rng, cap, directional=()):
    """Max relative error between analytic grads and sampled central FD.

    Arrays named in ``directional`` are probed once each, as a whole: the
    central difference along a random unit vector v against ⟨g, v⟩.
    """
    worst = 0.0
    checked = 0
    for key, arr in arrays.items():
        g = analytic[key]
        if g is None or np.isscalar(g):
            g = np.zeros_like(arr) + (0.0 if g is None else g)
        if key in directional:
            v = rng.standard_normal(arr.shape)
            v /= np.linalg.norm(v)
            probes = [(..., v, float(np.sum(g * v)))]
        else:
            if cap and arr.size > cap:
                idxs = np.sort(rng.choice(arr.size, size=cap, replace=False))
            else:
                idxs = range(arr.size)
            probes = ((np.unravel_index(idx, arr.shape), 1.0, g.flat[idx]) for idx in idxs)
        for where, step, a in probes:
            fd = _central(loss_fn, arr, where, step, eps)
            if fd is None:
                return float("inf"), checked
            worst = max(worst, rel_err(a, fd))
            checked += 1
    return worst, checked


# ---------------------------------------------------------------------------
# builders: (arrays, loss_fn, grad_fn) triples over shared mutable arrays
# ---------------------------------------------------------------------------

def _signed(rng, shape, lo=0.2, hi=1.5):
    # magnitudes bounded away from 0 keep kinked ops (relu, max) FD-safe
    return rng.uniform(lo, hi, shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _normal(**shapes):
    """A draw of standard-normal arrays, one per keyword, in keyword order."""
    return lambda rng: {name: rng.standard_normal(shape) for name, shape in shapes.items()}


def _outputs(y):
    """The arrays of an output in order: an array itself, a level's data,
    or those of each item of a list or tuple (the high and low gate)."""
    if isinstance(y, (list, tuple)):
        return [a for item in y for a in _outputs(item)]
    if isinstance(y, LevelFeature):
        return [y.data]
    return [y]


def _check(setup):
    """The builder of one check under a random-projection loss.

    setup(rng) draws the arrays and returns (arrays, fwd, bwd): fwd() runs
    the computation on the arrays and returns (output, cache), and
    bwd(cache, rs) returns the adjoints by name, or in the order of the
    arrays.  Right after setup, one standard-normal projection r per output
    array (see _outputs) is drawn; rs lists them in output order, and the
    loss is the sum of ⟨y, r⟩ over them in that order.
    """
    def build(rng):
        arrays, fwd, bwd = setup(rng)
        rs = [rng.standard_normal(y.shape) for y in _outputs(fwd()[0])]

        def loss():
            return float(sum(np.sum(y * r) for y, r in zip(_outputs(fwd()[0]), rs)))

        def grads():
            g = bwd(fwd()[1], rs)
            return g if isinstance(g, dict) else dict(zip(arrays, _outputs(g)))

        return arrays, loss, grads

    return build


def _op_builder(fwd, bwd, draw, **kw):
    """Check of one fwd/bwd pair: fwd(*arrays, **kw) on the arrays ``draw``
    makes, and bwd(cache, r) for its one output's projection r."""
    def setup(rng):
        arrays = draw(rng)
        return arrays, lambda: fwd(*arrays.values(), **kw), lambda cache, rs: bwd(cache, *rs)

    return _check(setup)


def _conv_builder(x_shape, w_shape, stride, padding, fwd=conv2d_fwd, bwd=conv2d_bwd):
    """Check of one conv: x, its kernel w and bias b, under a projection drawn after them."""
    return _op_builder(lambda x, w, b: fwd(ConvParams(w, b, stride=stride, padding=padding), x), bwd,
                       _normal(x=x_shape, w=w_shape, b=w_shape[0]))


def _build_orthogonal_reg(rng):
    # the one check whose loss is the op itself, not a projection
    psi2 = rng.standard_normal((3, 5))
    psi3 = rng.standard_normal((2, 6))
    # the penalty reads only the entity weights
    store = {"mgc.l2.psi.weight": psi2, "mgc.l3.psi.weight": psi3}

    def loss():
        return float(mgc.orthogonal_reg(store, 0.25)[0])

    def grads():
        g = mgc.orthogonal_reg(store, 0.25)[1]
        return {"psi2": g["mgc.l2.psi.weight"], "psi3": g["mgc.l3.psi.weight"]}

    return {"psi2": psi2, "psi3": psi3}, loss, grads


def _replay(*slots):
    """The backward of a forward recorded on a tape: its replay from the
    projections as the gradients of the given output slots."""
    return lambda tape, rs: tape.backward(dict(zip(slots, rs)))


def _mgc_forward_setup(rng, lead=()):
    # the graph layers' w1/w2 are damped 0.3× so their adjacency softmax
    # stays in its smooth regime: undamped, seeds 4 and 6 saturate it so far
    # that a whole w1/w2 gradient has norm ~1e-8, below what even the
    # directional difference (DIRECTIONAL) of the ~1e2 loss resolves
    c = 8
    f2 = rng.standard_normal(lead + (4, 4, 4))
    f3 = rng.standard_normal(lead + (6, 2, 2))
    arrays = {"f2": f2, "f3": f3}
    for name, shape in mgc.param_shapes(c, {2: (4, 2), 3: (6, None)}).items():
        arrays[name] = (0.3 if name in _GRAPH_WEIGHTS else 1.0) * rng.standard_normal(shape)

    # the arrays are the store; level 3 only receives context
    return arrays, lambda: mgc.mgc_forward_fwd([LevelFeature(2, f2), LevelFeature(3, f3)], arrays,
                                               Tape()), _replay("f2", "f3")


def _tiny_fusion_store(rng, kind, guided=True, s=2):
    # draws are damped so the tap softmax and the sigmoid gates stay in
    # their smooth regime; saturated units have ~zero true gradient and
    # finite differences then measure only roundoff.  c=8 keeps the gate
    # bottleneck at 4 channels: layer norm over 2 would pin the normalized
    # vector at +-1 and zero out every upstream gradient.
    c, c_m, k = 8, 3, 3
    shapes = fusion.site_shapes(c, c_m, k, 1, kind == "up", s=s, guided=guided)
    return {name: 0.3 * rng.standard_normal(shape) for name, shape in shapes.items()}


def _reader_builder(part, kind, names, hw, lead=()):
    """Check of one reader of a tiny site of ``kind`` on [src, guide]: the
    kernel predictor (part "kpred") or the channel gates ("gate"), its
    parameters, and two 8-channel inputs of extents hw with the given names.
    The reader's gradient comes as a factor pair (lhs, rhs); the input
    gradient is lhs @ rhs, split at channel 8, and the weights that read the
    input take theirs from rhs (fusion.reader_weight_grads)."""
    fwd_op, bwd_op = {"kpred": (fusion.predict_kernels_fwd, fusion.predict_kernels_bwd),
                      "gate": (fusion.channel_gates_fwd, fusion.channel_gates_bwd)}[part]

    def setup(rng):
        store = _tiny_fusion_store(rng, kind)
        arrays = {name: rng.standard_normal(lead + (8,) + hw) for name in names}
        arrays.update((k, v) for k, v in store.items() if k.startswith(part + "."))
        weights = ((fusion._kpred_convs(store, "", 1 if kind == "up" else 2), 2) if part == "kpred"
                   else (fusion._gate_weights(store, ""), fusion.GATE_ACTS["two_sigmoid"]))

        def fwd_input():
            return np.concatenate([arrays[name] for name in names], axis=-3)

        def fwd():
            return fwd_op(fwd_input(), *weights)

        def bwd(cache, rs):
            if part == "gate":  # the gate cache keeps no x: the backward takes xᵀ·gz as a function
                x = fwd_input().reshape(lead + (16, -1))
                rs = (*rs, lambda gz: (x.swapaxes(-1, -2) @ gz[..., None])[..., 0])
            (lhs, rhs), pg = bwd_op(cache, *rs)
            grads = {name: (lhs[..., 8 * i : 8 * (i + 1), :] @ rhs).reshape(arrays[name].shape)
                     for i, name in enumerate(names)}
            c_m = rhs.shape[-2] if part == "kpred" else 0
            pg.update(fusion.reader_weight_grads([(rhs, arrays[name]) for name in names], c_m,
                                                 part == "gate"))
            return {**grads, **pg}

        return arrays, fwd, bwd

    return _check(setup)


def _fuse_builder(direction, guided, s=2):
    """Check of fuse_fwd/bwd between a level-3 "coarse" and a level-2 "fine"
    feature s× finer: coarse into fine for direction "td", fine into coarse for "bu"."""
    def setup(rng):
        store = _tiny_fusion_store(rng, "up" if direction == "td" else "down", guided, s)
        coarse = LevelFeature(3, rng.standard_normal((8, 2, 3)))
        fine = LevelFeature(2, rng.standard_normal((8, 2 * s, 3 * s)))
        arrays = {"coarse": coarse.data, "fine": fine.data}
        # unguided means gates off too: the plain-reassembly baselines
        arrays.update((k, v) for k, v in store.items() if guided or not k.startswith("gate."))
        src, dst = (coarse, fine) if direction == "td" else (fine, coarse)
        names = ("coarse", "fine") if direction == "td" else ("fine", "coarse")

        def bwd(cache, rs):
            gsrc, gdst, pg = fusion.fuse_bwd(cache, *rs)
            return {names[0]: gsrc, names[1]: gdst, **pg}

        return arrays, lambda: fusion.fuse_fwd(src, dst, store, guided=guided, gated=guided), bwd

    return _check(setup)


def _toy_backbone_setup(rng):
    store = {name: rng.standard_normal(shape) * (0.1 if name.endswith(".bias") else 0.5)
             for name, shape in backbone_shapes(BackboneSpec((2, 3, 4, 5))).items()}
    image = rng.standard_normal((3, 64, 64))
    return {"image": image, **store}, lambda: toy_backbone_fwd(image, store, Tape(), need_gimage=True), \
        _replay("f2", "f3", "f4", "f5")


def _extra_level_setup(rng):
    f5 = LevelFeature(5, rng.standard_normal((5, 2, 2)))
    store = {name: rng.standard_normal(shape) for name, shape in extra_level_shapes(6, 5).items()}
    return {"f5": f5.data, **store}, lambda: make_extra_level_fwd(f5, store, Tape()), _replay("f6")


def tiny_config(arch="a2fpn"):
    """The c=8 configuration the whole-network gradient check runs on."""
    return PyramidConfig(
        arch=arch, c=8, a=1, c_m=4, k_up=3, k_dn=3, k_en=1,
        dtype="f64", backbone=(4, 4, 8, 8), image_size=(64, 64),
    )


def _net_builder(arch, lead=()):
    def setup(rng):
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
            return forward_a2fpn_fwd([LevelFeature(lvl, feats[lvl]) for lvl in (2, 3, 4, 5)], store, cfg)

        def bwd(cache, rs):
            glevels, pg = forward_a2fpn_bwd(cache, rs)
            return {**{f"f{lvl}": g for lvl, g in glevels.items()}, **pg}

        return arrays, fwd, bwd

    return _check(setup)


# The graph layers' w1/w2 set the logits of a softmax over graph nodes.  Even
# damped, it saturates on some draws (seed 8 of mgc_forward), and single
# coordinates of w1/w2 then have true gradients too small for finite
# differences of the ~1e2 loss to resolve.  Each of these arrays is probed as
# a whole instead, along a random unit direction (see _probe), at the same
# tolerance.
_GRAPH_WEIGHTS = tuple(f"mgc.{g}.{w}.weight" for g in ("l2.gcn", "shared_gcn") for w in ("w1", "w2"))
DIRECTIONAL = {"mgc_forward": _GRAPH_WEIGHTS, "mgc_forward_n2": _GRAPH_WEIGHTS}

# name -> (builder, tolerance, per-array coordinate cap; 0 = exhaustive).
# Entries ending in _n2 run the same op on a batch of two images, whose
# shared parameters take the sum of the two images' gradients.
REGISTRY = {
    "softmax": (_op_builder(softmax_fwd, softmax_bwd, _normal(t=(4, 7)), axis=1), PRIMITIVE_TOL, 0),
    "l2_normalize": (_op_builder(l2_normalize_fwd, l2_normalize_bwd,
                                 lambda rng: {"t": rng.standard_normal((5, 4)) + 0.1}, axis=0),
                     PRIMITIVE_TOL, 0),
    "sigmoid": (_op_builder(sigmoid_fwd, sigmoid_bwd, _normal(t=(3, 5))), PRIMITIVE_TOL, 0),
    "relu": (_op_builder(relu_fwd, relu_bwd, lambda rng: {"t": _signed(rng, (4, 6))}), PRIMITIVE_TOL, 0),
    "layer_norm": (_op_builder(layer_norm_fwd, layer_norm_bwd, _normal(t=(3, 4, 6), gain=6, shift=6)),
                   PRIMITIVE_TOL, 0),
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
    # cout ≤ cin over enough pixels: _use_gather sends these to the gather route
    "conv2d_gather_n2": (_conv_builder((2, 3, 5, 5), (2, 3, 3, 3), 1, 1), PRIMITIVE_TOL, 0),
    "conv2d_stride2_gather_n2": (_conv_builder((2, 3, 7, 7), (2, 3, 3, 3), 2, 1), PRIMITIVE_TOL, 0),
    # a scaled permutation keeps the entries of each window ≫ 2·eps apart
    "max_pool2d": (_op_builder(max_pool2d_fwd, max_pool2d_bwd, lambda rng: {
        "x": rng.permutation(3 * 6 * 8).astype(np.float64).reshape(3, 6, 8) / 24.0}), PRIMITIVE_TOL, 0),
    "bilinear_upsample": (_op_builder(bilinear_upsample_fwd, bilinear_upsample_bwd, _normal(x=(3, 4, 5))),
                          PRIMITIVE_TOL, 0),
    "compatibility": (_op_builder(mgc.compatibility_fwd, mgc.compatibility_bwd,
                                  _normal(q=(5, 4), k=(4, 6)), scale_dim=4), COMPOSITE_TOL, 0),
    "collect_context": (_op_builder(mgc.collect_context_fwd, mgc.collect_context_bwd,
                                    _normal(fdata=(4, 3, 3), psi=(2, 4), phi=(8, 4))), COMPOSITE_TOL, 0),
    "orthogonal_reg": (_build_orthogonal_reg, COMPOSITE_TOL, 0),
    "gcn_layer": (_op_builder(lambda g, w1, w2, w3: mgc.gcn_layer_fwd(g, (w1, w2, w3)),
                              mgc.gcn_layer_bwd, _normal(g=(8, 5), w1=(2, 8), w2=(2, 8), w3=(8, 8))),
                  COMPOSITE_TOL, 0),
    "reason_multilevel": (_op_builder(lambda b2, b3, w1, w2, w3: mgc.reason_multilevel_fwd(
                              [b2, b3], (w1, w2, w3)), mgc.reason_multilevel_bwd,
                              _normal(b2=(8, 3), b3=(8, 2), w1=(2, 8), w2=(2, 8), w3=(8, 8))),
                          COMPOSITE_TOL, 0),
    "distribute_context": (_op_builder(mgc.distribute_context_fwd, mgc.distribute_context_bwd,
                                       _normal(fdata=(4, 3, 3), fused=(8, 5), theta=(8, 4), xi=(8, 4),
                                               w_o=(8, 8))), COMPOSITE_TOL, 0),
    "mgc_forward": (_check(_mgc_forward_setup), COMPOSITE_TOL, 16),
    "mgc_forward_n2": (_check(partial(_mgc_forward_setup, lead=(2,))), COMPOSITE_TOL, 16),
    "predict_up_kernels": (_reader_builder("kpred", "up", ("coarse", "pooled"), (2, 3)), COMPOSITE_TOL, 32),
    "predict_down_kernels": (_reader_builder("kpred", "down", ("fine", "ups"), (4, 6)), COMPOSITE_TOL, 32),
    "reassemble_up": (_op_builder(fusion.reassemble_up_fwd, fusion.reassemble_up_bwd,
                                  _normal(coarse=(3, 2, 3), kern=(36, 2, 3))), COMPOSITE_TOL, 0),
    "reassemble_down": (_op_builder(fusion.reassemble_down_fwd, fusion.reassemble_down_bwd,
                                    _normal(fine=(3, 4, 6), kern=(9, 2, 3))), COMPOSITE_TOL, 0),
    "channel_gates": (_reader_builder("gate", "up", ("a", "b"), (2, 3)), COMPOSITE_TOL, 0),
    "reassemble_up_n2": (_op_builder(fusion.reassemble_up_fwd, fusion.reassemble_up_bwd,
                                     _normal(coarse=(2, 3, 2, 3), kern=(2, 36, 2, 3))), COMPOSITE_TOL, 0),
    "reassemble_down_n2": (_op_builder(fusion.reassemble_down_fwd, fusion.reassemble_down_bwd,
                                       _normal(fine=(2, 3, 4, 6), kern=(2, 9, 2, 3))), COMPOSITE_TOL, 0),
    "channel_gates_n2": (_reader_builder("gate", "up", ("a", "b"), (2, 3), lead=(2,)), COMPOSITE_TOL, 0),
    # the one fusion site: top-down and bottom-up, guided and gated, or plain
    # (the CARAFE/CAP baselines)
    "fuse_topdown": (_fuse_builder("td", True), COMPOSITE_TOL, 24),
    "fuse_bottomup": (_fuse_builder("bu", True), COMPOSITE_TOL, 24),
    "carafe_baseline": (_fuse_builder("td", False), COMPOSITE_TOL, 24),
    "cap_baseline": (_fuse_builder("bu", False), COMPOSITE_TOL, 24),
    # s = 3: a 3×3 max-pool guidance and an 81-logit predictor
    "fuse_topdown_s3": (_fuse_builder("td", True, s=3), COMPOSITE_TOL, 24),
    "toy_backbone": (_check(_toy_backbone_setup), COMPOSITE_TOL, 32),
    "make_extra_level": (_check(_extra_level_setup), COMPOSITE_TOL, 0),
    "a2fpn_full": (_net_builder("a2fpn"), COMPOSITE_TOL, 3),
    "a2fpn_lite": (_net_builder("a2fpn_lite"), COMPOSITE_TOL, 3),
    "a2fpn_full_n2": (_net_builder("a2fpn", lead=(2,)), COMPOSITE_TOL, 3),
}


def check_gradients(op, seed=0, eps=DEFAULT_EPS, tol=None):
    """Run one registered check; see REGISTRY for the op list.  An eps or
    tol that is not positive and finite is a ValueError: a zero step has no
    difference quotient, and no error passes a tolerance of NaN."""
    if op not in REGISTRY:
        raise KeyError(f"unregistered op {op!r}; have {sorted(REGISTRY)}")
    builder, default_tol, cap = REGISTRY[op]
    tol = default_tol if tol is None else tol
    for name, v in (("eps", eps), ("tol", tol)):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"a gradient check needs a positive finite {name}, got {v}")
    t0 = time.perf_counter()
    arrays, loss_fn, grad_fn = builder(_op_rng(op, seed))
    analytic = grad_fn()
    worst, checked = _probe(arrays, loss_fn, analytic, eps, _op_rng("coords:" + op, seed), cap,
                            DIRECTIONAL.get(op, ()))
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

def _sweep(op, cases, fn):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(cases):
        worst = max(worst, fn())
    return OracleEntry(op, cases, worst, ORACLE_TOL, worst <= ORACLE_TOL,
                       time.perf_counter() - t0)


def _max_diff(got, want):
    """Largest absolute difference of two arrays, or over paired tuples of
    them; a pair of Nones counts 0."""
    if not isinstance(got, tuple):
        got, want = (got,), (want,)
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


def _up_oracle(oracle):
    """An up-reassembly oracle, which reads the paper's fine-grid kernels, on
    predictor-layout ones: they go onto the fine grid by pixel_shuffle_oracle,
    and a kernel gradient comes back by the inverse permutation, read off the
    shuffle of the indices."""
    def run(coarse, kernels, *rest, s, k):
        got = oracle(coarse, oracles.pixel_shuffle_oracle(kernels, s), *rest, s=s, k=k)
        if not isinstance(got, tuple):
            return got
        src = oracles.pixel_shuffle_oracle(np.arange(kernels.size).reshape(kernels.shape), s)
        gkern = np.empty(kernels.size)
        gkern[src.astype(np.intp).ravel()] = got[1].ravel()
        return got[0], gkern.reshape(kernels.shape)
    return run


def _collect_context_oracle(fdata, psi, phi):
    """collect_context_fwd by loops: (phi·F)·A, A the compatibility map of psi on F."""
    fm = fdata.reshape(fdata.shape[0], -1)
    attn = oracles.compatibility_oracle(psi, fm, scale_dim=fdata.shape[0])
    return oracles.matmul_oracle(oracles.matmul_oracle(phi, fm), attn)


def oracle_suite(seed=0, cases=50):
    """Production kernels vs straight-line loop references, random shapes.

    Each case runs on a single image or on a batch of n ∈ {1, 3}; a batched
    result must equal the per-image oracles stacked, and a batched parameter
    gradient their sum.  The sweeps share one generator and run in table
    order, so each sweep's cases depend on the sweeps before it.  cases < 1
    is a ValueError: a sweep of no case compares nothing.
    """
    if cases < 1:
        raise ValueError(f"an oracle sweep needs cases >= 1, got {cases}")
    rng = np.random.default_rng([seed, 0x0A])

    def case(draw, bwd=None, summed=()):
        """One case: draw(lead) gives (inputs, fwd, oracle).  fwd(*inputs)'s
        output, or with bwd its adjoints bwd(cache, gy) for a drawn output
        gradient gy, is compared with the oracle run per image on the inputs
        (and gy)."""
        def run():
            lead = _lead(rng)
            inputs, fwd, oracle = draw(lead)
            got, cache = fwd(*inputs)
            if bwd is not None:
                gy = rng.standard_normal(got.shape)
                got, inputs = bwd(cache, gy), inputs + (gy,)
            return _max_diff(got, _per_image(lead, oracle, *inputs, summed=summed))
        return run

    def conv(params, fwd, oracle):
        """A conv draw: params(lead) gives (ConvParams, x); the oracle takes
        the kernel, bias, stride and padding."""
        def draw(lead):
            p, x = params(lead)
            return (x,), partial(fwd, p), partial(oracle, p.weight, p.bias, stride=p.stride, pad=p.padding)
        return draw

    def conv_params(lead):
        cin, cout = rng.integers(1, 4, 2)
        k = int(rng.choice([1, 2, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1]))
        h, w = rng.integers(3, 8, 2)
        x = rng.standard_normal(lead + (cin, h, w))
        wgt = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout) if rng.random() < 0.5 else None
        return ConvParams(wgt, b, stride=stride, padding=pad), x

    # Each gx route of the im2col backward, called directly whatever
    # _use_gather would pick, on a batch of n ∈ {1, 3}; pad runs past k.
    def gx_route_case(route):
        n = int(rng.choice([1, 3]))
        cin, cout = rng.integers(1, 4, 2)
        k = int(rng.choice([1, 2, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1, 2]))
        h, w = rng.integers(max(1, k - 2 * pad), 8, 2)
        x = rng.standard_normal((n, cin, h, w))
        p = ConvParams(rng.standard_normal((cout, cin, k, k)), None, stride=stride, padding=pad)
        y, _ = conv2d_fwd(p, x)
        gy = rng.standard_normal(y.shape)
        want = np.stack([oracles.conv2d_bwd_oracle(p.weight, None, xi, gi, stride, pad)[0]
                         for xi, gi in zip(x, gy)])
        gyf = gy.swapaxes(0, 1).reshape(p.weight.shape[0], -1)
        return float(np.max(np.abs(route(p, x.shape, gy, gyf) - want)))

    # The Winograd path is called directly, since conv2d_fwd selects it only
    # far above oracle-sized shapes.  Extents run from 1 and need not match,
    # so odd and single-tile outputs both occur.
    def winograd_params(lead):
        cin, cout = rng.integers(1, 4, 2)
        pad = int(rng.choice([0, 1, 2]))
        h, w = rng.integers(max(1, 3 - 2 * pad), 8, 2)
        x = rng.standard_normal(lead + (cin, h, w))
        wgt = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout) if rng.random() < 0.5 else None
        return ConvParams(wgt, b, padding=pad), x

    def context(lead):
        c_i, n_i, c = rng.integers(2, 6, 3)
        h, w = rng.integers(1, 5, 2)
        fdata = rng.standard_normal(lead + (c_i, h, w))
        psi, phi = rng.standard_normal((n_i, c_i)), rng.standard_normal((c, c_i))
        return (fdata,), partial(mgc.collect_context_fwd, psi=psi, phi=phi), \
            partial(_collect_context_oracle, psi=psi, phi=phi)

    def compat(lead):
        nq, d, nk = rng.integers(2, 6, 3)
        q, k = rng.standard_normal(lead + (nq, d)), rng.standard_normal(lead + (d, nk))
        return (q, k), partial(mgc.compatibility_fwd, scale_dim=d), \
            partial(oracles.compatibility_oracle, scale_dim=d)

    def reassembly(up, oracle):
        """A reassembly draw at s ∈ {2, 3}: kernels on the coarse grid, k²·s²
        channels of them going up (the predictor's layout) and k² going down."""
        def draw(lead):
            c = int(rng.integers(1, 4))
            h, w = rng.integers(1, 5, 2)
            k = int(rng.choice([1, 3, 5]))
            s = int(rng.choice([2, 3]))
            x = rng.standard_normal(lead + (c,) + ((h, w) if up else (s * h, s * w)))
            kern = rng.standard_normal(lead + (k * k * (s * s if up else 1), h, w))
            fwd = fusion.reassemble_up_fwd if up else fusion.reassemble_down_fwd
            return (x, kern), partial(fwd, s=s), partial(_up_oracle(oracle) if up else oracle, s=s, k=k)
        return draw

    def bilinear(oracle):
        def draw(lead):
            c = int(rng.integers(1, 4))
            h, w = rng.integers(1, 7, 2)
            return (rng.standard_normal(lead + (c, h, w)),), bilinear_upsample_fwd, oracle
        return draw

    def pool(lead):
        c, s = int(rng.integers(1, 4)), int(rng.choice([2, 3]))
        h, w = s * rng.integers(1, 5, 2)
        return (rng.standard_normal(lead + (c, h, w)),), partial(max_pool2d_fwd, s=s), \
            partial(oracles.max_pool2d_oracle, s=s)

    def soft(lead):
        n = int(rng.integers(2, 8))
        return (rng.standard_normal(lead + (n,)),), partial(softmax_fwd, axis=-1), oracles.softmax_oracle

    def ln(lead):
        n = int(rng.integers(2, 8))
        v = rng.standard_normal(lead + (n,))
        gain = rng.standard_normal(n)
        shift = rng.standard_normal(n)
        return (v,), lambda t: layer_norm_fwd(t, gain, shift), \
            partial(oracles.layer_norm_oracle, gain=gain, shift=shift, eps=LAYERNORM_EPS)

    sweeps = (
        ("conv2d", case(conv(conv_params, conv2d_fwd, oracles.conv2d_oracle))),
        ("conv2d_bwd", case(conv(conv_params, conv2d_fwd, oracles.conv2d_bwd_oracle), conv2d_bwd,
                            summed=(1, 2))),
        ("conv2d_gx_gather", partial(gx_route_case, nn_ops._gx_gather)),
        ("conv2d_gx_fold", partial(gx_route_case, nn_ops._gx_fold)),
        ("conv2d_winograd", case(conv(winograd_params, nn_ops._winograd_fwd, oracles.conv2d_oracle))),
        ("conv2d_winograd_bwd", case(conv(winograd_params, nn_ops._winograd_fwd, oracles.conv2d_bwd_oracle),
                                     nn_ops._winograd_bwd, summed=(1, 2))),
        ("attention_pool", case(context)),
        ("compatibility", case(compat)),
        ("reassemble_up", case(reassembly(True, oracles.reassemble_up_oracle))),
        ("reassemble_down", case(reassembly(False, oracles.reassemble_down_oracle))),
        ("reassemble_up_bwd", case(reassembly(True, oracles.reassemble_up_bwd_oracle),
                                   fusion.reassemble_up_bwd)),
        ("reassemble_down_bwd", case(reassembly(False, oracles.reassemble_down_bwd_oracle),
                                     fusion.reassemble_down_bwd)),
        ("bilinear_upsample", case(bilinear(partial(oracles.bilinear_upsample_oracle, s=2)))),
        ("bilinear_upsample_bwd", case(bilinear(
            lambda xi, gi: oracles.bilinear_upsample_bwd_oracle(xi.shape, gi, 2)), bilinear_upsample_bwd)),
        ("max_pool2d", case(pool)),
        ("softmax", case(soft)),
        ("layer_norm", case(ln)),
    )
    entries = [_sweep(name, cases, run) for name, run in sweeps]
    return entries, all(e.passed for e in entries)


def save_oracle_report(path, entries):
    doc = {"oracles": [e.to_dict() for e in entries], "passed": all(e.passed for e in entries)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc
