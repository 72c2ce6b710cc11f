"""Multi-level global context: collect, reason, distribute.

Context features are collected per level by attention pooling against
learned semantic entities, related by residual graph layers whose
adjacency comes from self-attention, then redistributed to every level
as a residual enrichment.  All attention uses the scaled cosine
similarity compatibility: keys are L2-normalized, queries are not, and
the softmax always runs over the key axis.

Feature maps are one image (c, h, w) or a batch (n, c, h, w).  Context
banks, graph layers and attention maps are then per image, with the same
leading axes; the projections are shared, so their gradients are summed
over the images (``sum_batch``).  Matrices multiply as stacks (broadcast
``np.matmul``), and ``_t`` transposes the last two axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .levels import LevelFeature
from .tensor_core import (
    l2_normalize_bwd,
    l2_normalize_fwd,
    softmax_bwd,
    softmax_fwd,
    sum_batch,
)


def _t(a):
    """Transpose of the last two axes: a matrix, or a stack of them."""
    return a.swapaxes(-1, -2)


def _gcn_shapes(prefix, c):
    return {f"{prefix}.w{i}.weight": (c if i == 3 else c // 4, c) for i in (1, 2, 3)}


def _level_shapes(lvl, c, c_i, n_i=None):
    """Name -> shape of level lvl's projections from width c_i, in store order.
    With n_i entities the level also collects context (psi, phi and its
    graph layer); without, it only receives it (theta, xi)."""
    name = f"mgc.l{lvl}"
    dist = {f"{name}.theta.weight": (c, c_i), f"{name}.xi.weight": (c, c_i)}
    if n_i is None:
        return dist
    return {f"{name}.psi.weight": (n_i, c_i), f"{name}.phi.weight": (c, c_i), **dist,
            **_gcn_shapes(f"{name}.gcn", c)}


def param_shapes(c, levels):
    """Name -> shape of the whole module in store order: each level's
    projections, for ``levels`` mapping level index to (c_i, n_i) as
    _level_shapes takes them, then the shared graph layer and output map."""
    shapes = {}
    for lvl, (c_i, n_i) in levels.items():
        shapes.update(_level_shapes(lvl, c, c_i, n_i))
    return {**shapes, **_gcn_shapes("mgc.shared_gcn", c), "mgc.out.weight": (c, c)}


@dataclass
class GcnParams:
    """Residual graph layer triplet: w1, w2 (c/4 × c) and w3 (c × c)."""

    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray

    @classmethod
    def from_store(cls, store, prefix):
        """The triplet stored as ``{prefix}.w1.weight`` .. ``{prefix}.w3.weight``."""
        return cls(*(store[f"{prefix}.w{i}.weight"] for i in (1, 2, 3)))


@dataclass
class MgcLevelParams:
    """Per-level projections; collection fields are None on levels that
    only receive distributed context (the extra top level)."""

    theta: np.ndarray
    xi: np.ndarray
    psi: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    gcn: Optional[GcnParams] = None

    @property
    def collects(self):
        return self.psi is not None


@dataclass
class MgcParams:
    levels: dict = field(default_factory=dict)  # level index -> MgcLevelParams
    shared_gcn: Optional[GcnParams] = None
    out_weight: Optional[np.ndarray] = None  # c × c
    lambda_o: float = 1e-4

    @classmethod
    def from_store(cls, store, levels, lambda_o=1e-4):
        """The module stored under ``mgc.*`` for the given level indices.  A
        level collects context when the store holds its ``psi`` weight."""
        params = {}
        for lvl in levels:
            name = f"mgc.l{lvl}"
            collects = f"{name}.psi.weight" in store
            params[lvl] = MgcLevelParams(
                theta=store[f"{name}.theta.weight"],
                xi=store[f"{name}.xi.weight"],
                psi=store.get(f"{name}.psi.weight"),
                phi=store.get(f"{name}.phi.weight"),
                gcn=GcnParams.from_store(store, f"{name}.gcn") if collects else None,
            )
        return cls(levels=params, shared_gcn=GcnParams.from_store(store, "mgc.shared_gcn"),
                   out_weight=store["mgc.out.weight"], lambda_o=lambda_o)


# ---------------------------------------------------------------------------
# scaled cosine-similarity compatibility
# ---------------------------------------------------------------------------

def compatibility_fwd(queries, keys, scale_dim):
    """queries (n_q × d), keys (d × n_k) -> map (n_k × n_q), or stacks of them.

    Scores are sqrt(d) times the dot product with the L2-normalized key
    columns; the softmax runs over keys, so each output column sums to 1.
    """
    if queries.shape[-1] != keys.shape[-2]:
        raise ValueError(f"query dim {queries.shape} vs key dim {keys.shape}")
    if scale_dim != keys.shape[-2]:
        raise ValueError("scale_dim must equal the shared feature dimension")
    khat, n_cache = l2_normalize_fwd(keys, axis=-2)
    scale = math.sqrt(scale_dim)
    scores = scale * (queries @ khat)
    probs, s_cache = softmax_fwd(scores, axis=-1)
    return _t(probs), (queries, khat, n_cache, s_cache, scale)


def compatibility_bwd(cache, gmap):
    """(gqueries, gkeys), each with the leading axes of the map."""
    queries, khat, n_cache, s_cache, scale = cache
    gscores = scale * softmax_bwd(s_cache, _t(gmap))
    gqueries = gscores @ _t(khat)
    gkeys = l2_normalize_bwd(n_cache, _t(queries) @ gscores)
    return gqueries, gkeys


# ---------------------------------------------------------------------------
# context collection (per level)
# ---------------------------------------------------------------------------

def _flat(fdata):
    """(..., c, h, w) -> (..., c, h·w)."""
    return fdata.reshape(fdata.shape[:-2] + (-1,))


def collect_context_fwd(fdata, psi, phi):
    """Pool the h·w positions of each feature map into n_i context columns."""
    c_i = fdata.shape[-3]
    fm = _flat(fdata)
    attn, cf_cache = compatibility_fwd(psi, fm, c_i)  # (hw × n_i)
    emb = phi @ fm
    bank = emb @ attn
    return bank, (fdata.shape, fm, attn, emb, phi, cf_cache)


def collect_context_bwd(cache, gbank):
    shape, fm, attn, emb, phi, cf_cache = cache
    gemb = gbank @ _t(attn)
    gattn = _t(emb) @ gbank
    gpsi, gfm = compatibility_bwd(cf_cache, gattn)
    gphi = gemb @ _t(fm)
    gfm = gfm + phi.T @ gemb
    return gfm.reshape(shape), sum_batch(gpsi, 2), sum_batch(gphi, 2)


# ---------------------------------------------------------------------------
# orthogonality penalty on the entity weights
# ---------------------------------------------------------------------------

def orthogonal_reg_loss(params: MgcParams):
    total = 0.0
    for lp in params.levels.values():
        if lp.collects:
            d = lp.psi @ lp.psi.T - np.eye(lp.psi.shape[0], dtype=lp.psi.dtype)
            total += float(np.sum(d * d))
    return params.lambda_o * total


def orthogonal_reg_grads(params: MgcParams):
    """d loss / d psi per collecting level, keyed by level index."""
    grads = {}
    for lvl, lp in params.levels.items():
        if lp.collects:
            d = lp.psi @ lp.psi.T - np.eye(lp.psi.shape[0], dtype=lp.psi.dtype)
            grads[lvl] = (4.0 * params.lambda_o) * (d @ lp.psi)
    return grads


# ---------------------------------------------------------------------------
# graph reasoning
# ---------------------------------------------------------------------------

def gcn_layer_fwd(g, triplet):
    """Residual graph layer; the adjacency is self-attention over columns."""
    c = g.shape[-2]
    if c % 4:
        raise ValueError("channel width must be divisible by 4")
    a1 = triplet.w1 @ g
    a2 = triplet.w2 @ g
    adj, cf_cache = compatibility_fwd(_t(a1), a2, c // 4)  # (n × n)
    mix = g @ adj
    out = triplet.w3 @ mix + g
    return out, (g, triplet, adj, mix, cf_cache)


def gcn_layer_bwd(cache, gout):
    g, triplet, adj, mix, cf_cache = cache
    gw3 = sum_batch(gout @ _t(mix), 2)
    gmix = triplet.w3.T @ gout
    gg = gout + gmix @ _t(adj)
    gadj = _t(g) @ gmix
    ga1t, ga2 = compatibility_bwd(cf_cache, gadj)
    gw1 = sum_batch(_t(ga1t) @ _t(g), 2)
    gw2 = sum_batch(ga2 @ _t(g), 2)
    gg = gg + triplet.w1.T @ _t(ga1t) + triplet.w2.T @ ga2
    return gg, gw1, gw2, gw3


def reason_multilevel_fwd(banks, triplet):
    """Column-concatenate the per-level banks and run one shared layer."""
    widths = {b.shape[-2] for b in banks}
    if len(widths) != 1:
        raise ValueError(f"banks disagree on channel width: {sorted(widths)}")
    cat = np.concatenate(banks, axis=-1)
    fused, g_cache = gcn_layer_fwd(cat, triplet)
    return fused, (g_cache, [b.shape[-1] for b in banks])


def reason_multilevel_bwd(cache, gfused):
    g_cache, cols = cache
    gcat, gw1, gw2, gw3 = gcn_layer_bwd(g_cache, gfused)
    splits = np.cumsum(cols)[:-1]
    return np.split(gcat, splits, axis=-1), gw1, gw2, gw3


# ---------------------------------------------------------------------------
# context distribution (per level)
# ---------------------------------------------------------------------------

def distribute_context_fwd(fdata, fused, theta, xi, out_weight):
    """Attend each position to the fused bank, add a residual projection."""
    h, w = fdata.shape[-2:]
    c = fused.shape[-2]
    fm = _flat(fdata)
    q = theta @ fm  # (c × hw)
    attn, cf_cache = compatibility_fwd(_t(q), fused, c)  # (n × hw)
    ctx = out_weight @ fused  # (c × n)
    out = (ctx @ attn + xi @ fm).reshape(fdata.shape[:-3] + (c, h, w))
    return out, (fdata.shape, fm, q, attn, ctx, fused, theta, xi, out_weight, cf_cache)


def distribute_context_bwd(cache, gout):
    shape, fm, q, attn, ctx, fused, theta, xi, out_weight, cf_cache = cache
    go = _flat(gout)
    gctx = go @ _t(attn)
    gattn = _t(ctx) @ go
    gw_o = sum_batch(gctx @ _t(fused), 2)
    gfused = out_weight.T @ gctx
    gqt, gfused2 = compatibility_bwd(cf_cache, gattn)
    gfused = gfused + gfused2
    gq = _t(gqt)
    gtheta = sum_batch(gq @ _t(fm), 2)
    gxi = sum_batch(go @ _t(fm), 2)
    gfm = theta.T @ gq + xi.T @ go
    return gfm.reshape(shape), gfused, gtheta, gxi, gw_o


# ---------------------------------------------------------------------------
# whole module
# ---------------------------------------------------------------------------

def mgc_forward_fwd(levels, params):
    """levels: list of LevelFeature -> list of context-enriched levels.

    Collection runs on the levels whose params carry entity weights;
    distribution runs on every level given.
    """
    levels = sorted(levels, key=lambda f: f.level)
    for f in levels:
        if f.level not in params.levels:
            raise ValueError(f"no parameters for level {f.level}")
    collected = [f for f in levels if params.levels[f.level].collects]
    if not collected:
        raise ValueError("at least one level must collect context")

    banks, col_caches, gcn_caches = [], [], []
    for f in collected:
        lp = params.levels[f.level]
        bank, cc = collect_context_fwd(f.data, lp.psi, lp.phi)
        refined, gc = gcn_layer_fwd(bank, lp.gcn)
        banks.append(refined)
        col_caches.append(cc)
        gcn_caches.append(gc)
    fused, reason_cache = reason_multilevel_fwd(banks, params.shared_gcn)

    outs, dist_caches = [], []
    for f in levels:
        lp = params.levels[f.level]
        out, dc = distribute_context_fwd(f.data, fused, lp.theta, lp.xi, params.out_weight)
        outs.append(LevelFeature(f.level, out))
        dist_caches.append(dc)
    cache = (levels, collected, params, col_caches, gcn_caches, reason_cache, dist_caches)
    return outs, cache


def mgc_forward_bwd(cache, gouts):
    """gouts: list of gradients aligned with the forward outputs.

    Returns (per-level input gradients keyed by level index, parameter
    gradients keyed by dotted names like ``mgc.l3.psi.weight``).
    """
    levels, collected, params, col_caches, gcn_caches, reason_cache, dist_caches = cache
    glevels = {f.level: np.zeros_like(f.data) for f in levels}
    pg = {}

    gfused = None
    for f, dc, gout in zip(levels, dist_caches, gouts):
        gfm, gfu, gtheta, gxi, gw_o = distribute_context_bwd(dc, gout)
        glevels[f.level] += gfm
        gfused = gfu if gfused is None else gfused + gfu
        pg[f"mgc.l{f.level}.theta.weight"] = gtheta
        pg[f"mgc.l{f.level}.xi.weight"] = gxi
        pg["mgc.out.weight"] = pg.get("mgc.out.weight", 0) + gw_o

    gbanks, gw1, gw2, gw3 = reason_multilevel_bwd(reason_cache, gfused)
    pg["mgc.shared_gcn.w1.weight"] = gw1
    pg["mgc.shared_gcn.w2.weight"] = gw2
    pg["mgc.shared_gcn.w3.weight"] = gw3

    for f, cc, gc, gbank in zip(collected, col_caches, gcn_caches, gbanks):
        graw, g1, g2, g3 = gcn_layer_bwd(gc, gbank)
        gfdata, gpsi, gphi = collect_context_bwd(cc, graw)
        glevels[f.level] += gfdata
        pg[f"mgc.l{f.level}.gcn.w1.weight"] = g1
        pg[f"mgc.l{f.level}.gcn.w2.weight"] = g2
        pg[f"mgc.l{f.level}.gcn.w3.weight"] = g3
        pg[f"mgc.l{f.level}.psi.weight"] = gpsi
        pg[f"mgc.l{f.level}.phi.weight"] = gphi
    return glevels, pg
