"""Multi-level global context: collect, reason, distribute.

Context features are collected per level by attention pooling against
learned semantic entities, related by residual graph layers whose
adjacency comes from self-attention, then redistributed to every level
as a residual enrichment.  All attention uses the scaled cosine
similarity compatibility: keys are L2-normalized, queries are not, and
the softmax always runs over the key axis.  The backwards of collection
and distribution route the embedding and query gradients through the
context columns, so neither is built at c × h·w, and the forwards cache
neither the embedding φ·fm nor the queries θ·fm: each cache keeps the
flattened map (a view of the level), the attention map and the small
per-column arrays the backward reads.

Feature maps are one image (c, h, w) or a batch (n, c, h, w).  Context
banks, graph layers and attention maps are then per image, with the same
leading axes; the projections are shared, so their gradients are summed
over the images (``sum_batch``).  Matrices multiply as stacks (broadcast
``np.matmul``), and ``_t`` transposes the last two axes.
"""

from __future__ import annotations

import math

import numpy as np

from .levels import LevelFeature
from .tape import record
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


def _gcn_names(prefix):
    """The store names of the graph layer ``{prefix}.w1.weight`` .. ``.w3.weight``."""
    return tuple(f"{prefix}.w{i}.weight" for i in (1, 2, 3))


def _read(store, names):
    return tuple(store[name] for name in names)


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
    scores = queries @ khat
    scores *= scale
    probs, s_cache = softmax_fwd(scores, axis=-1)
    return _t(probs), (queries, khat, n_cache, s_cache, scale)


def _scores_bwd(cache, gmap):
    """The gradient of the scaled scores sqrt(d)·queries·k̂ (n_q × n_k)."""
    _, _, _, s_cache, scale = cache
    return scale * softmax_bwd(s_cache, _t(gmap))


def compatibility_bwd(cache, gmap):
    """(gqueries, gkeys), each with the leading axes of the map."""
    queries, khat, n_cache, _, _ = cache
    gscores = _scores_bwd(cache, gmap)
    return gscores @ _t(khat), l2_normalize_bwd(n_cache, _t(queries) @ gscores)


# ---------------------------------------------------------------------------
# context collection (per level)
# ---------------------------------------------------------------------------

def _flat(fdata):
    """(..., c, h, w) -> (..., c, h·w)."""
    return fdata.reshape(fdata.shape[:-2] + (-1,))


def collect_context_fwd(fdata, psi, phi):
    """Pool the h·w positions of each feature map into n_i context columns.

    The bank is (φ·fm)·attn; the embedding φ·fm (c × h·w) is not cached,
    since the backward never reads it.
    """
    c_i = fdata.shape[-3]
    fm = _flat(fdata)
    attn, cf_cache = compatibility_fwd(psi, fm, c_i)  # (hw × n_i)
    bank = (phi @ fm) @ attn
    return bank, (fdata.shape, fm, attn, phi, cf_cache)


def collect_context_bwd(cache, gbank):
    """(gfdata, gpsi, gphi) of collect_context_fwd.

    The bank is φ·fm·attn, so the embedding gradient gbank·attnᵀ (c × h·w)
    is never built: with g = φᵀ·gbank (c_i × n_i), the attention's gradient
    is fmᵀ·g, gφ = gbank·(fm·attn)ᵀ, and the map's gradient gains g·attnᵀ,
    all through the n_i context columns.
    """
    shape, fm, attn, phi, cf_cache = cache
    gcol = phi.T @ gbank  # (c_i × n_i)
    gpsi, gfm = compatibility_bwd(cf_cache, _t(fm) @ gcol)
    gphi = gbank @ _t(fm @ attn)
    gfm = gfm + gcol @ _t(attn)
    return gfm.reshape(shape), sum_batch(gpsi, 2), sum_batch(gphi, 2)


# ---------------------------------------------------------------------------
# orthogonality penalty on the entity weights
# ---------------------------------------------------------------------------

def orthogonal_reg(store, lambda_o):
    """(lambda_o · Σ ||ψψᵀ − I||², {name: gradient}) over every stored
    ``mgc.l*.psi.weight``, in store order."""
    total, grads = 0.0, {}
    for name, psi in store.items():
        if name.startswith("mgc.l") and name.endswith(".psi.weight"):
            d = psi @ psi.T - np.eye(psi.shape[0], dtype=psi.dtype)
            total += float((d * d).sum())
            grads[name] = (4.0 * lambda_o) * (d @ psi)
    return lambda_o * total, grads


# ---------------------------------------------------------------------------
# graph reasoning
# ---------------------------------------------------------------------------

def gcn_layer_fwd(g, weights):
    """Residual graph layer with weights (w1, w2, w3); the adjacency is
    self-attention over columns."""
    c = g.shape[-2]
    if c % 4:
        raise ValueError("channel width must be divisible by 4")
    w1, w2, w3 = weights
    a1 = w1 @ g
    a2 = w2 @ g
    adj, cf_cache = compatibility_fwd(_t(a1), a2, c // 4)  # (n × n)
    mix = g @ adj
    out = w3 @ mix + g
    return out, (g, weights, adj, mix, cf_cache)


def gcn_layer_bwd(cache, gout):
    g, (w1, w2, w3), adj, mix, cf_cache = cache
    gw3 = sum_batch(gout @ _t(mix), 2)
    gmix = w3.T @ gout
    gg = gout + gmix @ _t(adj)
    gadj = _t(g) @ gmix
    ga1t, ga2 = compatibility_bwd(cf_cache, gadj)
    gw1 = sum_batch(_t(ga1t) @ _t(g), 2)
    gw2 = sum_batch(ga2 @ _t(g), 2)
    gg = gg + w1.T @ _t(ga1t) + w2.T @ ga2
    return gg, gw1, gw2, gw3


def reason_multilevel_fwd(banks, weights):
    """Column-concatenate the per-level banks and run one shared layer."""
    widths = {b.shape[-2] for b in banks}
    if len(widths) != 1:
        raise ValueError(f"banks disagree on channel width: {sorted(widths)}")
    cat = np.concatenate(banks, axis=-1)
    fused, g_cache = gcn_layer_fwd(cat, weights)
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
    """Attend each position to the fused bank, add a residual projection.

    The queries q = θ·fm (c × h·w) are cached neither here nor in the
    compatibility cache, whose query slot is None: the backward reaches
    them only through θ and fm.
    """
    h, w = fdata.shape[-2:]
    c = fused.shape[-2]
    fm = _flat(fdata)
    attn, cf_cache = compatibility_fwd(_t(theta @ fm), fused, c)  # (n × hw)
    cf_cache = (None,) + cf_cache[1:]
    ctx = out_weight @ fused  # (c × n)
    out = (ctx @ attn + xi @ fm).reshape(fdata.shape[:-3] + (c, h, w))
    return out, (fdata.shape, fm, attn, ctx, fused, theta, xi, out_weight, cf_cache)


def distribute_context_bwd(cache, gout):
    """(gfdata, gfused, gtheta, gxi, gw_o) of distribute_context_fwd.

    The queries q = θ·fm enter only through the scores qᵀ·k̂ over the n
    context columns, so the query gradient k̂·gsᵀ (c × h·w) is never built:
    with gs the score gradient (h·w × n), gθ = k̂·(fm·gs)ᵀ, the keys take
    q·gs as θ·(fm·gs), and the map's gradient (θᵀ·k̂)·gsᵀ + ξᵀ·go routes
    through the n columns.
    """
    shape, fm, attn, ctx, fused, theta, xi, out_weight, cf_cache = cache
    _, khat, n_cache, _, _ = cf_cache
    go = _flat(gout)
    gctx = go @ _t(attn)
    gattn = _t(ctx) @ go
    gw_o = sum_batch(gctx @ _t(fused), 2)
    gs = _scores_bwd(cf_cache, gattn)
    fgs = fm @ gs  # (c_i × n)
    gfused = out_weight.T @ gctx + l2_normalize_bwd(n_cache, theta @ fgs)
    gtheta = sum_batch(khat @ _t(fgs), 2)
    gxi = sum_batch(go @ _t(fm), 2)
    gfm = (theta.T @ khat) @ _t(gs) + xi.T @ go
    return gfm.reshape(shape), gfused, gtheta, gxi, gw_o


# ---------------------------------------------------------------------------
# whole module
# ---------------------------------------------------------------------------

def mgc_forward_fwd(levels, store, tape=None):
    """levels: list of LevelFeature -> (context-enriched levels, tape).

    Reads the store by the names param_shapes lists.  Collection runs on
    the levels whose ``psi`` weight is stored; distribution runs on every
    level given.  With a tape, each stage is recorded on it: level L is
    slot f{L}, read by its collection and written back by its
    distribution, its bank is mgc.l{L}.bank and the fused bank mgc.fused.
    The per-level stages, whose outputs are independent of each other, run
    from the coarsest level down, so the replay sums the gradients of each
    level, of the fused bank and of mgc.out.weight from the finest level up.
    """
    levels = sorted(levels, key=lambda f: f.level)
    for f in levels:
        if f"mgc.l{f.level}.theta.weight" not in store:
            raise ValueError(f"no parameters for level {f.level}")
    collected = [f for f in levels if f"mgc.l{f.level}.psi.weight" in store]
    if not collected:
        raise ValueError("at least one level must collect context")

    banks = {}
    for f in reversed(collected):
        name = f"mgc.l{f.level}"
        slot, w = f"{name}.bank", (f"{name}.psi.weight", f"{name}.phi.weight")
        bank = record(tape, collect_context_bwd, collect_context_fwd(f.data, *_read(store, w)),
                      (f"f{f.level}", *w), (slot,))
        gcn = _gcn_names(f"{name}.gcn")
        banks[f.level] = record(tape, gcn_layer_bwd, gcn_layer_fwd(bank, _read(store, gcn)),
                                (slot, *gcn), (slot,))
    shared = _gcn_names("mgc.shared_gcn")
    fused = record(tape, reason_multilevel_bwd,
                   reason_multilevel_fwd([banks[f.level] for f in collected], _read(store, shared)),
                   (*(f"mgc.l{f.level}.bank" for f in collected), *shared), ("mgc.fused",))

    outs = {}
    for f in reversed(levels):
        slot = f"f{f.level}"
        w = (f"mgc.l{f.level}.theta.weight", f"mgc.l{f.level}.xi.weight", "mgc.out.weight")
        out = record(tape, distribute_context_bwd,
                     distribute_context_fwd(f.data, fused, *_read(store, w)),
                     (slot, "mgc.fused", *w), (slot,))
        outs[f.level] = LevelFeature(f.level, out)
    return [outs[f.level] for f in levels], tape
