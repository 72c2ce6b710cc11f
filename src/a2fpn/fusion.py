"""Content-aware upsampling and pooling fusion between adjacent levels.

The top-down op upsamples the coarser feature with per-location predicted
kernels, the bottom-up op downsamples the finer one the same way; in both,
the kernel predictor and the channel gates read a concatenation of the two
features (the guidance), and the gated features merge by addition followed
by a 3×3 anti-alias convolution.  Plain CARAFE/CAP ablation baselines are
the same pipeline with guidance off and gates pinned to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .levels import LevelFeature
from .nn_ops import (
    ConvParams,
    bilinear_upsample_bwd,
    bilinear_upsample_fwd,
    concat_channels_bwd,
    concat_channels_fwd,
    conv2d_bwd,
    conv2d_fwd,
    max_pool2d_bwd,
    max_pool2d_fwd,
    pixel_shuffle_bwd,
    pixel_shuffle_fwd,
)
from .tensor_core import (
    layer_norm_bwd,
    layer_norm_fwd,
    relu_bwd,
    relu_fwd,
    sigmoid_bwd,
    sigmoid_fwd,
    softmax_bwd,
    softmax_fwd,
    two_sigmoid_bwd,
    two_sigmoid_fwd,
)

GATE_ACTS = ("two_sigmoid", "sigmoid")
# Size cap on one row block of the unfolded source in reassemble_up: about
# L2-sized, so the gather and its GEMM stay in cache, and the op's transient
# memory stays bounded at any level size.
_UNFOLD_BLOCK_BYTES = 2 << 20


@dataclass
class FusionParams:
    """Everything one fusion site owns.

    compressor: 1×1 conv squeezing the guidance to c_m channels
    encoder:    3×3 conv (ReLU) blending them
    predictor:  k_en conv emitting s²·k² kernel logits (stride 1, upsampling)
                or k² logits (stride s, downsampling)
    gate_w1/w2/w3, ln_gain/ln_shift: the channel-gate path
    smooth:     the 3×3 anti-alias conv after the merge
    """

    compressor: ConvParams
    encoder: ConvParams
    predictor: ConvParams
    gate_w1: np.ndarray
    gate_w2: np.ndarray
    gate_w3: np.ndarray
    ln_gain: np.ndarray
    ln_shift: np.ndarray
    smooth: ConvParams
    k: int = 5
    s: int = 2
    gate_act: str = "two_sigmoid"

    def __post_init__(self):
        if self.k % 2 == 0:
            raise ValueError("reassembly tap size must be odd")
        if self.gate_act not in GATE_ACTS:
            raise ValueError(f"gate_act must be one of {GATE_ACTS}")


@dataclass
class ChannelGates:
    high_gate: np.ndarray  # scales the coarser-level feature
    low_gate: np.ndarray  # scales the finer-level feature


@dataclass
class ReassemblyKernels:
    values: np.ndarray  # k² × H × W, each location a distribution


def _tap_count(k2):
    k = math.isqrt(k2)
    if k * k != k2:
        raise ValueError(f"kernel axis {k2} is not a square tap count")
    return k


# ---------------------------------------------------------------------------
# kernel prediction
# ---------------------------------------------------------------------------

def predict_up_kernels(coarse, fine_pooled, p: FusionParams):
    out, _ = predict_up_kernels_fwd(coarse, fine_pooled, p)
    return ReassemblyKernels(out)


def predict_up_kernels_fwd(coarse, fine_pooled, p):
    """Guidance -> compress -> encode -> predict s²k² logits -> shuffle ->
    softmax over the k² tap axis.  fine_pooled None drops the guidance."""
    if fine_pooled is not None:
        src, c_cat = concat_channels_fwd(coarse, fine_pooled)
    else:
        src, c_cat = coarse, None
    z1, c1 = conv2d_fwd(p.compressor, src)
    z2, c2 = conv2d_fwd(p.encoder, z1)
    z3, c3 = relu_fwd(z2)
    z4, c4 = conv2d_fwd(p.predictor, z3)
    z5, c5 = pixel_shuffle_fwd(z4, p.s)
    kern, c6 = softmax_fwd(z5, axis=0)
    return kern, (c_cat, c1, c2, c3, c4, c5, c6)


def predict_up_kernels_bwd(cache, gkern):
    c_cat, c1, c2, c3, c4, c5, c6 = cache
    g5 = softmax_bwd(c6, gkern)
    g4 = pixel_shuffle_bwd(c5, g5)
    g3, gw_p, gb_p = conv2d_bwd(c4, g4)
    g2 = relu_bwd(c3, g3)
    g1, gw_e, gb_e = conv2d_bwd(c2, g2)
    gsrc, gw_c, gb_c = conv2d_bwd(c1, g1)
    if c_cat is not None:
        gcoarse, gfine = concat_channels_bwd(c_cat, gsrc)
    else:
        gcoarse, gfine = gsrc, None
    pg = {
        "kpred.compressor.weight": gw_c,
        "kpred.compressor.bias": gb_c,
        "kpred.encoder.weight": gw_e,
        "kpred.encoder.bias": gb_e,
        "kpred.predictor.weight": gw_p,
        "kpred.predictor.bias": gb_p,
    }
    return gcoarse, gfine, pg


def predict_down_kernels(fine, coarse_up, p: FusionParams):
    out, _ = predict_down_kernels_fwd(fine, coarse_up, p)
    return ReassemblyKernels(out)


def predict_down_kernels_fwd(fine, coarse_up, p):
    """Same predictor shape but strided, emitting k² logits directly."""
    if coarse_up is not None:
        src, c_cat = concat_channels_fwd(fine, coarse_up)
    else:
        src, c_cat = fine, None
    z1, c1 = conv2d_fwd(p.compressor, src)
    z2, c2 = conv2d_fwd(p.encoder, z1)
    z3, c3 = relu_fwd(z2)
    z4, c4 = conv2d_fwd(p.predictor, z3)  # stride s lives in the ConvParams
    kern, c5 = softmax_fwd(z4, axis=0)
    return kern, (c_cat, c1, c2, c3, c4, c5)


def predict_down_kernels_bwd(cache, gkern):
    c_cat, c1, c2, c3, c4, c5 = cache
    g4 = softmax_bwd(c5, gkern)
    g3, gw_p, gb_p = conv2d_bwd(c4, g4)
    g2 = relu_bwd(c3, g3)
    g1, gw_e, gb_e = conv2d_bwd(c2, g2)
    gsrc, gw_c, gb_c = conv2d_bwd(c1, g1)
    if c_cat is not None:
        gfine, gcoarse_up = concat_channels_bwd(c_cat, gsrc)
    else:
        gfine, gcoarse_up = gsrc, None
    pg = {
        "kpred.compressor.weight": gw_c,
        "kpred.compressor.bias": gb_c,
        "kpred.encoder.weight": gw_e,
        "kpred.encoder.bias": gb_e,
        "kpred.predictor.weight": gw_p,
        "kpred.predictor.bias": gb_p,
    }
    return gfine, gcoarse_up, pg


# ---------------------------------------------------------------------------
# reassembly
# ---------------------------------------------------------------------------

def reassemble_up(coarse, kernels, s=2):
    out, _ = reassemble_up_fwd(coarse, kernels, s)
    return out


def _unfold_rows(w, c, k2, itemsize):
    """Coarse rows per block of the unfolded source in reassemble_up."""
    return max(1, _UNFOLD_BLOCK_BYTES // (w * c * k2 * itemsize))


def _by_cell(a, s):
    """(m, s·h, s·w) viewed as (h, w, m, s, s): the s×s pixels of each coarse cell."""
    m, sh, sw = a.shape
    return a.reshape(m, sh // s, s, sw // s, s).transpose(1, 3, 0, 2, 4)


def reassemble_up_fwd(coarse, kernels, s=2):
    """out(x, y) = kernel(x, y) · k×k zero-padded window of coarse(⌊x/s⌋, ⌊y/s⌋).

    Computed as an unfold and a batched GEMM, as in CARAFE (Wang et al.,
    arXiv 1905.02188): the s² outputs of coarse cell (y, x) all read the
    same window, so they are one product U(c×k²) @ K(k²×s²) of the unfolded
    window and the cell's kernels.  U comes from a sliding_window_view of a
    channel-last copy of the padded source.  The products run as one stacked
    matmul per block of coarse rows, sized so that the unfolded block stays
    under _UNFOLD_BLOCK_BYTES, and each block's products are written straight
    into the s×s pixels of their cells in the output.
    """
    if isinstance(kernels, ReassemblyKernels):
        kernels = kernels.values
    c, h, w = coarse.shape
    k = _tap_count(kernels.shape[0])
    if kernels.shape[1:] != (s * h, s * w):
        raise ValueError(f"kernels {kernels.shape} do not cover a ×{s} output of {coarse.shape}")
    r = (k - 1) // 2
    k2 = k * k
    # channel-last, so each unfolded window copies in runs of c contiguous values;
    # the cache holds its channel-first view as the padded source
    cpt = np.pad(coarse.transpose(1, 2, 0), ((r, r), (r, r), (0, 0)))
    windows = sliding_window_view(cpt, (k, k), axis=(0, 1))
    kcell = _by_cell(kernels, s)
    out = np.empty((c, s * h, s * w), dtype=coarse.dtype)
    ocell = _by_cell(out, s)
    rows = _unfold_rows(w, c, k2, cpt.itemsize)
    for y0 in range(0, h, rows):
        n = min(rows, h - y0)
        ut = windows[y0 : y0 + n].transpose(0, 1, 3, 4, 2).reshape(n, w, k2, c)
        uk = np.matmul(ut.swapaxes(2, 3), kcell[y0 : y0 + n].reshape(n, w, k2, s * s))
        ocell[y0 : y0 + n] = uk.reshape(n, w, c, s, s)
    return out, (coarse.shape, kernels, cpt.transpose(2, 0, 1), s, k, r)


def reassemble_up_bwd(cache, gout):
    """Adjoint of reassemble_up_fwd, by the same unfold and row blocks.

    Per block, gK = Uᵀ G and gUᵀ = K Gᵀ, where G holds each cell's s²
    output gradients; U is unfolded again from the cached padded source
    rather than cached.  gUᵀ folds into the padded-source gradient with one
    slice-add per tap.
    """
    (c, h, w), kernels, cp, s, k, r = cache
    k2 = k * k
    cpt = cp.transpose(1, 2, 0)
    windows = sliding_window_view(cpt, (k, k), axis=(0, 1))
    kcell = _by_cell(kernels, s)
    gcell = _by_cell(gout, s)
    gkern = np.empty(kernels.shape, dtype=kernels.dtype)  # C order, so _by_cell is a view
    gkcell = _by_cell(gkern, s)
    gcpt = np.zeros(cpt.shape, dtype=cp.dtype)
    rows = _unfold_rows(w, c, k2, cp.itemsize)
    for y0 in range(0, h, rows):
        n = min(rows, h - y0)
        ut = windows[y0 : y0 + n].transpose(0, 1, 3, 4, 2).reshape(n, w, k2, c)
        g = gcell[y0 : y0 + n].reshape(n, w, c, s * s)
        gkcell[y0 : y0 + n] = np.matmul(ut, g).reshape(n, w, k2, s, s)
        gut = np.matmul(kcell[y0 : y0 + n].reshape(n, w, k2, s * s), g.swapaxes(2, 3))
        for t in range(k2):
            dy, dx = divmod(t, k)
            gcpt[y0 + dy : y0 + dy + n, dx : dx + w] += gut[:, :, t]
    return np.ascontiguousarray(gcpt[r : r + h, r : r + w].transpose(2, 0, 1)), gkern


def reassemble_down(fine, kernels, s=2):
    out, _ = reassemble_down_fwd(fine, kernels, s)
    return out


def reassemble_down_fwd(fine, kernels, s=2):
    """out(x, y) = kernel(x, y) · k×k zero-padded window of fine(s·x, s·y)."""
    if isinstance(kernels, ReassemblyKernels):
        kernels = kernels.values
    c, sh, sw = fine.shape
    k = _tap_count(kernels.shape[0])
    h, w = kernels.shape[1:]
    if (sh, sw) != (s * h, s * w):
        raise ValueError(f"kernels {kernels.shape} do not cover a /{s} output of {fine.shape}")
    r = (k - 1) // 2
    fp = np.pad(fine, ((0, 0), (r, r), (r, r)))
    out = np.zeros((c, h, w), dtype=fine.dtype)
    for dy in range(k):
        for dx in range(k):
            win = fp[:, dy : dy + s * (h - 1) + 1 : s, dx : dx + s * (w - 1) + 1 : s]
            out += kernels[dy * k + dx] * win
    return out, (fine.shape, kernels, fp, s, k, r)


def reassemble_down_bwd(cache, gout):
    (c, sh, sw), kernels, fp, s, k, r = cache
    h, w = gout.shape[1:]
    gkern = np.empty_like(kernels)
    gfp = np.zeros_like(fp)
    for dy in range(k):
        for dx in range(k):
            win = fp[:, dy : dy + s * (h - 1) + 1 : s, dx : dx + s * (w - 1) + 1 : s]
            gkern[dy * k + dx] = (gout * win).sum(axis=0)
            gfp[:, dy : dy + s * (h - 1) + 1 : s, dx : dx + s * (w - 1) + 1 : s] += kernels[dy * k + dx] * gout
    return gfp[:, r : r + sh, r : r + sw], gkern


# ---------------------------------------------------------------------------
# channel gates
# ---------------------------------------------------------------------------

def channel_gates(a, b, p: FusionParams):
    gates, _ = channel_gates_fwd(a, b, p)
    return gates


def channel_gates_fwd(a, b, p):
    """Attention-pool the concat [a, b] into a descriptor, squeeze and gate.

    Returns gates of length 2·c split as (high_gate, low_gate), where c is
    the channel width of the fused pyramid features.
    """
    if b is not None:
        src, c_cat = concat_channels_fwd(a, b)
    else:
        src, c_cat = a, None
    cs = src.shape[0]
    m = src.reshape(cs, -1)
    logits = (p.gate_w1 @ m).ravel()
    attn, c_soft = softmax_fwd(logits, axis=0)
    z = m @ attn
    h1 = p.gate_w2 @ z
    ln, c_ln = layer_norm_fwd(h1, p.ln_gain, p.ln_shift)
    act_in, c_relu = relu_fwd(ln)
    pre = p.gate_w3 @ act_in
    if p.gate_act == "two_sigmoid":
        g, c_act = two_sigmoid_fwd(pre)
    else:
        g, c_act = sigmoid_fwd(pre)
    c = g.shape[0] // 2
    gates = ChannelGates(high_gate=g[:c], low_gate=g[c:])
    cache = (c_cat, src.shape, m, attn, z, act_in, p, c_soft, c_ln, c_relu, c_act)
    return gates, cache


def channel_gates_bwd(cache, ghigh, glow):
    c_cat, src_shape, m, attn, z, act_in, p, c_soft, c_ln, c_relu, c_act = cache
    gg = np.concatenate([ghigh, glow])
    if p.gate_act == "two_sigmoid":
        gpre = two_sigmoid_bwd(c_act, gg)
    else:
        gpre = sigmoid_bwd(c_act, gg)
    gw3 = np.outer(gpre, act_in)
    gact = p.gate_w3.T @ gpre
    gln = relu_bwd(c_relu, gact)
    gh1, ggain, gshift = layer_norm_bwd(c_ln, gln)
    gw2 = np.outer(gh1, z)
    gz = p.gate_w2.T @ gh1
    gm = np.outer(gz, attn)
    gattn = m.T @ gz
    glogits = softmax_bwd(c_soft, gattn)
    gw1 = glogits[None, :] @ m.T
    gm = gm + p.gate_w1.T @ glogits[None, :]
    gsrc = gm.reshape(src_shape)
    if c_cat is not None:
        ga, gb = concat_channels_bwd(c_cat, gsrc)
    else:
        ga, gb = gsrc, None
    pg = {
        "gate.w1.weight": gw1,
        "gate.w2.weight": gw2,
        "gate.w3.weight": gw3,
        "gate.ln.gain": ggain,
        "gate.ln.shift": gshift,
    }
    return ga, gb, pg


# ---------------------------------------------------------------------------
# full fusion sites
# ---------------------------------------------------------------------------

def fuse_topdown(upper: LevelFeature, lateral: LevelFeature, p, guided=True, gated=True):
    out, _ = fuse_topdown_fwd(upper, lateral, p, guided, gated)
    return out


def fuse_topdown_fwd(upper, lateral, p, guided=True, gated=True):
    """Merge the coarser top-down feature into the lateral one.

    Pool the lateral to the coarse grid, predict upsampling kernels from
    [upper, pooled], reassemble the upper feature to the fine grid, gate
    both sides per channel, add, and smooth with the anti-alias conv.
    """
    cu, hu, wu = upper.data.shape
    if lateral.data.shape != (cu, p.s * hu, p.s * wu):
        raise ValueError(
            f"lateral {lateral.data.shape} is not ×{p.s} of upper {upper.data.shape}"
        )
    pooled, c_pool = max_pool2d_fwd(lateral.data)
    guide = pooled if guided else None
    kern, c_kern = predict_up_kernels_fwd(upper.data, guide, p)
    up, c_re = reassemble_up_fwd(upper.data, kern, p.s)
    if gated:
        gates, c_gate = channel_gates_fwd(upper.data, guide, p)
        pre = gates.high_gate[:, None, None] * up + gates.low_gate[:, None, None] * lateral.data
    else:
        gates, c_gate = None, None
        pre = up + lateral.data
    out, c_sm = conv2d_fwd(p.smooth, pre)
    feat = LevelFeature(lateral.level, lateral.stride, out)
    cache = (upper, lateral, up, gates, c_pool, c_kern, c_re, c_gate, c_sm, gated)
    return feat, cache


def fuse_topdown_bwd(cache, gout):
    upper, lateral, up, gates, c_pool, c_kern, c_re, c_gate, c_sm, gated = cache
    gpre, gw_s, gb_s = conv2d_bwd(c_sm, gout)
    pg = {"smooth.weight": gw_s, "smooth.bias": gb_s}
    if gated:
        gup = gates.high_gate[:, None, None] * gpre
        glat = gates.low_gate[:, None, None] * gpre
        ghigh = (gpre * up).sum(axis=(1, 2))
        glow = (gpre * lateral.data).sum(axis=(1, 2))
        gupper_g, gpooled_g, gate_pg = channel_gates_bwd(c_gate, ghigh, glow)
        pg.update(gate_pg)
    else:
        gup, glat = gpre, gpre.copy()
        gupper_g, gpooled_g = 0, None
    gupper_r, gkern = reassemble_up_bwd(c_re, gup)
    gupper_k, gpooled_k, kpred_pg = predict_up_kernels_bwd(c_kern, gkern)
    pg.update(kpred_pg)
    gpooled = None
    for g in (gpooled_g, gpooled_k):
        if g is not None:
            gpooled = g if gpooled is None else gpooled + g
    if gpooled is not None:
        glat = glat + max_pool2d_bwd(c_pool, gpooled)
    gupper = gupper_r + gupper_k + gupper_g
    return gupper, glat, pg


def fuse_bottomup(lower: LevelFeature, td: LevelFeature, p, guided=True, gated=True):
    out, _ = fuse_bottomup_fwd(lower, td, p, guided, gated)
    return out


def fuse_bottomup_fwd(lower, td, p, guided=True, gated=True):
    """Merge the finer bottom-up feature into the same-level top-down one.

    Upsample the top-down feature bilinearly, predict pooling kernels from
    [lower, upsampled], reassemble the lower feature onto the coarse grid,
    gate, add, smooth.
    """
    ct, ht, wt = td.data.shape
    if lower.data.shape != (ct, p.s * ht, p.s * wt):
        raise ValueError(f"lower {lower.data.shape} is not ×{p.s} of td {td.data.shape}")
    upsampled, c_up = bilinear_upsample_fwd(td.data, p.s)
    guide = upsampled if guided else None
    kern, c_kern = predict_down_kernels_fwd(lower.data, guide, p)
    down, c_re = reassemble_down_fwd(lower.data, kern, p.s)
    if gated:
        gates, c_gate = channel_gates_fwd(lower.data, guide, p)
        pre = gates.high_gate[:, None, None] * td.data + gates.low_gate[:, None, None] * down
    else:
        gates, c_gate = None, None
        pre = td.data + down
    out, c_sm = conv2d_fwd(p.smooth, pre)
    feat = LevelFeature(td.level, td.stride, out)
    cache = (lower, td, down, gates, c_up, c_kern, c_re, c_gate, c_sm, gated)
    return feat, cache


def fuse_bottomup_bwd(cache, gout):
    lower, td, down, gates, c_up, c_kern, c_re, c_gate, c_sm, gated = cache
    gpre, gw_s, gb_s = conv2d_bwd(c_sm, gout)
    pg = {"smooth.weight": gw_s, "smooth.bias": gb_s}
    if gated:
        gtd = gates.high_gate[:, None, None] * gpre
        gdown = gates.low_gate[:, None, None] * gpre
        ghigh = (gpre * td.data).sum(axis=(1, 2))
        glow = (gpre * down).sum(axis=(1, 2))
        glower_g, gups_g, gate_pg = channel_gates_bwd(c_gate, ghigh, glow)
        pg.update(gate_pg)
    else:
        gtd, gdown = gpre.copy(), gpre
        glower_g, gups_g = 0, None
    glower_r, gkern = reassemble_down_bwd(c_re, gdown)
    glower_k, gups_k, kpred_pg = predict_down_kernels_bwd(c_kern, gkern)
    pg.update(kpred_pg)
    gups = None
    for g in (gups_g, gups_k):
        if g is not None:
            gups = g if gups is None else gups + g
    if gups is not None:
        gtd = gtd + bilinear_upsample_bwd(c_up, gups)
    glower = glower_r + glower_k + glower_g
    return glower, gtd, pg


def carafe_baseline(upper, lateral, p):
    """Plain content-aware upsampling fusion: no guidance, gates of 1."""
    return fuse_topdown(upper, lateral, p, guided=False, gated=False)


def cap_baseline(lower, td, p):
    """Plain content-aware pooling fusion: no guidance, gates of 1."""
    return fuse_bottomup(lower, td, p, guided=False, gated=False)
