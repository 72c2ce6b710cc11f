"""Content-aware fusion of one pyramid level into an adjacent one.

A fusion site merges a source level into a destination level one step
finer or coarser; the direction is read from the levels.  It resamples the
destination onto the source's grid (the guidance), predicts per-location
reassembly kernels and channel gates from the concatenation [source,
guidance], reassembles the source onto the destination's grid, gates the
coarser summand with the high gate and the finer with the low one, adds,
and smooths with a 3×3 anti-alias convolution.  Going up (top-down, the
source coarser) the guidance is a max pool and the reassembly upsamples as
in CARAFE; going down (bottom-up) it is a bilinear upsample and the
reassembly pools as in CAP.  Plain CARAFE/CAP ablation baselines are the
same site with guidance off and gates pinned to 1.

Both readers start linear in x = [source, guidance]: the predictor's 1×1
compressor as W·x, the gates as w1·x and x·attn.  So the backward takes the
gradient of x as one product of rank c_m + 2 (c_m the compressor's width)
and never forms it at x's 2c width; the guidance's adjoint, and the weight
gradients that read x, split the same way (fuse_bwd).  No cache holds x
either: the forward builds it once for both readers and drops it, and the
backward reads the source (a reference to the level) and the guidance
separately, going up the max pool's own output, going down dst itself.

Features are one image (c, h, w) or a batch (n, c, h, w).  Kernels and
gates are then per image, and the site's parameters are shared, so their
gradients are summed over the images.  Kernels keep the predictor's layout
on the coarse grid (h, w): (n, k², h, w) going down, and (n, k²·s², h, w)
in (tap, dy, dx) channel order going up, k² taps per output of a cell.
"""

from __future__ import annotations

import math

import numpy as np

from . import nn_ops
from .levels import LevelFeature
from .nn_ops import (
    ConvParams,
    _lift,
    bilinear_upsample_bwd,
    bilinear_upsample_fwd,
    conv2d_bwd,
    conv2d_fwd,
    max_pool2d_bwd,
    max_pool2d_fwd,
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
    sum_batch,
)

# gate_act -> range r of the gate r·σ(x): two_sigmoid is 1 at x = 0
GATE_ACTS = {"sigmoid": 1.0, "two_sigmoid": 2.0}
# Size cap on one channel block of reassemble_down's output: the block, its
# product buffer and the plane slices a tap reads stay in L2 across the k²
# taps.  Measured with one BLAS thread in f32 at c=256, 256 KB was as fast as
# any cap from 64 KB to 1 MB at outputs of 32², 64² and 128².
_DOWN_BLOCK_BYTES = 256 << 10


def site_shapes(c, c_m, k, k_en, up, s=2, guided=True):
    """Relative name -> shape of every parameter of one fusion site, in store order.

    The kernel predictor and the gates read [source, guidance] (2c channels;
    c without guidance).  The predictor emits s²k² logits per source pixel
    when upsampling (up) and k² when downsampling; the gate squeezes to a
    c/2 bottleneck and emits a high and a low gate per channel.
    """
    cin = 2 * c if guided else c
    logits = s * s * k * k if up else k * k
    return {
        "kpred.compressor.weight": (c_m, cin, 1, 1), "kpred.compressor.bias": (c_m,),
        "kpred.encoder.weight": (c_m, c_m, 3, 3), "kpred.encoder.bias": (c_m,),
        "kpred.predictor.weight": (logits, c_m, k_en, k_en), "kpred.predictor.bias": (logits,),
        "gate.w1.weight": (1, cin), "gate.w2.weight": (c // 2, cin),
        "gate.w3.weight": (2 * c, c // 2),
        "gate.ln.gain": (c // 2,), "gate.ln.shift": (c // 2,),
        "smooth.weight": (c, c, 3, 3), "smooth.bias": (c,),
    }


def _name(prefix, key):
    """``{prefix}.{key}``, the bare key when prefix is empty."""
    return f"{prefix}.{key}" if prefix else key


def _kpred_convs(store, prefix, stride):
    """The (compressor, encoder, predictor) convs stored under prefix, the predictor at stride."""
    return tuple(ConvParams.from_store(store, _name(prefix, f"kpred.{conv}"), st)
                 for conv, st in (("compressor", 1), ("encoder", 1), ("predictor", stride)))


def _gate_weights(store, prefix):
    """The (w1, w2, w3, gain, shift) of the channel gates stored under prefix."""
    return tuple(store[_name(prefix, f"gate.{key}")]
                 for key in ("w1.weight", "w2.weight", "w3.weight", "ln.gain", "ln.shift"))


def _tap_count(k2):
    k = math.isqrt(k2)
    if k * k != k2:
        raise ValueError(f"kernel axis {k2} is not a square tap count")
    if k % 2 == 0:
        raise ValueError(f"reassembly tap size must be odd, got {k}")
    return k


# ---------------------------------------------------------------------------
# kernel prediction
# ---------------------------------------------------------------------------

def predict_kernels_fwd(x, convs, s):
    """x -> compress -> encode -> predict logits -> softmax over the k² tap axis.

    x is the site's reader input: the source, or [source, guidance] that
    fuse_fwd builds once for both readers; s is the site's scale.  The
    kernels keep the logits' layout (see the module docstring); the softmax
    runs over the k² axis of the logits viewed as (k², s², h, w), where
    s² = 1 going down (a stride-s predictor).  The cache keeps the
    compressor in place of its conv cache, so it holds no reference to x.
    """
    compressor, encoder, predictor = convs
    z1 = conv2d_fwd(compressor, x)[0]
    z2, c2 = conv2d_fwd(encoder, z1)
    z3, c3 = relu_fwd(z2)
    logits, c4 = conv2d_fwd(predictor, z3)
    lead, (h, w) = logits.shape[:-3], logits.shape[-2:]
    cell = s * s if predictor.stride == 1 else 1
    kern, c5 = softmax_fwd(logits.reshape(lead + (-1, cell, h, w)), axis=-4)
    return kern.reshape(logits.shape), (compressor, c2, c3, c4, c5)


def predict_kernels_bwd(cache, gkern):
    """((lhs, rhs), param grads) of predict_kernels_fwd: the gradient of the
    reader input x is lhs @ rhs, the compressor's Wᵀ (cin, c_m) times its
    output gradient g1 (…, c_m, h·w).  fuse_bwd forms it, and the
    compressor's own gradients, at low rank; the param grads are the
    encoder's and the predictor's."""
    compressor, c2, c3, c4, c5 = cache
    y, _ = c5  # the kernels in their tap view (…, k², s², h, w)
    g4 = softmax_bwd(c5, gkern.reshape(y.shape)).reshape(gkern.shape)
    g3, gw_p, gb_p = conv2d_bwd(c4, g4)
    g2 = relu_bwd(c3, g3)
    g1, gw_e, gb_e = conv2d_bwd(c2, g2)
    pg = {
        "kpred.encoder.weight": gw_e,
        "kpred.encoder.bias": gb_e,
        "kpred.predictor.weight": gw_p,
        "kpred.predictor.bias": gb_p,
    }
    return (compressor.weight[:, :, 0, 0].T, _flat(g1)), pg


# ---------------------------------------------------------------------------
# reassembly
# ---------------------------------------------------------------------------

def _unfold_rows(w, c, k2, itemsize):
    """Coarse rows per block of the unfolded source in reassemble_up: the
    block is capped at nn_ops' L2-sized _BLOCK_BYTES, so the gather and its
    GEMM stay in cache and the op's transient memory stays bounded."""
    return max(1, nn_ops._BLOCK_BYTES // (w * c * k2 * itemsize))


def _row_blocks(n, h, rows):
    """(i0, i1, y0, y1) blocks of at most ``rows`` coarse rows over n images of h rows.

    A block is whole images when one image fits (rows ≥ h), else a run of
    rows of one image.
    """
    if rows >= h:
        per = rows // h
        for i0 in range(0, n, per):
            yield i0, min(i0 + per, n), 0, h
    else:
        for i0 in range(n):
            for y0 in range(0, h, rows):
                yield i0, i0 + 1, y0, min(y0 + rows, h)


def _kernel_cells(kernels, s):
    """Up-kernels (n, k²·s², h, w) viewed as (n, h, w, k², s²): each coarse cell's kernels."""
    n, _, h, w = kernels.shape
    return kernels.reshape(n, -1, s * s, h, w).transpose(0, 3, 4, 1, 2)


def _windows(xpt, k):
    """View (n, h, w, k, k, c) of the channel-last padded batch xpt with
    [i, y, x, dy, dx, ci] = xpt[i, y + dy, x + dx, ci]: each cell's k×k window, tap-major.

    An np.ndarray over xpt's own buffer, as nn_ops._taps builds its view;
    that needs a C-contiguous xpt, which both callers build.
    """
    assert xpt.flags.c_contiguous
    n, hp, wp, c = xpt.shape
    sn, sy, sx, sc = xpt.strides
    return np.ndarray((n, hp - k + 1, wp - k + 1, k, k, c), xpt.dtype, buffer=xpt,
                      strides=(sn, sy, sx, sy, sx, sc))


def _phases(a, s):
    """(dy, dx, view) for each output phase of a (n, m, s·h, s·w): view is
    a[:, :, dy::s, dx::s] as (n, m, h, w), in row-major phase order."""
    n, m, sh, sw = a.shape
    a6 = a.reshape(n, m, sh // s, s, sw // s, s)
    return [(dy, dx, a6[:, :, :, dy, :, dx]) for dy in range(s) for dx in range(s)]


def _check_cover(src, kernels, fits, what):
    if not fits or src.ndim not in (3, 4) or kernels.shape[:-3] != src.shape[:-3]:
        raise ValueError(f"kernels {kernels.shape} do not cover a {what} output of {src.shape}")


def reassemble_up_fwd(coarse, kernels, s=2):
    """out(s·y + dy, s·x + dx) = kernel(y, x)[:, dy, dx] · k×k zero-padded window of coarse(y, x).

    The kernels are in the predictor's layout (see the module docstring).
    Computed as an unfold and a batched GEMM, as in CARAFE (Wang et al.,
    arXiv 1905.02188): the s² outputs of coarse cell (y, x) all read the
    same window, so they are one product U(c×k²) @ K(k²×s²) of the unfolded
    window and the cell's kernels.  U is copied from a strided view of the
    windows (_windows) over a channel-last copy of the zero-padded source.
    The products run as one stacked matmul per block of coarse rows (whole
    images while one fits), sized so that the unfolded block stays under
    nn_ops._BLOCK_BYTES, and each block's products are written into the
    output one phase (dy, dx) at a time, each copy a run of w values.
    """
    h, w = coarse.shape[-2:]
    k = _tap_count(kernels.shape[-3] // (s * s))
    _check_cover(coarse, kernels, kernels.shape[-3:] == (k * k * s * s, h, w), f"×{s}")
    r = (k - 1) // 2
    k2 = k * k
    cb, kb = _lift(coarse), _lift(kernels)
    n, c = cb.shape[:2]
    # channel-last, so each unfolded window copies in runs of c contiguous values;
    # the cache holds its channel-first view as the padded source
    cpt = np.zeros((n, h + 2 * r, w + 2 * r, c), dtype=coarse.dtype)
    cpt[:, r : r + h, r : r + w] = cb.transpose(0, 2, 3, 1)
    windows = _windows(cpt, k)
    kcell = _kernel_cells(kb, s)
    out = np.empty((n, c, s * h, s * w), dtype=coarse.dtype)
    phases = _phases(out, s)
    for i0, i1, y0, y1 in _row_blocks(n, h, _unfold_rows(w, c, k2, cpt.itemsize)):
        ut = windows[i0:i1, y0:y1].reshape(-1, w, k2, c)
        # copied: the GEMM is ~20% slower on the strided view a block of one image's rows gives
        kt = np.ascontiguousarray(kcell[i0:i1, y0:y1]).reshape(-1, w, k2, s * s)
        uk = np.matmul(ut.swapaxes(2, 3), kt).reshape(i1 - i0, y1 - y0, w, c, s * s)
        for dy, dx, o in phases:
            o[i0:i1, :, y0:y1] = uk[..., dy * s + dx].transpose(0, 3, 1, 2)
    cp = cpt.transpose(0, 3, 1, 2)
    if coarse.ndim == 3:
        out, cp = out[0], cp[0]
    return out, (coarse.shape, kernels, cp, s, k, r)


def reassemble_up_bwd(cache, gout):
    """Adjoint of reassemble_up_fwd, by the same unfold and row blocks.

    Per block, gK = Uᵀ G and gUᵀ = K Gᵀ, where G holds each cell's s²
    output gradients, gathered from gout one phase at a time as the
    forward scatters them; U is unfolded again from the cached padded
    source rather than cached.  gUᵀ folds into the padded-source gradient
    with one slice-add per tap.
    """
    shape, kernels, cp, s, k, r = cache
    c, h, w = shape[-3:]
    k2 = k * k
    kernels = _lift(kernels)
    n = kernels.shape[0]
    cpt = _lift(cp).transpose(0, 2, 3, 1)
    windows = _windows(cpt, k)
    kcell = _kernel_cells(kernels, s)
    phases = _phases(_lift(gout), s)
    gkern = np.empty(kernels.shape, dtype=kernels.dtype)  # C order, so _kernel_cells is a view
    gkcell = _kernel_cells(gkern, s)
    gcpt = np.zeros(cpt.shape, dtype=cp.dtype)
    for i0, i1, y0, y1 in _row_blocks(n, h, _unfold_rows(w, c, k2, cp.itemsize)):
        ni, ny = i1 - i0, y1 - y0
        g = np.empty((ni, ny, w, c, s * s), dtype=gout.dtype)
        for dy, dx, o in phases:
            g[..., dy * s + dx] = o[i0:i1, :, y0:y1].transpose(0, 2, 3, 1)
        g = g.reshape(-1, w, c, s * s)
        # the unfolded block is freed before gUᵀ, of its size, is made
        ut = windows[i0:i1, y0:y1].reshape(-1, w, k2, c)
        gkcell[i0:i1, y0:y1] = np.matmul(ut, g).reshape(ni, ny, w, k2, s * s)
        del ut
        kt = np.ascontiguousarray(kcell[i0:i1, y0:y1]).reshape(-1, w, k2, s * s)
        gut = np.matmul(kt, g.swapaxes(2, 3)).reshape(ni, ny, w, k2, c)
        for t in range(k2):
            dy, dx = divmod(t, k)
            gcpt[i0:i1, y0 + dy : y0 + dy + ny, dx : dx + w] += gut[:, :, :, t]
    gc = np.ascontiguousarray(gcpt[:, r : r + h, r : r + w].transpose(0, 3, 1, 2))
    return (gc, gkern) if len(shape) == 4 else (gc[0], gkern[0])


def _plane_span(ph, n, r, s):
    """Where the phase-ph plane of an axis of n values zero-padded by r
    meets the input: (first input index, first plane index, count, plane length)."""
    i0 = (ph - r) % s
    return i0, (i0 + r - ph) // s, len(range(i0, n, s)), len(range(ph, n + 2 * r, s))


def _phase_planes(fine, r, s):
    """The s² phase planes fp[..., py::s, px::s] of fine zero-padded by r,
    each contiguous, in row-major phase order; fp itself is never built."""
    sh, sw = fine.shape[-2:]
    planes = []
    for py in range(s):
        iy, ay, ny, ly = _plane_span(py, sh, r, s)
        for px in range(s):
            ix, ax, nx, lx = _plane_span(px, sw, r, s)
            plane = np.zeros(fine.shape[:-2] + (ly, lx), dtype=fine.dtype)
            plane[..., ay : ay + ny, ax : ax + nx] = fine[..., iy::s, ix::s]
            planes.append(plane)
    return planes


def _tap_view(planes, dy, dx, s, h, w):
    """fp[..., dy : dy + s·h : s, dx : dx + s·w : s], a unit-stride slice of one phase plane."""
    plane = planes[(dy % s) * s + dx % s]
    return plane[..., dy // s : dy // s + h, dx // s : dx // s + w]


def reassemble_down_fwd(fine, kernels, s=2):
    """out(x, y) = kernel(x, y) · k×k zero-padded window of fine(s·x, s·y).

    The padded fine map fp is split once into its s² phase planes (CAP-style
    pooling reads only every s-th pixel per tap), so tap (dy, dx) reads a
    unit-stride slice of plane (dy mod s, dx mod s) offset by
    (dy // s, dx // s).  The output is built in blocks of channels sized by
    _DOWN_BLOCK_BYTES; within a block the k² products go through one
    preallocated buffer and add into the output in tap order, so every
    output value sums the same products in the same order as a single pass.
    The cache holds the planes.
    """
    k = _tap_count(kernels.shape[-3])
    h, w = kernels.shape[-2:]
    _check_cover(fine, kernels, fine.shape[-2:] == (s * h, s * w), f"/{s}")
    r = (k - 1) // 2
    planes = _phase_planes(fine, r, s)
    out = np.zeros(fine.shape[:-2] + (h, w), dtype=fine.dtype)
    c = out.shape[-3]
    cb = max(1, _DOWN_BLOCK_BYTES // max(1, out[..., :1, :, :].nbytes))  # channels per block
    prod = np.empty(out.shape[:-3] + (min(cb, c), h, w), dtype=np.result_type(kernels, fine))
    for c0 in range(0, c, cb):
        block = out[..., c0 : c0 + cb, :, :]
        pb = prod[..., : block.shape[-3], :, :]
        for t in range(k * k):
            dy, dx = divmod(t, k)
            win = _tap_view(planes, dy, dx, s, h, w)[..., c0 : c0 + cb, :, :]
            np.multiply(kernels[..., t, None, :, :], win, out=pb)
            block += pb
    return out, (fine.shape, kernels, planes, s, k, r)


def reassemble_down_bwd(cache, gout):
    """Adjoint of reassemble_down_fwd, in the forward's channel blocks, tap
    by tap over the cached phase planes.

    Per block, gK for tap t gains gout · (its plane slice), summed over the
    block's channels, so gK is summed block by block; the block's fine-map
    gradient accumulates into one buffer per phase plane, in tap order, and
    is interleaved back into the fine grid before the next block starts.
    """
    shape, kernels, planes, s, k, r = cache
    sh, sw = shape[-2:]
    h, w = gout.shape[-2:]
    c = gout.shape[-3]
    cb = max(1, _DOWN_BLOCK_BYTES // max(1, gout[..., :1, :, :].nbytes))  # channels per block
    dt = np.result_type(gout, kernels, planes[0])
    gkern = np.zeros_like(kernels)
    gk_t = np.empty(gout.shape[:-3] + (h, w), dtype=dt)  # one tap's sum over a block's channels
    prod = np.empty(gout.shape[:-3] + (min(cb, c), h, w), dtype=dt)
    gfine = np.empty(shape, dtype=planes[0].dtype)
    for c0 in range(0, c, cb):
        go = gout[..., c0 : c0 + cb, :, :]
        pb = prod[..., : go.shape[-3], :, :]
        block = [plane[..., c0 : c0 + cb, :, :] for plane in planes]
        gplanes = [np.zeros_like(plane) for plane in block]
        for t in range(k * k):
            dy, dx = divmod(t, k)
            np.multiply(go, _tap_view(block, dy, dx, s, h, w), out=pb)
            gkern[..., t, :, :] += pb.sum(axis=-3, out=gk_t)
            np.multiply(kernels[..., t, None, :, :], go, out=pb)
            _tap_view(gplanes, dy, dx, s, h, w)[...] += pb
        for t, gplane in enumerate(gplanes):
            iy, ay, ny, _ = _plane_span(t // s, sh, r, s)
            ix, ax, nx, _ = _plane_span(t % s, sw, r, s)
            gfine[..., c0 : c0 + cb, iy::s, ix::s] = gplane[..., ay : ay + ny, ax : ax + nx]
    return gfine, gkern


# ---------------------------------------------------------------------------
# channel gates
# ---------------------------------------------------------------------------

def _mv(a, v):
    """a @ v for a vector v, or per image for a stack of vectors (..., n)."""
    return (a @ v[..., None])[..., 0]


def _outer_sum(a, b):
    """Outer product a bᵀ, summed over the images of a batch."""
    return sum_batch(a[..., :, None] * b[..., None, :], 2)


def channel_gates_fwd(x, weights, r):
    """Attention-pool the reader input x into a descriptor, squeeze and gate.

    x is the source, or [source, guidance] as predict_kernels_fwd reads it,
    and weights are the gates' (w1, w2, w3, gain, shift).  Returns
    ((high, low), cache): the two halves of the 2·c gates r·σ(pre) (per
    image), with r the gate range (GATE_ACTS) and c the channel width of
    the fused pyramid features.  The high gate scales the coarser summand
    of a fusion, the low gate the finer.  The cache holds no reference to
    x: channel_gates_bwd takes the one product with x it needs as a function.
    """
    w1, w2, w3, gain, shift = weights
    m = x.reshape(x.shape[:-2] + (-1,))
    logits = (w1 @ m)[..., 0, :]
    attn, c_soft = softmax_fwd(logits, axis=-1)
    z = _mv(m, attn)
    h1 = _mv(w2, z)
    ln, c_ln = layer_norm_fwd(h1, gain, shift)
    act_in, c_relu = relu_fwd(ln)
    pre = _mv(w3, act_in)
    sig, c_act = sigmoid_fwd(pre)
    g = r * sig
    c = g.shape[-1] // 2
    cache = (attn, z, act_in, weights, r, c_soft, c_ln, c_relu, c_act)
    return (g[..., :c], g[..., c:]), cache


def channel_gates_bwd(cache, ghigh, glow, x_t):
    """((lhs, rhs), param grads) of channel_gates_fwd.  The gates read x
    linearly twice, as the logits w1·x and the descriptor z = x·attn, so the
    gradient of x is lhs @ rhs with lhs = [w1ᵀ | gz] (…, cin, 2) and
    rhs = [glogits; attn] (…, 2, h·w).  fuse_bwd forms it, and w1's
    gradient, at low rank; the param grads are those of w2, w3 and the
    layer norm.  The cache keeps no x, so the caller passes x_t, the map
    gz (…, cin) ↦ xᵀ·gz (…, h·w) that takes the descriptor's gradient back
    to the attention logits."""
    attn, z, act_in, (w1, w2, w3, _, _), r, c_soft, c_ln, c_relu, c_act = cache
    gg = np.concatenate([ghigh, glow], axis=-1)
    gpre = sigmoid_bwd(c_act, r * gg)
    gw3 = _outer_sum(gpre, act_in)
    gact = _mv(w3.T, gpre)
    gln = relu_bwd(c_relu, gact)
    gh1, ggain, gshift = layer_norm_bwd(c_ln, gln)
    gw2 = _outer_sum(gh1, z)
    gz = _mv(w2.T, gh1)
    glogits = softmax_bwd(c_soft, x_t(gz))
    lhs = np.empty(gz.shape + (2,), dtype=np.result_type(w1, gz))
    lhs[..., 0] = w1[0]
    lhs[..., 1] = gz
    pg = {
        "gate.w2.weight": gw2,
        "gate.w3.weight": gw3,
        "gate.ln.gain": ggain,
        "gate.ln.shift": gshift,
    }
    return (lhs, np.stack([glogits, attn], axis=-2)), pg


# ---------------------------------------------------------------------------
# the readers' low-rank adjoint
# ---------------------------------------------------------------------------

def _flat(a):
    """(..., h, w) -> (..., h·w)."""
    return a.reshape(a.shape[:-2] + (-1,))


def _dots(a, b):
    """Σ over the last two axes of a·b, one dot product per leading index."""
    return (_flat(a)[..., None, :] @ _flat(b)[..., :, None])[..., 0, 0]


def _channel_sum(a, v):
    """Σ_c v_c·a_c of a map a (…, c, h, w) and weights v (…, c), as (…, h·w)."""
    return _mv(_flat(a).swapaxes(-1, -2), v)


def _join(a, b):
    """One factor pair of the sum a[0] @ a[1] + b[0] @ b[1]: the lhs side by
    side, broadcast to the images of the rhs, and the rhs stacked."""
    (la, ra), (lb, rb) = a, b
    ka = la.shape[-1]
    lhs = np.empty(ra.shape[:-2] + (la.shape[-2], ka + lb.shape[-1]), dtype=np.result_type(la, lb))
    lhs[..., :ka] = la
    lhs[..., ka:] = lb
    return lhs, np.concatenate([ra, rb], axis=-2)


def reader_weight_grads(parts, c_m, gated):
    """Gradients of the weights that read x = [src; guide]: the compressor's
    from factor rows :c_m (g1), gate.w1's from row c_m (glogits) when gated.

    parts pairs each block of x's channels, in order, with the factor rows
    on its grid: (rhs, x) for x held whole, (rhs, src) and (rhs, guide) at
    a top-down site, (rhs, src) and (up*(rhs), dst) at a bottom-up one.
    A block's gradient is Σ over images of rows @ blockᵀ, taken as
    (block @ rowsᵀ)ᵀ, the faster operand order of the GEMM.
    """
    k = c_m + gated
    g = np.concatenate([sum_batch(_flat(x) @ r[..., :k, :].swapaxes(-1, -2), 2)
                        for r, x in parts]).T
    pg = {}
    if gated:
        pg["gate.w1.weight"] = g[c_m:]
    if c_m:
        pg["kpred.compressor.weight"] = g[:c_m].reshape(c_m, -1, 1, 1)
        pg["kpred.compressor.bias"] = sum_batch(parts[0][0][..., :c_m, :].sum(axis=-1), 1)
    return pg


# ---------------------------------------------------------------------------
# the fusion site
# ---------------------------------------------------------------------------

def fuse_fwd(src: LevelFeature, dst: LevelFeature, store, prefix="", gate_act="two_sigmoid",
             guided=True, gated=True):
    """Merge src into the adjacent level dst; returns (fused dst level, cache).

    The weights are read from store by the names site_shapes lists, under
    prefix; the scale s from the level extents (one integer s ≥ 2), and the
    tap size k from the predictor's logits (k²·s² going up, k² going down,
    k odd).  Other extents or logit counts, or a gate_act not in GATE_ACTS,
    are a ValueError.

    src above dst (src.level > dst.level) fuses top-down: dst is max-pooled
    s×s onto src's grid as the guidance and src is upsampled by
    reassemble_up.  src below dst fuses bottom-up: dst is upsampled
    bilinearly as the guidance and src is pooled by reassemble_down, the
    predictor running at stride s.  Either way [src, guidance] is
    concatenated once and read by both the kernel predictor and the channel
    gates, then dropped: no cache holds it.  The high gate scales the
    coarser summand and the low gate the finer, the gated sum is built in
    place, and it is smoothed by the anti-alias conv.  guided False drops
    the guidance from both readers; gated False adds the two summands ungated.
    """
    up = src.level > dst.level
    coarse, fine = (src, dst) if up else (dst, src)
    h, w = coarse.data.shape[-2:]
    s = fine.data.shape[-2] // max(h, 1)
    if s < 2 or fine.data.shape != coarse.data.shape[:-2] + (s * h, s * w):
        raise ValueError(f"level {fine.level} {fine.data.shape} is not one integer multiple "
                         f"s ≥ 2 of level {coarse.level} {coarse.data.shape}")
    if gate_act not in GATE_ACTS:
        raise ValueError(f"gate_act must be one of {tuple(GATE_ACTS)}, got {gate_act!r}")
    convs = _kpred_convs(store, prefix, 1 if up else s)
    logits, cell = convs[2].weight.shape[0], s * s if up else 1
    if logits % cell:  # reassembly refuses an even or non-square tap count k²
        raise ValueError(f"{logits} predictor logits are not k²·{cell} for an odd tap size k")
    x, c_guide = src.data, None
    if guided:
        resample_fwd = max_pool2d_fwd if up else bilinear_upsample_fwd
        guide, c_guide = resample_fwd(dst.data, s)
        x = np.concatenate([src.data, guide], axis=-3)
        del guide  # the concat holds it; a max-pool guide lives on in c_guide
    kern, c_kern = predict_kernels_fwd(x, convs, s)
    gates, c_gate = (channel_gates_fwd(x, _gate_weights(store, prefix), GATE_ACTS[gate_act])
                     if gated else (None, None))
    del x
    reassemble_fwd = reassemble_up_fwd if up else reassemble_down_fwd
    re, c_re = reassemble_fwd(src.data, kern, s)
    if gated:
        hi, lo = (g[..., None, None] for g in gates)
        coarser, finer = (re, dst.data) if up else (dst.data, re)
        pre = hi * coarser
        pre += lo * finer
    else:
        pre = re + dst.data
    out, c_sm = conv2d_fwd(ConvParams.from_store(store, _name(prefix, "smooth")), pre)
    feat = LevelFeature(dst.level, out)
    return feat, (prefix, up, src.data, dst.data, re, gates, c_guide, c_kern, c_re, c_gate, c_sm)


def fuse_bwd(cache, gout):
    """(gsrc, gdst, param grads) of fuse_fwd, the param grads under the
    store names the forward read.

    The gradient of the reader input x = [src; guide] is lhs @ rhs, of rank
    c_m + 2 (c_m ungated): the compressor's factors joined with the gates'
    (predict_kernels_bwd, channel_gates_bwd).  It is never formed at x's
    width.  Its source half lhs[:c] @ rhs adds into gsrc.  Going up, the
    guide half lhs[c:] @ rhs goes through the max pool's adjoint on the
    coarse grid.  Going down, the guide is the bilinear ×s resize up(dst),
    which acts on each channel alike, so its adjoint up* moves onto the
    c_m + 2 rows of rhs: the guide half reaches dst as lhs[c:] @ up*(rhs),
    on dst's grid.  The weights that read x split the same way
    (reader_weight_grads).  The gate cotangents are one dot product per
    channel, with no product map, and the reassembly's gradient then takes
    the smoothed sum's gradient buffer in place, so a gated site holds two
    destination-sized gradients, not three.

    x itself is not cached, so the gates' one other product with it, xᵀ·gz
    back from the descriptor, is taken block by block too (x_t):
    srcᵀ·gz[:c] + guideᵀ·gz[c:], with the guide going up the max pool's
    cached output, and going down guideᵀ·gz[c:] = up(dstᵀ·gz[c:]), a
    one-channel resize by the forward's interpolation matrices.
    """
    prefix, up, src, dst, re, gates, c_guide, c_kern, c_re, c_gate, c_sm = cache
    c = src.shape[-3]
    guide = c_guide[1] if c_guide is not None and up else None  # the max pool's output

    def x_t(gz):
        g = _channel_sum(src, gz[..., :c])
        if c_guide is None:
            return g
        if up:
            return g + _channel_sum(guide, gz[..., c:])
        ry, cx = c_guide
        m = _channel_sum(dst, gz[..., c:]).reshape(dst.shape[:-3] + dst.shape[-2:])
        return g + _flat(ry @ m @ cx.T)

    gpre, gw_s, gb_s = conv2d_bwd(c_sm, gout)
    if gates is not None:
        coarse, fine = (re, dst) if up else (dst, re)
        gate, gate_pg = channel_gates_bwd(c_gate, _dots(gpre, coarse), _dots(gpre, fine), x_t)
        hi, lo = (g[..., None, None] for g in gates)
        g_re, g_dst = (hi, lo) if up else (lo, hi)
        gdst = g_dst * gpre
        gre = np.multiply(gpre, g_re, out=gpre)  # gpre is read no more: gre takes its buffer
    else:
        gre, gdst = gpre, gpre.copy()
        gate, gate_pg = None, {}
    reassemble_bwd = reassemble_up_bwd if up else reassemble_down_bwd
    gsrc, gkern = reassemble_bwd(c_re, gre)
    kpred, kpred_pg = predict_kernels_bwd(c_kern, gkern)
    lhs, rhs = kpred if gate is None else _join(kpred, gate)
    gsrc += (lhs[..., :c, :] @ rhs).reshape(gsrc.shape)
    parts = [(rhs, src)]
    if c_guide is not None and up:
        gdst += max_pool2d_bwd(c_guide, (lhs[..., c:, :] @ rhs).reshape(gsrc.shape))
        parts.append((rhs, guide))
    elif c_guide is not None:
        rhs_dst = _flat(bilinear_upsample_bwd(c_guide, rhs.reshape(rhs.shape[:-1] + gsrc.shape[-2:])))
        gdst += (lhs[..., c:, :] @ rhs_dst).reshape(gdst.shape)
        parts.append((rhs_dst, dst))
    wg = reader_weight_grads(parts, kpred[1].shape[-2], gate is not None)
    w1 = {"gate.w1.weight": wg.pop("gate.w1.weight")} if gate is not None else {}
    pg = {"smooth.weight": gw_s, "smooth.bias": gb_s, **w1, **gate_pg, **wg, **kpred_pg}
    return gsrc, gdst, {_name(prefix, key): g for key, g in pg.items()}
