"""Spatial primitives: convolution, pooling, resampling, pixel shuffle.

All ops act on single images laid out channel-first (c, h, w); batching is
the caller's loop.  Convolution is cross-correlation (no kernel flip) with
zero padding.  Forward variants ``*_fwd`` return (out, cache) for the
matching ``*_bwd``.

Convolution takes one of two paths in each direction, chosen from the
conv's shape alone:

* 3×3 stride-1 convs (any padding) with cout·cin·h_out·w_out at or above
  ``_WINOGRAD_MIN_SIZE`` (2²⁵, the measured crossover) run their backward
  by Winograd F(2×2, 3×3) (Lavin & Gray, arXiv 1509.09308): 16 multiplies
  per 2×2 output tile and channel pair where direct convolution needs 36.
  In the neck at a 256² input these are the c=256 convs at 32² and 64².
  The tiles are transformed and multiplied in blocks of tile rows sized by
  ``_WINOGRAD_BLOCK_BYTES``, so no im2col matrix and no full transformed
  input is built.  The cache holds only the padded input; the backward
  recomputes the transformed kernels and, block by block, the input
  transform.
* Their forward takes Winograd only from ``_WINOGRAD_FWD_MIN_SIZE`` (2²⁹)
  up, in the neck the c=256 convs at 128².  Below it the forward stays on
  im2col, so that a 256² input keeps the f32 rounding the committed
  perfbench digests were made with (ROADMAP item 6).  The backward changes
  no forward value, so only the forward is held.
* Every other conv (strided, k ≠ 3, or below ``_WINOGRAD_MIN_SIZE``) is one
  GEMM with the im2col column matrix (cin·k², h_out·w_out), which the
  cache holds.  For 1×1 stride-1 convs that matrix is a view of the input,
  and the input gradient is the column gradient reshaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class ConvParams:
    """out_ch × in_ch × k × k kernel with optional bias, stride, padding."""

    weight: np.ndarray
    bias: Optional[np.ndarray] = None
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.weight.ndim != 4 or self.weight.shape[2] != self.weight.shape[3]:
            raise ValueError(f"kernel must be out×in×k×k square, got {self.weight.shape}")
        if self.bias is not None and self.bias.shape != (self.weight.shape[0],):
            raise ValueError("bias length must equal out_ch")
        if self.stride < 1 or self.padding < 0:
            raise ValueError("stride must be ≥ 1 and padding ≥ 0")

    @property
    def ksize(self):
        return self.weight.shape[2]


def same_padding(k):
    """Padding giving 'same' output size for stride 1 and odd k."""
    return (k - 1) // 2


def _out_extent(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


# Winograd F(2×2, 3×3) (Lavin & Gray, arXiv 1509.09308): a 2×2 output tile
# is Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A for the 4×4 input tile d and 3×3 kernel g.
# Two-sided transforms are taken as one product with a Kronecker matrix:
# vec(P X Qᵀ) = (P⊗Q) vec(X), with vec in row-major order.
_WINO_BT = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
_WINO_G = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 0.0, 1.0]])
_WINO_AT = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]])
_WINO_GG = np.kron(_WINO_G, _WINO_G)  # (16, 9) kernel transform
_WINO_AA = np.kron(_WINO_AT, _WINO_AT)  # (4, 16) output transform
_WINO_BB = np.kron(_WINO_BT, _WINO_BT)  # (16, 16) input transform
# 3×3 stride-1 convs with cout·cin·h_out·w_out at or above this run their
# backward by Winograd.  Measured with one BLAS thread in f32 (table in
# CHANGES.md), the Winograd backward alone loses at 1.7e7 and wins from 2.6e7;
# in the neck at a 256² input that is c=256 at 32² and 64².
_WINOGRAD_MIN_SIZE = 1 << 25
# The forward takes Winograd only from this larger size: above every conv of
# a 256² neck input (c=256 at 64² is 2²⁸), below c=256 at 128² (2³⁰).  A 256²
# input then keeps the im2col f32 rounding that the committed perfbench
# digests were made with; at fwdbwd-256 seed 3 those digests sit across a
# ReLU whose f64 pre-activation is -7.9e-7 (ROADMAP item 6).  The backward
# changes no forward value, so it is not held.  Delete this hold, so that
# both directions use _WINOGRAD_MIN_SIZE, once the digests are mended.
_WINOGRAD_FWD_MIN_SIZE = 1 << 29
# Size cap on one row block of transformed tiles (the larger of the input
# and output transforms): about L2-sized, so the transforms stream through
# cache rather than DRAM.
_WINOGRAD_BLOCK_BYTES = 2 << 20


def _use_winograd(weight_shape, stride, h_out, w_out):
    cout, cin, k, _ = weight_shape
    return k == 3 and stride == 1 and cout * cin * h_out * w_out >= _WINOGRAD_MIN_SIZE


def _bt(d, out):
    """out[ξ] = Σ_a Bᵀ[ξ, a] d[a] for the four slices d of a tile axis."""
    np.subtract(d[0], d[2], out=out[0])
    np.add(d[1], d[2], out=out[1])
    np.subtract(d[2], d[1], out=out[2])
    np.subtract(d[1], d[3], out=out[3])


def _winograd_rows(cin, cout, tw, itemsize):
    """Tile rows per block of the Winograd transforms."""
    return max(1, _WINOGRAD_BLOCK_BYTES // (16 * max(cin, cout) * tw * itemsize))


def _winograd_input(xp, ty0, n, tw, dtype):
    """V = Bᵀ d B (16, cin, n·tw) for tile rows ty0..ty0+n of the padded input.

    Separable: Bᵀ over strided row views, then B over strided column views.
    """
    rows = [xp[:, 2 * ty0 + a : 2 * (ty0 + n) + a : 2] for a in range(4)]
    t = np.empty((4,) + rows[0].shape, dtype=dtype)
    _bt(rows, t)
    v = np.empty((4, 4, xp.shape[0], n, tw), dtype=dtype)
    for xi in range(4):
        _bt([t[xi][..., b : 2 * tw + b : 2] for b in range(4)], v[xi])
    return v.reshape(16, xp.shape[0], n * tw)


def _winograd_pad(x, pad):
    """x zero-padded by pad, plus one more row and column for odd output extents."""
    h_out, w_out = x.shape[1] + 2 * pad - 2, x.shape[2] + 2 * pad - 2
    if (pad, h_out % 2, w_out % 2) == (0, 0, 0):
        return x
    return np.pad(x, ((0, 0), (pad, pad + h_out % 2), (pad, pad + w_out % 2)))


def _winograd_kernels(p: ConvParams, xp):
    """U = (G⊗G) vec(w), shape (16, cout, cin), in the dtype the conv computes in."""
    cout, cin = p.weight.shape[:2]
    dt = np.result_type(xp, p.weight) if p.bias is None else np.result_type(xp, p.weight, p.bias)
    return (_WINO_GG.astype(dt) @ p.weight.reshape(cout * cin, 9).T).reshape(16, cout, cin)


def _winograd_fwd(p: ConvParams, x):
    """3×3 stride-1 conv by Winograd F(2×2, 3×3), in blocks of tile rows.

    The kernels are transformed once, U = (G⊗G) vec(w) with shape
    (16, cout, cin).  Per block of tile rows, the input tiles are
    transformed, V = Bᵀ d B (16, cin, tiles), from strided views of the
    padded input; M = U @ V runs as one batched matmul over the 16 tile
    positions; and Y = (Aᵀ⊗Aᵀ) M is written straight into the output's 2×2
    tiles.  Odd output extents are padded to whole tiles and cropped.  The
    bias is added to M at tile position (1, 1), which Aᵀ·A sends to all four
    outputs.  The cache holds the padded input only; the backward
    recomputes U and V.
    """
    cout, cin = p.weight.shape[:2]
    h, w = x.shape[1:]
    h_out, w_out = h + 2 * p.padding - 2, w + 2 * p.padding - 2
    th, tw = -(-h_out // 2), -(-w_out // 2)
    xp = _winograd_pad(x, p.padding)
    u = _winograd_kernels(p, xp)
    dt = u.dtype
    aa = _WINO_AA.astype(dt)
    out = np.empty((cout, th, 2, tw, 2), dtype=dt)
    rows = _winograd_rows(cin, cout, tw, np.dtype(dt).itemsize)
    for ty0 in range(0, th, rows):
        n = min(rows, th - ty0)
        m = np.matmul(u, _winograd_input(xp, ty0, n, tw, dt))
        if p.bias is not None:
            m[5] += p.bias[:, None]
        y = (aa @ m.reshape(16, -1)).reshape(2, 2, cout, n, tw)
        out[:, ty0 : ty0 + n] = y.transpose(2, 3, 0, 4, 1)
    y = out.reshape(cout, 2 * th, 2 * tw)
    if (h_out, w_out) != (2 * th, 2 * tw):
        y = np.ascontiguousarray(y[:, :h_out, :w_out])
    return y, (p, x.shape, xp)


def _winograd_bwd(cache, gy):
    """Adjoint of _winograd_fwd, by the same tile-row blocks.

    The cache is (p, x.shape, xp), with xp padded as _winograd_pad pads; it
    may come from either forward path.  U is recomputed from p.weight.  Per
    block, gM = (A⊗A) gY; then gU += gM Vᵀ, with V recomputed from xp, and
    gV = Uᵀ gM.  gV goes back through the input transform, gd = (B⊗B) gV,
    and the overlapping 4×4 tiles of gd fold into the padded-input gradient
    with one strided slice-add per tile position.  Finally
    gw = Gᵀ (Σ gM Vᵀ) G, taken as (G⊗G)ᵀ gU.
    """
    p, (_, h, w), xp = cache
    cout, cin = p.weight.shape[:2]
    pad = p.padding
    h_out, w_out = gy.shape[1:]
    th, tw = -(-h_out // 2), -(-w_out // 2)
    u = _winograd_kernels(p, xp)
    dt = u.dtype
    gb = gy.sum(axis=(1, 2)) if p.bias is not None else None
    if (h_out, w_out) != (2 * th, 2 * tw):
        gy = np.pad(gy, ((0, 0), (0, 2 * th - h_out), (0, 2 * tw - w_out)))
    gyt = gy.reshape(cout, th, 2, tw, 2)
    aa_t = _WINO_AA.T.astype(dt)
    bb_t = _WINO_BB.T.astype(dt)
    gu = np.zeros((16, cout, cin), dtype=dt)
    gxp = np.zeros(xp.shape, dtype=dt)
    rows = _winograd_rows(cin, cout, tw, np.dtype(dt).itemsize)
    for ty0 in range(0, th, rows):
        n = min(rows, th - ty0)
        g = np.ascontiguousarray(gyt[:, ty0 : ty0 + n].transpose(2, 4, 0, 1, 3), dtype=dt)
        gm = (aa_t @ g.reshape(4, -1)).reshape(16, cout, n * tw)
        gu += np.matmul(gm, _winograd_input(xp, ty0, n, tw, dt).swapaxes(1, 2))
        gv = np.matmul(u.swapaxes(1, 2), gm)
        gd = (bb_t @ gv.reshape(16, -1)).reshape(4, 4, cin, n, tw)
        for a in range(4):
            for b in range(4):
                gxp[:, 2 * ty0 + a : 2 * (ty0 + n) + a : 2, b : 2 * tw + b : 2] += gd[a, b]
    gw = (_WINO_GG.T.astype(dt) @ gu.reshape(16, cout * cin)).T.reshape(p.weight.shape)
    return gxp[:, pad : pad + h, pad : pad + w], gw, gb


def _im2col(xp, k, stride, h_out, w_out):
    # column matrix (cin·k², h_out·w_out); one strided slice per kernel tap
    cin = xp.shape[0]
    if k == 1 and stride == 1:
        return xp.reshape(cin, h_out * w_out)  # a view when xp is contiguous: no copy
    cols = np.empty((cin, k, k, h_out, w_out), dtype=xp.dtype)
    for dy in range(k):
        for dx in range(k):
            cols[:, dy, dx] = xp[:, dy : dy + stride * h_out : stride, dx : dx + stride * w_out : stride]
    return cols.reshape(cin * k * k, h_out * w_out)


def conv2d(p: ConvParams, x):
    y, _ = conv2d_fwd(p, x)
    return y


def conv2d_fwd(p: ConvParams, x):
    """Cross-correlation of x (cin, h, w) with p; returns (y, cache).

    The path is chosen from the shapes alone.  3×3 stride-1 convs with
    cout·cin·h_out·w_out ≥ _WINOGRAD_MIN_SIZE run their backward by Winograd
    F(2×2, 3×3), so their cache is (p, x.shape, xp): the input padded as
    _winograd_pad pads it, and no column matrix.  Their forward runs by
    Winograd (_winograd_fwd) only from _WINOGRAD_FWD_MIN_SIZE up, which keeps
    the im2col f32 rounding of a 256² neck input until the perfbench digests
    are mended (ROADMAP item 6).  Every other forward is one GEMM of the
    kernel matrix with the im2col column matrix (cin·k², h_out·w_out); below
    _WINOGRAD_MIN_SIZE the cache holds that matrix.  For 1×1 stride-1 convs
    it is a view of the (padded) input.
    """
    cout, cin, k, _ = p.weight.shape
    if x.ndim != 3 or x.shape[0] != cin:
        raise ValueError(f"expected input ({cin}, h, w), got {x.shape}")
    h, w = x.shape[1:]
    h_out = _out_extent(h, k, p.stride, p.padding)
    w_out = _out_extent(w, k, p.stride, p.padding)
    if h_out < 1 or w_out < 1:
        raise ValueError(f"kernel {k} with stride {p.stride}, pad {p.padding} exceeds input {h}×{w}")
    winograd_bwd = _use_winograd(p.weight.shape, p.stride, h_out, w_out)
    if winograd_bwd and cout * cin * h_out * w_out >= _WINOGRAD_FWD_MIN_SIZE:
        return _winograd_fwd(p, x)
    if winograd_bwd:
        xp = _winograd_pad(x, p.padding)
    elif p.padding:
        xp = np.pad(x, ((0, 0), (p.padding, p.padding), (p.padding, p.padding)))
    else:
        xp = x
    cols = _im2col(xp, k, p.stride, h_out, w_out)
    y = (p.weight.reshape(cout, -1) @ cols).reshape(cout, h_out, w_out)
    if p.bias is not None:
        y = y + p.bias[:, None, None]
    return y, (p, x.shape, xp if winograd_bwd else cols)


def conv2d_bwd(cache, gy):
    """Adjoints (gx, gweight, gbias); gbias is None for bias-free convs.

    3×3 stride-1 convs from _WINOGRAD_MIN_SIZE up run by Winograd
    (_winograd_bwd), whichever path their forward took; every other conv
    uses the cached column matrix.  The path is chosen again from the same
    shapes as in conv2d_fwd.
    """
    p = cache[0]
    if _use_winograd(p.weight.shape, p.stride, *gy.shape[1:]):
        return _winograd_bwd(cache, gy)
    p, x_shape, cols = cache
    cout, cin, k, _ = p.weight.shape
    h, w = x_shape[1:]
    h_out, w_out = gy.shape[1:]
    gyf = gy.reshape(cout, -1)
    gw = (gyf @ cols.T).reshape(p.weight.shape)
    gb = gyf.sum(axis=1) if p.bias is not None else None
    gcols = p.weight.reshape(cout, -1).T @ gyf
    if k == 1 and p.stride == 1:
        gxp = gcols.reshape(cin, h_out, w_out)  # one tap covering the padded input: no fold
    else:
        gcols = gcols.reshape(cin, k, k, h_out, w_out)
        gxp = np.zeros((cin, h + 2 * p.padding, w + 2 * p.padding), dtype=gy.dtype)
        for dy in range(k):
            for dx in range(k):
                gxp[:, dy : dy + p.stride * h_out : p.stride, dx : dx + p.stride * w_out : p.stride] += gcols[:, dy, dx]
    if p.padding:
        gx = gxp[:, p.padding : p.padding + h, p.padding : p.padding + w]
    else:
        gx = gxp
    return gx, gw, gb


# ---------------------------------------------------------------------------
# 2×2 max pooling, stride 2
# ---------------------------------------------------------------------------

def max_pool2d(x):
    y, _ = max_pool2d_fwd(x)
    return y


def max_pool2d_fwd(x):
    """2×2 max and its window index (row-major), from the four phase views.

    y is np.maximum over the phase views x[:, i::2, j::2].  arg matches
    np.argmax over each window: the first of tied values wins, and so does
    the first NaN, which the equality tests miss and a NaN-only pass sets.
    (Where a window holds both 0.0 and -0.0, y may carry the other zero.)
    """
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"max_pool2d needs even extents, got {h}×{w}")
    phases = [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    y = np.maximum(np.maximum(phases[0], phases[1]), np.maximum(phases[2], phases[3]))
    arg = np.full(y.shape, 3, dtype=np.intp)
    for t in (2, 1, 0):  # later writes win, so the first equal phase is kept
        np.copyto(arg, t, where=phases[t] == y)
    nan = np.isnan(y)
    if nan.any():
        for t in (3, 2, 1, 0):
            np.copyto(arg, t, where=nan & np.isnan(phases[t]))
    return y, (x.shape, arg)


def max_pool2d_bwd(cache, gy):
    (c, h, w), arg = cache
    gwin = np.zeros((c, h // 2, w // 2, 4), dtype=gy.dtype)
    np.put_along_axis(gwin, arg[..., None], gy[..., None], axis=-1)
    return gwin.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)


# ---------------------------------------------------------------------------
# bilinear ×2 upsampling (half-pixel centers, borders clamped)
# ---------------------------------------------------------------------------

def _interp_matrix(n, s, dtype):
    # row i holds the two taps for output center (i + 0.5)/s - 0.5
    src = (np.arange(s * n, dtype=np.float64) + 0.5) / s - 0.5
    src = np.clip(src, 0.0, n - 1)
    lo = np.floor(src).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    frac = src - lo
    m = np.zeros((s * n, n), dtype=np.float64)
    rows = np.arange(s * n)
    m[rows, lo] += 1.0 - frac
    m[rows, hi] += frac
    return m.astype(dtype)


def bilinear_upsample(x, s=2):
    y, _ = bilinear_upsample_fwd(x, s)
    return y


def bilinear_upsample_fwd(x, s=2):
    c, h, w = x.shape
    ry = _interp_matrix(h, s, x.dtype)
    cx = _interp_matrix(w, s, x.dtype)
    y = ry @ x @ cx.T
    return y, (ry, cx)


def bilinear_upsample_bwd(cache, gy):
    ry, cx = cache
    return ry.T @ gy @ cx


def nearest_upsample(x, s=2):
    """Nearest-neighbor ×s used by the plain pyramid baselines (forward only)."""
    return np.repeat(np.repeat(x, s, axis=1), s, axis=2)


# ---------------------------------------------------------------------------
# pixel shuffle
# ---------------------------------------------------------------------------

def pixel_shuffle(x, s=2):
    y, _ = pixel_shuffle_fwd(x, s)
    return y


def pixel_shuffle_fwd(x, s=2):
    cs, h, w = x.shape
    if cs % (s * s):
        raise ValueError(f"channel count {cs} not divisible by s²={s * s}")
    q = cs // (s * s)
    # out[g, s·y+dy, s·x+dx] = in[g·s² + dy·s + dx, y, x]
    y = x.reshape(q, s, s, h, w).transpose(0, 3, 1, 4, 2).reshape(q, s * h, s * w)
    return y, (x.shape, s)


def pixel_shuffle_bwd(cache, gy):
    (cs, h, w), s = cache
    q = cs // (s * s)
    return gy.reshape(q, h, s, w, s).transpose(0, 2, 4, 1, 3).reshape(cs, h, w)


def pixel_unshuffle(x, s=2):
    """Inverse rearrangement of pixel_shuffle."""
    q, sh, sw = x.shape
    if sh % s or sw % s:
        raise ValueError(f"spatial extents {sh}×{sw} not divisible by s={s}")
    return x.reshape(q, sh // s, s, sw // s, s).transpose(0, 2, 4, 1, 3).reshape(q * s * s, sh // s, sw // s)


# ---------------------------------------------------------------------------
# channel concatenation
# ---------------------------------------------------------------------------

def concat_channels(a, b):
    y, _ = concat_channels_fwd(a, b)
    return y


def concat_channels_fwd(a, b):
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"spatial extents disagree: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=0), a.shape[0]


def concat_channels_bwd(cache, gy):
    c1 = cache
    return gy[:c1], gy[c1:]
