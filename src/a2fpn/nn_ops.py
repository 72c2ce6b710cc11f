"""Spatial primitives: convolution, pooling and resampling.

Feature maps are channel-first, either one image (c, h, w) or a batch of
images (n, c, h, w); every op takes both, and returns the rank it was given.
A (c, h, w) image runs as a batch of one, with the same GEMM shapes and
reduction order it had before the batch axis existed.  Convolution is
cross-correlation (no kernel flip) with zero padding.  Forward variants
``*_fwd`` return (out, cache) for the matching ``*_bwd``.

Convolution takes one of two paths in each direction, chosen from the
conv's per-image shape alone:

* 3×3 stride-1 convs (any padding) with cout·cin·h_out·w_out at or above
  ``_WINOGRAD_MIN_SIZE`` (2²⁵, the measured crossover) run their backward
  by Winograd F(2×2, 3×3) (Lavin & Gray, arXiv 1509.09308): 16 multiplies
  per 2×2 output tile and channel pair where direct convolution needs 36.
  In the neck at a 256² input these are the c=256 convs at 32² and 64².
  The tiles are transformed and multiplied image by image, in blocks of
  tile rows sized by ``_BLOCK_BYTES`` (2 MB), so no im2col matrix and no
  full transformed input is built.  The backward recomputes the
  transformed kernels and, block by block, the input transform, and
  accumulates the kernel gradient one tile position at a time, so beyond
  the transformed kernels, their gradient and the conv's gradients it
  holds about two blocks.
* Their forward takes Winograd only from ``_WINOGRAD_FWD_MIN_SIZE`` (2²⁹)
  up, in the neck the c=256 convs at 128².  Below it the forward stays on
  im2col, so that a 256² input keeps the f32 rounding the committed
  perfbench digests were made with (ROADMAP item 1).  The backward changes
  no forward value, so only the forward is held.
* Every other conv (strided, k ≠ 3, or below ``_WINOGRAD_MIN_SIZE``)
  multiplies the kernel matrix with the im2col column matrix
  (cin·k², n·h_out·w_out).  Its forward streams the columns: a matrix
  larger than ``_BLOCK_BYTES`` is built image by image in blocks of output
  rows, in one reused L2-sized buffer, each block one GEMM into the output
  (Chetlur et al., arXiv 1410.0759); a smaller one is one GEMM over all n
  images, and for 1×1 stride-1 convs of one image it is a view of the
  input.  Its backward builds the columns again, whole or in row blocks
  through one reused buffer (whole unless the columns exceed a block by
  more than the weight gradient, whose blocked sum needs a scratch of its
  size): its weight gradient is one GEMM per block, summed; its input
  gradient takes one of two routes, picked by ``_use_gather`` from the
  shapes: gather, s² stride-1 correlations of gy with the flipped,
  transposed kernel (a transposed convolution, one im2col and GEMM per
  input phase; at stride 1 the columns of gy are streamed in row blocks
  like the forward's), or fold, the column gradient folded into the padded
  input one strided slice-add per tap.

Every conv caches its padded input, not its column matrix: the backward
builds the columns again, so a batch's forward caches stay about the size
of its feature maps, and an im2col forward's transient memory beyond its
maps is one column block.

The s×s max pool likewise caches references, to its input and its output,
not a window index: the forward is s² - 1 np.maximum passes over phase
views, and the backward, which alone needs the index, finds it by
comparing each phase with the output.
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

    @classmethod
    def from_store(cls, store, name, stride=1):
        """The conv stored as ``{name}.weight`` and, if present, ``{name}.bias``,
        with "same" padding for its kernel."""
        weight = store[f"{name}.weight"]
        return cls(weight, store.get(f"{name}.bias"), stride=stride,
                   padding=same_padding(weight.shape[-1]))

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
# ReLU whose f64 pre-activation is -7.9e-7 (ROADMAP item 1).  The backward
# changes no forward value, so it is not held.  Delete this hold, so that
# both directions use _WINOGRAD_MIN_SIZE, once the digests are mended.
_WINOGRAD_FWD_MIN_SIZE = 1 << 29
# Size cap on one row block: of transformed Winograd tiles (the larger of the
# input and output transforms), of an im2col conv's column matrix (of x in the
# forward and for the weight gradient, of gy for a stride-1 gathered input
# gradient), and of reassemble_up's unfolded source (fusion._unfold_rows).
# About L2-sized, so a block streams through cache rather than DRAM.  BLAS
# does not promise a GEMM the same bits when it is split into column blocks,
# so the cap moves f32 rounding: at 1 MB the infer-512 outputs and the
# fwdbwd-256 gradients differ from those at 2 MB, where every output of the
# three perfbench workloads keeps its unblocked bits.  A blocked weight
# gradient is a sum over blocks, so it rounds unlike one GEMM over all columns.
_BLOCK_BYTES = 2 << 20


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
    return max(1, _BLOCK_BYTES // (16 * max(cin, cout) * tw * itemsize))


def _winograd_input(xp, ty0, n, tw, dtype):
    """V = Bᵀ d B (16, cin, n·tw) for tile rows ty0..ty0+n of one padded image.

    Separable: Bᵀ over strided row views, then B over strided column views.
    """
    rows = [xp[:, 2 * ty0 + a : 2 * (ty0 + n) + a : 2] for a in range(4)]
    t = np.empty((4,) + rows[0].shape, dtype=dtype)
    _bt(rows, t)
    v = np.empty((4, 4, xp.shape[0], n, tw), dtype=dtype)
    for xi in range(4):
        _bt([t[xi][..., b : 2 * tw + b : 2] for b in range(4)], v[xi])
    return v.reshape(16, xp.shape[0], n * tw)


def _lift(x):
    """x as a batch (n, c, h, w): a single (c, h, w) image becomes a view with n = 1."""
    return x if x.ndim == 4 else x[None]


def _zero_pad(x, pad, extra_h=0, extra_w=0):
    """Batch x zero-padded by pad on each side, plus extra rows and columns at the far ends."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad + extra_h, w + 2 * pad + extra_w), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def _winograd_pad(x, pad):
    """Batch x zero-padded by pad, plus one more row and column for odd output extents."""
    h_out, w_out = x.shape[2] + 2 * pad - 2, x.shape[3] + 2 * pad - 2
    if (pad, h_out % 2, w_out % 2) == (0, 0, 0):
        return x
    return _zero_pad(x, pad, h_out % 2, w_out % 2)


def _winograd_kernels(p: ConvParams, xp):
    """U = (G⊗G) vec(w), shape (16, cout, cin), in the dtype the conv computes in."""
    cout, cin = p.weight.shape[:2]
    dt = np.result_type(xp, p.weight) if p.bias is None else np.result_type(xp, p.weight, p.bias)
    return (_WINO_GG.astype(dt) @ p.weight.reshape(cout * cin, 9).T).reshape(16, cout, cin)


def _winograd_fwd(p: ConvParams, x):
    """3×3 stride-1 conv by Winograd F(2×2, 3×3), image by image in blocks of tile rows.

    The kernels are transformed once, U = (G⊗G) vec(w) with shape
    (16, cout, cin).  Per block of tile rows, the input tiles are
    transformed, V = Bᵀ d B (16, cin, tiles), from strided views of the
    padded input; M = U @ V runs as one batched matmul over the 16 tile
    positions; and Y = (Aᵀ⊗Aᵀ) M is written straight into the output's 2×2
    tiles, one strided copy per output phase.  Odd output extents are
    padded to whole tiles and cropped.  The bias is added to M at tile
    position (1, 1), which Aᵀ·A sends to all four outputs.  The cache is
    (p, x.shape, xp), xp the padded (n, cin, ·, ·) input; the backward
    recomputes U and V.
    """
    cout, cin = p.weight.shape[:2]
    h, w = x.shape[-2:]
    h_out, w_out = h + 2 * p.padding - 2, w + 2 * p.padding - 2
    th, tw = -(-h_out // 2), -(-w_out // 2)
    xp = _winograd_pad(_lift(x), p.padding)
    u = _winograd_kernels(p, xp)
    dt = u.dtype
    aa = _WINO_AA.astype(dt)
    out = np.empty((xp.shape[0], cout, th, 2, tw, 2), dtype=dt)
    rows = _winograd_rows(cin, cout, tw, np.dtype(dt).itemsize)
    for xpi, outi in zip(xp, out):
        for ty0 in range(0, th, rows):
            n = min(rows, th - ty0)
            m = np.matmul(u, _winograd_input(xpi, ty0, n, tw, dt))
            if p.bias is not None:
                m[5] += p.bias[:, None]
            y = (aa @ m.reshape(16, -1)).reshape(2, 2, cout, n, tw)
            o = outi[:, ty0 : ty0 + n]
            for dy in range(2):  # one copy per output phase, each with rows of tw values
                for dx in range(2):
                    o[:, :, dy, :, dx] = y[dy, dx]
    y = out.reshape(xp.shape[0], cout, 2 * th, 2 * tw)
    if (h_out, w_out) != (2 * th, 2 * tw):
        y = np.ascontiguousarray(y[:, :, :h_out, :w_out])
    return (y if x.ndim == 4 else y[0]), (p, x.shape, xp)


def _winograd_bwd(cache, gy):
    """Adjoint of _winograd_fwd, image by image in the same tile-row blocks.

    The cache is (p, x.shape, xp), with xp the batch padded as _winograd_pad
    pads it; it may come from either forward path.  U is recomputed from
    p.weight.  Per block, gY is gathered one output phase at a time and
    gM = (A⊗A) gY; then gU += gM Vᵀ, with V recomputed from xp, and
    gV = Uᵀ gM.  gV goes back through the input transform, gd = (B⊗B) gV,
    and the overlapping 4×4 tiles of gd fold into the padded-input gradient
    with one strided slice-add per tile position.  Finally
    gw = Gᵀ (Σ gM Vᵀ) G, taken as (G⊗G)ᵀ gU, summed over images.

    The working set beyond U, gU and the gradients stays about two blocks:
    gU accumulates one tile position at a time through one (cout, cin)
    scratch, and each block's gY, gM, V, gV and gd is released as soon as
    it has been read.
    """
    p, x_shape, xp = cache
    h, w = x_shape[-2:]
    cout, cin = p.weight.shape[:2]
    pad = p.padding
    h_out, w_out = gy.shape[-2:]
    th, tw = -(-h_out // 2), -(-w_out // 2)
    u = _winograd_kernels(p, xp)
    dt = u.dtype
    gyb = _lift(gy)
    gb = gyb.sum(axis=(0, 2, 3)) if p.bias is not None else None
    if (h_out, w_out) != (2 * th, 2 * tw):
        gyb = np.pad(gyb, ((0, 0), (0, 0), (0, 2 * th - h_out), (0, 2 * tw - w_out)))
    gyt = gyb.reshape(-1, cout, th, 2, tw, 2)
    aa_t = _WINO_AA.T.astype(dt)
    bb_t = _WINO_BB.T.astype(dt)
    gu = np.zeros((16, cout, cin), dtype=dt)
    gu_xi = np.empty((cout, cin), dtype=dt)  # one tile position's gM Vᵀ, before it is added into gU
    gxp = np.zeros(xp.shape, dtype=dt)
    rows = _winograd_rows(cin, cout, tw, np.dtype(dt).itemsize)
    for xpi, gyti, gxpi in zip(xp, gyt, gxp):
        for ty0 in range(0, th, rows):
            n = min(rows, th - ty0)
            g = np.empty((2, 2, cout, n, tw), dtype=dt)
            o = gyti[:, ty0 : ty0 + n]
            for dy in range(2):  # one copy per output phase, as the forward scatters them
                for dx in range(2):
                    g[dy, dx] = o[:, :, dy, :, dx]
            gm = (aa_t @ g.reshape(4, -1)).reshape(16, cout, n * tw)
            del g
            v = _winograd_input(xpi, ty0, n, tw, dt)
            for xi in range(16):
                gu[xi] += np.matmul(gm[xi], v[xi].T, out=gu_xi)
            del v
            gv = np.matmul(u.swapaxes(1, 2), gm)
            del gm
            gd = (bb_t @ gv.reshape(16, -1)).reshape(4, 4, cin, n, tw)
            del gv
            for a in range(4):
                for b in range(4):
                    gxpi[:, 2 * ty0 + a : 2 * (ty0 + n) + a : 2, b : 2 * tw + b : 2] += gd[a, b]
            del gd
    del gu_xi
    gw = (_WINO_GG.T.astype(dt) @ gu.reshape(16, cout * cin)).T.reshape(p.weight.shape)
    gx = gxp[:, :, pad : pad + h, pad : pad + w]
    return (gx if gy.ndim == 4 else gx[0]), gw, gb


def _taps(xp, kh, kw, stride, h_out, w_out, origin=(0, 0)):
    """View (cin, kh, kw, n, h_out, w_out) of the batch xp with
    [ci, dy, dx, i, y, x] = xp[i, ci, y0 + stride·y + dy, x0 + stride·x + dx], (y0, x0) = origin.

    It is an np.ndarray over xp's own buffer, ~1 µs a call where as_strided
    takes ~5 µs.  That needs a C-contiguous xp, so any other is copied first.
    """
    if not xp.flags.c_contiguous:
        xp = np.ascontiguousarray(xp)
    sn, sc, sh, sw = xp.strides
    y0, x0 = origin
    return np.ndarray((xp.shape[1], kh, kw, xp.shape[0], h_out, w_out), xp.dtype, buffer=xp,
                      offset=y0 * sh + x0 * sw, strides=(sc, sh, sw, sn, stride * sh, stride * sw))


def _im2col(xp, kh, kw, stride, h_out, w_out, origin=(0, 0)):
    """Column matrix (cin·kh·kw, n·h_out·w_out) of the padded batch xp, in one copy.

    Row (ci, dy, dx) holds tap (dy, dx) of channel ci for every output pixel
    of every image, images outermost; origin is the window's top-left corner
    in xp (_taps).  For 1×1 stride-1 convs that read all of xp it is a view
    when xp holds one image.
    """
    n, cin = xp.shape[:2]
    if kh == kw == 1 and stride == 1 and xp.shape[2:] == (h_out, w_out):
        return xp.transpose(1, 0, 2, 3).reshape(cin, n * h_out * w_out)
    cols = np.empty((cin, kh, kw, n, h_out, w_out), dtype=xp.dtype)
    np.copyto(cols, _taps(xp, kh, kw, stride, h_out, w_out, origin))
    return cols.reshape(cin * kh * kw, n * h_out * w_out)


def _block_rows(kk, w_out, itemsize):
    """Output rows per column block of an im2col with kk rows: about _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (kk * w_out * itemsize))


def _whole_columns(k, stride, n, h_out, w_out, rows, spare=0):
    """True when an im2col conv takes its column matrix whole, in one GEMM:
    when it is a view (a 1×1 stride-1 conv of one image), or when its
    n·h_out·w_out columns number at most one block's plus ``spare``.  The
    weight gradient passes cout: summed over blocks it needs a (cin·k², cout)
    scratch, so blocking saves memory only beyond that many more columns."""
    return n * h_out * w_out <= rows * w_out + spare or (k == 1 and stride == 1 and n == 1)


def _col_blocks(xp, k, stride, h_out, w_out, rows, origin=(0, 0)):
    """(i, r0, r1, cols) for image i of the padded batch xp and each block of
    its output rows r0..r1: cols is that block's (cin·k², (r1 − r0)·w_out)
    column matrix (origin as in _taps).

    Every block is copied into one reused buffer, so the whole column
    matrix never exists; a block is valid until the next is made.
    """
    taps = _taps(xp, k, k, stride, h_out, w_out, origin)
    kk = taps.shape[0] * k * k
    buf = np.empty(kk * rows * w_out, dtype=xp.dtype)
    for i in range(xp.shape[0]):
        for r0 in range(0, h_out, rows):
            r1 = min(r0 + rows, h_out)
            cols = buf[: kk * (r1 - r0) * w_out].reshape(taps.shape[:3] + (r1 - r0, w_out))
            np.copyto(cols, taps[:, :, :, i, r0:r1])
            yield i, r0, r1, cols.reshape(kk, -1)


def _im2col_rows(wm, xp, k, stride, h_out, w_out, rows, origin=(0, 0)):
    """wm @ the column matrix of xp, as an (n, cout, h_out·w_out) array, built
    image by image in blocks of `rows` output rows (_col_blocks), each
    block's GEMM writing straight into the output."""
    y = np.empty((xp.shape[0], wm.shape[0], h_out * w_out), dtype=np.result_type(wm, xp))
    for i, r0, r1, cols in _col_blocks(xp, k, stride, h_out, w_out, rows, origin):
        np.matmul(wm, cols, out=y[i, :, r0 * w_out : r1 * w_out])
    return y


def _gw_rows(xp, gy, k, stride, rows):
    """The weight gradient's (cin·k², cout) transpose, Σ over the column
    blocks of xp (_col_blocks) of cols @ gyᵀ, gy's (cout, rows·w_out) block
    of the same image and output rows."""
    cout, h_out, w_out = gy.shape[1:]
    gwt = np.zeros((xp.shape[1] * k * k, cout), dtype=np.result_type(xp, gy))
    scratch = np.empty_like(gwt)
    for i, r0, r1, cols in _col_blocks(xp, k, stride, h_out, w_out, rows):
        gwt += np.matmul(cols, gy[i, :, r0:r1].reshape(cout, -1).T, out=scratch)
    return gwt


def _window(x, y0, x0, hh, ww):
    """(batch, origin) holding x[:, :, y0:y0+hh, x0:x0+ww] at origin, zero where it leaves x.

    That is x itself at (y0, x0) when the window lies inside x, otherwise a
    zero-padded copy of the window at (0, 0).
    """
    h, w = x.shape[-2:]
    if y0 >= 0 and x0 >= 0 and y0 + hh <= h and x0 + ww <= w:
        return x, (y0, x0)
    out = np.zeros(x.shape[:2] + (hh, ww), dtype=x.dtype)
    ty, tx = max(0, -y0), max(0, -x0)
    by, bx = min(hh, h - y0), min(ww, w - x0)
    if by > ty and bx > tx:
        out[:, :, ty:by, tx:bx] = x[:, :, y0 + ty : y0 + by, x0 + tx : x0 + bx]
    return out, (0, 0)


def conv2d_fwd(p: ConvParams, x):
    """Cross-correlation of x, (cin, h, w) or (n, cin, h, w), with p; returns (y, cache).

    The path is chosen from the per-image shapes alone.  3×3 stride-1 convs
    with cout·cin·h_out·w_out ≥ _WINOGRAD_MIN_SIZE run their backward by
    Winograd F(2×2, 3×3), and their forward by Winograd (_winograd_fwd) only
    from _WINOGRAD_FWD_MIN_SIZE up, which keeps the im2col f32 rounding of a
    256² neck input until the perfbench digests are mended (ROADMAP item 1).
    Every other forward multiplies the kernel matrix with the im2col column
    matrix (cin·k², n·h_out·w_out): as one GEMM when that matrix fits
    _BLOCK_BYTES, or when it is a view (a 1×1 stride-1 conv of one image);
    otherwise image by image in blocks of output rows (_im2col_rows).

    The cache is (p, x.shape, xp), xp the input as an (n, cin, ·, ·) batch
    zero-padded: as _winograd_pad pads it when the backward is Winograd,
    by p.padding on each side otherwise (a view of x when that is 0).  No
    column matrix is cached; the backward rebuilds it from xp.
    """
    cout, cin, k, _ = p.weight.shape
    if x.ndim not in (3, 4) or x.shape[-3] != cin:
        raise ValueError(f"expected input ({cin}, h, w) or (n, {cin}, h, w), got {x.shape}")
    h, w = x.shape[-2:]
    h_out = _out_extent(h, k, p.stride, p.padding)
    w_out = _out_extent(w, k, p.stride, p.padding)
    if h_out < 1 or w_out < 1:
        raise ValueError(f"kernel {k} with stride {p.stride}, pad {p.padding} exceeds input {h}×{w}")
    winograd_bwd = _use_winograd(p.weight.shape, p.stride, h_out, w_out)
    if winograd_bwd and cout * cin * h_out * w_out >= _WINOGRAD_FWD_MIN_SIZE:
        return _winograd_fwd(p, x)
    xb = _lift(x)
    n = xb.shape[0]
    if winograd_bwd:
        xp = _winograd_pad(xb, p.padding)
    elif p.padding:
        xp = _zero_pad(xb, p.padding)
    else:
        xp = xb
    wm = p.weight.reshape(cout, -1)
    rows = _block_rows(wm.shape[1], w_out, xp.itemsize)
    if _whole_columns(k, p.stride, n, h_out, w_out, rows):
        # one GEMM, its (cout, n·h_out·w_out) result viewed as (n, cout, h_out·w_out)
        y = (wm @ _im2col(xp, k, k, p.stride, h_out, w_out)).reshape(cout, n, -1).swapaxes(0, 1)
    else:
        y = _im2col_rows(wm, xp, k, p.stride, h_out, w_out, rows)
    if p.bias is not None:
        y += p.bias[:, None]
    # a copy only for several images in one GEMM
    y = np.ascontiguousarray(y).reshape(n, cout, h_out, w_out)
    return (y if x.ndim == 4 else y[0]), (p, x.shape, xp)


def _use_gather(weight_shape, stride, n, h_out, w_out):
    """True when an im2col conv's gx is cheaper by _gx_gather than by _gx_fold.

    A 1×1 stride-1 conv always gathers: its gx is one GEMM with gy's own
    columns, where fold adds a zeroed buffer and a slice-add.  Otherwise
    gather reads gy's columns (cout·k² per pixel) where fold writes the
    column gradient (cin·k² per pixel), so it needs cout ≤ cin.  It also
    copies the flipped kernel once and runs s² phases, so it needs at least
    2·s² output pixels of the batch per output channel: the column gradient
    it saves is then at least 2·s² times that kernel copy.  Measured with
    one BLAS thread in f32 (table in CHANGES.md), for every im2col conv of
    the toy-train step and of a 256² neck backward it picks the faster
    route or one within 0.07 ms of it.
    """
    cout, cin, k, _ = weight_shape
    if k == 1 and stride == 1:
        return True
    return cout <= cin and n * h_out * w_out >= 2 * stride * stride * cout


def _phase(ph, extent, k, s, pad):
    """First tap, tap count, gy offset and count of the input positions ph, ph + s, ... < extent.

    Input position ph + s·a + pad of the padded input is read by taps
    r, r + s, ... at outputs q + a, q + a − 1, ...; with the taps reversed
    that is a stride-1 correlation of gy from offset q − (taps − 1).
    """
    q, r = divmod(ph + pad, s)
    taps = len(range(r, k, s))
    return r, taps, q - taps + 1, len(range(ph, extent, s))


def _gx_gather(p: ConvParams, x_shape, gy, gyf):
    """gx as s² stride-1 correlations of gy with the flipped, transposed kernel.

    gy is the (n, cout, h_out, w_out) batch and gyf its (cout, n·h_out·w_out)
    column form.  Input phase (py, px), the positions x[..., py::s, px::s],
    is reached only by the kernel taps w[:, :, r_y::s, r_x::s]; flipped and
    transposed, they correlate with gy, zero-padded or cropped for that
    phase, as one im2col and one GEMM (Dumoulin & Visin, arXiv 1603.07285;
    the phases are the sub-pixel form of Shi et al., arXiv 1609.07009).
    Stride 1 is the single phase, and its gx is a view of the GEMM's result.
    Nothing is folded.
    """
    cout, cin, k, _ = p.weight.shape
    s = p.stride
    n, _, h_out, w_out = gy.shape
    h, w = x_shape[-2:]
    gx = np.empty((n, cin, h, w), dtype=np.result_type(gy, p.weight)) if s > 1 else None
    for py in range(min(s, h)):
        ry, ty, oy, na = _phase(py, h, k, s, p.padding)
        for px in range(min(s, w)):
            rx, tx, ox, nb = _phase(px, w, k, s, p.padding)
            if ty == 0 or tx == 0:  # no tap reaches this phase
                gx[:, :, py::s, px::s] = 0
                continue
            wt = p.weight[:, :, ry::s, rx::s][:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
            if (ty, tx, oy, ox, na, nb) == (1, 1, 0, 0, h_out, w_out):
                cols = gyf  # one tap over all of gy: its columns are gy's own
            else:
                win, origin = _window(gy, oy, ox, na + ty - 1, nb + tx - 1)
                rows = _block_rows(wt.shape[1], nb, win.itemsize)
                if s == 1 and not _whole_columns(k, 1, n, na, nb, rows):  # gx in row blocks, as the forward
                    return _im2col_rows(wt, win, k, 1, na, nb, rows, origin).reshape(n, cin, na, nb)
                cols = _im2col(win, ty, tx, 1, na, nb, origin)
            g = (wt @ cols).reshape(cin, n, na, nb).swapaxes(0, 1)
            if s == 1:
                return g
            gx[:, :, py::s, px::s] = g
    return gx


def _gx_fold(p: ConvParams, x_shape, gy, gyf):
    """gx as the column gradient wᵀ·gy folded into the padded input, one strided slice-add per tap.

    gy is the (n, cout, h_out, w_out) batch and gyf its (cout, n·h_out·w_out)
    column form.
    """
    cout, cin, k, _ = p.weight.shape
    s, pad = p.stride, p.padding
    n, _, h_out, w_out = gy.shape
    h, w = x_shape[-2:]
    gcols = (p.weight.reshape(cout, -1).T @ gyf).reshape(cin, k, k, n, h_out, w_out)
    gxp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad), dtype=gcols.dtype)
    for dy in range(k):
        for dx in range(k):
            gxp[:, :, dy : dy + s * h_out : s, dx : dx + s * w_out : s] += gcols[:, dy, dx].swapaxes(0, 1)
    return gxp[:, :, pad : pad + h, pad : pad + w]


def conv2d_bwd(cache, gy, need_gx=True):
    """Adjoints (gx, gweight, gbias); gbias is None for bias-free convs.

    gy has the rank of the forward's input, and so has gx; gweight and
    gbias are summed over the images.  With need_gx False, gx is None,
    gweight and gbias are the same bits, and the im2col path spends no work
    on gx.  3×3
    stride-1 convs from _WINOGRAD_MIN_SIZE up run by Winograd
    (_winograd_bwd), whichever path their forward took.  Every other conv
    rebuilds the column matrix from the cached padded input: whole, with
    gweight one GEMM over all n·h_out·w_out columns, when it is a view or
    exceeds one _BLOCK_BYTES block by at most gweight's own size (the
    scratch a blocked sum needs); otherwise image by image in blocks of
    output rows, with gweight the sum of one GEMM per block (_gw_rows).
    Its gx takes one of two routes, chosen by _use_gather from the shapes
    alone:

    * gather (_gx_gather): for each of the s² input phases, one im2col of
      gy and one GEMM with the flipped, transposed kernel taps of that
      phase; nothing is folded.  At stride 1 (one phase, every tap) gy's
      columns are built in row blocks by the forward's rule
      (_im2col_rows), so gx is written block by block.
    * fold (_gx_fold): the column gradient wᵀ·gy, folded into the padded
      input one strided slice-add per kernel tap.  It stays where gather
      loses: cout > cin, where gy's columns outweigh the column gradient,
      and few output pixels per output channel, where copying the flipped
      kernel outweighs the fold.

    The path is chosen again from the same shapes as in conv2d_fwd.
    """
    p, x_shape, xp = cache
    if _use_winograd(p.weight.shape, p.stride, *gy.shape[-2:]):
        gx, gw, gb = _winograd_bwd(cache, gy)
        return (gx if need_gx else None), gw, gb
    k = p.ksize
    gyb = _lift(gy)
    n, cout, h_out, w_out = gyb.shape
    gyf = gyb.swapaxes(0, 1).reshape(cout, -1)  # a view for one image
    # gw as (cols @ gyfᵀ)ᵀ, the faster operand order of the GEMM; the columns
    # are rebuilt whole or in blocks of rows, and freed before gx is made
    rows = _block_rows(xp.shape[1] * k * k, w_out, xp.itemsize)
    if _whole_columns(k, p.stride, n, h_out, w_out, rows, spare=cout):
        gwt = _im2col(xp, k, k, p.stride, h_out, w_out) @ gyf.T
    else:
        gwt = _gw_rows(xp, gyb, k, p.stride, rows)
    gw = gwt.T.reshape(p.weight.shape)
    gb = gyf.sum(axis=1) if p.bias is not None else None
    if not need_gx:
        return None, gw, gb
    route = _gx_gather if _use_gather(p.weight.shape, p.stride, n, h_out, w_out) else _gx_fold
    gx = route(p, x_shape, gyb, gyf)
    return (gx if gy.ndim == 4 else gx[0]), gw, gb


# ---------------------------------------------------------------------------
# s×s max pooling, stride s
# ---------------------------------------------------------------------------

def max_pool2d_fwd(x, s=2):
    """s×s max pool with stride s, the running np.maximum of the s² phase views.

    x is (c, h, w) or (n, c, h, w) with extents divisible by s ≥ 2; y folds
    x[..., i::s, j::s] in row-major phase order.  No window index is built:
    the cache is (x, y, s), references to the input and the output, and
    max_pool2d_bwd finds the index from them.
    """
    if s < 2 or x.ndim not in (3, 4) or x.shape[-2] % s or x.shape[-1] % s:
        raise ValueError(f"max_pool2d needs s ≥ 2 and a (c, h, w) or (n, c, h, w) input with "
                         f"extents divisible by s, got s={s} and {x.shape}")
    y = np.maximum(x[..., 0::s, 0::s], x[..., 0::s, 1::s])
    for t in range(2, s * s):
        np.maximum(y, x[..., t // s :: s, t % s :: s], out=y)
    return y, (x, y, s)


def max_pool2d_bwd(cache, gy):
    """Routes each window's gradient to the phase np.argmax over the window picks.

    Phases are visited in row-major window order; a window is claimed by the
    first phase equal to its max or, in a NaN window, by the first NaN, which
    the equality misses.  (Where a window holds both 0.0 and -0.0, y may
    carry the other zero; either compares equal.)
    """
    x, y, s = cache
    gx = np.zeros(x.shape, dtype=gy.dtype)
    open_ = np.ones(y.shape, dtype=bool)  # windows not yet claimed
    nan = np.isnan(y)
    nan = nan if nan.any() else None
    for t in range(s * s):
        ph = x[..., t // s :: s, t % s :: s]
        if t < s * s - 1:  # the last phase takes every window left open
            hit = ph == y
            if nan is not None:
                hit |= nan & np.isnan(ph)
            hit &= open_
            open_ ^= hit
        else:
            hit = open_
        np.copyto(gx[..., t // s :: s, t % s :: s], gy, where=hit)
    return gx


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


def bilinear_upsample_fwd(x, s=2):
    """Separable ×s resize of the last two axes: Ry · x · Cxᵀ per channel and image."""
    h, w = x.shape[-2:]
    ry = _interp_matrix(h, s, x.dtype)
    cx = _interp_matrix(w, s, x.dtype)
    y = ry @ x @ cx.T
    return y, (ry, cx)


def bilinear_upsample_bwd(cache, gy):
    ry, cx = cache
    return ry.T @ gy @ cx


def nearest_upsample(x, s=2):
    """Nearest-neighbor ×s used by the plain pyramid baselines (forward only)."""
    return np.repeat(np.repeat(x, s, axis=-2), s, axis=-1)
