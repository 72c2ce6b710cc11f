"""Brute-force reference implementations used only for verification.

Everything here is written as straight-line nested loops over Python
scalars, deliberately sharing no code with the production kernels it
checks.  Slow and obvious beats fast and clever in this file.
"""

from __future__ import annotations

import math

import numpy as np


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def softmax_oracle(v):
    """1-D softmax by the direct exp/sum formula (max-shifted)."""
    hi = max(float(x) for x in v)
    exps = [math.exp(float(x) - hi) for x in v]
    total = sum(exps)
    return np.array([e / total for e in exps])


def layer_norm_oracle(v, gain, shift, eps):
    n = len(v)
    mean = sum(float(x) for x in v) / n
    var = sum((float(x) - mean) ** 2 for x in v) / n
    out = np.zeros(n, dtype=np.float64)
    for i in range(n):
        out[i] = (float(v[i]) - mean) / math.sqrt(var + eps) * float(gain[i]) + float(shift[i])
    return out


def conv2d_oracle(w, b, x, stride, pad):
    """Six-deep loop convolution (cross-correlation, zero padding)."""
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((cout, h_out, w_out), dtype=np.float64)
    for co in range(cout):
        for oy in range(h_out):
            for ox in range(w_out):
                acc = 0.0 if b is None else float(b[co])
                for ci in range(cin):
                    for dy in range(k):
                        for dx in range(k):
                            iy = oy * stride + dy - pad
                            ix = ox * stride + dx - pad
                            if 0 <= iy < h and 0 <= ix < wd:
                                acc += float(w[co, ci, dy, dx]) * float(x[ci, iy, ix])
                out[co, oy, ox] = acc
    return out


def conv2d_bwd_oracle(w, b, x, gy, stride, pad):
    """Gradients (gx, gw, gb) of sum(gy · conv2d(w, b, x)), one tap at a time.

    Every (output, input channel, tap) triple that reads x(iy, ix) sends
    w · gy back to the input and x · gy to the kernel; gb is None without
    a bias.
    """
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    _, h_out, w_out = gy.shape
    gx = np.zeros((cin, h, wd), dtype=np.float64)
    gw = np.zeros((cout, cin, k, k), dtype=np.float64)
    gb = None if b is None else np.zeros(cout, dtype=np.float64)
    for co in range(cout):
        for oy in range(h_out):
            for ox in range(w_out):
                g = float(gy[co, oy, ox])
                if gb is not None:
                    gb[co] += g
                for ci in range(cin):
                    for dy in range(k):
                        for dx in range(k):
                            iy = oy * stride + dy - pad
                            ix = ox * stride + dx - pad
                            if 0 <= iy < h and 0 <= ix < wd:
                                gx[ci, iy, ix] += float(w[co, ci, dy, dx]) * g
                                gw[co, ci, dy, dx] += float(x[ci, iy, ix]) * g
    return gx, gw, gb


def max_pool2d_oracle(x, s=2):
    c, h, w = x.shape
    out = np.zeros((c, h // s, w // s), dtype=np.float64)
    for ci in range(c):
        for oy in range(h // s):
            for ox in range(w // s):
                best = -math.inf
                for dy in range(s):
                    for dx in range(s):
                        best = max(best, float(x[ci, s * oy + dy, s * ox + dx]))
                out[ci, oy, ox] = best
    return out


def _bilinear_taps(o, s, n):
    """Taps (lo, hi, frac) of output index o on an axis of n inputs, from the
    half-pixel-center formula with borders clamped."""
    src = min(max((o + 0.5) / s - 0.5, 0.0), n - 1)
    lo = int(math.floor(src))
    return lo, min(lo + 1, n - 1), src - lo


def bilinear_upsample_oracle(x, s):
    """Per-pixel two-tap interpolation from the half-pixel-center formula."""
    c, h, w = x.shape
    out = np.zeros((c, s * h, s * w), dtype=np.float64)
    for ci in range(c):
        for oy in range(s * h):
            for ox in range(s * w):
                y0, y1, fy = _bilinear_taps(oy, s, h)
                x0, x1, fx = _bilinear_taps(ox, s, w)
                out[ci, oy, ox] = (
                    (1 - fy) * (1 - fx) * float(x[ci, y0, x0])
                    + (1 - fy) * fx * float(x[ci, y0, x1])
                    + fy * (1 - fx) * float(x[ci, y1, x0])
                    + fy * fx * float(x[ci, y1, x1])
                )
    return out


def bilinear_upsample_bwd_oracle(x_shape, gy, s):
    """Gradient wrt x of sum(gy · bilinear_upsample(x, s)), one output at a time.

    Each output pixel sends gy times each of its four tap weights back to the
    input pixel that tap reads.
    """
    c, h, w = x_shape
    gx = np.zeros((c, h, w), dtype=np.float64)
    for ci in range(c):
        for oy in range(s * h):
            for ox in range(s * w):
                y0, y1, fy = _bilinear_taps(oy, s, h)
                x0, x1, fx = _bilinear_taps(ox, s, w)
                g = float(gy[ci, oy, ox])
                gx[ci, y0, x0] += (1 - fy) * (1 - fx) * g
                gx[ci, y0, x1] += (1 - fy) * fx * g
                gx[ci, y1, x0] += fy * (1 - fx) * g
                gx[ci, y1, x1] += fy * fx * g
    return gx


def pixel_shuffle_oracle(x, s):
    """(q·s², h, w) with channels in (g, dy, dx) order onto the s× grid as (q, s·h, s·w):
    predictor-layout up-kernels to the paper's per-pixel ones, as the oracles read them."""
    cs, h, w = x.shape
    q = cs // (s * s)
    out = np.zeros((q, s * h, s * w), dtype=np.float64)
    for g in range(q):
        for y in range(h):
            for x_ in range(w):
                for dy in range(s):
                    for dx in range(s):
                        out[g, s * y + dy, s * x_ + dx] = float(x[g * s * s + dy * s + dx, y, x_])
    return out


def compatibility_oracle(queries, keys, scale_dim):
    """Scaled cosine-similarity attention, one scalar at a time.

    Returns the n_keys × n_queries map whose columns sum to 1.
    """
    n_q, d = queries.shape
    _, n_k = keys.shape
    scale = math.sqrt(scale_dim)
    out = np.zeros((n_k, n_q), dtype=np.float64)
    for qi in range(n_q):
        scores = []
        for ki in range(n_k):
            norm = math.sqrt(sum(float(keys[t, ki]) ** 2 for t in range(d)))
            norm = max(norm, 1e-12)
            dot = sum(float(queries[qi, t]) * float(keys[t, ki]) / norm for t in range(d))
            scores.append(scale * dot)
        hi = max(scores)
        exps = [math.exp(sc - hi) for sc in scores]
        total = sum(exps)
        for ki in range(n_k):
            out[ki, qi] = exps[ki] / total
    return out


def reassemble_up_oracle(coarse, kernels, s, k):
    """Weighted k×k neighborhood of coarse(⌊x/s⌋, ⌊y/s⌋), zero padded."""
    c, h, w = coarse.shape
    _, sh, sw = kernels.shape
    r = (k - 1) // 2
    out = np.zeros((c, sh, sw), dtype=np.float64)
    for ci in range(c):
        for oy in range(sh):
            for ox in range(sw):
                cy, cx = oy // s, ox // s
                acc = 0.0
                for dy in range(k):
                    for dx in range(k):
                        iy, ix = cy + dy - r, cx + dx - r
                        if 0 <= iy < h and 0 <= ix < w:
                            acc += float(kernels[dy * k + dx, oy, ox]) * float(coarse[ci, iy, ix])
                out[ci, oy, ox] = acc
    return out


def reassemble_down_oracle(fine, kernels, s, k):
    """Weighted k×k neighborhood of fine(s·x, s·y), zero padded."""
    c, sh, sw = fine.shape
    _, h, w = kernels.shape
    r = (k - 1) // 2
    out = np.zeros((c, h, w), dtype=np.float64)
    for ci in range(c):
        for oy in range(h):
            for ox in range(w):
                cy, cx = s * oy, s * ox
                acc = 0.0
                for dy in range(k):
                    for dx in range(k):
                        iy, ix = cy + dy - r, cx + dx - r
                        if 0 <= iy < sh and 0 <= ix < sw:
                            acc += float(kernels[dy * k + dx, oy, ox]) * float(fine[ci, iy, ix])
                out[ci, oy, ox] = acc
    return out


def reassemble_up_bwd_oracle(coarse, kernels, gout, s, k):
    """Gradients of sum(gout · reassemble_up) w.r.t. coarse and kernels.

    Every (output pixel, tap) pair that reads coarse(iy, ix) sends
    kernel · gout back to the source and source · gout to the kernel.
    """
    c, h, w = coarse.shape
    _, sh, sw = kernels.shape
    r = (k - 1) // 2
    gcoarse = np.zeros((c, h, w), dtype=np.float64)
    gkern = np.zeros((k * k, sh, sw), dtype=np.float64)
    for oy in range(sh):
        for ox in range(sw):
            cy, cx = oy // s, ox // s
            for dy in range(k):
                for dx in range(k):
                    iy, ix = cy + dy - r, cx + dx - r
                    if not (0 <= iy < h and 0 <= ix < w):
                        continue
                    t = dy * k + dx
                    acc = 0.0
                    for ci in range(c):
                        g = float(gout[ci, oy, ox])
                        gcoarse[ci, iy, ix] += float(kernels[t, oy, ox]) * g
                        acc += float(coarse[ci, iy, ix]) * g
                    gkern[t, oy, ox] = acc
    return gcoarse, gkern


def reassemble_down_bwd_oracle(fine, kernels, gout, s, k):
    """Gradients of sum(gout · reassemble_down) w.r.t. fine and kernels."""
    c, sh, sw = fine.shape
    _, h, w = kernels.shape
    r = (k - 1) // 2
    gfine = np.zeros((c, sh, sw), dtype=np.float64)
    gkern = np.zeros((k * k, h, w), dtype=np.float64)
    for oy in range(h):
        for ox in range(w):
            cy, cx = s * oy, s * ox
            for dy in range(k):
                for dx in range(k):
                    iy, ix = cy + dy - r, cx + dx - r
                    if not (0 <= iy < sh and 0 <= ix < sw):
                        continue
                    t = dy * k + dx
                    acc = 0.0
                    for ci in range(c):
                        g = float(gout[ci, oy, ox])
                        gfine[ci, iy, ix] += float(kernels[t, oy, ox]) * g
                        acc += float(fine[ci, iy, ix]) * g
                    gkern[t, oy, ox] = acc
    return gfine, gkern
