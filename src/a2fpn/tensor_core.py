"""Scalar tensor primitives with hand-written backward passes.

Arrays are plain numpy ndarrays (row-major, float32 or float64); there is
no autograd graph.  Every differentiable op comes as a pair: ``op_fwd``
returns ``(out, cache)`` and ``op_bwd`` consumes the cache plus the
upstream gradient and returns exact adjoints for each input.  Higher
modules chain these pairs by hand, so the cache of an op is opaque to
everyone but its own backward.

Ops reduce over the axes they are given, so leading batch axes pass
through; a parameter shared by the images of a batch takes the sum of
their gradients (``sum_batch``).  Reductions are ndarray methods
(``t.sum(axis=...)``): the same ufunc reduction as ``np.sum`` without its
Python-level wrapper, which costs more than the reduction itself on the
small arrays of the toy training step.
"""

from __future__ import annotations

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}

L2_EPS = 1e-12
LAYERNORM_EPS = 1e-5


def dtype_name(arr: np.ndarray) -> str:
    """Short name ("f32"/"f64") for a supported float dtype."""
    if arr.dtype == np.float32:
        return "f32"
    if arr.dtype == np.float64:
        return "f64"
    raise TypeError(f"unsupported dtype {arr.dtype}, expected float32/float64")


def sum_batch(g, ndim):
    """g summed over its leading axes down to its last ``ndim``: the gradient
    of a parameter shared by every image of a batch.  No-op at rank ndim."""
    return g.sum(axis=tuple(range(g.ndim - ndim))) if g.ndim > ndim else g


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def softmax_fwd(t, axis):
    """Stable softmax along ``axis``; slices along the axis sum to 1.

    exp(t − max) and its division by the sum are taken in place in one
    new buffer; t is not written.
    """
    e = t - t.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e, (e, axis)


def softmax_bwd(cache, gy):
    y, axis = cache
    # dL/dx = y * (g - sum(g * y)) along the softmax axis
    inner = (gy * y).sum(axis=axis, keepdims=True)
    return y * (gy - inner)


# ---------------------------------------------------------------------------
# L2 normalization
# ---------------------------------------------------------------------------

def l2_normalize_fwd(t, axis):
    """Divide each slice along ``axis`` by max(its L2 norm, L2_EPS)."""
    norm = np.sqrt((t * t).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, L2_EPS)
    y = t / denom
    return y, (t, denom, norm >= L2_EPS, axis)


def l2_normalize_bwd(cache, gy):
    t, denom, active, axis = cache
    # active slices: d(x/|x|) = g/|x| - x (x.g)/|x|^3; clamped slices are x/eps
    g = gy / denom
    proj = (gy * t).sum(axis=axis, keepdims=True) / (denom ** 3)
    return np.where(active, g - t * proj, g)


# ---------------------------------------------------------------------------
# gate activations
# ---------------------------------------------------------------------------

def sigmoid_fwd(t):
    # split on sign to avoid exp overflow
    y = np.empty_like(t)
    pos = t >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    y[~pos] = e / (1.0 + e)
    return y, y


def sigmoid_bwd(cache, gy):
    y = cache
    return gy * y * (1.0 - y)


def relu_fwd(t):
    return np.maximum(t, 0.0), t > 0


def relu_bwd(cache, gy):
    return gy * cache


# ---------------------------------------------------------------------------
# layer norm (statistics over the last axis)
# ---------------------------------------------------------------------------

def layer_norm_fwd(t, gain, shift):
    """Normalize each slice of the last axis to zero mean / unit variance,
    then scale by ``gain`` and offset by ``shift`` (both 1-D of that length).
    """
    if gain.shape != (t.shape[-1],) or shift.shape != (t.shape[-1],):
        raise ValueError("gain/shift must be vectors matching the last axis")
    mu = t.mean(axis=-1, keepdims=True)
    var = ((t - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = (t - mu) * inv
    return xhat * gain + shift, (xhat, inv, gain)


def layer_norm_bwd(cache, gy):
    xhat, inv, gain = cache
    gxhat = gy * gain
    m1 = gxhat.mean(axis=-1, keepdims=True)
    m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
    gx = inv * (gxhat - m1 - xhat * m2)
    # gain/shift are shared over leading axes, so fold those into the sum
    lead = tuple(range(xhat.ndim - 1))
    ggain = (gy * xhat).sum(axis=lead)
    gshift = gy.sum(axis=lead)
    return gx, ggain, gshift
