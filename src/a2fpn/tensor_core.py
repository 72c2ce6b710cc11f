"""Scalar tensor primitives with hand-written backward passes.

Arrays are plain numpy ndarrays (row-major, float32 or float64); there is
no autograd graph.  Every differentiable op comes as a pair: ``op_fwd``
returns ``(out, cache)`` and ``op_bwd`` consumes the cache plus the
upstream gradient and returns exact adjoints for each input.  Higher
modules chain these pairs by hand, so the cache of an op is opaque to
everyone but its own backward.

Ops reduce over the axes they are given, so leading batch axes pass
through; a parameter shared by the images of a batch takes the sum of
their gradients (``sum_batch``).
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


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def sum_batch(g, ndim):
    """g summed over its leading axes down to its last ``ndim``: the gradient
    of a parameter shared by every image of a batch.  No-op at rank ndim."""
    return g.sum(axis=tuple(range(g.ndim - ndim))) if g.ndim > ndim else g


def matmul(a, b):
    """a @ b, over stacks of matrices too (leading axes broadcast)."""
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ValueError(f"inner extents disagree: {a.shape} @ {b.shape}")
    return a @ b


def matmul_fwd(a, b):
    return matmul(a, b), (a, b)


def matmul_bwd(cache, gy):
    a, b = cache
    ga = gy @ b.swapaxes(-1, -2)
    gb = a.swapaxes(-1, -2) @ gy
    return sum_batch(ga, a.ndim), sum_batch(gb, b.ndim)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def softmax(t, axis):
    """Stable softmax along ``axis``; slices along the axis sum to 1."""
    shifted = t - np.max(t, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_fwd(t, axis):
    y = softmax(t, axis)
    return y, (y, axis)


def softmax_bwd(cache, gy):
    y, axis = cache
    # dL/dx = y * (g - sum(g * y)) along the softmax axis
    inner = np.sum(gy * y, axis=axis, keepdims=True)
    return y * (gy - inner)


# ---------------------------------------------------------------------------
# L2 normalization
# ---------------------------------------------------------------------------

def l2_normalize(t, axis, eps=L2_EPS):
    """Divide each slice along ``axis`` by max(its L2 norm, eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    norm = np.sqrt(np.sum(t * t, axis=axis, keepdims=True))
    return t / np.maximum(norm, eps)


def l2_normalize_fwd(t, axis, eps=L2_EPS):
    norm = np.sqrt(np.sum(t * t, axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    y = t / denom
    return y, (t, denom, norm >= eps, axis)


def l2_normalize_bwd(cache, gy):
    t, denom, active, axis = cache
    # active slices: d(x/|x|) = g/|x| - x (x.g)/|x|^3; clamped slices are x/eps
    g = gy / denom
    proj = np.sum(gy * t, axis=axis, keepdims=True) / (denom ** 3)
    return np.where(active, g - t * proj, g)


# ---------------------------------------------------------------------------
# gate activations
# ---------------------------------------------------------------------------

def sigmoid(t):
    # split on sign to avoid exp overflow
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid_fwd(t):
    y = sigmoid(t)
    return y, y


def sigmoid_bwd(cache, gy):
    y = cache
    return gy * y * (1.0 - y)


def two_sigmoid(t):
    """2 / (1 + exp(-x)): value 1 at x = 0, range (0, 2)."""
    return 2.0 * sigmoid(t)


def two_sigmoid_fwd(t):
    s = sigmoid(t)
    return 2.0 * s, s


def two_sigmoid_bwd(cache, gy):
    s = cache
    return gy * 2.0 * s * (1.0 - s)


def relu(t):
    return np.maximum(t, 0.0)


def relu_fwd(t):
    return np.maximum(t, 0.0), t > 0


def relu_bwd(cache, gy):
    return gy * cache


# ---------------------------------------------------------------------------
# layer norm (statistics over the last axis)
# ---------------------------------------------------------------------------

def layer_norm(t, gain, shift, eps=LAYERNORM_EPS):
    y, _ = layer_norm_fwd(t, gain, shift, eps)
    return y


def layer_norm_fwd(t, gain, shift, eps=LAYERNORM_EPS):
    """Normalize each slice of the last axis to zero mean / unit variance,
    then scale by ``gain`` and offset by ``shift`` (both 1-D of that length).
    """
    if gain.shape != (t.shape[-1],) or shift.shape != (t.shape[-1],):
        raise ValueError("gain/shift must be vectors matching the last axis")
    mu = np.mean(t, axis=-1, keepdims=True)
    var = np.mean((t - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (t - mu) * inv
    return xhat * gain + shift, (xhat, inv, gain)


def layer_norm_bwd(cache, gy):
    xhat, inv, gain = cache
    gxhat = gy * gain
    m1 = np.mean(gxhat, axis=-1, keepdims=True)
    m2 = np.mean(gxhat * xhat, axis=-1, keepdims=True)
    gx = inv * (gxhat - m1 - xhat * m2)
    # gain/shift are shared over leading axes, so fold those into the sum
    lead = tuple(range(xhat.ndim - 1))
    ggain = np.sum(gy * xhat, axis=lead)
    gshift = np.sum(gy, axis=lead)
    return gx, ggain, gshift
