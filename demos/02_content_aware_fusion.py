"""Walk through one guided fusion site: predict per-position resampling
kernels from content, reassemble, gate, smooth. Then show the two switches
that turn the guided site back into its plain baseline, and the same site
run in the other direction."""

import numpy as np

from a2fpn import fusion
from a2fpn.fusion import site_shapes
from a2fpn.levels import LevelFeature
from a2fpn.nn_ops import ConvParams, conv2d_fwd, max_pool2d_fwd

rng = np.random.default_rng(11)
c, c_m, k = 8, 4, 3


def site(kind, guided=True, zero_gates=False, scale=0.3):
    """The store of a small fusion site under bare names; a neck stores each
    site under its prefix (td.l4, bu.l3, ...) and fuse_fwd reads it there.
    The site's scale and tap size are read back from the shapes."""
    shapes = site_shapes(c, c_m, k, 1, kind == "up", guided=guided)
    w3 = shapes.pop("gate.w3.weight")  # drawn first
    store = {"gate.w3.weight": np.zeros(w3) if zero_gates else scale * rng.standard_normal(w3),
             "gate.ln.gain": np.ones(shapes.pop("gate.ln.gain")),
             "gate.ln.shift": np.zeros(shapes.pop("gate.ln.shift"))}
    store.update((name, scale * rng.standard_normal(shape)) for name, shape in shapes.items())
    return store


def predictor(store):
    """The kernel predictor's three convs, read by name; going up all run at stride 1."""
    return tuple(ConvParams.from_store(store, f"kpred.{conv}")
                 for conv in ("compressor", "encoder", "predictor"))


upper = LevelFeature(3, rng.standard_normal((c, 4, 6)))
lateral = LevelFeature(2, rng.standard_normal((c, 8, 12)))

# kernels are predicted from the coarse map plus a pooled view of the fine
# one, and stay on the coarse grid as the predictor emits them: each coarse
# cell holds one k*k tap distribution for each of its 2x2 output pixels
p_up = site("up")
pooled, _ = max_pool2d_fwd(lateral.data)
kernels, _ = fusion.predict_kernels_fwd(np.concatenate([upper.data, pooled]), predictor(p_up), 2)
print("upsampling kernels:", kernels.shape)   # (taps x 2 x 2) x coarse_h x coarse_w
tap_sums = kernels.reshape(k * k, 2 * 2, 4, 6).sum(axis=0)
print("tap sums (should all be 1):", tap_sums.round(12).min(), tap_sums.round(12).max())

# a constant map survives reassembly untouched away from the border
const = np.full((c, 4, 6), 1.5)
out, _ = fusion.reassemble_up_fwd(const, kernels, 2)
print("constant-map interior error:",
      np.abs(out[:, 2:-2, 2:-2] - 1.5).max())

# the whole top-down site: upsample the upper level onto the lateral grid,
# gate both summands channel-wise, add, smooth; the direction comes from
# the levels, upper (3) into lateral (2)
fused, _ = fusion.fuse_fwd(upper, lateral, p_up)
print("fused level:", fused.level, "stride", fused.stride, "shape", fused.data.shape)

# switch 1: guidance off means kernels come from the coarse map alone
# switch 2: gates off means the summands are used as-is
# with both off the site IS the plain content-aware-upsampling baseline:
# reassemble, add, smooth
p_plain = site("up", guided=False)
a, _ = fusion.fuse_fwd(upper, lateral, p_plain, guided=False, gated=False)
kern_plain, _ = fusion.predict_kernels_fwd(upper.data, predictor(p_plain), 2)
b, _ = conv2d_fwd(ConvParams.from_store(p_plain, "smooth"),
                  fusion.reassemble_up_fwd(upper.data, kern_plain, 2)[0] + lateral.data)
print("switched-off site equals the plain pipeline:", np.array_equal(a.data, b))

# the gate head ends in 2*sigmoid, so zeroing its last layer pins every
# gate at exactly 1.0 and the gated sum collapses to a plain addition
p_neutral = site("up", zero_gates=True)
gated, _ = fusion.fuse_fwd(upper, lateral, p_neutral, gated=True)
plain, _ = fusion.fuse_fwd(upper, lateral, p_neutral, gated=False)
print("neutral gates are bit-exact no-ops:", np.array_equal(gated.data, plain.data))

# the same site bottom-up: fine level (2) into coarse (3), kernels read
# the fine map with an upsampled top-down hint
p_dn = site("down")
lower = LevelFeature(2, rng.standard_normal((c, 8, 12)))
td = LevelFeature(3, rng.standard_normal((c, 4, 6)))
down, _ = fusion.fuse_fwd(lower, td, p_dn)
print("bottom-up fused:", down.level, "stride", down.stride, "shape", down.data.shape)
