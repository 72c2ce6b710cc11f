"""Run all four neck variants over the same image and compare what
comes out. Every neck emits five levels at strides 4..64; they differ
in how the levels talk to each other."""

import numpy as np

from a2fpn import pyramid
from a2fpn.pyramid import PyramidConfig

rng = np.random.default_rng(3)
image = rng.standard_normal((3, 256, 256)).astype(np.float32)

for arch in ("fpn", "pafpn", "a2fpn", "a2fpn_lite"):
    c = 128 if arch == "a2fpn_lite" else 256
    cfg = PyramidConfig(arch=arch, c=c, image_size=(256, 256), backbone="toy")
    store = pyramid.init_params(cfg, with_backbone=True)
    levels, _ = pyramid.toy_backbone_fwd(image.astype(cfg.np_dtype), store)
    outs = pyramid.forward_pyramid(levels, store, cfg)
    desc = ", ".join(f"p{f.level}:{f.data.shape}@s{f.stride}" for f in outs)
    n_params = sum(v.size for v in store.values())
    print(f"{arch:>10} ({n_params:>10,} params)  {desc}")

# the pyramids are deterministic end to end: same config digest, same bytes
cfg = PyramidConfig(arch="a2fpn", c=64, a=4, c_m=16, image_size=(128, 128),
                    backbone="toy")
print("\nconfig digest:", cfg.digest()[:16], "...")
store = pyramid.init_params(cfg, with_backbone=True)
img = np.random.default_rng([cfg.seed, 1]).standard_normal((3, 128, 128))
img = img.astype(cfg.np_dtype)


def run():
    levels, _ = pyramid.toy_backbone_fwd(img, store)
    return pyramid.forward_pyramid(levels, store, cfg)


first, second = run(), run()
same = all(np.array_equal(a.data, b.data) for a, b in zip(first, second))
print("two forwards bit-identical:", same)

# context is collected at levels 2-5, and the context widths shrink with
# level area: n_i = a * (6 - i) queries
cfg_a = PyramidConfig(arch="a2fpn", a=64)
print("context columns per level:",
      {lvl: cfg_a.n_context(lvl) for lvl in (2, 3, 4, 5)})
