"""Pool a feature map into a handful of context vectors with
cosine-similarity attention, and poke at the invariants that make
the pooling well behaved."""

import numpy as np

from a2fpn import mgc
from a2fpn.levels import LevelFeature

rng = np.random.default_rng(7)

# one 16-channel map, 12x18, flattened to 216 key positions
fmap = rng.standard_normal((16, 12, 18))
fm = fmap.reshape(16, -1)

# four query vectors (learned in the real model, random here)
queries = 0.5 * rng.standard_normal((4, 16))

amap, _ = mgc.compatibility_fwd(queries, fm, 16)
print("attention map shape:", amap.shape)  # keys x queries
print("column sums:", amap.sum(axis=0))    # each query spends exactly weight 1

# keys are normalized before scoring, so rescaling any position by a
# positive factor cannot move the map at all
scales = rng.uniform(0.1, 10.0, size=fm.shape[1])
drift = np.abs(mgc.compatibility_fwd(queries, fm * scales, 16)[0] - amap).max()
print("max drift under per-key rescaling:", drift)

# queries are NOT normalized; scaling them sharpens or flattens the map
sharp, _ = mgc.compatibility_fwd(4.0 * queries, fm, 16)
print("entropy before/after sharpening: "
      f"{-(amap * np.log(amap)).sum(axis=0).mean():.3f} / "
      f"{-(sharp * np.log(sharp)).sum(axis=0).mean():.3f}")

# the full collection step: psi asks the questions, phi embeds the map,
# the attention map mixes embedded positions into one column per query
level = LevelFeature(2, fmap)
psi = 0.5 * rng.standard_normal((4, 16))
phi = 0.5 * rng.standard_normal((16, 16))
bank, _ = mgc.collect_context_fwd(level.data, psi, phi)
print("context bank shape:", bank.shape)

# pooling a constant map gives back the embedded constant, whatever the queries do
const = LevelFeature(2, np.full((16, 12, 18), 2.0))
bank_const, _ = mgc.collect_context_fwd(const.data, psi, phi)
expect = phi @ np.full(16, 2.0)
print("constant-map pooling error:", np.abs(bank_const - expect[:, None]).max())
