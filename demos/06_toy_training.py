"""Overfit the neck plus a tiny segmentation head on eight synthetic
shape images, in f32. Each step is one forward and one backward over the
whole batch, through the same kernels the gradient checks cover in f64."""

import argparse

from a2fpn import train

ap = argparse.ArgumentParser()
ap.add_argument("--arch", default="a2fpn", choices=train.TRAIN_ARCHS)
ap.add_argument("--steps", type=int, default=120)
ap.add_argument("--lr", type=float, default=train.DEFAULT_LR)
args = ap.parse_args()

cfg = train.toy_train_config(args.arch)
images, masks = train.synth_shapes(cfg)
print(f"dataset: {images.shape[0]} images {images.shape[1:]},"
      f" masks {masks.shape[1:]}, positives {masks.mean():.1%}")

report, store = train.train_toy(cfg, steps=args.steps, lr=args.lr)
for step, loss, reg in report.rows:
    if step % 20 == 0 or step == args.steps:
        print(f"  step {step:>4}  loss {loss:.6f}  (penalty {reg:.2e})")
ratio = report.final_loss / report.initial_loss
print(f"final/initial = {ratio:.4f}  "
      f"({'converged' if report.converged else 'still descending'}, "
      f"{report.seconds:.1f}s, {sum(v.size for v in store.values()):,} params)")

# the run is bit-reproducible: a fresh run repeats the first rows exactly,
# since every gradient is summed over the batch in a fixed order
prefix = min(args.steps, 20)
again, _ = train.train_toy(cfg, steps=prefix, lr=args.lr)
print(f"fresh {prefix}-step run: first {prefix + 1} rows identical ->",
      again.rows == report.rows[: prefix + 1])
