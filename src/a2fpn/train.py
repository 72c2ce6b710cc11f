"""Desk-scale training check: synthetic shape masks, a 1×1 head on the
finest pyramid output, per-pixel binary cross-entropy plus the orthogonality
penalty, momentum SGD.

Everything upstream of p2 trains on real gradients: the backbone, the
context stage, the top-down sites, and in the full neck the extra level and
the finest smooth.  The task checks training; it is not a benchmark.  The head
reads p2 alone, so the neck's forward reads only p2 and skips the bottom-up
sites (bu.l3 and up), whose outputs feed only the other four levels.  Its
backward takes p2's gradient alone, runs exactly the stages that forward
ran, and gives the skipped sites exact-zero gradients, so they never train.
Their forward and adjoints are covered by the whole-neck gradchecks of
``verify`` (``a2fpn_full``, ``a2fpn_lite``) and by the benchmark's
fwdbwd-256 workload, which sends a cotangent into every output.  Each step runs one forward and one backward
over the whole batch: every op carries the image axis, and the gradient of
each shared parameter is summed over the images inside its GEMMs and
reductions, in a fixed order, so trajectories are bit-identical from run to
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .mgc import orthogonal_reg
from .nn_ops import ConvParams, bilinear_upsample_bwd, bilinear_upsample_fwd, conv2d_bwd, conv2d_fwd
from .pyramid import (
    ConfigError,
    PyramidConfig,
    forward_a2fpn_bwd,
    forward_a2fpn_fwd,
    init_params,
    toy_backbone_bwd,
    toy_backbone_fwd,
)
from .tensor_core import sigmoid_fwd

TRAIN_ARCHS = ("a2fpn", "a2fpn_lite")
MOMENTUM = 0.9
DEFAULT_STEPS = 500
DEFAULT_LR = 0.005
BATCH = 8


def toy_train_config(arch="a2fpn", seed=0):
    """Small widths so 500 full-batch steps stay in desk-scale time."""
    return PyramidConfig(
        arch=arch,
        c=16,
        a=4,
        c_m=16,
        backbone=(16, 32, 64, 64),
        image_size=(64, 64),
        seed=seed,
    )


def synth_shapes(cfg, count=BATCH):
    """Images of solid rectangles and disks at mixed scales on a noisy
    background, plus the binary union mask of their supports."""
    h, w = cfg.image_size
    rng = np.random.default_rng([cfg.seed, 0x5A])
    dt = cfg.np_dtype
    images = np.zeros((count, 3, h, w), dtype=dt)
    masks = np.zeros((count, h, w), dtype=dt)
    ys, xs = np.mgrid[0:h, 0:w]
    for i in range(count):
        img = rng.normal(0.0, 0.05, (3, h, w))
        mask = np.zeros((h, w), dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            cy = rng.uniform(0.2, 0.8) * h
            cx = rng.uniform(0.2, 0.8) * w
            size = rng.uniform(0.10, 0.30) * min(h, w)
            if rng.integers(2):
                ry, rx = size, size * rng.uniform(0.6, 1.6)
                inside = (np.abs(ys - cy) <= ry) & (np.abs(xs - cx) <= rx)
            else:
                inside = (ys - cy) ** 2 + (xs - cx) ** 2 <= size ** 2
            color = rng.uniform(0.4, 1.0, 3)
            img[:, inside] += color[:, None]
            mask |= inside
        images[i] = img.astype(dt)
        masks[i] = mask.astype(dt)
    return images, masks


def _bce_with_logits(z, target):
    """Mean over images of the per-image mean BCE; z and target are (h, w) or (n, h, w)."""
    # max(z,0) - z*y + log(1 + exp(-|z|)) is exp-overflow safe
    elem = np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(np.mean(elem, axis=(-2, -1))))


def batch_pass(images, masks, store, cfg):
    """Forward + backward for a batch (n, 3, H, W) of images and (n, H, W) of masks.

    Returns (task loss, param grads): the mean over images of each image's
    mean BCE, and its gradient.  The whole batch is one pass through every
    op; each parameter gradient comes out summed over the images.
    """
    levels, bb_cache = toy_backbone_fwd(images, store)
    loss, glevels, pg = _neck_and_head_pass(levels, masks, store, cfg)
    # the neck's caches are gone by now, so the batch's caches are not all
    # alive during the backbone's backward; the image gradient is not needed
    _, bb_pg = toy_backbone_bwd(bb_cache, glevels, need_gimage=False)
    pg.update(bb_pg)
    return loss, pg


def _neck_and_head_pass(levels, masks, store, cfg):
    """Loss, backbone-level gradients and neck and head param grads.

    The head reads p2 alone, so the neck runs forward only what p2 needs
    and gets p2's gradient alone back: the bottom-up sites, whose outputs
    feed only the other four levels, run neither way and report zero
    gradients.
    """
    outs, neck_cache = forward_a2fpn_fwd(levels, store, cfg, reads=(2,))
    loss, head_cache = _head_fwd(outs[0].data, masks, store)
    gp2, gw_head, gb_head = _head_bwd(head_cache)
    del head_cache  # the head's full-resolution maps go before the neck's backward
    glevels, pg = forward_a2fpn_bwd(neck_cache, [gp2])
    pg["head.weight"] = gw_head
    pg["head.bias"] = gb_head
    return loss, glevels, pg


def _head_fwd(p2, masks, store):
    """Loss of the 1×1 head on p2 upsampled ×4, and the head's cache."""
    if p2.ndim != 4 or masks.ndim != 3:
        raise ValueError(f"the head takes a batch: p2 (n, c, h, w) and masks (n, H, W), "
                         f"got {p2.shape} and {masks.shape}")
    z4, c_conv = conv2d_fwd(ConvParams.from_store(store, "head"), p2)
    z2, c_up1 = bilinear_upsample_fwd(z4)
    z1, c_up2 = bilinear_upsample_fwd(z2)
    z = z1[:, 0]
    return _bce_with_logits(z, masks), (z, masks, c_conv, c_up1, c_up2)


def _head_bwd(cache):
    """(gp2, gw, gb) of the loss _head_fwd returned."""
    z, masks, c_conv, c_up1, c_up2 = cache
    gz = ((sigmoid_fwd(z)[0] - masks) / z.size).astype(z.dtype)
    g2 = bilinear_upsample_bwd(c_up2, gz[:, None])
    g4 = bilinear_upsample_bwd(c_up1, g2)
    return conv2d_bwd(c_conv, g4)


def _objective_grads(images, masks, store, cfg):
    task, grads = batch_pass(images, masks, store, cfg)
    reg, reg_grads = orthogonal_reg(store, cfg.lambda_o)
    for key, g in reg_grads.items():
        grads[key] = grads[key] + g
    return task + reg, reg, grads


def _objective(images, masks, store, cfg):
    """The (loss, reg) of _objective_grads, forward only: no cache is kept,
    no gradient is taken and the neck runs only what p2 needs."""
    levels = toy_backbone_fwd(images, store)[0]
    outs = forward_a2fpn_fwd(levels, store, cfg, keep_cache=False, reads=(2,))[0]
    task, _ = _head_fwd(outs[0].data, masks, store)
    reg = orthogonal_reg(store, cfg.lambda_o)[0]
    return task + reg, reg


@dataclass
class TrainReport:
    arch: str
    steps: int
    lr: float
    seed: int
    rows: list = field(default_factory=list)  # (step, loss, reg_loss)
    diverged: bool = False
    seconds: float = 0.0

    @property
    def initial_loss(self):
        return self.rows[0][1] if self.rows else float("nan")

    @property
    def final_loss(self):
        return self.rows[-1][1] if self.rows else float("nan")

    @property
    def converged(self):
        return (
            not self.diverged
            and len(self.rows) > 1
            and np.isfinite(self.final_loss)
            and self.final_loss < 0.1 * self.initial_loss
        )

    def to_dict(self):
        return {
            "arch": self.arch,
            "steps": self.steps,
            "lr": self.lr,
            "seed": self.seed,
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
            "converged": bool(self.converged),
            "diverged": self.diverged,
            "seconds": self.seconds,
        }


def write_loss_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss,reg_loss\n")
        for step, loss, reg in rows:
            fh.write(f"{step},{loss!r},{reg!r}\n")


def check_trainable(cfg):
    """ConfigError unless train_toy covers cfg.arch."""
    if cfg.arch not in TRAIN_ARCHS:
        raise ConfigError(f"training covers {TRAIN_ARCHS}, not {cfg.arch!r}")


def train_toy(cfg, steps=DEFAULT_STEPS, lr=DEFAULT_LR, store=None, data=None):
    """Full-batch momentum SGD; returns (TrainReport, trained store).

    The loss column holds the total objective (task + penalty); a final row
    at index `steps` records the post-training loss the convergence check
    reads.  That row is taken forward only (no cache, no gradient), with
    the same bits as a full pass at the trained store.  Non-finite loss
    stops the run and marks the report diverged.  An arch outside
    TRAIN_ARCHS is a ConfigError and a negative steps a ValueError.
    """
    check_trainable(cfg)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    t0 = time.perf_counter()
    if store is None:
        store = init_params(cfg, with_backbone=True, with_head=True)
    images, masks = synth_shapes(cfg) if data is None else data
    velocity = {k: np.zeros(v.shape, v.dtype) for k, v in store.items()}
    report = TrainReport(arch=cfg.arch, steps=steps, lr=lr, seed=cfg.seed)

    for step in range(steps + 1):
        if step == steps:  # the last row needs only the loss
            loss, reg = _objective(images, masks, store, cfg)
        else:
            loss, reg, grads = _objective_grads(images, masks, store, cfg)
        report.rows.append((step, loss, reg))
        if not np.isfinite(loss):
            report.diverged = True
            break
        if step == steps:
            break
        for key in store:
            v = velocity[key]
            v *= MOMENTUM
            v += grads[key]
            store[key] -= lr * v
        del grads  # spent: not kept alive through the next step's pass
    report.seconds = time.perf_counter() - t0
    return report, store
