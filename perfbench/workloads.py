"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  ``setup(seed)`` builds the store and inputs
from the seed alone; ``op`` is the timed operation and ``control`` a pafpn
forward at the same image size and width, interleaved with the ops.  pafpn
calls no fusion or mgc code, so a change to those layers should leave the
control time unchanged while it moves the op time.

The workloads drive only public entry points of the package:
``pyramid.init_params``, ``toy_backbone_fwd``, ``forward_pyramid``,
``forward_a2fpn_fwd``/``_bwd`` and ``train.toy_train_config``,
``synth_shapes`` and ``train_toy``.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import replace

import numpy as np
from a2fpn import pyramid, train

LEVELS = (2, 3, 4, 5, 6)
SAMPLES = 4  # sampled entries per tensor in a fingerprint
# Reference digests are matched within a tolerance, not bit for bit, so a
# change may reorder f32 sums; a wrong index or a dropped term is far outside.
TENSOR_RTOL = 1e-3
ROWS_RTOL = 1e-4


def tensor_print(name, a, samples=SAMPLES):
    """Norm, size and a fixed set of sampled entries of one tensor."""
    v = np.asarray(a, dtype=np.float64).ravel()
    idx = np.random.default_rng(zlib.crc32(name.encode())).integers(0, v.size, samples)
    return {"norm": math.sqrt(float(v @ v)), "size": int(v.size),
            "samples": [float(x) for x in v[idx]]}


def compare(got, ref):
    """Problems in fingerprint ``got`` against the reference ``ref``.

    A tensor's norm may differ by TENSOR_RTOL relative; each sampled entry
    by TENSOR_RTOL times the tensor's root-mean-square value.  Loss rows are
    compared entry by entry at ROWS_RTOL relative, plus ``ROWS_RTOL * 1e-5``
    absolute for the near-zero penalty rows.
    """
    problems = []
    if set(got) != set(ref):
        return [f"fingerprint names differ: {sorted(set(got) ^ set(ref))[:4]}"]
    for name, r in ref.items():
        g = got[name]
        if isinstance(r, list):
            bad = [i for i, (x, y) in enumerate(zip(g, r))
                   if abs(x - y) > ROWS_RTOL * (abs(y) + 1e-5)]
            if bad or len(g) != len(r):
                problems.append(f"{name}: {len(g)} rows, differing from reference at {bad[:4]}")
            continue
        if abs(g["norm"] - r["norm"]) > TENSOR_RTOL * r["norm"]:
            problems.append(f"{name}: norm {g['norm']!r} vs reference {r['norm']!r}")
        rms = r["norm"] / math.sqrt(r["size"])
        if any(abs(x - y) > TENSOR_RTOL * rms for x, y in zip(g["samples"], r["samples"])):
            problems.append(f"{name}: sampled entries differ from reference")
    return problems


def check_levels(outs, cfg, prefix="out"):
    """Five finite levels 2..6 with strides 4..64 and shape (c, H/s, W/s)."""
    h, w = cfg.image_size
    problems = []
    if [f.level for f in outs] != list(LEVELS):
        return [f"{prefix}: levels {[f.level for f in outs]}, want {list(LEVELS)}"]
    for f in outs:
        want = (cfg.c, h // f.stride, w // f.stride)
        if f.stride != 2 ** f.level or f.data.shape != want:
            problems.append(f"{prefix}.l{f.level}: stride {f.stride} shape {f.data.shape}")
        elif f.data.dtype != cfg.np_dtype:
            problems.append(f"{prefix}.l{f.level}: dtype {f.data.dtype}")
        elif not math.isfinite(float(np.sum(f.data))):
            problems.append(f"{prefix}.l{f.level}: non-finite values")
    return problems


def levels_print(outs, prefix):
    return {f"{prefix}.l{f.level}": tensor_print(f"{prefix}.l{f.level}", f.data) for f in outs}


def digest_of(doc):
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class NeckWorkload:
    """Set-up and control shared by the workloads: the a2fpn store, toy
    backbone features of one synthetic image and the pafpn control store.
    ToyTrain builds its own training batch in their place."""

    images_per_op = 1
    evals_per_op = 1
    control_label = "pafpn_fwd"
    images_label = "images_per_s"

    def setup(self, seed):
        self.cfg = pyramid.PyramidConfig(arch="a2fpn", c=256, image_size=(self.size,) * 2,
                                         seed=seed)
        self.pcfg = replace(self.cfg, arch="pafpn")
        self.store = pyramid.init_params(self.cfg, with_backbone=True)
        self.pstore = pyramid.init_params(self.pcfg)
        image = train.synth_shapes(self.cfg, count=1)[0][0]
        self.levels, _ = pyramid.toy_backbone_fwd(image, self.store)

    def config_digest(self):
        return digest_of({"workload": self.name, "cfg": self.cfg.to_dict(),
                          "control": self.pcfg.to_dict()})

    def before_op(self):
        pass

    def control(self):
        return pyramid.forward_pyramid(self.levels, self.pstore, self.pcfg)

    def check_control(self, outs):
        return check_levels(outs, self.pcfg, "pafpn")

    def control_print(self, outs):
        return levels_print(outs, "pafpn")


class Infer512(NeckWorkload):
    name = "infer-512"
    size = 512
    op_label = "fwd"

    def op(self):
        return pyramid.forward_pyramid(self.levels, self.store, self.cfg)

    def check(self, outs):
        return check_levels(outs, self.cfg, "a2fpn")

    def fingerprint(self, outs):
        return levels_print(outs, "a2fpn")


class FwdBwd256(NeckWorkload):
    name = "fwdbwd-256"
    size = 256
    op_label = "fwdbwd"

    def setup(self, seed):
        super().setup(seed)
        rng = np.random.default_rng([seed, 0xC07])
        h, w = self.cfg.image_size
        self.gouts = [
            rng.standard_normal((self.cfg.c, h // 2 ** lvl, w // 2 ** lvl)).astype(np.float32)
            for lvl in LEVELS
        ]

    def op(self):
        outs, cache = pyramid.forward_a2fpn_fwd(self.levels, self.store, self.cfg)
        glevels, grads = pyramid.forward_a2fpn_bwd(cache, self.gouts)
        return outs, glevels, grads

    def check(self, result):
        outs, glevels, grads = result
        problems = check_levels(outs, self.cfg, "a2fpn")
        neck = {k: v for k, v in self.store.items() if not k.startswith("backbone.")}
        if set(grads) != set(neck):
            problems.append(f"grads cover {len(grads)} of {len(neck)} neck parameters")
        for key, g in grads.items():
            if key in neck and (g.shape != neck[key].shape
                                or not math.isfinite(float(np.sum(g)))):
                problems.append(f"grad {key}: shape {g.shape} or non-finite values")
        for f in self.levels:
            g = glevels.get(f.level)
            if g is None or g.shape != f.data.shape or not math.isfinite(float(np.sum(g))):
                problems.append(f"input grad l{f.level}: missing, misshapen or non-finite")
        return problems

    def fingerprint(self, result):
        outs, glevels, grads = result
        fp = levels_print(outs, "a2fpn")
        fp.update({f"glevel.l{k}": tensor_print(f"glevel.l{k}", g) for k, g in glevels.items()})
        # one sample per parameter keeps the committed digest small; the norms
        # already pin each parameter's gradient
        fp.update({f"grad.{k}": tensor_print(f"grad.{k}", g, 1) for k, g in grads.items()})
        return fp


class ToyTrain(NeckWorkload):
    name = "toy-train"
    op_label = "step"
    images_label = "train_images_per_s"
    steps = 2
    evals_per_op = steps + 1  # train_toy evaluates the gradient once more after the last step
    images_per_op = train.BATCH * evals_per_op

    def setup(self, seed):
        self.cfg = train.toy_train_config("a2fpn", seed=seed)
        self.pcfg = replace(self.cfg, arch="pafpn")
        self.data = train.synth_shapes(self.cfg)
        self.store0 = pyramid.init_params(self.cfg, with_backbone=True, with_head=True)
        self.pstore = pyramid.init_params(self.pcfg)
        self.levels, _ = pyramid.toy_backbone_fwd(self.data[0][0], self.store0)

    def config_digest(self):
        return digest_of({"workload": self.name, "cfg": self.cfg.to_dict(),
                          "control": self.pcfg.to_dict(), "steps": self.steps})

    def before_op(self):
        self.store = {k: v.copy() for k, v in self.store0.items()}

    def op(self):
        return train.train_toy(self.cfg, steps=self.steps, store=self.store, data=self.data)

    def check(self, result):
        report, store = result
        problems = []
        if report.diverged or len(report.rows) != self.steps + 1:
            problems.append(f"diverged={report.diverged}, {len(report.rows)} loss rows")
        if not all(math.isfinite(v) for row in report.rows for v in row[1:]):
            problems.append("non-finite loss row")
        if set(store) != set(self.store0) or not all(
                math.isfinite(float(np.sum(v))) for v in store.values()):
            problems.append("trained store is incomplete or non-finite")
        return problems

    def fingerprint(self, result):
        report, _ = result
        return {"loss": [r[1] for r in report.rows], "reg_loss": [r[2] for r in report.rows]}


WORKLOADS = {w.name: w for w in (Infer512, FwdBwd256, ToyTrain)}
