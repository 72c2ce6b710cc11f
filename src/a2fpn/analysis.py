"""Closed-form parameter and FLOP accounting for the neck variants.

Counting conventions (all documented so reports are reproducible):
  - one multiply-accumulate = 1 FLOP
  - convolution: out_ch · in_ch · k² · h_out · w_out (bias adds params, not FLOPs)
  - matrix products between data tensors (attention, reassembly): m · k · n
  - softmax: 3 FLOPs/element; the scaled attention variant adds 1 for the scale
  - L2 key normalization: 3/element, layer norm: 5/element, ReLU: 1/element
  - merges: 1/element per gate multiply and per addition
  - bilinear ×2 resize: 8/output element; nearest resize is free

Backbone and heads are out of scope; every line is neck-only.  Parameter
totals agree element-for-element with an instantiated store of the same
config (asserted in the tests).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from .pyramid import ARCHS, PyramidConfig, _sites, param_shapes, resolve_backbone

COUNT_ARCHS = ARCHS + ("none",)


@dataclass
class CostLine:
    name: str
    params: int
    flops: int
    category: str  # conv | matmul | elementwise

    def to_dict(self):
        return {"name": self.name, "params": self.params, "flops": self.flops,
                "category": self.category}


@dataclass
class ComplexityReport:
    arch: str
    image_size: Optional[tuple]
    lines: list

    @property
    def total_params(self):
        return sum(l.params for l in self.lines)

    @property
    def total_flops(self):
        return sum(l.flops for l in self.lines)

    def category_flops(self, category):
        return sum(l.flops for l in self.lines if l.category == category)

    def to_dict(self):
        return {
            "arch": self.arch,
            "image_size": list(self.image_size) if self.image_size else None,
            "total_params": self.total_params,
            "total_flops": self.total_flops,
            "flops_by_category": {
                c: self.category_flops(c) for c in ("conv", "matmul", "elementwise")
            },
            "lines": [l.to_dict() for l in self.lines],
        }


class _Inventory:
    def __init__(self, sizes, shapes):
        self.sizes = sizes  # level -> h·w (all zero when only counting params)
        self.shapes = shapes  # parameter name -> shape, as param_shapes lists them
        self.lines = []

    def size(self, *names):
        """Stored elements of the named parameters; a name not stored counts 0."""
        return sum(math.prod(self.shapes[n]) for n in names if n in self.shapes)

    def conv(self, name, hw):
        """The conv or linear map stored as ``{name}.weight`` (and ``.bias``)
        evaluated at hw positions: one MAC per weight element and position."""
        w = self.size(f"{name}.weight")
        self.lines.append(CostLine(name, w + self.size(f"{name}.bias"), w * hw, "conv"))

    def matmul(self, name, m, k, n):
        self.lines.append(CostLine(name, 0, m * k * n, "matmul"))

    def elem(self, name, flops, params=()):
        self.lines.append(CostLine(name, self.size(*params), flops, "elementwise"))


def _level_sizes(image_size):
    if image_size is None:
        return {lvl: 0 for lvl in (2, 3, 4, 5, 6)}
    h, w = image_size
    if min(h, w) < 1 or h % 64 or w % 64:
        raise ValueError(f"image extents {image_size} must be positive and divisible by 64")
    return {lvl: (h // 2 ** lvl) * (w // 2 ** lvl) for lvl in (2, 3, 4, 5, 6)}


def _fpn_lines(inv, cfg):
    c = cfg.c
    hw = inv.sizes
    for lvl in (2, 3, 4, 5):
        inv.conv(f"fpn.lateral.l{lvl}", hw[lvl])
    for lvl in (2, 3, 4):
        inv.elem(f"fpn.add.l{lvl}", c * hw[lvl])
    for lvl in (2, 3, 4, 5):
        inv.conv(f"fpn.smooth.l{lvl}", hw[lvl])
    inv.elem("fpn.extra.pool", 3 * c * hw[6])


def _pafpn_lines(inv, cfg):
    _fpn_lines(inv, cfg)
    c = cfg.c
    hw = inv.sizes
    for lvl in (3, 4, 5):
        inv.conv(f"pafpn.down.l{lvl}", hw[lvl])
        inv.elem(f"pafpn.add.l{lvl}", c * hw[lvl])
        inv.conv(f"pafpn.smooth.l{lvl}", hw[lvl])


def _gcn_lines(inv, prefix, c, n):
    q = inv.shapes[f"{prefix}.w1.weight"][0]  # the bottleneck width
    inv.conv(f"{prefix}.w1", n)
    inv.conv(f"{prefix}.w2", n)
    inv.elem(f"{prefix}.keynorm", 3 * q * n)
    inv.matmul(f"{prefix}.scores", n, q, n)
    inv.elem(f"{prefix}.softmax", 4 * n * n)
    inv.matmul(f"{prefix}.mix", c, n, n)
    inv.conv(f"{prefix}.w3", n)
    inv.elem(f"{prefix}.residual", c * n)


def _site_lines(inv, site, cfg, hw_in, pred_hw, o, k):
    """One fusion site: its readers run at hw_in positions and the predictor
    conv at pred_hw (the coarse grid both ways: directly when upsampling,
    via its stride when downsampling); the output level has o positions."""
    c, c_m = cfg.c, cfg.c_m
    cin = inv.shapes[f"{site}.gate.w1.weight"][1]  # the reader input [source, guidance]
    q = inv.shapes[f"{site}.gate.w2.weight"][0]  # the gate bottleneck
    inv.conv(f"{site}.kpred.compressor", hw_in)
    inv.conv(f"{site}.kpred.encoder", hw_in)
    inv.elem(f"{site}.kpred.relu", c_m * hw_in)
    inv.conv(f"{site}.kpred.predictor", pred_hw)
    inv.elem(f"{site}.kpred.softmax", 3 * k * k * o)
    inv.matmul(f"{site}.reassemble", c, k * k, o)
    inv.conv(f"{site}.gate.w1", hw_in)
    inv.elem(f"{site}.gate.softmax", 3 * hw_in)
    inv.matmul(f"{site}.gate.pool", cin, hw_in, 1)
    inv.conv(f"{site}.gate.w2", 1)
    inv.elem(f"{site}.gate.ln", 5 * q, params=(f"{site}.gate.ln.gain", f"{site}.gate.ln.shift"))
    inv.elem(f"{site}.gate.relu", q)
    inv.conv(f"{site}.gate.w3", 1)
    inv.elem(f"{site}.gate.act", 4 * 2 * c)
    inv.elem(f"{site}.merge", 3 * c * o)
    inv.conv(f"{site}.smooth", o)


def _a2fpn_lines(inv, cfg):
    c = cfg.c
    hw = inv.sizes
    top = cfg.top_level

    if not cfg.lite:
        inv.conv("extra.f6", hw[6])

    # levels 2-5 collect context; the extra level 6 only receives it
    n_total = sum(cfg.n_context(l) for l in (2, 3, 4, 5))
    for lvl in (2, 3, 4, 5):
        ni, ci = inv.shapes[f"mgc.l{lvl}.psi.weight"]
        inv.elem(f"mgc.l{lvl}.collect.keynorm", 3 * ci * hw[lvl])
        inv.conv(f"mgc.l{lvl}.psi", hw[lvl])
        inv.elem(f"mgc.l{lvl}.collect.softmax", 4 * ni * hw[lvl])
        inv.conv(f"mgc.l{lvl}.phi", hw[lvl])
        inv.matmul(f"mgc.l{lvl}.collect.pool", c, hw[lvl], ni)
        _gcn_lines(inv, f"mgc.l{lvl}.gcn", c, ni)
    _gcn_lines(inv, "mgc.shared_gcn", c, n_total)
    inv.conv("mgc.out", n_total)
    for lvl in range(2, top + 1):
        inv.conv(f"mgc.l{lvl}.theta", hw[lvl])
        inv.conv(f"mgc.l{lvl}.xi", hw[lvl])
        inv.elem(f"mgc.l{lvl}.dist.keynorm", 3 * c * n_total)
        inv.matmul(f"mgc.l{lvl}.dist.scores", hw[lvl], c, n_total)
        inv.elem(f"mgc.l{lvl}.dist.softmax", 4 * n_total * hw[lvl])
        inv.matmul(f"mgc.l{lvl}.dist.apply", c, n_total, hw[lvl])
        inv.elem(f"mgc.l{lvl}.dist.residual", c * hw[lvl])

    for prefix, src, dst, k in _sites(cfg):
        up = src > dst
        if prefix == "bu.l3" and not cfg.lite:  # stored between the two chains
            inv.conv("bu.l2.smooth", hw[2])
        if up:
            inv.elem(f"{prefix}.pool", 3 * c * hw[src])
        else:
            inv.elem(f"{prefix}.upsample", 8 * c * hw[src])
        _site_lines(inv, prefix, cfg, hw[src], hw[src if up else dst], hw[dst], k)
    if cfg.lite:
        inv.elem("bu.pool_top", 3 * c * hw[6])


def _build_report(arch, spec, cfg, image_size):
    if arch not in COUNT_ARCHS:
        raise ValueError(f"unknown arch {arch!r}, have {COUNT_ARCHS}")
    sizes = _level_sizes(image_size)
    if arch == "none":
        return ComplexityReport(arch=arch, image_size=image_size, lines=[])
    cfg = replace(cfg, arch=arch,
                  backbone=cfg.backbone if spec is None else resolve_backbone(spec).channels)
    inv = _Inventory(sizes, param_shapes(cfg))
    {"fpn": _fpn_lines, "pafpn": _pafpn_lines}.get(arch, _a2fpn_lines)(inv, cfg)
    return ComplexityReport(arch=arch, image_size=image_size, lines=inv.lines)


def count_params(arch, backbone_spec=None, cfg=None):
    """Neck parameter count; FLOPs columns are zero (no image size)."""
    cfg = cfg if cfg is not None else reference_config(arch)
    return _build_report(arch, backbone_spec, cfg, None)


def count_flops(arch, backbone_spec=None, image_size=(832, 1280), cfg=None):
    """Neck parameters and FLOPs at image_size (h, w)."""
    cfg = cfg if cfg is not None else reference_config(arch)
    return _build_report(arch, backbone_spec, cfg, tuple(image_size))


def reference_config(arch="a2fpn"):
    """The nominal-width setting the complexity table is quoted at."""
    if arch == "none":
        arch = "a2fpn"
    lite = arch == "a2fpn_lite"
    return PyramidConfig(arch=arch, c=128 if lite else 256, a=32 if lite else 64,
                         backbone="nominal")


# ---------------------------------------------------------------------------
# deltas and rendering
# ---------------------------------------------------------------------------

@dataclass
class DiffLine:
    name: str
    params: int
    flops: int


@dataclass
class DiffReport:
    arch_a: str
    arch_b: str
    image_size: Optional[tuple]
    lines: list

    @property
    def total_params(self):
        return sum(l.params for l in self.lines)

    @property
    def total_flops(self):
        return sum(l.flops for l in self.lines)

    def to_dict(self):
        return {
            "arch_a": self.arch_a,
            "arch_b": self.arch_b,
            "image_size": list(self.image_size) if self.image_size else None,
            "total_params": self.total_params,
            "total_flops": self.total_flops,
            "lines": [{"name": l.name, "params": l.params, "flops": l.flops}
                      for l in self.lines if l.params or l.flops],
        }


def diff_report(a: ComplexityReport, b: ComplexityReport) -> DiffReport:
    """Per-line a − b; lines are matched by name, absences count as zero."""
    if a.image_size != b.image_size:
        raise ValueError(f"image sizes differ: {a.image_size} vs {b.image_size}")
    pa = {l.name: l for l in a.lines}
    pb = {l.name: l for l in b.lines}
    names = list(pa) + [n for n in pb if n not in pa]
    lines = []
    for name in names:
        la, lb = pa.get(name), pb.get(name)
        lines.append(DiffLine(
            name,
            (la.params if la else 0) - (lb.params if lb else 0),
            (la.flops if la else 0) - (lb.flops if lb else 0),
        ))
    return DiffReport(a.arch, b.arch, a.image_size, lines)


def _fmt_count(v, unit):
    if v == 0:
        return "0"
    scale, suffix = (1e9, "G") if unit == "flops" else (1e6, "M")
    return f"{v / scale:.2f}{suffix}"


def format_table(reports):
    """Aligned text table: Method | Image Size | #FLOPs | #Params."""
    rows = [("Method", "Image Size", "#FLOPs", "#Params")]
    for r in reports:
        size = f"{r.image_size[1]}x{r.image_size[0]}" if r.image_size else "-"
        rows.append((r.arch, size, _fmt_count(r.total_flops, "flops"),
                     _fmt_count(r.total_params, "params")))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    out = []
    for i, row in enumerate(rows):
        out.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            out.append("  ".join("-" * widths[j] for j in range(4)))
    return "\n".join(out)


def format_diff(d: DiffReport):
    head = f"{d.arch_a} - {d.arch_b}: params {d.total_params:+,}, flops {d.total_flops:+,}"
    body = [head]
    for l in d.lines:
        if l.params or l.flops:
            body.append(f"  {l.name:<28} params {l.params:+,}  flops {l.flops:+,}")
    return "\n".join(body)


def save_report(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj.to_dict(), fh, indent=2)
    return path
