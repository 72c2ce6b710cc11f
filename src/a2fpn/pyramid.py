"""Whole-neck assembly: config, parameter store, and the four variants.

Parameters live in a flat dict keyed by dotted names (``mgc.l3.psi.weight``,
``td.l4.kpred.predictor.weight``, ...); the same names are used for
serialization and for gradient accumulation.  Builder helpers wrap store
slices into the typed parameter views the op modules expect.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import fusion, mgc
from .levels import LevelFeature
from .nn_ops import (
    ConvParams,
    conv2d_bwd,
    conv2d_fwd,
    max_pool2d,
    max_pool2d_bwd,
    max_pool2d_fwd,
    nearest_upsample,
    same_padding,
)
from .tensor_core import DTYPES, relu_bwd, relu_fwd

ARCHS = ("fpn", "pafpn", "a2fpn", "a2fpn_lite")


class ConfigError(ValueError):
    """Invalid pyramid configuration or config document."""


@dataclass
class BackboneSpec:
    """Per-stage channel counts of the four backbone levels (strides 4..32)."""

    channels: tuple
    name: str = "custom"

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        if len(self.channels) != 4 or min(self.channels) < 1:
            raise ConfigError(f"backbone needs 4 positive stage widths, got {self.channels}")

    @property
    def strides(self):
        return (4, 8, 16, 32)

    def channels_of(self, level):
        return self.channels[level - 2]


BACKBONE_PRESETS = {
    "toy": BackboneSpec((32, 64, 128, 256), name="toy"),
    "nominal": BackboneSpec((256, 512, 1024, 2048), name="nominal"),
}


def resolve_backbone(spec) -> BackboneSpec:
    if isinstance(spec, BackboneSpec):
        return spec
    if isinstance(spec, str):
        if spec not in BACKBONE_PRESETS:
            raise ConfigError(f"unknown backbone preset {spec!r}, have {sorted(BACKBONE_PRESETS)}")
        return BACKBONE_PRESETS[spec]
    return BackboneSpec(tuple(spec))


@dataclass
class PyramidConfig:
    """Architecture variant plus every knob the necks read.

    n_formula is the coefficient a in n_i = a·(6−i); the reference setting
    uses a=64 with the nominal backbone.  The three lite flags drop the
    stride-64 input conv, build the top output by max-pooling, and drop the
    finest-level output conv; arch "a2fpn_lite" turns them all on.
    """

    arch: str = "a2fpn"
    c: int = 256
    a: int = 8
    k_up: int = 5
    k_dn: int = 5
    k_en: int = 3
    c_m: int = 64
    gate_act: str = "two_sigmoid"
    use_concat_guidance: bool = True
    collect_levels: tuple = (2, 3, 4, 5)
    drop_extra_level: Optional[bool] = None
    pool_top: Optional[bool] = None
    drop_finest_smooth: Optional[bool] = None
    seed: int = 0
    dtype: str = "f32"
    image_size: tuple = (256, 256)
    backbone: Union[str, tuple] = "toy"
    lambda_o: float = 1e-4

    def __post_init__(self):
        lite = self.arch == "a2fpn_lite"
        if self.drop_extra_level is None:
            self.drop_extra_level = lite
        if self.pool_top is None:
            self.pool_top = lite
        if self.drop_finest_smooth is None:
            self.drop_finest_smooth = lite
        self.collect_levels = tuple(sorted(int(v) for v in self.collect_levels))
        self.image_size = tuple(int(v) for v in self.image_size)
        self.validate()

    def validate(self):
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}, have {ARCHS}")
        if self.c < 4 or self.c % 4:
            raise ConfigError(f"channel width {self.c} must be a positive multiple of 4")
        if self.a < 1:
            raise ConfigError("context coefficient a must be ≥ 1")
        if self.k_up % 2 == 0 or self.k_dn % 2 == 0:
            raise ConfigError("reassembly tap sizes must be odd")
        if self.k_en < 1 or self.c_m < 1:
            raise ConfigError("encoder kernel and width must be positive")
        if self.gate_act not in fusion.GATE_ACTS:
            raise ConfigError(f"gate_act must be one of {fusion.GATE_ACTS}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(DTYPES)}")
        if not self.collect_levels or not set(self.collect_levels) <= {2, 3, 4, 5}:
            raise ConfigError("collect_levels must be a non-empty subset of {2,3,4,5}")
        if len(self.image_size) != 2 or any(v % 64 for v in self.image_size):
            raise ConfigError(f"image extents {self.image_size} must be divisible by 64")
        if self.drop_extra_level != self.pool_top:
            raise ConfigError("drop_extra_level and pool_top must toggle together")
        resolve_backbone(self.backbone)

    # -- derived ----------------------------------------------------------

    def n_context(self, level):
        return self.a * (6 - level)

    @property
    def top_level(self):
        """Highest level reached by the fusion chains (6 full, 5 lite)."""
        return 5 if self.drop_extra_level else 6

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    # -- config documents --------------------------------------------------

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        known = set(cls.__dataclass_fields__)
        bad = set(doc) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        coerced = dict(doc)
        for key in ("collect_levels", "image_size"):
            if key in coerced:
                coerced[key] = tuple(coerced[key])
        if isinstance(coerced.get("backbone"), list):
            coerced["backbone"] = tuple(coerced["backbone"])
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self):
        doc = {}
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            doc[name] = list(v) if isinstance(v, tuple) else v
        return doc

    def digest(self):
        """Content hash of the canonicalized config document."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def _kaiming(rng, shape, fan_in, dtype):
    return (rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)).astype(dtype)


def _conv_init(store, rng, name, cout, cin, k, dtype, std=None, bias=True):
    if std is None:
        w = _kaiming(rng, (cout, cin, k, k), cin * k * k, dtype)
    else:
        w = (rng.standard_normal((cout, cin, k, k)) * std).astype(dtype)
    store[f"{name}.weight"] = w
    if bias:
        store[f"{name}.bias"] = np.zeros(cout, dtype=dtype)


def _orthonormal_rows(rng, rows, cols, dtype):
    if rows > cols:
        raise ConfigError(f"cannot build {rows} orthonormal rows of length {cols}; need n_i ≤ c_i")
    q, r = np.linalg.qr(rng.standard_normal((cols, rows)))
    q = q * np.sign(np.diag(r))  # fix the QR sign ambiguity deterministically
    return np.ascontiguousarray(q.T).astype(dtype)


def _init_fusion_site(store, rng, prefix, cfg, kind):
    dt = cfg.np_dtype
    c = cfg.c
    src = 2 * c if cfg.use_concat_guidance else c
    k = cfg.k_up if kind == "up" else cfg.k_dn
    logits = (4 * k * k) if kind == "up" else (k * k)
    _conv_init(store, rng, f"{prefix}.kpred.compressor", cfg.c_m, src, 1, dt)
    _conv_init(store, rng, f"{prefix}.kpred.encoder", cfg.c_m, cfg.c_m, 3, dt)
    # near-zero start keeps the initial kernels close to uniform averaging
    _conv_init(store, rng, f"{prefix}.kpred.predictor", logits, cfg.c_m, cfg.k_en, dt, std=1e-3)
    store[f"{prefix}.gate.w1.weight"] = _kaiming(rng, (1, src), src, dt)
    store[f"{prefix}.gate.w2.weight"] = _kaiming(rng, (c // 2, src), src, dt)
    store[f"{prefix}.gate.w3.weight"] = _kaiming(rng, (2 * c, c // 2), c // 2, dt)
    store[f"{prefix}.gate.ln.gain"] = np.ones(c // 2, dtype=dt)
    store[f"{prefix}.gate.ln.shift"] = np.zeros(c // 2, dtype=dt)
    _conv_init(store, rng, f"{prefix}.smooth", c, c, 3, dt)


def init_params(cfg: PyramidConfig, spec=None, with_backbone=False, with_head=False):
    """Build the flat parameter store for cfg.arch.

    Draw order is fixed (backbone, neck top to bottom, head) so a given
    seed always produces the same store.
    """
    spec = resolve_backbone(spec if spec is not None else cfg.backbone)
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.np_dtype
    c = cfg.c
    store = {}

    if with_backbone:
        c2, c3, c4, c5 = spec.channels
        _conv_init(store, rng, "backbone.stem1", c2, 3, 3, dt)
        _conv_init(store, rng, "backbone.stem2", c2, c2, 3, dt)
        _conv_init(store, rng, "backbone.stage3", c3, c2, 3, dt)
        _conv_init(store, rng, "backbone.stage4", c4, c3, 3, dt)
        _conv_init(store, rng, "backbone.stage5", c5, c4, 3, dt)

    if cfg.arch in ("fpn", "pafpn"):
        for lvl in (2, 3, 4, 5):
            _conv_init(store, rng, f"fpn.lateral.l{lvl}", c, spec.channels_of(lvl), 1, dt)
        for lvl in (2, 3, 4, 5):
            _conv_init(store, rng, f"fpn.smooth.l{lvl}", c, c, 3, dt)
        if cfg.arch == "pafpn":
            for lvl in (3, 4, 5):
                _conv_init(store, rng, f"pafpn.down.l{lvl}", c, c, 3, dt)
            for lvl in (3, 4, 5):
                _conv_init(store, rng, f"pafpn.smooth.l{lvl}", c, c, 3, dt)
    else:
        if not cfg.drop_extra_level:
            _conv_init(store, rng, "extra.f6", c, spec.channels_of(5), 3, dt)
        dist_levels = (2, 3, 4, 5) if cfg.drop_extra_level else (2, 3, 4, 5, 6)
        for lvl in dist_levels:
            ci = c if lvl == 6 else spec.channels_of(lvl)
            if lvl in cfg.collect_levels:
                store[f"mgc.l{lvl}.psi.weight"] = _orthonormal_rows(rng, cfg.n_context(lvl), ci, dt)
                store[f"mgc.l{lvl}.phi.weight"] = _kaiming(rng, (c, ci), ci, dt)
            store[f"mgc.l{lvl}.theta.weight"] = _kaiming(rng, (c, ci), ci, dt)
            store[f"mgc.l{lvl}.xi.weight"] = _kaiming(rng, (c, ci), ci, dt)
            if lvl in cfg.collect_levels:
                store[f"mgc.l{lvl}.gcn.w1.weight"] = _kaiming(rng, (c // 4, c), c, dt)
                store[f"mgc.l{lvl}.gcn.w2.weight"] = _kaiming(rng, (c // 4, c), c, dt)
                store[f"mgc.l{lvl}.gcn.w3.weight"] = _kaiming(rng, (c, c), c, dt)
        store["mgc.shared_gcn.w1.weight"] = _kaiming(rng, (c // 4, c), c, dt)
        store["mgc.shared_gcn.w2.weight"] = _kaiming(rng, (c // 4, c), c, dt)
        store["mgc.shared_gcn.w3.weight"] = _kaiming(rng, (c, c), c, dt)
        store["mgc.out.weight"] = _kaiming(rng, (c, c), c, dt)
        for lvl in range(cfg.top_level - 1, 1, -1):
            _init_fusion_site(store, rng, f"td.l{lvl}", cfg, "up")
        if not cfg.drop_finest_smooth:
            _conv_init(store, rng, "bu.l2.smooth", c, c, 3, dt)
        for lvl in range(3, cfg.top_level + 1):
            _init_fusion_site(store, rng, f"bu.l{lvl}", cfg, "down")

    if with_head:
        _conv_init(store, rng, "head", 1, c, 1, dt)
    return store


# ---------------------------------------------------------------------------
# store views
# ---------------------------------------------------------------------------

def _conv_view(store, name, stride=1, padding=0):
    return ConvParams(
        store[f"{name}.weight"], store.get(f"{name}.bias"), stride=stride, padding=padding
    )


def _fusion_view(store, prefix, cfg, kind):
    pred_stride = 1 if kind == "up" else 2
    return fusion.FusionParams(
        compressor=_conv_view(store, f"{prefix}.kpred.compressor"),
        encoder=_conv_view(store, f"{prefix}.kpred.encoder", padding=same_padding(3)),
        predictor=_conv_view(
            store, f"{prefix}.kpred.predictor", stride=pred_stride, padding=same_padding(cfg.k_en)
        ),
        gate_w1=store[f"{prefix}.gate.w1.weight"],
        gate_w2=store[f"{prefix}.gate.w2.weight"],
        gate_w3=store[f"{prefix}.gate.w3.weight"],
        ln_gain=store[f"{prefix}.gate.ln.gain"],
        ln_shift=store[f"{prefix}.gate.ln.shift"],
        smooth=_conv_view(store, f"{prefix}.smooth", padding=same_padding(3)),
        k=cfg.k_up if kind == "up" else cfg.k_dn,
        s=2,
        gate_act=cfg.gate_act,
    )


def _mgc_view(store, cfg):
    levels = {}
    dist_levels = (2, 3, 4, 5) if cfg.drop_extra_level else (2, 3, 4, 5, 6)
    for lvl in dist_levels:
        kw = dict(
            theta=store[f"mgc.l{lvl}.theta.weight"],
            xi=store[f"mgc.l{lvl}.xi.weight"],
        )
        if f"mgc.l{lvl}.psi.weight" in store:
            kw.update(
                psi=store[f"mgc.l{lvl}.psi.weight"],
                phi=store[f"mgc.l{lvl}.phi.weight"],
                gcn=mgc.GcnParams(
                    store[f"mgc.l{lvl}.gcn.w1.weight"],
                    store[f"mgc.l{lvl}.gcn.w2.weight"],
                    store[f"mgc.l{lvl}.gcn.w3.weight"],
                ),
            )
        levels[lvl] = mgc.MgcLevelParams(**kw)
    shared = mgc.GcnParams(
        store["mgc.shared_gcn.w1.weight"],
        store["mgc.shared_gcn.w2.weight"],
        store["mgc.shared_gcn.w3.weight"],
    )
    return mgc.MgcParams(
        levels=levels, shared_gcn=shared, out_weight=store["mgc.out.weight"], lambda_o=cfg.lambda_o
    )


# ---------------------------------------------------------------------------
# toy backbone
# ---------------------------------------------------------------------------

_BACKBONE_STAGES = (
    "backbone.stem1", "backbone.stem2", "backbone.stage3", "backbone.stage4", "backbone.stage5",
)


def toy_backbone_fwd(image, store):
    """Two stride-2 stem convs then three stride-2 stages, ReLU throughout.

    image is (3, H, W) or a batch (n, 3, H, W).  Emits the features after
    the stem (stride 4) and after each stage, so four levels with strides
    4/8/16/32 and the store's stage widths, batched as the image is.
    """
    if image.ndim not in (3, 4) or image.shape[-3] != 3 \
            or image.shape[-2] % 64 or image.shape[-1] % 64:
        raise ValueError(f"expected a 3×H×W image or n×3×H×W batch with extents divisible "
                         f"by 64, got {image.shape}")
    caches = []
    x = image
    feats = []
    for name in _BACKBONE_STAGES:
        z, c_conv = conv2d_fwd(_conv_view(store, name, stride=2, padding=1), x)
        x, c_relu = relu_fwd(z)
        caches.append((name, c_conv, c_relu))
        feats.append(x)
    levels = [LevelFeature(lvl, 2 ** lvl, feats[i]) for i, lvl in enumerate((None, 2, 3, 4, 5)) if lvl]
    return levels, caches


def toy_backbone_bwd(caches, glevels):
    """glevels maps level index (2..5) to the gradient of that output.

    Returns (gimage, param grads).  Interior features receive gradient both
    from their own output and through the next stage.
    """
    pg = {}
    gx = None
    for depth in range(4, -1, -1):
        name, c_conv, c_relu = caches[depth]
        lvl = (None, 2, 3, 4, 5)[depth]
        g = gx
        if lvl is not None and lvl in glevels:
            g = glevels[lvl] if g is None else g + glevels[lvl]
        if g is None:
            g = np.zeros(c_relu.shape, dtype=c_conv[0].weight.dtype)
        gz = relu_bwd(c_relu, g)
        gx, gw, gb = conv2d_bwd(c_conv, gz)
        pg[f"{name}.weight"] = gw
        pg[f"{name}.bias"] = gb
    return gx, pg


def make_extra_level_fwd(f5: LevelFeature, store):
    """Stride-2 conv from the coarsest backbone feature to a stride-64 level."""
    y, cache = conv2d_fwd(_conv_view(store, "extra.f6", stride=2, padding=1), f5.data)
    return LevelFeature(6, f5.stride * 2, y), cache


def make_extra_level(f5, store):
    return make_extra_level_fwd(f5, store)[0]


def make_extra_level_bwd(cache, gy):
    gx, gw, gb = conv2d_bwd(cache, gy)
    return gx, {"extra.f6.weight": gw, "extra.f6.bias": gb}


# ---------------------------------------------------------------------------
# baseline necks (forward only)
# ---------------------------------------------------------------------------

def _check_levels(levels):
    if [f.level for f in levels] != [2, 3, 4, 5]:
        raise ValueError(f"need backbone levels [2,3,4,5], got {[f.level for f in levels]}")


def forward_fpn(levels, store, cfg):
    """Classic top-down neck: 1×1 laterals, ×2 nearest adds, 3×3 smooths,
    stride-64 extra level by max pooling."""
    _check_levels(levels)
    lat = {
        f.level: conv2d_fwd(_conv_view(store, f"fpn.lateral.l{f.level}"), f.data)[0]
        for f in levels
    }
    merged = {5: lat[5]}
    for lvl in (4, 3, 2):
        merged[lvl] = lat[lvl] + nearest_upsample(merged[lvl + 1], 2)
    outs = []
    for lvl in (2, 3, 4, 5):
        p = _conv_view(store, f"fpn.smooth.l{lvl}", padding=1)
        outs.append(LevelFeature(lvl, 2 ** lvl, conv2d_fwd(p, merged[lvl])[0]))
    outs.append(LevelFeature(6, 64, max_pool2d(outs[-1].data)))
    return outs


def forward_pafpn(levels, store, cfg):
    """FPN plus a bottom-up chain: stride-2 3×3 convs, adds, 3×3 smooths."""
    fpn_outs = forward_fpn(levels, store, cfg)
    by_level = {f.level: f.data for f in fpn_outs}
    chain = by_level[2]
    outs = [LevelFeature(2, 4, chain)]
    for lvl in (3, 4, 5):
        down = conv2d_fwd(_conv_view(store, f"pafpn.down.l{lvl}", stride=2, padding=1), chain)[0]
        p = _conv_view(store, f"pafpn.smooth.l{lvl}", padding=1)
        chain = conv2d_fwd(p, down + by_level[lvl])[0]
        outs.append(LevelFeature(lvl, 2 ** lvl, chain))
    outs.append(LevelFeature(6, 64, max_pool2d(outs[-1].data)))
    return outs


# ---------------------------------------------------------------------------
# attention-aggregation neck
# ---------------------------------------------------------------------------

def forward_a2fpn_fwd(levels, store, cfg: PyramidConfig):
    """Full pipeline: optional extra level, global-context enrichment,
    top-down content-aware fusion, then the gated bottom-up chain.

    Returns (outputs, cache); outputs are five LevelFeatures at strides
    4..64 with cfg.c channels.
    """
    _check_levels(levels)
    top = cfg.top_level
    cache = {"cfg": cfg}

    feats = list(levels)
    if not cfg.drop_extra_level:
        f6, cache["extra"] = make_extra_level_fwd(levels[-1], store)
        feats.append(f6)

    ctx, cache["mgc"] = mgc.mgc_forward_fwd(feats, _mgc_view(store, cfg))
    lc = {f.level: f for f in ctx}

    td = {top: lc[top]}
    for lvl in range(top - 1, 1, -1):
        td[lvl], cache[f"td.l{lvl}"] = fusion.fuse_topdown_fwd(
            td[lvl + 1], lc[lvl], _fusion_view(store, f"td.l{lvl}", cfg, "up"),
            guided=cfg.use_concat_guidance,
        )

    bu = {2: td[2]}
    for lvl in range(3, top + 1):
        bu[lvl], cache[f"bu.l{lvl}"] = fusion.fuse_bottomup_fwd(
            bu[lvl - 1], td[lvl], _fusion_view(store, f"bu.l{lvl}", cfg, "down"),
            guided=cfg.use_concat_guidance,
        )

    if cfg.drop_finest_smooth:
        out2 = bu[2]
    else:
        p = _conv_view(store, "bu.l2.smooth", padding=1)
        y2, cache["bu.l2.smooth"] = conv2d_fwd(p, bu[2].data)
        out2 = LevelFeature(2, 4, y2)
    outs = [out2] + [bu[lvl] for lvl in range(3, top + 1)]
    if cfg.pool_top:
        y6, cache["pool_top"] = max_pool2d_fwd(bu[top].data)
        outs.append(LevelFeature(6, 64, y6))
    return outs, cache


def forward_a2fpn(levels, store, cfg):
    return forward_a2fpn_fwd(levels, store, cfg)[0]


def forward_a2fpn_bwd(cache, gouts):
    """gouts: list of gradients matching the forward outputs in order.

    Returns (glevels dict for the backbone levels 2..5, param grads).  The
    cache serves one backward: each chain's fusion caches are dropped from
    it once that chain's backward is done, so the rest of the backward does
    not hold them (for a batch, they are most of the forward's cache).
    """
    cfg = cache["cfg"]
    top = cfg.top_level
    pg = {}

    def put(prefix, local):
        for name, g in local.items():
            key = f"{prefix}.{name}" if prefix else name
            pg[key] = pg[key] + g if key in pg else g

    gbu = {}
    if cfg.pool_top:
        gbu[top] = max_pool2d_bwd(cache["pool_top"], gouts[-1])
        inner = gouts[:-1]
    else:
        inner = gouts
    for idx, lvl in enumerate(range(3, top + 1), start=1):
        gbu[lvl] = gbu.get(lvl, 0) + inner[idx]

    if cfg.drop_finest_smooth:
        g2 = inner[0]
    else:
        g2, gw, gb = conv2d_bwd(cache["bu.l2.smooth"], inner[0])
        put("", {"bu.l2.smooth.weight": gw, "bu.l2.smooth.bias": gb})

    gtd = {}
    for lvl in range(top, 2, -1):
        glower, gtd_lvl, local = fusion.fuse_bottomup_bwd(cache[f"bu.l{lvl}"], gbu[lvl])
        put(f"bu.l{lvl}", local)
        gtd[lvl] = gtd_lvl
        if lvl - 1 == 2:
            g2 = g2 + glower
        else:
            gbu[lvl - 1] = gbu[lvl - 1] + glower
    gtd[2] = g2
    for lvl in range(top, 2, -1):
        del cache[f"bu.l{lvl}"]

    glc = {}
    for lvl in range(2, top):
        gupper, glat, local = fusion.fuse_topdown_bwd(cache[f"td.l{lvl}"], gtd[lvl])
        put(f"td.l{lvl}", local)
        glc[lvl] = glat
        gtd[lvl + 1] = gtd[lvl + 1] + gupper
    glc[top] = gtd[top]
    for lvl in range(2, top):
        del cache[f"td.l{lvl}"]

    gfeats, local = mgc.mgc_forward_bwd(cache["mgc"], [glc[lvl] for lvl in range(2, top + 1)])
    put("", local)

    glevels = {lvl: gfeats[lvl] for lvl in (2, 3, 4, 5)}
    if not cfg.drop_extra_level:
        gf5, local = make_extra_level_bwd(cache["extra"], gfeats[6])
        put("", local)
        glevels[5] = glevels[5] + gf5
    return glevels, pg


def forward_pyramid(levels, store, cfg):
    """Dispatch on cfg.arch; outputs are always five levels, strides 4..64."""
    if cfg.arch == "fpn":
        return forward_fpn(levels, store, cfg)
    if cfg.arch == "pafpn":
        return forward_pafpn(levels, store, cfg)
    return forward_a2fpn(levels, store, cfg)
