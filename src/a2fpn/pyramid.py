"""Whole-neck assembly: config, parameter store, and the four variants.

Parameters live in a flat dict keyed by dotted names (``mgc.l3.psi.weight``,
``td.l4.kpred.predictor.weight``, ...); the same names are used for
serialization and for gradient accumulation.  ``param_shapes`` lists every
name with its shape, in store order; ``init_params`` draws over it and the
analytic audit counts from it.  The context module and each fusion site
read the store by name, a site under its prefix (``td.l4``), and take every
size the config also spells (``k_up``, ``k_dn``, ``k_en``, ``c_m``) from
the stored shapes; a conv reads a ``ConvParams`` view that adds its stride.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import fusion, mgc
from .levels import LevelFeature
from .nn_ops import (
    ConvParams,
    conv2d_bwd,
    conv2d_fwd,
    max_pool2d_bwd,
    max_pool2d_fwd,
    nearest_upsample,
)
from .tensor_core import DTYPES, relu_bwd, relu_fwd

ARCHS = ("fpn", "pafpn", "a2fpn", "a2fpn_lite")
OUTPUT_LEVELS = (2, 3, 4, 5, 6)  # every neck's outputs, strides 4..64
_INT_FIELDS = ("c", "a", "k_up", "k_dn", "k_en", "c_m", "seed")


class ConfigError(ValueError):
    """Invalid pyramid configuration or config document."""


def _is_number(v, kind=numbers.Integral):
    """v is a number of kind (a bool is not)."""
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclass
class BackboneSpec:
    """Per-stage channel counts of the four backbone levels (strides 4..32)."""

    channels: tuple

    def __post_init__(self):
        self.channels = tuple(self.channels)
        if len(self.channels) != 4 or not all(_is_number(c) and c >= 1 for c in self.channels):
            raise ConfigError(f"backbone needs 4 positive integer stage widths, got {self.channels}")
        self.channels = tuple(int(c) for c in self.channels)

    def channels_of(self, level):
        return self.channels[level - 2]


BACKBONE_PRESETS = {
    "toy": BackboneSpec((32, 64, 128, 256)),
    "nominal": BackboneSpec((256, 512, 1024, 2048)),
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
    uses a=64 with the nominal backbone.  The arch alone picks the neck's
    structure.  Both attention-aggregation necks collect context at levels
    2–5 and predict every site's kernels from both adjacent levels; arch
    "a2fpn_lite" (``lite``) also has no stride-64 input conv, builds the top
    output by max-pooling and has no finest-level output conv.
    """

    arch: str = "a2fpn"
    c: int = 256
    a: int = 8
    k_up: int = 5
    k_dn: int = 5
    k_en: int = 3
    c_m: int = 64
    gate_act: str = "two_sigmoid"
    seed: int = 0
    dtype: str = "f32"
    image_size: tuple = (256, 256)
    backbone: Union[str, tuple] = "toy"
    lambda_o: float = 1e-4

    def __post_init__(self):
        self.image_size = tuple(self.image_size)
        self.validate()
        # plain ints, so the config document serializes whatever integer type came in
        for name in _INT_FIELDS:
            setattr(self, name, int(getattr(self, name)))
        self.image_size = tuple(int(v) for v in self.image_size)

    def validate(self):
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}, have {ARCHS}")
        for name in _INT_FIELDS:
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not _is_number(self.lambda_o, numbers.Real) or not math.isfinite(self.lambda_o):
            raise ConfigError(f"lambda_o must be a finite real number, got {self.lambda_o!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be ≥ 0, got {self.seed}")
        if self.c < 4 or self.c % 4:
            raise ConfigError(f"channel width {self.c} must be a positive multiple of 4")
        if self.a < 1:
            raise ConfigError("context coefficient a must be ≥ 1")
        if min(self.k_up, self.k_dn, self.k_en, self.c_m) < 1:
            raise ConfigError("kernel sizes and the encoder width must be positive")
        if self.k_up % 2 == 0 or self.k_dn % 2 == 0 or self.k_en % 2 == 0:
            raise ConfigError("kernel sizes k_up, k_dn and k_en must be odd")
        if self.gate_act not in fusion.GATE_ACTS:
            raise ConfigError(f"gate_act must be one of {tuple(fusion.GATE_ACTS)}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(DTYPES)}")
        if len(self.image_size) != 2 or not all(_is_number(v) and v > 0 and v % 64 == 0
                                                for v in self.image_size):
            raise ConfigError(f"image extents {self.image_size} must be positive multiples of 64")
        resolve_backbone(self.backbone)

    # -- derived ----------------------------------------------------------

    def n_context(self, level):
        return self.a * (6 - level)

    @property
    def lite(self):
        """True for the A²-FPN-Lite neck."""
        return self.arch == "a2fpn_lite"

    @property
    def top_level(self):
        """Highest level reached by the fusion chains (6 full, 5 lite)."""
        return 5 if self.lite else 6

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

def _orthonormal_rows(rng, rows, cols, dtype):
    if rows > cols:
        raise ConfigError(f"cannot build {rows} orthonormal rows of length {cols}; need n_i ≤ c_i")
    q, r = np.linalg.qr(rng.standard_normal((cols, rows)))
    q = q * np.sign(np.diag(r))  # fix the QR sign ambiguity deterministically
    return np.ascontiguousarray(q.T).astype(dtype)


_BACKBONE_STAGES = (
    "backbone.stem1", "backbone.stem2", "backbone.stage3", "backbone.stage4", "backbone.stage5",
)


def _conv_shapes(name, cout, cin, k):
    return {f"{name}.weight": (cout, cin, k, k), f"{name}.bias": (cout,)}


def backbone_shapes(spec):
    """Name -> shape of the toy backbone's five 3×3 convs, in store order."""
    widths = (3, spec.channels[0]) + spec.channels
    shapes = {}
    for name, cin, cout in zip(_BACKBONE_STAGES, widths, widths[1:]):
        shapes.update(_conv_shapes(name, cout, cin, 3))
    return shapes


def extra_level_shapes(c, c5):
    """Name -> shape of the stride-64 input conv, 3×3 from c5 channels to c."""
    return _conv_shapes("extra.f6", c, c5, 3)


def param_shapes(cfg: PyramidConfig, with_backbone=False, with_head=False):
    """Name -> shape of every parameter init_params stores for cfg.arch, in
    store order: backbone, neck top to bottom, head."""
    spec = resolve_backbone(cfg.backbone)
    c = cfg.c
    shapes = backbone_shapes(spec) if with_backbone else {}
    if cfg.arch in ("fpn", "pafpn"):
        for lvl in (2, 3, 4, 5):
            shapes.update(_conv_shapes(f"fpn.lateral.l{lvl}", c, spec.channels_of(lvl), 1))
        for lvl in (2, 3, 4, 5):
            shapes.update(_conv_shapes(f"fpn.smooth.l{lvl}", c, c, 3))
        if cfg.arch == "pafpn":
            for lvl in (3, 4, 5):
                shapes.update(_conv_shapes(f"pafpn.down.l{lvl}", c, c, 3))
            for lvl in (3, 4, 5):
                shapes.update(_conv_shapes(f"pafpn.smooth.l{lvl}", c, c, 3))
    else:
        if not cfg.lite:
            shapes.update(extra_level_shapes(c, spec.channels_of(5)))
        # levels 2-5 collect context; the extra level 6 only receives it
        shapes.update(mgc.param_shapes(c, {
            lvl: (c, None) if lvl == 6 else (spec.channels_of(lvl), cfg.n_context(lvl))
            for lvl in range(2, cfg.top_level + 1)}))
        for _, stage in _stage_shapes(cfg):
            shapes.update(stage)
    if with_head:
        shapes.update(_conv_shapes("head", 1, c, 1))
    return shapes


def init_params(cfg: PyramidConfig, with_backbone=False, with_head=False):
    """Build the flat parameter store for cfg.arch, one entry per name of
    param_shapes and in its order, so a given seed always produces the same
    store.  Biases and layer-norm shifts start at 0 and gains at 1, the
    context entities (psi) as orthonormal rows, the kernel predictors near
    zero, so the initial kernels are close to uniform averaging, and every
    other weight by Kaiming init over its fan-in.
    """
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.np_dtype
    store = {}
    for name, shape in param_shapes(cfg, with_backbone, with_head).items():
        if name.endswith((".bias", ".ln.shift")):
            store[name] = np.zeros(shape, dtype=dt)
        elif name.endswith(".ln.gain"):
            store[name] = np.ones(shape, dtype=dt)
        elif name.endswith(".psi.weight"):
            store[name] = _orthonormal_rows(rng, *shape, dt)
        elif name.endswith(".kpred.predictor.weight"):
            store[name] = (rng.standard_normal(shape) * 1e-3).astype(dt)
        else:
            fan_in = math.prod(shape[1:])
            store[name] = (rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)).astype(dt)
    return store


# ---------------------------------------------------------------------------
# toy backbone
# ---------------------------------------------------------------------------

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
        z, c_conv = conv2d_fwd(ConvParams.from_store(store, name, stride=2), x)
        x, c_relu = relu_fwd(z)
        caches.append((name, c_conv, c_relu))
        feats.append(x)
    levels = [LevelFeature(lvl, feats[i]) for i, lvl in enumerate((None, 2, 3, 4, 5)) if lvl]
    return levels, caches


def toy_backbone_bwd(caches, glevels, need_gimage=True):
    """glevels maps level index (2..5) to the gradient of that output.

    Returns (gimage, param grads).  Interior features receive gradient both
    from their own output and through the next stage.  With need_gimage
    False, gimage is None and the stem conv skips its input gradient; the
    param grads are the same bits.
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
        gx, gw, gb = conv2d_bwd(c_conv, gz, need_gx=depth > 0 or need_gimage)
        pg[f"{name}.weight"] = gw
        pg[f"{name}.bias"] = gb
    return gx, pg


def make_extra_level_fwd(f5: LevelFeature, store):
    """Stride-2 conv from the coarsest backbone feature to a stride-64 level."""
    y, cache = conv2d_fwd(ConvParams.from_store(store, "extra.f6", stride=2), f5.data)
    return LevelFeature(6, y), cache


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
        f.level: conv2d_fwd(ConvParams.from_store(store, f"fpn.lateral.l{f.level}"), f.data)[0]
        for f in levels
    }
    merged = {5: lat[5]}
    for lvl in (4, 3, 2):
        merged[lvl] = lat[lvl] + nearest_upsample(merged[lvl + 1], 2)
    outs = []
    for lvl in (2, 3, 4, 5):
        p = ConvParams.from_store(store, f"fpn.smooth.l{lvl}")
        outs.append(LevelFeature(lvl, conv2d_fwd(p, merged[lvl])[0]))
    outs.append(LevelFeature(6, max_pool2d_fwd(outs[-1].data)[0]))
    return outs


def forward_pafpn(levels, store, cfg):
    """FPN plus a bottom-up chain: stride-2 3×3 convs, adds, 3×3 smooths."""
    fpn_outs = forward_fpn(levels, store, cfg)
    by_level = {f.level: f.data for f in fpn_outs}
    chain = by_level[2]
    outs = [LevelFeature(2, chain)]
    for lvl in (3, 4, 5):
        down = conv2d_fwd(ConvParams.from_store(store, f"pafpn.down.l{lvl}", stride=2), chain)[0]
        p = ConvParams.from_store(store, f"pafpn.smooth.l{lvl}")
        chain = conv2d_fwd(p, down + by_level[lvl])[0]
        outs.append(LevelFeature(lvl, chain))
    outs.append(LevelFeature(6, max_pool2d_fwd(outs[-1].data)[0]))
    return outs


# ---------------------------------------------------------------------------
# attention-aggregation neck
# ---------------------------------------------------------------------------

def _sites(cfg):
    """(prefix, source level, destination level, reassembly tap size) of
    every fusion site in forward order: top-down from the top level to
    level 2 at k_up, then bottom-up back to the top at k_dn."""
    top = cfg.top_level
    return ([(f"td.l{lvl}", lvl + 1, lvl, cfg.k_up) for lvl in range(top - 1, 1, -1)]
            + [(f"bu.l{lvl}", lvl - 1, lvl, cfg.k_dn) for lvl in range(3, top + 1)])


def _stage_shapes(cfg):
    """(prefix, {name: shape}) of each neck stage after the context stage, in
    store order: every fusion site, and bu.l2.smooth (full neck only),
    stored between the two chains."""
    for prefix, src, dst, k in _sites(cfg):
        if prefix == "bu.l3" and not cfg.lite:
            yield "bu.l2.smooth", _conv_shapes("bu.l2.smooth", cfg.c, cfg.c, 3)
        site = fusion.site_shapes(cfg.c, cfg.c_m, k, cfg.k_en, src > dst)
        yield prefix, {f"{prefix}.{name}": shape for name, shape in site.items()}


class _Discard(dict):
    """A stage cache that stores nothing, so each stage's cache is freed as it returns."""

    def __setitem__(self, key, value):
        pass


def forward_a2fpn_fwd(levels, store, cfg: PyramidConfig, keep_cache=True, reads=OUTPUT_LEVELS):
    """Full pipeline: the extra level (full neck only), global-context
    enrichment, top-down content-aware fusion, then the gated bottom-up chain.

    Returns (outputs, cache); outputs are five LevelFeatures at strides
    4..64 with cfg.c channels, one per level of OUTPUT_LEVELS.  ``reads``
    names the output levels the caller reads, and the forward runs only what
    they need: the extra level, the context stage and the top-down chain
    always run, a bottom-up site bu.l{d} only if a read level is ≥ d, and
    bu.l2.smooth (full neck) or pool_top (lite) only if level 2 or level 6
    is read.  An unread output is None; a read one has the bits of a
    forward that reads every level.  The cache records reads, which fix the
    gradients forward_a2fpn_bwd takes.  With keep_cache False the cache is None:
    the backward cache of each stage (extra, mgc, every fusion site, and
    bu.l2.smooth or pool_top), with its concatenations, phase planes, padded
    inputs and attention maps, is freed as soon as that stage returns, and
    each level a site replaces is freed once the site has read it.
    """
    _check_levels(levels)
    reads = frozenset(reads)
    if not reads or not reads <= set(OUTPUT_LEVELS):
        raise ValueError(f"reads must name one or more of the output levels {OUTPUT_LEVELS}, "
                         f"got {sorted(reads)}")
    top = cfg.top_level
    cache = {"cfg": cfg, "reads": reads} if keep_cache else _Discard()

    feats = list(levels)
    if not cfg.lite:
        f6, cache["extra"] = make_extra_level_fwd(levels[-1], store)
        feats.append(f6)

    ctx, cache["mgc"] = mgc.mgc_forward_fwd(feats, store)
    cur = {f.level: f for f in ctx}
    del ctx  # cur holds the only reference to each level a site replaces

    deepest = max(reads)
    for prefix, src, dst, _ in _sites(cfg):
        if src < dst and dst > deepest:  # bottom up, past every read level
            break
        cur[dst], cache[prefix] = fusion.fuse_fwd(cur[src], cur[dst], store, prefix, cfg.gate_act)

    outs = [cur[lvl] if lvl in reads else None for lvl in range(2, top + 1)]
    if cfg.lite:
        outs.append(None)
        if 6 in reads:
            y6, cache["pool_top"] = max_pool2d_fwd(cur[top].data)
            outs[-1] = LevelFeature(6, y6)
    elif 2 in reads:
        p = ConvParams.from_store(store, "bu.l2.smooth")
        y2, cache["bu.l2.smooth"] = conv2d_fwd(p, cur[2].data)
        outs[0] = LevelFeature(2, y2)
    return outs, (cache if keep_cache else None)


def forward_a2fpn_bwd(cache, gouts):
    """gouts: gradients of the forward outputs in level order from p2, one
    for each level the forward read and None for each it did not; entries
    left off the end count as None.  Any other pattern is a ValueError.

    Returns (glevels dict for the backbone levels 2..5, param grads).  A
    stage runs backward exactly when the forward ran it, in the reverse of
    the forward order: bu.l2.smooth or pool_top, then the fusion sites, then
    the context stage and the extra level.  A stage the forward skipped
    reports exact-zero gradients for every parameter param_shapes names
    under its prefix, so the param grads always cover the neck and equal a
    full forward's with zero maps for the unread levels.  Each stage's cache
    is popped from the cache as the stage starts, so it is freed once that
    stage is done, and the cache holds no ``td.*`` or ``bu.*`` key
    afterwards.  The cache serves one backward.
    """
    cfg, reads = cache["cfg"], sorted(cache["reads"])
    got = [lvl for lvl, g in enumerate(gouts, start=2) if g is not None]
    if got != reads:
        raise ValueError(f"the forward read levels {reads}, but levels {got} have gradients")
    top = cfg.top_level
    skipped = [shapes for prefix, shapes in _stage_shapes(cfg) if prefix not in cache]
    pg = {}

    gin = dict(zip(OUTPUT_LEVELS, gouts))
    g = {lvl: gin.get(lvl) for lvl in range(2, top + 1)}
    if "pool_top" in cache:
        gpool = max_pool2d_bwd(cache.pop("pool_top"), gin[6])
        g[top] = gpool if g[top] is None else gpool + g[top]
    if "bu.l2.smooth" in cache:
        g[2], gw, gb = conv2d_bwd(cache.pop("bu.l2.smooth"), g[2])
        pg.update({"bu.l2.smooth.weight": gw, "bu.l2.smooth.bias": gb})

    for prefix, src, dst, _ in reversed(_sites(cfg)):
        if prefix in cache:
            gsrc, g[dst], local = fusion.fuse_bwd(cache.pop(prefix), g[dst])
            pg.update(local)
            g[src] = gsrc if g[src] is None else g[src] + gsrc

    gfeats, local = mgc.mgc_forward_bwd(cache["mgc"], list(g.values()))
    pg.update(local)
    dt = cfg.np_dtype
    for shapes in skipped:
        pg.update((name, np.zeros(shape, dt)) for name, shape in shapes.items())

    glevels = {lvl: gfeats[lvl] for lvl in (2, 3, 4, 5)}
    if not cfg.lite:
        gf5, local = make_extra_level_bwd(cache["extra"], gfeats[6])
        pg.update(local)
        glevels[5] = glevels[5] + gf5
    return glevels, pg


def forward_pyramid(levels, store, cfg):
    """Dispatch on cfg.arch; outputs are always five levels, strides 4..64.

    The inference entry: the attention-aggregation necks run
    forward_a2fpn_fwd with keep_cache False, so no backward cache outlives
    its stage and the outputs are the same bits.
    """
    if cfg.arch == "fpn":
        return forward_fpn(levels, store, cfg)
    if cfg.arch == "pafpn":
        return forward_pafpn(levels, store, cfg)
    return forward_a2fpn_fwd(levels, store, cfg, keep_cache=False)[0]
