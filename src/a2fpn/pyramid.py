"""Whole-neck assembly: config, parameter store, and the four variants.

Parameters live in a flat dict keyed by dotted names (``mgc.l3.psi.weight``,
``td.l4.kpred.predictor.weight``, ...); the same names are used for
serialization and for gradient accumulation.  ``param_shapes`` lists every
name with its shape, in store order; ``init_params`` draws over it and the
analytic audit counts from it.  The context module and each fusion site
read the store by name, a site under its prefix (``td.l4``), and take every
size the config also spells (``k_up``, ``k_dn``, ``k_en``, ``c_m``) from
the stored shapes; a conv reads a ``ConvParams`` view that adds its stride.
The a2fpn neck is written once, forward: each stage records its backward on
a tape (``a2fpn.tape``), and ``forward_a2fpn_bwd`` replays it.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from functools import partial
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
from .tape import Tape, record
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

def toy_backbone_fwd(image, store, tape=None, need_gimage=False):
    """Two stride-2 stem convs then three stride-2 stages, ReLU throughout.

    image is (3, H, W) or a batch (n, 3, H, W).  Emits the features after
    the stem (stride 4) and after each stage, so four levels with strides
    4/8/16/32 and the store's stage widths, batched as the image is.
    Returns (levels, tape).  With a tape, each conv and ReLU is pushed onto
    it: the feature at stride 2^i is slot f{i}, written by the conv and
    again by its ReLU.  The image is slot image with need_gimage;
    otherwise the stem conv skips its input gradient.
    """
    if image.ndim not in (3, 4) or image.shape[-3] != 3 \
            or image.shape[-2] % 64 or image.shape[-1] % 64:
        raise ValueError(f"expected a 3×H×W image or n×3×H×W batch with extents divisible "
                         f"by 64, got {image.shape}")
    x, slot = image, "image" if need_gimage else None
    feats = []
    for i, name in enumerate(_BACKBONE_STAGES, start=1):
        bwd = conv2d_bwd if slot else partial(conv2d_bwd, need_gx=False)
        z = record(tape, bwd, conv2d_fwd(ConvParams.from_store(store, name, stride=2), x),
                   (slot, f"{name}.weight", f"{name}.bias"), (f"f{i}",))
        slot = f"f{i}"
        x = record(tape, relu_bwd, relu_fwd(z), (slot,), (slot,))
        feats.append(x)
    return [LevelFeature(lvl, f) for lvl, f in zip((2, 3, 4, 5), feats[1:])], tape


def make_extra_level_fwd(f5: LevelFeature, store, tape=None):
    """Stride-2 conv from the coarsest backbone feature to a stride-64 level,
    slot f6 from f5 on the tape; returns (level 6, tape)."""
    p = ConvParams.from_store(store, "extra.f6", stride=2)
    y = record(tape, conv2d_bwd, conv2d_fwd(p, f5.data), ("f5", "extra.f6.weight", "extra.f6.bias"),
               ("f6",))
    return LevelFeature(6, y), tape


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


def _zero_grads(cache):
    shapes, dtype = cache
    return {name: np.zeros(shape, dtype) for name, shape in shapes.items()}


def forward_a2fpn_fwd(levels, store, cfg: PyramidConfig, keep_cache=True, reads=OUTPUT_LEVELS,
                      tape=None):
    """Full pipeline: the extra level (full neck only), global-context
    enrichment, top-down content-aware fusion, then the gated bottom-up chain.

    Returns (outputs, cache); outputs are five LevelFeatures at strides
    4..64 with cfg.c channels, one per level of OUTPUT_LEVELS.  ``reads``
    names the output levels the caller reads, and the forward runs only what
    they need: the extra level, the context stage and the top-down chain
    always run, a bottom-up site bu.l{d} only if a read level is ≥ d, and
    bu.l2.smooth (full neck) or pool_top (lite) only if level 2 or level 6
    is read.  An unread output is None; a read one has the bits of a
    forward that reads every level.

    Each stage is recorded on tape (a new Tape if None) as it runs: level L
    is slot f{L} in and out, and one entry gives each parameter of a
    skipped stage an exact-zero gradient.  The cache is (tape, the shape
    and dtype of each read output by level).  With keep_cache False nothing
    is recorded and the cache is None: each stage's cache is freed as the
    stage returns, and each level a site replaces once the site has read it.
    """
    _check_levels(levels)
    reads = frozenset(reads)
    if not reads or not reads <= set(OUTPUT_LEVELS):
        raise ValueError(f"reads must name one or more of the output levels {OUTPUT_LEVELS}, "
                         f"got {sorted(reads)}")
    if not keep_cache:
        tape = None
    elif tape is None:
        tape = Tape()
    top = cfg.top_level
    # a bottom-up site past every read level does not run
    sites = [site for site in _sites(cfg) if site[1] > site[2] or site[2] <= max(reads)]
    smooth = not cfg.lite and 2 in reads

    feats = list(levels)
    if not cfg.lite:
        feats.append(make_extra_level_fwd(levels[-1], store, tape)[0])
    if tape is not None:
        ran = {prefix for prefix, *_ in sites} | ({"bu.l2.smooth"} if smooth else set())
        skipped = {name: shape for prefix, shapes in _stage_shapes(cfg) if prefix not in ran
                   for name, shape in shapes.items()}
        if skipped:
            tape.append((_zero_grads, (skipped, cfg.np_dtype), (), ()))

    cur = {f.level: f for f in mgc.mgc_forward_fwd(feats, store, tape)[0]}
    for prefix, src, dst, _ in sites:
        cur[dst] = record(tape, fusion.fuse_bwd,
                          fusion.fuse_fwd(cur[src], cur[dst], store, prefix, cfg.gate_act),
                          (f"f{src}", f"f{dst}"), (f"f{dst}",))
    if cfg.lite and 6 in reads:
        y6 = record(tape, max_pool2d_bwd, max_pool2d_fwd(cur[top].data), (f"f{top}",), ("f6",))
        cur[6] = LevelFeature(6, y6)
    if smooth:
        p = ConvParams.from_store(store, "bu.l2.smooth")
        y2 = record(tape, conv2d_bwd, conv2d_fwd(p, cur[2].data),
                    ("f2", "bu.l2.smooth.weight", "bu.l2.smooth.bias"), ("f2",))
        cur[2] = LevelFeature(2, y2)
    outs = [cur[lvl] if lvl in reads else None for lvl in OUTPUT_LEVELS]
    if tape is None:
        return outs, None
    return outs, (tape, {f.level: (f.data.shape, f.data.dtype) for f in outs if f is not None})


def forward_a2fpn_bwd(cache, gouts):
    """gouts: gradients of the forward outputs in level order from p2, one
    for each level the forward read and None for each it did not; entries
    left off the end count as None.  Any other pattern is a ValueError, and
    so is a gradient whose shape or dtype differs from its output's.

    Returns (glevels dict for the backbone levels 2..5, param grads), the
    cache's tape replayed: a stage runs backward exactly when the forward
    ran it, and its cache leaves the tape as it starts.  The param grads
    cover the neck, and equal a full forward's with zero maps for the
    unread levels.  The cache serves one backward.
    """
    tape, outs = cache
    reads = sorted(outs)
    got = [lvl for lvl, g in enumerate(gouts, start=2) if g is not None]
    if got != reads:
        raise ValueError(f"the forward read levels {reads}, but levels {got} have gradients")
    seeds = {f"f{lvl}": g for lvl, g in zip(OUTPUT_LEVELS, gouts) if g is not None}
    for lvl in reads:
        g = seeds[f"f{lvl}"]
        if (g.shape, g.dtype) != outs[lvl]:
            raise ValueError(f"the gradient of level {lvl} is {g.dtype} {g.shape}, but the output "
                             f"is {outs[lvl][1]} {outs[lvl][0]}")
    grads = tape.backward(seeds)
    return {lvl: grads.pop(f"f{lvl}") for lvl in (2, 3, 4, 5)}, grads


def forward_pyramid(levels, store, cfg):
    """Dispatch on cfg.arch; outputs are always five levels, strides 4..64.

    The inference entry: the attention-aggregation necks run
    forward_a2fpn_fwd with keep_cache False, so nothing is recorded, no
    backward cache outlives its stage and the outputs are the same bits.
    """
    if cfg.arch == "fpn":
        return forward_fpn(levels, store, cfg)
    if cfg.arch == "pafpn":
        return forward_pafpn(levels, store, cfg)
    return forward_a2fpn_fwd(levels, store, cfg, keep_cache=False)[0]
