"""Per-layer tracing of the a2fpn package, applied from outside.

The tracer wraps every public function defined in a layer module (matched
on the function's ``__module__``) and rebinds the wrapper in every
``a2fpn.*`` namespace that imported the original, so calls within a module
and across modules are both seen.  Nothing under ``src/`` is changed, and
leaving the ``with`` block restores every binding.

For each wrapped function it records calls, self time (wall time minus the
time of wrapped callees, tracer bookkeeping included) and errors
(exceptions raised plus non-finite outputs, checked where a call crosses a
layer boundary).  Direct callees of the a2fpn neck forward are attributed
to a neck site named from the ``LevelFeature`` levels they take and
return, so the attribution survives renaming or merging the fusion
functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np
from a2fpn.levels import LevelFeature

LAYERS = ("pyramid", "mgc", "fusion", "nn_ops", "tensor_core", "train")
NECK_FORWARD = ("pyramid", "forward_a2fpn_fwd")


def _values(out):
    """Arrays and floats a call returned, one container level deep."""
    for item in out if isinstance(out, (tuple, list)) else (out,):
        if isinstance(item, LevelFeature):
            yield item.data
        elif isinstance(item, dict):
            yield from item.values()
        elif isinstance(item, list):
            yield from (f.data for f in item if isinstance(f, LevelFeature))
        else:
            yield item


def non_finite(out):
    """True when any returned float array or float holds a NaN or infinity."""
    for v in _values(out):
        if isinstance(v, np.ndarray):
            # a NaN or an infinity anywhere makes the sum non-finite
            if v.dtype.kind == "f" and not math.isfinite(float(np.sum(v))):
                return True
        elif isinstance(v, float) and not math.isfinite(v):
            return True
    return False


def site_of(layer, args, out, image_h):
    """Neck site of a direct callee of the a2fpn forward, or None.

    mgc code is the ``mgc`` site.  A callee returning level L is ``td.lL``
    when it reads a coarser level, ``bu.lL`` when it merges two levels from
    below, and ``extra.fL`` when it derives L from one finer level.  A conv
    on a bare array of level L (the finest output smooth) is ``bu.lL.smooth``.
    """
    if layer == "mgc":
        return "mgc"
    ins = []
    for a in args:
        if isinstance(a, LevelFeature):
            ins.append(a.level)
        elif isinstance(a, (list, tuple)):
            ins.extend(f.level for f in a if isinstance(f, LevelFeature))
    first = out[0] if isinstance(out, tuple) and out else out
    if isinstance(first, LevelFeature) and ins:
        lvl = first.level
        if max(ins) > lvl:
            return f"td.l{lvl}"
        return f"bu.l{lvl}" if len(ins) >= 2 else f"extra.f{lvl}"
    if layer == "nn_ops" and len(args) >= 2 and isinstance(args[1], np.ndarray):
        return f"bu.l{round(math.log2(image_h / args[1].shape[-2]))}.smooth"
    return None


class Tracer:
    """Wraps the layer modules of the a2fpn package while entered.

    ``stats`` maps ``(layer, fn)`` to ``[calls, self_s, errors, total_s]``;
    ``sites`` maps a site name to ``[calls, seconds]``; ``overhead_s`` is
    the tracer's own bookkeeping time.  Entering clears all three.
    """

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"a2fpn.{layer}") for layer in LAYERS}
        self.stats = {}
        self.sites = {}
        self.overhead_s = 0.0
        self._frames = []  # per open call: [callee seconds, (layer, fn)]
        self._neck_h = []  # image height seen by each open neck forward
        self._last_exc = None
        self._patches = []

    def functions(self):
        """(layer, name, function) for every public function a layer defines."""
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == mod.__name__:
                    yield layer, name, obj

    def __enter__(self):
        self.stats.clear()
        self.sites.clear()
        self.overhead_s = 0.0
        wrappers = {}
        for layer, name, fn in self.functions():
            wrappers[id(fn)] = self._wrap((layer, name), fn)
            self.stats[(layer, name)] = [0, 0.0, 0, 0.0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "a2fpn" or mod_name.startswith("a2fpn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        self._last_exc = None

    def _wrap(self, key, fn):
        frames = self._frames
        neck_h = self._neck_h
        layer = key[0]
        is_neck = key == NECK_FORWARD
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = perf()
            parent = frames[-1][1] if frames else None
            frames.append([0.0, key])
            if is_neck:
                first = args[0][0]
                neck_h.append(first.stride * first.data.shape[-2])
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.stats[key][2] += 1
                self._close(key, perf() - t0, t_enter, is_neck)
                raise
            elapsed = perf() - t0
            if (parent is None or parent[0] != layer) and non_finite(out):
                self.stats[key][2] += 1
            if parent == NECK_FORWARD:
                site = site_of(layer, args, out, neck_h[-1])
                if site is not None:
                    entry = self.sites.setdefault(site, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
            self._close(key, elapsed, t_enter, is_neck)
            return out

        return traced

    def _close(self, key, elapsed, t_enter, is_neck):
        callee_s = self._frames.pop()[0]
        if is_neck:
            self._neck_h.pop()
        stat = self.stats[key]
        stat[0] += 1
        stat[1] += elapsed - callee_s
        stat[3] += elapsed
        total = time.perf_counter() - t_enter
        self.overhead_s += total - elapsed
        if self._frames:
            self._frames[-1][0] += total
