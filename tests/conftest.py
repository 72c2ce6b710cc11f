"""Shared helpers for the test modules."""

import tracemalloc

import numpy as np
import pytest

from a2fpn.fusion import site_shapes


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def make_fusion_store(rng, c=8, c_m=3, k=3, kind="up", guided=True, zero_gates=False, scale=0.3,
                      s=2):
    """The store of a small, well-conditioned fusion site, under bare names,
    for direct op-level tests."""
    shapes = site_shapes(c, c_m, k, 1, kind == "up", s=s, guided=guided)
    w3 = shapes.pop("gate.w3.weight")  # drawn first
    store = {"gate.w3.weight": np.zeros(w3) if zero_gates else scale * rng.standard_normal(w3),
             "gate.ln.gain": np.ones(shapes.pop("gate.ln.gain")),
             "gate.ln.shift": np.zeros(shapes.pop("gate.ln.shift"))}
    store.update((name, scale * rng.standard_normal(shape)) for name, shape in shapes.items())
    return store


def traced_peak(fn):
    """(fn(), the peak bytes traced while it ran); numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
