"""Shared helpers for the test modules."""

import numpy as np
import pytest

from a2fpn.fusion import FusionParams


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def make_fusion_params(rng, c=8, c_m=3, k=3, kind="up", guided=True,
                       gate_act="two_sigmoid", zero_gates=False, scale=0.3, s=2):
    """A small, well-conditioned fusion site for direct op-level tests."""
    src = 2 * c if guided else c
    logits = s * s * k * k if kind == "up" else k * k
    w3 = np.zeros((2 * c, c // 2)) if zero_gates else scale * rng.standard_normal((2 * c, c // 2))
    shapes = {  # in draw order
        "kpred.compressor.weight": (c_m, src, 1, 1), "kpred.compressor.bias": (c_m,),
        "kpred.encoder.weight": (c_m, c_m, 3, 3), "kpred.encoder.bias": (c_m,),
        "kpred.predictor.weight": (logits, c_m, 1, 1), "kpred.predictor.bias": (logits,),
        "gate.w1.weight": (1, src), "gate.w2.weight": (c // 2, src),
        "smooth.weight": (c, c, 3, 3), "smooth.bias": (c,),
    }
    store = {name: scale * rng.standard_normal(shape) for name, shape in shapes.items()}
    store.update({"gate.w3.weight": w3, "gate.ln.gain": np.ones(c // 2),
                  "gate.ln.shift": np.zeros(c // 2)})
    return FusionParams.from_store(store, "", k, kind == "up", s=s, gate_act=gate_act)
