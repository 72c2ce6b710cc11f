"""Shared helpers for the test modules."""

import numpy as np
import pytest

from a2fpn.fusion import FusionParams
from a2fpn.nn_ops import ConvParams


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def make_fusion_params(rng, c=8, c_m=3, k=3, kind="up", guided=True,
                       gate_act="two_sigmoid", zero_gates=False, scale=0.3, s=2):
    """A small, well-conditioned fusion site for direct op-level tests."""
    src = 2 * c if guided else c
    logits = s * s * k * k if kind == "up" else k * k
    w3 = np.zeros((2 * c, c // 2)) if zero_gates else scale * rng.standard_normal((2 * c, c // 2))
    return FusionParams(
        compressor=ConvParams(scale * rng.standard_normal((c_m, src, 1, 1)),
                              scale * rng.standard_normal(c_m)),
        encoder=ConvParams(scale * rng.standard_normal((c_m, c_m, 3, 3)),
                           scale * rng.standard_normal(c_m), padding=1),
        predictor=ConvParams(scale * rng.standard_normal((logits, c_m, 1, 1)),
                             scale * rng.standard_normal(logits),
                             stride=1 if kind == "up" else s),
        gate_w1=scale * rng.standard_normal((1, src)),
        gate_w2=scale * rng.standard_normal((c // 2, src)),
        gate_w3=w3,
        ln_gain=np.ones(c // 2),
        ln_shift=np.zeros(c // 2),
        smooth=ConvParams(scale * rng.standard_normal((c, c, 3, 3)),
                          scale * rng.standard_normal(c), padding=1),
        k=k,
        s=s,
        gate_act=gate_act,
    )
