"""Pyramid level container shared by the context and fusion modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LevelFeature:
    """One pyramid level: index (2..6), stride w.r.t. the image, and its data:
    one image (c, h, w) or a batch of images (n, c, h, w)."""

    level: int
    stride: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim not in (3, 4):
            raise ValueError(f"level feature must be c×h×w or n×c×h×w, got {self.data.shape}")
        if self.stride < 1:
            raise ValueError("stride must be positive")

    @property
    def channels(self):
        return self.data.shape[-3]
