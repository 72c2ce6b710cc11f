"""Pyramid level container shared by the context and fusion modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LevelFeature:
    """One pyramid level: index (2..6) and its data, one image (c, h, w) or
    a batch of images (n, c, h, w).  Level i has stride 2^i w.r.t. the image."""

    level: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim not in (3, 4):
            raise ValueError(f"level feature must be c×h×w or n×c×h×w, got {self.data.shape}")

    @property
    def stride(self):
        return 2 ** self.level

    @property
    def channels(self):
        return self.data.shape[-3]
