"""Bounding-box algebra: the rank-based between operator, Fourier
coordinate encodings and IoU.

All coordinates are normalized fractions of the image side in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in normalized [0,1] coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (0.0 <= self.x_min <= self.x_max <= 1.0):
            raise ContractError(f"invalid x extent: [{self.x_min}, {self.x_max}]")
        if not (0.0 <= self.y_min <= self.y_max <= 1.0):
            raise ContractError(f"invalid y extent: [{self.y_min}, {self.y_max}]")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]

    @classmethod
    def from_list(cls, vals) -> "BoundingBox":
        if len(vals) != 4:
            raise ContractError(f"box needs 4 coordinates, got {len(vals)}")
        return cls(*(float(v) for v in vals))


def between(subject: BoundingBox, object_: BoundingBox) -> BoundingBox:
    """Action focus area: 2nd and 3rd order statistics of the paired
    per-axis coordinates.

    Ties are handled by stable sort; coincident ranks legally yield a
    zero-area box.  Symmetric in its arguments.
    """
    xs = sorted((subject.x_min, subject.x_max, object_.x_min, object_.x_max))
    ys = sorted((subject.y_min, subject.y_max, object_.y_min, object_.y_max))
    return BoundingBox(xs[1], ys[1], xs[2], ys[2])


def fourier_embed(box: BoundingBox, n_freqs: int) -> np.ndarray:
    """Sin/cos features at frequencies 2^k * pi for each of the 4 coordinates.

    Output length 4 * 2 * n_freqs; coordinate order (x_min, y_min, x_max,
    y_max), frequency-major within each coordinate.
    """
    if n_freqs <= 0:
        raise ContractError("n_freqs must be positive")
    coords = np.array(box.as_list(), dtype=np.float64)
    freqs = (2.0 ** np.arange(n_freqs)) * math.pi
    angles = coords[:, None] * freqs[None, :]  # (4, n_freqs)
    out = np.stack([np.sin(angles), np.cos(angles)], axis=-1)  # (4, n_freqs, 2)
    return out.reshape(-1)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; 0/0 is defined as 0."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.area + b.area - inter
    return inter / union if union > 0.0 else 0.0
