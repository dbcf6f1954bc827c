"""Cue assembly and score-level fusion.

Combines the iris matcher output, the periocular feature distance and
the segmentation-derived quality cues into the eight-element vector fed
to the fusion network, and provides the fixed weighted-sum baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmatch import IrisMatchResult
from .mlp import MlpParams, mlp_forward
from .templates import CueVector, PeriocularRecord


@dataclass(frozen=True)
class NormalizationParams:
    """Training-set range of raw periocular distances.

    Used to map distances onto [0, 1] so the fusion inputs share a
    bounded scale; values outside the training range clamp.
    """

    perioc_min: float
    perioc_max: float

    def __post_init__(self) -> None:
        lo, hi = float(self.perioc_min), float(self.perioc_max)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("normalization bounds must be finite")
        if not lo < hi:
            raise ValueError(f"perioc_min ({lo}) must be < perioc_max ({hi})")
        object.__setattr__(self, "perioc_min", lo)
        object.__setattr__(self, "perioc_max", hi)

    @classmethod
    def from_distances(cls, distances) -> "NormalizationParams":
        d = np.asarray(distances, dtype=np.float64)
        if d.size < 2:
            raise ValueError("need at least two distances to fit a range")
        return cls(perioc_min=float(d.min()), perioc_max=float(d.max()))


def perioc_distance(a: PeriocularRecord, b: PeriocularRecord) -> float:
    """Euclidean distance between two periocular feature vectors."""
    if a.dim != b.dim:
        raise ValueError(f"feature dimension mismatch: {a.dim} vs {b.dim}")
    diff = a.features - b.features
    return float(np.sqrt(np.dot(diff, diff)))


def normalized_distance(distance: float, norm: NormalizationParams) -> float:
    """Min-max normalised distance, clamped to [0, 1]."""
    span = norm.perioc_max - norm.perioc_min
    return float(np.clip((distance - norm.perioc_min) / span, 0.0, 1.0))


def assemble_cues(
    iris: IrisMatchResult,
    perioc_d: float,
    norm: NormalizationParams,
    a: PeriocularRecord,
    b: PeriocularRecord,
) -> CueVector:
    """Build the eight fusion inputs for one compared pair.

    Swapping the two records negates the signed area differences and
    leaves every other cue unchanged.
    """
    return CueVector(
        iris_score=iris.ws_score,
        perioc_dist=normalized_distance(perioc_d, norm),
        mask_rate_a=iris.mask_rate_a,
        mask_rate_b=iris.mask_rate_b,
        eye_sum=a.eye_area + b.eye_area,
        eye_diff=a.eye_area - b.eye_area,
        brow_sum=a.brow_area + b.brow_area,
        brow_diff=a.brow_area - b.brow_area,
    )


def static_fuse(iris_score: float, perioc_score: float, weight: float) -> float:
    """Fixed weighted sum of two comparably scaled similarity scores."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    return weight * iris_score + (1.0 - weight) * perioc_score


def static_inputs(ws_score: float, alpha: float, norm_dist: float) -> tuple[float, float]:
    """Rescale matcher outputs onto common higher-is-better [0, 1] scales.

    The weighted-similarity score is divided by its maximum
    ``max(2 - alpha, alpha)`` (all 1-1 agreements, or all 0-0 agreements
    when ``alpha > 1``); the normalised periocular distance is flipped.
    """
    return ws_score / max(2.0 - alpha, alpha), 1.0 - norm_dist


def dynamic_fuse(params: MlpParams, cues: CueVector) -> float:
    """Consolidated match score: the network's genuine-class probability."""
    p_genuine, _ = mlp_forward(params, cues)
    return p_genuine
