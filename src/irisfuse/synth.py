"""Seeded synthetic populations for desk-scale end-to-end experiments.

Each subject gets a random prototype template and periocular vector;
samples are bit-flipped / noised copies with eyelid-like occlusion
bands.  An optional degraded subset combines heavy bit noise with low
mask coverage, which is exactly the regime where per-pair quality cues
let dynamic fusion beat any fixed score combination.

Generation is single-threaded and fully determined by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .evaluation import Manifest, ManifestEntry, ScoreSet
from .templates import (
    DEFAULT_HEIGHT,
    DEFAULT_PERIOC_DIM,
    DEFAULT_WIDTH,
    IrisTemplate,
    pack_template,
)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    num_subjects: int = 20
    samples_per_subject: int = 4
    height: int = DEFAULT_HEIGHT
    width: int = DEFAULT_WIDTH
    bit_density: float = 0.5
    genuine_flip_rate: float = 0.1
    mask_coverage_range: tuple[float, float] = (0.6, 0.95)
    perioc_dim: int = DEFAULT_PERIOC_DIM
    perioc_within_noise: float = 0.03
    eye_area_range: tuple[float, float] = (0.12, 0.30)
    brow_area_range: tuple[float, float] = (0.06, 0.18)
    area_jitter: float = 0.01
    both_sides: bool = False
    degraded_fraction: float = 0.0
    degraded_flip_rate: float = 0.3
    degraded_coverage_range: tuple[float, float] = (0.15, 0.35)

    def __post_init__(self) -> None:
        if self.num_subjects < 1 or self.samples_per_subject < 1:
            raise ValueError("need at least one subject and one sample")
        if self.height < 1 or self.width < 1:
            raise ValueError("template dimensions must be >= 1")
        if not 0.0 < self.bit_density < 1.0:
            raise ValueError("bit_density must lie strictly inside (0, 1)")
        for name in ("genuine_flip_rate", "degraded_flip_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5), got {rate}")
        for name in ("mask_coverage_range", "degraded_coverage_range"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi <= 1.0:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi <= 1")
        if self.perioc_dim < 1:
            raise ValueError("perioc_dim must be >= 1")
        if self.perioc_within_noise < 0 or self.area_jitter < 0:
            raise ValueError("noise levels must be >= 0")
        if not 0.0 <= self.degraded_fraction <= 1.0:
            raise ValueError("degraded_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class Population:
    manifest: Manifest
    templates: dict[str, IrisTemplate]
    periocular: dict[str, np.ndarray]  # the feature table, as fileio.read_feature_csv gives it
    degraded_subjects: frozenset[str]


def _band_mask(
    rng: np.random.Generator, height: int, width: int, coverage: tuple[float, float]
) -> np.ndarray:
    """Validity mask with one contiguous occlusion band (row-major, wrapping).

    The invalid pixel count is clamped so the realised coverage always
    lands inside the requested range.
    """
    lo, hi = coverage
    n = height * width
    min_invalid = math.ceil((1.0 - hi) * n)
    max_invalid = math.floor((1.0 - lo) * n)
    if min_invalid > max_invalid:
        raise ValueError(
            f"coverage range ({lo}, {hi}) is narrower than one pixel out of {n};"
            " widen the range or enlarge the template"
        )
    invalid = int(round((1.0 - rng.uniform(lo, hi)) * n))
    invalid = min(max(invalid, min_invalid), max_invalid)
    mask = np.ones(n, dtype=np.uint8)
    if invalid:
        start = int(rng.integers(n))
        idx = (start + np.arange(invalid)) % n
        mask[idx] = 0
    return mask.reshape(height, width)


def _jittered_area(rng: np.random.Generator, base: float, jitter: float) -> float:
    return float(np.clip(base + rng.normal(scale=jitter), 0.0, 1.0)) if jitter else base


def gen_population(config: SynthConfig) -> Population:
    """Generate templates, the periocular feature table and the matching manifest."""
    rng = np.random.default_rng(config.seed)
    sides = ("L", "R") if config.both_sides else ("L",)
    subject_ids = [f"S{k:04d}" for k in range(config.num_subjects)]

    n_degraded = round(config.degraded_fraction * config.num_subjects)
    degraded = frozenset(
        subject_ids[k]
        for k in rng.choice(config.num_subjects, size=n_degraded, replace=False)
    )

    entries: list[ManifestEntry] = []
    templates: dict[str, IrisTemplate] = {}
    periocular: dict[str, list] = {"id": [], "eye_area": [], "brow_area": [], "features": []}
    for subject in subject_ids:
        flip_rate = (
            config.degraded_flip_rate if subject in degraded else config.genuine_flip_rate
        )
        coverage = (
            config.degraded_coverage_range
            if subject in degraded
            else config.mask_coverage_range
        )
        for side in sides:
            proto_bits = (
                rng.random((config.height, config.width)) < config.bit_density
            ).astype(np.uint8)
            proto_feat = rng.normal(size=config.perioc_dim)
            proto_feat /= np.linalg.norm(proto_feat)
            eye_base = rng.uniform(*config.eye_area_range)
            brow_base = rng.uniform(*config.brow_area_range)
            for index in range(config.samples_per_subject):
                flips = rng.random((config.height, config.width)) < flip_rate
                bits = proto_bits ^ flips
                mask = _band_mask(rng, config.height, config.width, coverage)
                ref = f"{subject}_{side}{index:02d}"
                templates[ref] = pack_template(
                    bits, mask, config.height, config.width
                )
                feat = proto_feat + rng.normal(
                    scale=config.perioc_within_noise, size=config.perioc_dim
                )
                eye = _jittered_area(rng, eye_base, config.area_jitter)
                brow = _jittered_area(rng, brow_base, config.area_jitter)
                if eye + brow > 1.0:  # jitter cannot push areas past a full image
                    brow = 1.0 - eye
                for name, value in zip(periocular, (ref, eye, brow, feat)):
                    periocular[name].append(value)
                entries.append(
                    ManifestEntry(
                        subject_id=subject,
                        eye_side=side,
                        sample_index=index,
                        template_ref=ref,
                        periocular_ref=ref,
                    )
                )
    return Population(
        manifest=Manifest(tuple(entries)),
        templates=templates,
        periocular={name: np.array(values) for name, values in periocular.items()},
        degraded_subjects=degraded,
    )


def degraded_scenario(seed: int = 0, **overrides) -> SynthConfig:
    """Config with a degraded-mask subject subset for fusion experiments.

    A third of the subjects combine heavy bit noise with low mask
    coverage, so their iris scores are unreliable in a way the mask-rate
    cues expose, while periocular quality stays uniformly mediocre.
    """
    base = SynthConfig(
        seed=seed,
        num_subjects=70,
        samples_per_subject=6,
        height=32,
        width=256,
        genuine_flip_rate=0.06,
        mask_coverage_range=(0.65, 0.95),
        perioc_dim=64,
        perioc_within_noise=0.14,
        degraded_fraction=0.35,
        degraded_flip_rate=0.30,
        degraded_coverage_range=(0.12, 0.30),
    )
    return replace(base, **overrides) if overrides else base


def gen_score_scenario(
    seed: int,
    genuine_mean: float,
    genuine_std: float,
    impostor_mean: float,
    impostor_std: float,
    n_genuine: int = 1000,
    n_impostor: int = 1000,
    clip: tuple[float, float] | None = None,
    higher_is_genuine: bool = True,
) -> ScoreSet:
    """Sample a labelled score set from two Gaussians (oracle input for metrics)."""
    if genuine_std < 0 or impostor_std < 0:
        raise ValueError("standard deviations must be >= 0")
    rng = np.random.default_rng(seed)
    genuine = rng.normal(genuine_mean, genuine_std, size=n_genuine)
    impostor = rng.normal(impostor_mean, impostor_std, size=n_impostor)
    if clip is not None:
        genuine = np.clip(genuine, *clip)
        impostor = np.clip(impostor, *clip)
    return ScoreSet(
        genuine=genuine, impostor=impostor, higher_is_genuine=higher_is_genuine
    )
