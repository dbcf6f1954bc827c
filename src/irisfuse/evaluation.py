"""Verification-protocol machinery: pair generation, ROC, EER, TAR@FAR.

Conventions, fixed across the package and echoed in output metadata:

* a comparison is accepted when ``score >= threshold``;
* thresholds sweep every distinct observed score (exact empirical ROC)
  unless a bin count is requested for very large score sets;
* EER interpolates linearly in (FAR, FRR) space between the two ROC
  points bracketing the crossing.

Score sets carry an orientation flag so distance-like scores (lower is
genuine) evaluate identically to similarity scores.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .templates import MatchLabel

EYE_SIDES = ("L", "R")

WITHIN_SIDE = "all-vs-all-within-side"
LEFT_RIGHT_DISJOINT = "left-right-disjoint"
PROTOCOLS = (WITHIN_SIDE, LEFT_RIGHT_DISJOINT)


@dataclass(frozen=True)
class ManifestEntry:
    """One enrolled sample: identity, eye side, index and data references."""

    subject_id: str
    eye_side: str
    sample_index: int
    template_ref: str
    periocular_ref: str

    def __post_init__(self) -> None:
        if self.eye_side not in EYE_SIDES:
            raise ValueError(f"eye_side must be one of {EYE_SIDES}, got {self.eye_side!r}")
        if self.sample_index < 0:
            raise ValueError("sample_index must be >= 0")

    @property
    def entry_id(self) -> str:
        return f"{self.subject_id}:{self.eye_side}:{self.sample_index}"


@dataclass(frozen=True)
class Manifest:
    """Collection of samples with unique (subject, side, index) keys."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for e in entries:
            key = (e.subject_id, e.eye_side, e.sample_index)
            if key in seen:
                raise ValueError(f"duplicate manifest entry {key}")
            seen.add(key)

    def subjects(self) -> list[str]:
        return sorted({e.subject_id for e in self.entries})

    def sides(self) -> list[str]:
        return sorted({e.eye_side for e in self.entries})

    def filter_side(self, side: str) -> list[ManifestEntry]:
        return sorted(
            (e for e in self.entries if e.eye_side == side),
            key=lambda e: (e.subject_id, e.sample_index),
        )

    def filter_subjects(self, keep) -> "Manifest":
        keep = set(keep)
        return Manifest(tuple(e for e in self.entries if e.subject_id in keep))


@dataclass(frozen=True)
class ComparisonPair:
    a: ManifestEntry
    b: ManifestEntry


@dataclass(frozen=True)
class PairGroup:
    """One scored unit: an identity pair with one comparison per shared side.

    Within-side pairing yields a single member; the left/right protocol
    yields an aligned (L, R) member pair whose scores are later combined
    with the sum rule.
    """

    a_id: str
    b_id: str
    label: MatchLabel
    members: tuple[ComparisonPair, ...]


@dataclass(frozen=True)
class PairSet:
    genuine: tuple[PairGroup, ...]
    impostor: tuple[PairGroup, ...]

    @property
    def counts(self) -> tuple[int, int]:
        return len(self.genuine), len(self.impostor)


def _iter_within_side_pairs(manifest: Manifest):
    for side in manifest.sides():
        entries = manifest.filter_side(side)
        for a, b in itertools.combinations(entries, 2):
            label = (
                MatchLabel.GENUINE
                if a.subject_id == b.subject_id
                else MatchLabel.IMPOSTOR
            )
            yield PairGroup(
                a_id=a.entry_id,
                b_id=b.entry_id,
                label=label,
                members=(ComparisonPair(a, b),),
            )


def _left_right_units(manifest: Manifest) -> list[tuple[str, int, ManifestEntry, ManifestEntry]]:
    by_key: dict[tuple[str, int], dict[str, ManifestEntry]] = {}
    for e in manifest.entries:
        by_key.setdefault((e.subject_id, e.sample_index), {})[e.eye_side] = e
    units = []
    for (subject, index), sides in sorted(by_key.items()):
        if set(sides) != set(EYE_SIDES):
            raise ValueError(
                f"{LEFT_RIGHT_DISJOINT} requires both eye sides per sample; "
                f"({subject}, {index}) has only {sorted(sides)}"
            )
        units.append((subject, index, sides["L"], sides["R"]))
    return units


def _iter_left_right_pairs(manifest: Manifest):
    units = _left_right_units(manifest)
    for ua, ub in itertools.combinations(units, 2):
        subj_a, idx_a, left_a, right_a = ua
        subj_b, idx_b, left_b, right_b = ub
        label = MatchLabel.GENUINE if subj_a == subj_b else MatchLabel.IMPOSTOR
        yield PairGroup(
            a_id=f"{subj_a}:{idx_a}",
            b_id=f"{subj_b}:{idx_b}",
            label=label,
            members=(
                ComparisonPair(left_a, left_b),
                ComparisonPair(right_a, right_b),
            ),
        )


def iter_pair_groups(manifest: Manifest, protocol: str = WITHIN_SIDE):
    """Lazily yield every pair group under a matching protocol.

    ``all-vs-all-within-side`` compares every same-side sample pair; for
    S subjects with n samples per side that is ``S * C(n, 2)`` genuine
    and ``C(S, 2) * n^2`` impostor groups per side.  The
    ``left-right-disjoint`` protocol pairs (subject, sample) units, each
    carrying a left-left and a right-right comparison for sum-rule
    combination, giving the same closed forms over units.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if len(manifest.subjects()) < 2:
        raise ValueError("pair generation needs at least two subjects")
    if protocol == WITHIN_SIDE:
        return _iter_within_side_pairs(manifest)
    return _iter_left_right_pairs(manifest)


def generate_pairs(manifest: Manifest, protocol: str = WITHIN_SIDE) -> PairSet:
    """Materialised genuine/impostor pair groups (see :func:`iter_pair_groups`).

    Fine at desk scale; verification-protocol runs with millions of
    pairs should stream :func:`iter_pair_groups` or count with
    :func:`count_pairs` instead.
    """
    genuine: list[PairGroup] = []
    impostor: list[PairGroup] = []
    for group in iter_pair_groups(manifest, protocol):
        (genuine if group.label is MatchLabel.GENUINE else impostor).append(group)
    return PairSet(genuine=tuple(genuine), impostor=tuple(impostor))


def _closed_form_counts(subject_of_unit: list[str]) -> tuple[int, int]:
    """(genuine, impostor) pair counts over one list of comparable units."""
    per_subject = Counter(subject_of_unit)
    genuine = sum(math.comb(n, 2) for n in per_subject.values())
    return genuine, math.comb(len(subject_of_unit), 2) - genuine


def count_pairs(manifest: Manifest, protocol: str = WITHIN_SIDE) -> tuple[int, int]:
    """(genuine, impostor) group counts from closed forms, without pairing.

    Per side (or over (subject, sample) units for the left/right
    protocol) genuine is the sum of ``C(n_s, 2)`` over subjects and
    impostor is ``C(N, 2)`` minus that.  Raises the same errors as
    :func:`iter_pair_groups`.
    """
    iter_pair_groups(manifest, protocol)  # validates; the iterator is never run
    if protocol == WITHIN_SIDE:
        unit_lists = [
            [e.subject_id for e in manifest.filter_side(side)]
            for side in manifest.sides()
        ]
    else:
        unit_lists = [[subject for subject, *_ in _left_right_units(manifest)]]
    genuine, impostor = zip(*(_closed_form_counts(units) for units in unit_lists))
    return sum(genuine), sum(impostor)


def sum_rule_combine(left_scores, right_scores) -> np.ndarray:
    """Elementwise sum of two aligned score lists."""
    left = np.asarray(left_scores, dtype=np.float64)
    right = np.asarray(right_scores, dtype=np.float64)
    if left.shape != right.shape:
        raise ValueError(f"length mismatch: {left.shape} vs {right.shape}")
    return left + right


@dataclass(frozen=True)
class ScoreSet:
    """Labelled genuine/impostor scores plus their orientation."""

    genuine: np.ndarray
    impostor: np.ndarray
    higher_is_genuine: bool = True

    def __post_init__(self) -> None:
        for name in ("genuine", "impostor"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} scores contain a non-finite value")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_genuine(self) -> int:
        return self.genuine.size

    @property
    def n_impostor(self) -> int:
        return self.impostor.size

    def oriented(self) -> tuple[np.ndarray, np.ndarray]:
        """Scores with higher-is-genuine orientation enforced."""
        if self.higher_is_genuine:
            return self.genuine, self.impostor
        return -self.genuine, -self.impostor


def _require_nonempty(scores: ScoreSet) -> None:
    if scores.n_genuine == 0 or scores.n_impostor == 0:
        raise ValueError("metric computation needs non-empty genuine and impostor sets")


@dataclass(frozen=True)
class RocCurve:
    """Operating points ordered by descending threshold.

    ``far`` and ``tar`` are therefore non-decreasing, running from the
    (0, 0) reject-everything anchor to (1, 1).
    """

    thresholds: np.ndarray
    far: np.ndarray
    tar: np.ndarray

    def __iter__(self):
        return iter(zip(self.thresholds, self.far, self.tar))


def roc_curve(scores: ScoreSet, resolution: int | None = None) -> RocCurve:
    """Empirical ROC; exact over observed scores unless ``resolution`` bins.

    ``resolution`` is intended for score sets too large to sweep
    exactly (tens of millions); it places that many equispaced
    thresholds across the observed range instead.
    """
    _require_nonempty(scores)
    genuine, impostor = scores.oriented()
    if resolution is None:
        thresholds = np.unique(np.concatenate([genuine, impostor]))
    else:
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        lo = min(genuine.min(), impostor.min())
        hi = max(genuine.max(), impostor.max())
        thresholds = np.linspace(lo, hi, resolution)
    # sentinel above every score anchors the curve at (0, 0)
    top = thresholds[-1]
    sentinel = np.nextafter(top, np.inf) if np.isfinite(top) else top
    thresholds = np.append(thresholds, sentinel)

    gen_sorted = np.sort(genuine)
    imp_sorted = np.sort(impostor)
    gen_above = genuine.size - np.searchsorted(gen_sorted, thresholds, side="left")
    imp_above = impostor.size - np.searchsorted(imp_sorted, thresholds, side="left")
    tar = gen_above / genuine.size
    far = imp_above / impostor.size
    order = slice(None, None, -1)  # descending thresholds
    return RocCurve(thresholds[order], far[order], tar[order])


def roc_auc(curve: RocCurve) -> float:
    """Area under the ROC by trapezoidal rule."""
    return float(np.trapezoid(curve.tar, curve.far))


def eer(scores: ScoreSet) -> float:
    """Rate at the FAR = FRR crossing, linearly interpolated."""
    curve = roc_curve(scores)
    far = curve.far
    frr = 1.0 - curve.tar
    diff = far - frr  # runs from -1 (reject all) towards +1 (accept all)
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0:
        return float(far[k])
    far0, far1 = far[k - 1], far[k]
    frr0, frr1 = frr[k - 1], frr[k]
    denom = (far1 - far0) + (frr0 - frr1)
    t = (frr0 - far0) / denom
    return float(far0 + t * (far1 - far0))


@dataclass(frozen=True)
class TarAtFar:
    """True-accept rate at a false-accept budget.

    ``underpowered`` flags an impostor set too small to resolve the
    requested rate (fewer than ``1 / far_target`` scores), in which case
    the value is the best TAR with zero observed false accepts.
    """

    tar: float
    threshold: float
    achieved_far: float
    underpowered: bool


def tar_at_far(scores: ScoreSet, far_target: float = 1e-4) -> TarAtFar:
    """Maximum TAR among swept thresholds with empirical FAR <= target."""
    if not 0.0 <= far_target <= 1.0:
        raise ValueError(f"far_target must lie in [0, 1], got {far_target}")
    _require_nonempty(scores)
    curve = roc_curve(scores)
    qualifying = np.flatnonzero(curve.far <= far_target)
    # far is non-decreasing along the curve, so qualifying is a prefix;
    # its last index carries the highest tar.
    k = int(qualifying[-1])
    return TarAtFar(
        tar=float(curve.tar[k]),
        threshold=float(curve.thresholds[k]),
        achieved_far=float(curve.far[k]),
        underpowered=scores.n_impostor * far_target < 1.0,
    )
