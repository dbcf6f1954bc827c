"""Verification-protocol machinery: pair generation, ROC, EER, TAR@FAR.

A protocol's comparisons are index arrays, not objects:
:func:`protocol_pairs` returns one row per comparison with its two
manifest rows, its genuine flag and its pair-group ids, built from
upper-triangle indices over each block of comparable units.
:func:`count_pairs` gives the same counts from closed forms.

Conventions, fixed across the package and echoed in output metadata:

* a comparison is accepted when ``score >= threshold``;
* thresholds sweep every distinct observed score (exact empirical ROC)
  unless a bin count is requested for very large score sets;
* EER interpolates linearly in (FAR, FRR) space between the two ROC
  points bracketing the crossing;
* :func:`eer` and :func:`tar_at_far` read one :class:`RocCurve`, so a
  report sorts and sweeps its scores once.

Score sets carry an orientation flag so distance-like scores (lower is
genuine) evaluate identically to similarity scores.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

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

    def filter_subjects(self, keep) -> "Manifest":
        keep = set(keep)
        return Manifest(tuple(e for e in self.entries if e.subject_id in keep))


def _unit_blocks(manifest: Manifest, protocol: str):
    """Validated blocks of comparable units, as ``(members, ids, subjects)``.

    ``members`` is an ``(n_units, k)`` array of rows into
    ``manifest.entries``: one entry per unit within a side, or the
    ``(L, R)`` entries of a (subject, sample) unit.  Units are sorted by
    (subject, sample); only units of one block are compared.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if len(manifest.subjects()) < 2:
        raise ValueError("pair generation needs at least two subjects")
    entries = manifest.entries
    if protocol == WITHIN_SIDE:
        blocks = []
        for side in manifest.sides():
            rows = sorted(
                (k for k, e in enumerate(entries) if e.eye_side == side),
                key=lambda k: (entries[k].subject_id, entries[k].sample_index),
            )
            blocks.append((
                np.array(rows, dtype=np.intp).reshape(-1, 1),
                [entries[k].entry_id for k in rows],
                [entries[k].subject_id for k in rows],
            ))
        return blocks
    by_key: dict[tuple[str, int], dict[str, int]] = {}
    for k, e in enumerate(entries):
        by_key.setdefault((e.subject_id, e.sample_index), {})[e.eye_side] = k
    units = sorted(by_key)
    for subject, index in units:
        if set(by_key[subject, index]) != set(EYE_SIDES):
            raise ValueError(
                f"{LEFT_RIGHT_DISJOINT} requires both eye sides per sample; "
                f"({subject}, {index}) has only {sorted(by_key[subject, index])}"
            )
    members = np.array(
        [[by_key[u][side] for side in EYE_SIDES] for u in units], dtype=np.intp
    )
    return [(members, [f"{s}:{i}" for s, i in units], [s for s, _ in units])]


def protocol_pairs(manifest: Manifest, protocol: str = WITHIN_SIDE) -> dict[str, np.ndarray]:
    """Every comparison of a matching protocol, as columns of one row each.

    ``a`` and ``b`` are rows into ``manifest.entries``, ``genuine`` is
    subject equality and ``a_id``/``b_id`` name the pair group.
    ``all-vs-all-within-side`` compares every same-side sample pair; for
    S subjects with n samples per side that is ``S * C(n, 2)`` genuine
    and ``C(S, 2) * n^2`` impostor groups per side.  The
    ``left-right-disjoint`` protocol pairs (subject, sample) units; each
    group is two rows, its left-left then its right-right comparison,
    for sum-rule combination, with the same closed forms over units.

    Groups are ordered genuine first, each class in
    ``itertools.combinations`` order over the (subject, sample)-sorted
    units of each side in turn.
    """
    blocks = _unit_blocks(manifest, protocol)
    members = np.concatenate([m for m, _, _ in blocks])
    ids = np.array([i for _, block_ids, _ in blocks for i in block_ids])
    _, subject = np.unique(
        [s for _, _, subjects in blocks for s in subjects], return_inverse=True
    )
    ua, ub, start = [], [], 0
    for m, _, _ in blocks:
        i, j = np.triu_indices(len(m), k=1)
        ua.append(i + start)
        ub.append(j + start)
        start += len(m)
    ua, ub = np.concatenate(ua), np.concatenate(ub)
    genuine = subject[ua] == subject[ub]
    order = np.concatenate([np.flatnonzero(genuine), np.flatnonzero(~genuine)])
    ua, ub = ua[order], ub[order]
    k = members.shape[1]  # rows per group
    return {
        "a": members[ua].reshape(-1),
        "b": members[ub].reshape(-1),
        "genuine": np.repeat(genuine[order], k),
        "a_id": ids[np.repeat(ua, k)],
        "b_id": ids[np.repeat(ub, k)],
    }


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
    :func:`protocol_pairs`.
    """
    counts = [
        _closed_form_counts(subjects)
        for _, _, subjects in _unit_blocks(manifest, protocol)
    ]
    return sum(g for g, _ in counts), sum(i for _, i in counts)


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
    if scores.n_genuine == 0 or scores.n_impostor == 0:
        raise ValueError("metric computation needs non-empty genuine and impostor sets")
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


def eer(curve: RocCurve) -> float:
    """Rate at the FAR = FRR crossing of a ROC, linearly interpolated."""
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


def tar_at_far(curve: RocCurve, far_target: float = 1e-4, *, n_impostor: int) -> TarAtFar:
    """Maximum TAR among a ROC's thresholds with empirical FAR <= target.

    ``n_impostor`` is the size of the impostor set the curve was built
    from; it decides ``underpowered``.
    """
    if not 0.0 <= far_target <= 1.0:
        raise ValueError(f"far_target must lie in [0, 1], got {far_target}")
    qualifying = np.flatnonzero(curve.far <= far_target)
    # far is non-decreasing along the curve, so qualifying is a prefix;
    # its last index carries the highest tar.
    k = int(qualifying[-1])
    return TarAtFar(
        tar=float(curve.tar[k]),
        threshold=float(curve.thresholds[k]),
        achieved_far=float(curve.far[k]),
        underpowered=n_impostor * far_target < 1.0,
    )
