"""Naive per-pixel reference implementations of the matching kernels.

Deliberately simple: plain Python loops over unpacked pixel lists, one
pixel at a time, no byte tricks.  These exist to cross-check the packed
kernels in :mod:`irisfuse.bitmatch` bit for bit and to keep hand-worked
examples readable; they are far too slow for real scoring.

The score-from-counts expressions are written with the same operation
order as the packed kernels so agreement is exact, not approximate;
only the counting route differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bitmatch import DEFAULT_ALPHA, DEFAULT_POLICY, EmptyJointMaskError, ShiftPolicy
from .synth import _band_mask
from .templates import IrisTemplate, pack_template


def _pixel_lists(t: IrisTemplate) -> tuple[list[list[int]], list[list[int]]]:
    return t.unpack_bits().tolist(), t.unpack_mask().tolist()


def _counts_at_shift(bits_a, mask_a, bits_b, mask_b, shift: int, width: int):
    """(ones_agree, zeros_agree, disagree, joint_valid) at one shift."""
    ones = zeros = disagree = valid = 0
    for row_a, row_ma, row_b, row_mb in zip(bits_a, mask_a, bits_b, mask_b):
        for j in range(width):
            jj = (j + shift) % width
            if row_ma[j] and row_mb[jj]:
                valid += 1
                va = row_a[j]
                vb = row_b[jj]
                if va == vb:
                    if va:
                        ones += 1
                    else:
                        zeros += 1
                else:
                    disagree += 1
    return ones, zeros, disagree, valid


def _unmasked_counts_at_shift(bits_a, bits_b, shift: int, width: int):
    ones = zeros = disagree = 0
    for row_a, row_b in zip(bits_a, bits_b):
        for j in range(width):
            va = row_a[j]
            vb = row_b[(j + shift) % width]
            if va == vb:
                if va:
                    ones += 1
                else:
                    zeros += 1
            else:
                disagree += 1
    return ones, zeros, disagree


def _shift_counts(a: IrisTemplate, b: IrisTemplate, policy: ShiftPolicy, unmasked=False):
    """``(s, (ones_agree, zeros_agree, disagree, valid))`` at every
    candidate shift; ``unmasked`` counts every pixel as valid."""
    bits_a, mask_a = _pixel_lists(a)
    bits_b, mask_b = _pixel_lists(b)
    if unmasked:
        return [
            (s, (*_unmasked_counts_at_shift(bits_a, bits_b, s, a.width), a.n_pixels))
            for s in policy.shifts()
        ]
    return [
        (s, _counts_at_shift(bits_a, mask_a, bits_b, mask_b, s, a.width))
        for s in policy.shifts()
    ]


def _min_hamming(shift_counts) -> tuple[float, int, int]:
    best = None
    for s, (_, _, disagree, valid) in shift_counts:
        if valid == 0:
            continue
        hd = disagree / valid
        if best is None or hd < best[0]:
            best = (hd, s, valid)
    if best is None:
        raise EmptyJointMaskError("no jointly valid pixels at any candidate shift")
    return best


def _max_ws(shift_counts, alpha: float) -> tuple[float, int]:
    best = None
    for s, (ones, zeros, _, valid) in shift_counts:
        if valid == 0:
            continue
        score = ((2.0 - alpha) * ones + alpha * zeros) / valid
        if best is None or score > best[0]:
            best = (score, s)
    if best is None:
        raise EmptyJointMaskError("no jointly valid pixels at any candidate shift")
    return best


def naive_masked_hamming(
    a: IrisTemplate, b: IrisTemplate, policy: ShiftPolicy = DEFAULT_POLICY
) -> tuple[float, int, int]:
    """Per-pixel mirror of ``(hamming, best_shift, joint_valid)`` of
    :func:`irisfuse.bitmatch.match_pair`."""
    return _min_hamming(_shift_counts(a, b, policy))


def naive_weighted_similarity(
    a: IrisTemplate,
    b: IrisTemplate,
    alpha: float = DEFAULT_ALPHA,
    policy: ShiftPolicy = DEFAULT_POLICY,
    unmasked: bool = False,
) -> tuple[float, int]:
    """Per-pixel mirror of ``(ws_score, ws_shift)`` of
    :func:`irisfuse.bitmatch.match_pair`; ``unmasked=True`` counts every
    pixel, as ``match_pair`` does for ``all_valid()`` copies."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly inside (0, 2), got {alpha}")
    return _max_ws(_shift_counts(a, b, policy, unmasked), alpha)


def _joint_pixel_counts(a: IrisTemplate, b: IrisTemplate):
    """Shift-0 white/black tallies over jointly valid pixels."""
    bits_a, mask_a = _pixel_lists(a)
    bits_b, mask_b = _pixel_lists(b)
    both_white = white_a = white_b = 0
    both_black = black_a = black_b = 0
    for row_a, row_ma, row_b, row_mb in zip(bits_a, mask_a, bits_b, mask_b):
        for va, ma, vb, mb in zip(row_a, row_ma, row_b, row_mb):
            if not (ma and mb):
                continue
            white_a += va
            white_b += vb
            black_a += 1 - va
            black_b += 1 - vb
            if va and vb:
                both_white += 1
            elif not va and not vb:
                both_black += 1
    return both_white, white_a, white_b, both_black, black_a, black_b


def naive_white_match_rate(a: IrisTemplate, b: IrisTemplate) -> float:
    both_white, white_a, white_b, _, _, _ = _joint_pixel_counts(a, b)
    if white_a + white_b == 0:
        raise ValueError("white match rate undefined: no jointly valid white pixels")
    return 2.0 * both_white / (white_a + white_b)


def naive_black_match_rate(a: IrisTemplate, b: IrisTemplate) -> float:
    _, _, _, both_black, black_a, black_b = _joint_pixel_counts(a, b)
    if black_a + black_b == 0:
        raise ValueError("black match rate undefined: no jointly valid black pixels")
    return 2.0 * both_black / (black_a + black_b)


def naive_mask_rate(a: IrisTemplate, b: IrisTemplate) -> tuple[float, float, float]:
    _, mask_a = _pixel_lists(a)
    _, mask_b = _pixel_lists(b)
    joint = valid_a = valid_b = 0
    for row_ma, row_mb in zip(mask_a, mask_b):
        for ma, mb in zip(row_ma, row_mb):
            valid_a += ma
            valid_b += mb
            if ma and mb:
                joint += 1
    n = a.n_pixels
    return joint / n, valid_a / n, valid_b / n


# ---------------------------------------------------------------------------
# Equivalence suite: packed kernels vs this module on seeded random pairs.

# (height, width, max_shift, step, mask, pairs) buckets; the big
# 64 x 512 rows keep the per-pixel side affordable via coarser shifts.
# ``mask`` is the valid density of i.i.d. masks, which leave no word
# without a valid pixel, or the (lo, hi) coverage of one contiguous
# occlusion band as synth draws it, long enough to leave words dead at
# every shift; a band bucket's first template has no valid pixel.
_SUITE_BUCKETS = (
    (4, 4, 1, 1, 0.15, 60),  # sparse masks: exercises empty-joint handling
    (4, 4, 2, 1, 0.9, 324),
    (5, 7, 3, 1, 0.8, 160),
    (8, 8, 4, 1, 0.7, 160),
    (8, 32, 6, 2, 0.8, 160),
    (16, 64, 8, 2, 0.75, 120),
    (32, 128, 8, 4, 0.8, 64),
    (64, 512, 8, 4, 0.85, 12),
    (64, 512, 16, 1, 0.9, 4),
    (6, 96, 8, 1, (0.3, 0.7), 48),  # 96-pixel rows straddle the 64-bit words
)
_NO_VALID_PIXEL = (0.0, 0.0)  # a band covering the whole template

_SUITE_ALPHAS = (0.3, 1.0, 0.5, 1.7)
_BATCH_TEMPLATES = 8  # a bucket's batched pass: 8 x 7 ordered pairs


@dataclass(frozen=True)
class EquivalenceReport:
    pairs_checked: int
    mismatches: int
    unusable_pairs: int
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return self.mismatches == 0 and self.pairs_checked > 0


def _random_template(rng: np.random.Generator, h: int, w: int, mask):
    """Random bits under an i.i.d. mask of density ``mask``, or under one
    occlusion band covering a fraction in the ``mask`` range (lo, hi)."""
    bits = (rng.random((h, w)) < 0.5).astype(np.uint8)
    if isinstance(mask, tuple):
        valid = _band_mask(rng, h, w, mask)
    else:
        valid = (rng.random((h, w)) < mask).astype(np.uint8)
    return pack_template(bits, valid, h, w)


def _outcome(error: type[Exception], fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None where it raises ``error``."""
    try:
        return fn(*args, **kwargs)
    except error:
        return None


def _naive_searches(a: IrisTemplate, b: IrisTemplate, alpha: float, policy: ShiftPolicy):
    """What :func:`naive_masked_hamming` and masked
    :func:`naive_weighted_similarity` return, each None where they raise
    :class:`EmptyJointMaskError`, from one per-pixel count."""
    counts = _shift_counts(a, b, policy)
    return (
        _outcome(EmptyJointMaskError, _min_hamming, counts),
        _outcome(EmptyJointMaskError, _max_ws, counts, alpha),
    )


def _batched_rows(templates, alpha: float, policy: ShiftPolicy) -> tuple[int, int, int]:
    """``(rows, mismatches, unusable)`` of one
    :func:`irisfuse.bitmatch.match_pairs` call over every ordered pair of
    distinct ``templates``, each row checked against
    :func:`_naive_searches`.  The pairs are listed
    gallery-major, so the call has to gather its probe runs."""
    from . import bitmatch

    n = len(templates)
    ib, ia = np.divmod(np.arange(n * n), n)
    ia, ib = ia[ia != ib], ib[ia != ib]
    scores = bitmatch.match_pairs(templates, ia, ib, alpha, policy)
    mismatches = 0
    for k, (i, j) in enumerate(zip(ia.tolist(), ib.tolist())):
        hd, ws = _naive_searches(templates[i], templates[j], alpha, policy)
        if scores.usable[k]:
            ok = (
                scores.hamming[k], scores.best_shift[k], scores.joint_valid[k]
            ) == hd and (scores.ws[k], scores.ws_shift[k]) == ws
        else:
            ok = hd is None and ws is None
        mismatches += not ok
    return len(ia), mismatches, int(np.count_nonzero(~scores.usable))


def run_equivalence_suite(seed: int = 0, scale: int = 1) -> EquivalenceReport:
    """Compare every kernel against its per-pixel mirror on random pairs.

    Checks every score and shift of :func:`irisfuse.bitmatch.match_pair`
    (masked Hamming and weighted similarity, then that of the all-valid
    copies against an unmasked count), white/black match rates and mask
    rates for exact equality.  ``scale`` multiplies the per-bucket pair
    counts.  Unusable pairs (empty joint mask everywhere) must raise on
    both routes to count as agreement.  Each bucket then scores every
    ordered pair of its first :data:`_BATCH_TEMPLATES` templates in one
    :func:`irisfuse.bitmatch.match_pairs` call, so probe runs of many
    pairs are checked too.
    """
    from . import bitmatch

    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    checked = mismatches = unusable = 0
    for bucket, (h, w, max_shift, step, mask, count) in enumerate(_SUITE_BUCKETS):
        policy = ShiftPolicy(max_shift=max_shift, step=step)
        band = isinstance(mask, tuple)
        batch = []
        for i in range(count * scale):
            a = _random_template(rng, h, w, _NO_VALID_PIXEL if band and i == 0 else mask)
            b = _random_template(rng, h, w, mask)
            batch.extend([a, b][:_BATCH_TEMPLATES - len(batch)])
            alpha = _SUITE_ALPHAS[i % len(_SUITE_ALPHAS)]
            fast = _outcome(EmptyJointMaskError, bitmatch.match_pair, a, b, alpha, policy)
            hd, ws = _naive_searches(a, b, alpha, policy)
            if fast is None:
                unusable += 1
                ok = hd is None and ws is None
            else:
                ok = (fast.hamming, fast.best_shift, fast.joint_valid) == hd and (
                    fast.ws_score, fast.ws_shift
                ) == ws
            full = bitmatch.match_pair(a.all_valid(), b.all_valid(), alpha, policy)
            ok &= (full.ws_score, full.ws_shift) == naive_weighted_similarity(
                a, b, alpha, policy, unmasked=True
            )
            for fast_fn, slow_fn in (
                (bitmatch.white_match_rate, naive_white_match_rate),
                (bitmatch.black_match_rate, naive_black_match_rate),
            ):
                ok &= _outcome(ValueError, fast_fn, a, b) == _outcome(
                    ValueError, slow_fn, a, b
                )
            ok &= bitmatch.mask_rate(a, b) == naive_mask_rate(a, b)
            checked += 1
            if not ok:
                mismatches += 1
        alpha = _SUITE_ALPHAS[bucket % len(_SUITE_ALPHAS)]
        rows, bad, empty = _batched_rows(batch, alpha, policy)
        checked += rows
        mismatches += bad
        unusable += empty
    return EquivalenceReport(
        pairs_checked=checked,
        mismatches=mismatches,
        unusable_pairs=unusable,
        elapsed_seconds=time.perf_counter() - start,
    )
