"""Bit-packed comparison kernels for masked binary iris templates.

Scores are searched over a set of candidate horizontal rotations of the
second template (circular column shifts, the usual compensation for eye
rotation).  A shift ``s`` aligns pixel ``(i, j)`` of the first template
with pixel ``(i, (j + s) mod W)`` of the second.  Candidate shifts are
ranked by ``(|s|, s)``, so score ties resolve to the smallest magnitude
with negative before positive.

Scoring rules:

* masked Hamming distance: fraction of disagreeing bits over the
  jointly valid pixels, minimised over shifts.
* weighted similarity: a 1-1 agreement contributes ``2 - alpha``, a 0-0
  agreement contributes ``alpha``, a disagreement contributes 0; the sum
  over jointly valid pixels is divided by the jointly valid count and
  maximised over shifts.  ``alpha < 1`` favours co-occurring white
  pixels, ``alpha = 1`` makes the score exactly ``1 - Hamming``.
* white / black matching rates and mask rates are diagnostic statistics
  computed at shift 0 only.

One batched count kernel does all shift-searched scoring.
:func:`match_pairs` takes a template list and two index arrays and
scores every pair ``(templates[ia[k]], templates[ib[k]])``.  It rotates
the probe (the ``ia`` side) instead of the gallery: comparing ``a``
rotated by ``-s`` with an unrotated ``b`` pairs pixel ``(i, j)`` of
``a`` with pixel ``(i, (j + s) mod W)`` of ``b``, exactly the pixels
that shift ``s`` pairs, so the ``(ones, disagree, valid)`` counts are
identical.  Only one probe's ``n_shifts`` rotated planes exist at a
time; gallery templates stay unrotated.  Planes are read as ``uint64``
words, zero-padded to a multiple of 8 bytes (padding bits are zero on
both sides and change no count), and each block of gallery templates is
reduced straight to per-pair values.  :func:`masked_hamming`,
:func:`weighted_similarity` and :func:`match_pair` are one-pair
wrappers over the same kernel.

Everything here operates on the packed planes via XOR/AND plus popcount
and never touches individual pixels; :mod:`irisfuse.reference` holds
deliberately naive per-pixel implementations used to cross-check these
kernels bit for bit.  All functions are pure and thread-safe.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .templates import IrisTemplate

DEFAULT_ALPHA = 0.3


class EmptyJointMaskError(ValueError):
    """No jointly valid pixels at any candidate shift; the pair is unusable."""


@dataclass(frozen=True)
class ShiftPolicy:
    """Candidate horizontal rotations searched when aligning two templates."""

    max_shift: int = 16
    step: int = 1

    def __post_init__(self) -> None:
        if self.max_shift < 0:
            raise ValueError(f"max_shift must be >= 0, got {self.max_shift}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.max_shift % self.step != 0:
            raise ValueError(
                f"max_shift ({self.max_shift}) must be a multiple of step ({self.step})"
            )

    def shifts(self) -> tuple[int, ...]:
        """Candidate shifts ordered by ``(|s|, s)``: 0, -step, +step, ..."""
        out = [0]
        for magnitude in range(self.step, self.max_shift + 1, self.step):
            out.append(-magnitude)
            out.append(magnitude)
        return tuple(out)


DEFAULT_POLICY = ShiftPolicy()


@dataclass(frozen=True)
class IrisMatchResult:
    """Outcome of one template comparison.

    ``best_shift`` and ``joint_valid`` refer to the Hamming-minimising
    alignment; ``ws_score`` is maximised under its own alignment.
    """

    hamming: float
    ws_score: float
    best_shift: int
    joint_valid: int
    mask_rate_a: float
    mask_rate_b: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hamming <= 1.0:
            raise ValueError(f"hamming must lie in [0, 1], got {self.hamming}")
        if self.joint_valid < 1:
            raise ValueError("joint_valid must be >= 1")
        for name in ("mask_rate_a", "mask_rate_b"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def _check_same_dims(a: IrisTemplate, b: IrisTemplate) -> None:
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"template dimension mismatch: {a.height}x{a.width} vs {b.height}x{b.width}"
        )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly inside (0, 2), got {alpha}")


def _popcount(packed: np.ndarray) -> int:
    return int(np.bitwise_count(packed).sum(dtype=np.int64))


# Byte size each kernel temporary is kept near: a gallery block holds as
# many templates as fit one (n_shifts, block, words) uint64 array in it.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class PairScores:
    """Per-pair outputs of :func:`match_pairs`, one array entry per pair.

    ``hamming``, ``best_shift`` and ``joint_valid`` refer to the
    Hamming-minimising shift, ``ws`` and ``ws_shift`` to the
    WS-maximising one.  Where ``usable`` is False (no jointly valid pixel
    at any shift) the other entries are placeholders: an infinite
    Hamming distance, a WS of minus infinity, zero valid pixels.
    """

    usable: np.ndarray
    hamming: np.ndarray
    best_shift: np.ndarray
    joint_valid: np.ndarray
    ws: np.ndarray
    ws_shift: np.ndarray


def _as_words(planes: np.ndarray) -> np.ndarray:
    """``(k, nbytes)`` packed planes as ``(k, words)`` uint64, zero-padded."""
    k, nbytes = planes.shape
    padded = np.zeros((k, -(-nbytes // 8) * 8), dtype=np.uint8)
    padded[:, :nbytes] = planes
    return padded.view(np.uint64)


def _gallery_planes(
    templates: Sequence[IrisTemplate], unmasked: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Unrotated ``(bits & mask, mask)`` word planes, one row per template."""
    bits = _as_words(np.stack([t.packed_bits for t in templates]))
    if unmasked:
        full = np.packbits(np.ones((1, templates[0].n_pixels), dtype=np.uint8), axis=1)
        mask = np.broadcast_to(_as_words(full), bits.shape)
    else:
        mask = _as_words(np.stack([t.packed_mask for t in templates]))
    return bits & mask, mask


def _probe_planes(
    template: IrisTemplate, shifts: tuple[int, ...], unmasked: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(bits & mask, mask)`` word planes of the probe rotated by ``-s``.

    Row ``k`` holds the template rolled so that column ``j`` lands on
    column ``(j + s_k) mod W``; both arrays are ``(n_shifts, words)``.
    """
    h, w = template.height, template.width
    planes = np.stack([template.unpack_bits(), template.unpack_mask()])
    if unmasked:
        planes[1] = 1
    doubled = np.concatenate([planes, planes], axis=2)
    rolled = np.empty((2, len(shifts), h, w), dtype=np.uint8)
    for k, s in enumerate(shifts):
        start = -s % w
        rolled[:, k] = doubled[:, :, start:start + w]
    packed = np.packbits(rolled.reshape(2, len(shifts), h * w), axis=2)
    bits, mask = _as_words(packed[0]), _as_words(packed[1])
    return bits & mask, mask


def _score_block(probe, gallery, shifts: np.ndarray, alpha: float, count_dtype):
    """One probe's rotations against a gallery block, reduced per pair.

    The ``(n_shifts, block)`` counts live only inside this call.
    """
    probe_bits, probe_mask = probe[0][:, None], probe[1][:, None]
    gallery_bits, gallery_mask = gallery[0][None], gallery[1][None]
    joint = probe_mask & gallery_mask
    ones = probe_bits & gallery_bits
    disagree = probe_bits ^ gallery_bits
    disagree &= joint
    valid, ones, disagree = (
        np.bitwise_count(x).sum(axis=-1, dtype=count_dtype).astype(np.int64)
        for x in (joint, ones, disagree)
    )
    usable = valid > 0
    safe = np.maximum(valid, 1)
    hd = np.where(usable, disagree / safe, np.inf)
    zeros = valid - ones - disagree
    ws = np.where(usable, ((2.0 - alpha) * ones + alpha * zeros) / safe, -np.inf)
    # shifts are (|s|, s)-ordered: the first extremum wins ties
    k_hd = hd.argmin(axis=0)
    k_ws = ws.argmax(axis=0)
    cols = np.arange(valid.shape[1])
    return (
        usable.any(axis=0),
        hd[k_hd, cols],
        shifts[k_hd],
        valid[k_hd, cols],
        ws[k_ws, cols],
        shifts[k_ws],
    )


def match_pairs(
    templates: Sequence[IrisTemplate],
    ia,
    ib,
    alpha: float = DEFAULT_ALPHA,
    policy: ShiftPolicy = DEFAULT_POLICY,
    unmasked: bool = False,
) -> PairScores:
    """Score the pairs ``(templates[ia[k]], templates[ib[k]])`` in one pass.

    Pairs are processed probe-major: each distinct ``ia`` template is
    rotated once and compared against its gallery templates in blocks
    of about :data:`BLOCK_BYTES` per temporary.  ``unmasked=True``
    scores with all-valid masks, so WS is the all-pixel form and every
    pair is usable.  Alpha and template dimensions are checked once, up
    front, for every template in ``templates``.
    """
    _check_alpha(alpha)
    for template in templates[1:]:
        _check_same_dims(templates[0], template)
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    if ia.ndim != 1 or ia.shape != ib.shape:
        raise ValueError("ia and ib must be 1-D index arrays of equal length")
    n = ia.size
    columns = (
        np.zeros(n, dtype=bool),
        np.empty(n),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.empty(n),
        np.empty(n, dtype=np.int64),
    )
    if n == 0:
        return PairScores(*columns)
    order = np.argsort(ia, kind="stable")  # probe-major pair positions
    probes = ia[order]
    shifts = policy.shifts()
    shift_array = np.array(shifts, dtype=np.int64)
    gallery_bits, gallery_mask = _gallery_planes(templates, unmasked)
    words = gallery_bits.shape[1]
    block = max(1, BLOCK_BYTES // (len(shifts) * words * 8))
    count_dtype = np.uint16 if words * 64 <= np.iinfo(np.uint16).max else np.int64
    cuts = [0, *(np.flatnonzero(np.diff(probes)) + 1).tolist(), n]
    for r0, r1 in zip(cuts[:-1], cuts[1:]):  # one run per probe
        probe = _probe_planes(templates[probes[r0]], shifts, unmasked)
        for b0 in range(r0, r1, block):
            rows = order[b0:min(b0 + block, r1)]
            g = ib[rows]
            values = _score_block(
                probe, (gallery_bits[g], gallery_mask[g]), shift_array,
                alpha, count_dtype,
            )
            for column, value in zip(columns, values):
                column[rows] = value
    return PairScores(*columns)


def _match_one(
    a: IrisTemplate,
    b: IrisTemplate,
    alpha: float,
    policy: ShiftPolicy,
    unmasked: bool = False,
) -> PairScores:
    scores = match_pairs((a, b), [0], [1], alpha, policy, unmasked)
    if not scores.usable[0]:
        raise EmptyJointMaskError("no jointly valid pixels at any candidate shift")
    return scores


def masked_hamming(
    a: IrisTemplate, b: IrisTemplate, policy: ShiftPolicy = DEFAULT_POLICY
) -> tuple[float, int, int]:
    """Minimum normalised masked Hamming distance over candidate shifts.

    Returns ``(distance, best_shift, joint_valid)`` where ``joint_valid``
    counts the jointly valid pixels at the minimising shift.  Shifts with
    an empty joint mask are skipped; raises :class:`EmptyJointMaskError`
    when every shift is empty.
    """
    scores = _match_one(a, b, DEFAULT_ALPHA, policy)
    return (
        float(scores.hamming[0]),
        int(scores.best_shift[0]),
        int(scores.joint_valid[0]),
    )


def weighted_similarity(
    a: IrisTemplate,
    b: IrisTemplate,
    alpha: float = DEFAULT_ALPHA,
    policy: ShiftPolicy = DEFAULT_POLICY,
    unmasked: bool = False,
) -> tuple[float, int]:
    """Maximum weighted-similarity score over candidate shifts.

    With ``unmasked=True`` the masks are ignored and the agreement sum is
    divided by the full pixel count instead of the jointly valid count
    (the literal all-pixel form, kept for comparison).
    """
    scores = _match_one(a, b, alpha, policy, unmasked)
    return float(scores.ws[0]), int(scores.ws_shift[0])


def white_match_rate(a: IrisTemplate, b: IrisTemplate) -> float:
    """Co-occurrence rate of white (1) pixels at shift 0.

    ``2 * M_W / (P_W(a) + P_W(b))`` with all counts restricted to the
    jointly valid pixels; raises when neither template has a white pixel
    there.
    """
    _check_same_dims(a, b)
    joint = a.packed_mask & b.packed_mask
    both_white = _popcount(a.packed_bits & b.packed_bits & joint)
    white_a = _popcount(a.packed_bits & joint)
    white_b = _popcount(b.packed_bits & joint)
    if white_a + white_b == 0:
        raise ValueError("white match rate undefined: no jointly valid white pixels")
    return 2.0 * both_white / (white_a + white_b)


def black_match_rate(a: IrisTemplate, b: IrisTemplate) -> float:
    """Co-occurrence rate of black (0) pixels at shift 0; mirror of white."""
    _check_same_dims(a, b)
    joint = a.packed_mask & b.packed_mask
    both_black = _popcount(~(a.packed_bits | b.packed_bits) & joint)
    black_a = _popcount(~a.packed_bits & joint)
    black_b = _popcount(~b.packed_bits & joint)
    if black_a + black_b == 0:
        raise ValueError("black match rate undefined: no jointly valid black pixels")
    return 2.0 * both_black / (black_a + black_b)


def mask_rate(a: IrisTemplate, b: IrisTemplate) -> tuple[float, float, float]:
    """Valid-pixel fractions: (joint at shift 0, template a, template b)."""
    _check_same_dims(a, b)
    joint = _popcount(a.packed_mask & b.packed_mask) / a.n_pixels
    return joint, a.valid_fraction(), b.valid_fraction()


def match_pair(
    a: IrisTemplate,
    b: IrisTemplate,
    alpha: float = DEFAULT_ALPHA,
    policy: ShiftPolicy = DEFAULT_POLICY,
) -> IrisMatchResult:
    """Compare two templates: masked Hamming, weighted similarity, mask rates."""
    scores = _match_one(a, b, alpha, policy)
    return IrisMatchResult(
        hamming=float(scores.hamming[0]),
        ws_score=float(scores.ws[0]),
        best_shift=int(scores.best_shift[0]),
        joint_valid=int(scores.joint_valid[0]),
        mask_rate_a=a.valid_fraction(),
        mask_rate_b=b.valid_fraction(),
    )
