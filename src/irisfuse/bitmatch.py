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

One batched count kernel does all shift-searched scoring, always under
the masks: all-pixel scores are those of ``IrisTemplate.all_valid`` copies.
:func:`match_pairs` takes a template list and two index arrays and
scores every pair ``(templates[ia[k]], templates[ib[k]])``.  It rotates
one template of each pair, the probe, and leaves the other, the gallery
template, unrotated: comparing ``a`` rotated by ``-s`` with an
unrotated ``b`` pairs pixel ``(i, j)`` of ``a`` with pixel
``(i, (j + s) mod W)`` of ``b``, exactly the pixels that shift ``s``
pairs, so the counts are identical.  The probe is the template with
fewer nonzero 64-bit mask words, the ``ia`` one on a tie; a pair whose
probe is its ``ib`` template is counted as ``(b, a)``, whose counts at
``-s`` are those of ``(a, b)`` at ``s``.  Its count rows are put back
in ``(|s|, s)`` order before a shift is chosen, so ties resolve as for
the pair as given.

Each count is one AND and one popcount.  With ``P = bits & mask`` and
``Z = mask & ~bits``, a pair's jointly valid pixels number
``pop(mask & mask')``, its 1-1 agreements ``pop(P & P')`` and its 0-0
agreements ``pop(Z & Z')``; every other jointly valid pixel disagrees.
So each probe shift carries three planes (``P``, mask, ``Z``), while
the gallery stays unrotated with two planes per template (``P`` and
mask) and its ``Z`` is formed per block of gallery templates.  Planes
are read as ``uint64`` words, zero-padded to a multiple of 8 bytes
(padding bits are zero on both sides and change no count).

A probe is counted over its live words only: the words where some
rotation of its mask has a valid pixel.  ``P`` and ``Z`` lie inside the
mask, so every other word adds nothing to any count at any shift.
Occluded templates leave many words dead, an all-valid mask none.
Rotating the sparser template of each pair keeps a dense probe from
paying for words its degraded partner cannot use.  A probe run cuts
its planes and each gallery block to its ``K`` live words, so a block
of the same scratch holds ``words / K`` times as many gallery
templates.  Each block AND runs on ``uint8`` views of the words (the
same bits; numpy's ``uint8`` loop is the faster one) and each popcount
on the ``uint64`` words.

Probe runs are split round-robin across CPU threads when the call has
enough work.  Each worker holds one probe's ``3 * n_shifts`` rotated
planes at a time, one word plane of ``n_shifts * block * words`` words
with its popcounts, and the counts of its current probe run.  These
scratch buffers are allocated once per call.  Each worker's word plane
has the whole byte budget, since two threads whose blocks are small
slow each other down; only its buffer of unpacked rotations shares the
budget with the other workers.  A probe's rotations are copied from
sliding windows over its rows, extended by ``max_shift`` columns on
each side, in two strided copies per rotation chunk.  A block only
writes its counts into the run's buffer; the scores and the
``(|s|, s)`` first-extremum shift choice then run once per probe run,
writing the run's slice of probe-major outputs, which are scattered to
the pairs' rows once per call.
:func:`match_pair` is the one-pair form: both scores, both shifts and
the mask rates of one comparison.

Everything here operates on the packed planes via XOR/AND plus popcount
and never touches individual pixels; :mod:`irisfuse.reference` holds
deliberately naive per-pixel implementations used to cross-check these
kernels bit for bit.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import os
import threading
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
    alignment, ``ws_score`` and ``ws_shift`` to the WS-maximising one.
    """

    hamming: float
    ws_score: float
    best_shift: int
    joint_valid: int
    mask_rate_a: float
    mask_rate_b: float
    ws_shift: int

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


# Scratch byte budget of one match_pairs worker: its word plane holds
# n_shifts * block * words uint64 words in it, and a gallery block of a
# probe with K live words takes block * words // K templates.  The probe
# rotations are unpacked as many shifts at a time as fit in an even
# share of it between the workers.
BLOCK_BYTES = 1 << 20

# Kernel work (pairs x shifts x words x 8 bytes) per worker thread: a
# call with less work per CPU uses fewer threads, a small one runs inline.
WORKER_BYTES = 64 << 20


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _gallery_planes(templates: Sequence[IrisTemplate]) -> tuple[np.ndarray, np.ndarray]:
    """Unrotated ``(bits & mask, mask)`` word planes, one row per template."""
    bits = _as_words(np.stack([t.packed_bits for t in templates]))
    mask = _as_words(np.stack([t.packed_mask for t in templates]))
    return bits & mask, mask


def _worker_scratch(
    h: int, w: int, policy: ShiftPolicy, words: int, block: int, run: int,
    count_dtype, budget: int,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """One worker's probe and block buffers, reused for every probe.

    The probe buffers are the ``(2, H, W + 2 * max_shift)`` extended rows
    of the unpacked bits and mask (each row's last ``max_shift`` columns,
    the row, then its first ``max_shift`` columns), two views of their
    windows, a rotation buffer of as many shifts as fit ``budget``, each
    rotation zero-padded to ``64 * words`` pixels, and
    ``3 * n_shifts * words`` words for the packed planes: the rotated bits
    and mask over every word, then the ``(3, n_shifts, K)`` planes of the
    ``K`` live words.  Window ``t`` of a row is the row rotated by
    ``max_shift - t``, so in ``(|s|, s)`` order the even rotations are
    every ``step``-th window down from ``max_shift`` and the odd ones
    every ``step``-th up from ``max_shift + step``.  The block buffers
    hold one ``(n_shifts, m, K)`` word plane of ``m * K <= block * words``,
    its popcounts and the ``(3, n_shifts, run)`` counts of a probe run.
    """
    m, step = policy.max_shift, policy.step
    n_shifts = len(policy.shifts())
    chunk = max(1, min(n_shifts, budget // (2 * 64 * words)))
    extended = np.empty((2, h, w + 2 * m), dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(extended, w, axis=2)
    windows = windows.transpose(0, 2, 1, 3)  # (2, window, H, W)
    size = n_shifts * block * words
    return (
        (
            extended,
            (windows[:, m::-step], windows[:, m + step::step]),
            np.zeros((2, chunk, 64 * words), dtype=np.uint8),  # padding stays zero
            np.empty(3 * n_shifts * words, dtype=np.uint64),
        ),
        (
            np.empty(size, dtype=np.uint64),
            np.empty(size, dtype=np.uint8),
            np.empty((3, n_shifts, run), dtype=count_dtype),
        ),
    )


def _probe_planes(
    template: IrisTemplate, shifts: tuple[int, ...], scratch
) -> tuple[np.ndarray, np.ndarray]:
    """The probe's live words and its ``(P, mask, Z)`` planes over them,
    rotated by ``-s``, where ``P = bits & mask`` and ``Z = mask & ~bits``.

    Row ``k`` of a plane holds the template rolled so that column ``j``
    lands on column ``(j + s_k) mod W``.  A word is live when some
    rotated mask has a valid pixel in it; every other word counts zero
    at every shift.  The rotations are copied from the windows of the
    extended rows a rotation chunk at a time, its even and its odd
    rotations in one strided copy each, then packed into the last two
    thirds of the worker's probe buffer and cut to the ``K`` live words
    in its first ``(3, n_shifts, K)`` elements.
    """
    extended, windows, rotation, buffer = scratch
    h, w = template.height, template.width
    m = (extended.shape[2] - w) // 2
    n = len(shifts)
    extended[0, :, m:m + w] = template.unpack_bits()
    extended[1, :, m:m + w] = template.unpack_mask()
    # the margins repeat the row, at most W columns per copy
    for stop in range(m, 0, -w):
        extended[:, :, max(0, stop - w):stop] = extended[:, :, max(w, stop):stop + w]
    for start in range(m + w, w + 2 * m, w):
        extended[:, :, start:start + w] = extended[:, :, start - w:min(start, 2 * m)]
    chunk = rotation.shape[1]
    rolled = rotation[:, :, :h * w].reshape(2, chunk, h, w)
    full = buffer[buffer.size // 3:].reshape(2, n, -1)
    for k0 in range(0, n, chunk):
        k1 = min(k0 + chunk, n)
        for first in (k0, k0 + 1):  # rotation k is windows[k % 2][:, k // 2]
            rows = len(range(first, k1, 2))
            rolled[:, first - k0:k1 - k0:2] = windows[first % 2][
                :, first // 2:first // 2 + rows
            ]
        full.view(np.uint8)[:, k0:k1] = np.packbits(rotation[:, :k1 - k0], axis=2)
    live = np.flatnonzero(np.bitwise_or.reduce(full[1], axis=0))
    planes = buffer[:3 * n * live.size].reshape(3, n, live.size)
    # each compact plane ends before the full planes still to be read
    for compact, plane in zip(planes, full):
        np.take(plane, live, axis=1, out=compact, mode="clip")
    planes[0] &= planes[1]
    np.bitwise_xor(planes[1], planes[0], out=planes[2])  # P lies inside the mask
    return live, planes


def _count_block(probe, gallery, counts, scratch) -> None:
    """One probe's rotations against a gallery block, as counts.

    ``probe`` holds the ``(P, mask, Z)`` planes of the probe's live
    words and ``gallery`` the block's ``(P, mask)`` planes cut to the
    same words.  Writes the ``(ones, valid, zeros)`` counts of every
    ``(shift, pair)`` into ``counts``, the block's
    ``(3, n_shifts, pairs)`` view of the run's counts:
    ``ones = pop(P & P')``, ``valid = pop(mask & mask')`` and
    ``zeros = pop(Z & Z')``, each plane formed in the worker's scratch
    and counted at once.
    """
    gallery_bits, gallery_mask = gallery
    size = probe[0].size * len(gallery_bits)
    shape = (probe.shape[1], len(gallery_bits), probe.shape[2])
    plane = scratch[0][:size].reshape(shape)
    popcounts = scratch[1][:size].reshape(shape)
    gallery_zeros = gallery_mask ^ gallery_bits
    for probe_plane, gallery_plane, out in zip(
        probe, (gallery_bits, gallery_mask, gallery_zeros), counts
    ):
        # the same bits ANDed as bytes: numpy's uint8 loop is the faster one
        np.bitwise_and(
            probe_plane.view(np.uint8)[:, None], gallery_plane.view(np.uint8)[None],
            out=plane.view(np.uint8),
        )
        np.bitwise_count(plane, out=popcounts).sum(axis=-1, dtype=out.dtype, out=out)


def _score_run(counts: np.ndarray, alpha: float, cols: np.ndarray, out) -> None:
    """Per-pair values of one probe run from its ``(3, n_shifts, pairs)``
    ``(ones, valid, zeros)`` counts, written into the ``out`` slices:
    Hamming distance, its shift index, joint valid count, WS and its
    shift index.  ``cols`` is ``arange(pairs)``.

    The counts are exact integers far below ``2**53``, so their float64
    differences and products are those of the integers."""
    hd_out, k_hd, valid_out, ws_out, k_ws = out
    ones, valid, zeros = counts.astype(np.float64)
    usable = valid > 0
    hd = np.full(valid.shape, np.inf)
    np.divide(valid - ones - zeros, valid, out=hd, where=usable)
    ws = np.full(valid.shape, -np.inf)
    np.divide((2.0 - alpha) * ones + alpha * zeros, valid, out=ws, where=usable)
    # shifts are (|s|, s)-ordered: the first extremum wins ties
    hd.argmin(axis=0, out=k_hd)
    ws.argmax(axis=0, out=k_ws)
    hd_out[:] = hd[k_hd, cols]
    valid_out[:] = counts[1][k_hd, cols]
    ws_out[:] = ws[k_ws, cols]


def _probe_runs(ia: np.ndarray, swapped: np.ndarray):
    """Probe-major pair positions and the runs ``(probe, start, stop,
    first swapped)`` over them, one run per probe with its swapped pairs
    last."""
    key = ia * 2
    key += swapped
    order = np.argsort(key, kind="stable")
    del key
    probes = ia[order]
    starts = np.flatnonzero(np.diff(probes, prepend=-1))
    stops = np.append(starts[1:], ia.size)
    flipped = np.add.reduceat(swapped[order], starts, dtype=np.intp)
    return order, list(zip(
        probes[starts].tolist(), starts.tolist(), stops.tolist(),
        (stops - flipped).tolist(),
    ))


def match_pairs(
    templates: Sequence[IrisTemplate],
    ia,
    ib,
    alpha: float = DEFAULT_ALPHA,
    policy: ShiftPolicy = DEFAULT_POLICY,
) -> PairScores:
    """Score the pairs ``(templates[ia[k]], templates[ib[k]])`` in one pass.

    Pairs are processed probe-major: the sparser template of each pair
    (fewer nonzero mask words; ``ia`` on a tie) is its probe, and each
    distinct probe is rotated once and compared against its gallery
    templates in blocks.  The probe runs are dealt round-robin to up to
    one worker thread per CPU, one per :data:`WORKER_BYTES` of work; the
    calling thread takes the first share.  Workers write disjoint slices
    of probe-major outputs, scattered to the pairs' rows once all are
    done, so the scores do not depend on their number.  Each worker's
    gallery blocks fill a word plane of :data:`BLOCK_BYTES`, and its
    unpacked probe rotations an even share of it.  Alpha, template
    dimensions and the indices (integers in ``[0, len(templates))``) are
    checked once, up front, for every template in ``templates``.
    """
    _check_alpha(alpha)
    for template in templates[1:]:
        _check_same_dims(templates[0], template)
    ia, ib = np.asarray(ia), np.asarray(ib)
    if ia.ndim != 1 or ia.shape != ib.shape:
        raise ValueError("ia and ib must be 1-D index arrays of equal length")
    n = ia.size
    if n:
        if ia.dtype.kind not in "iu" or ib.dtype.kind not in "iu":
            raise ValueError(
                f"ia and ib must hold integer indices, got {ia.dtype} and {ib.dtype}"
            )
        lo, hi = min(ia.min(), ib.min()), max(ia.max(), ib.max())
        if lo < 0 or hi >= len(templates):
            raise ValueError(
                f"pair indices must lie in [0, {len(templates)}), got {lo} to {hi}"
            )
    ia, ib = ia.astype(np.intp), ib.astype(np.intp)
    columns = (
        np.empty(n, dtype=bool),
        np.empty(n),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.empty(n),
        np.empty(n, dtype=np.int64),
    )
    if n == 0:
        return PairScores(*columns)
    shifts = policy.shifts()
    shift_array = np.array(shifts, dtype=np.intp)
    negated = np.array([shifts.index(-s) for s in shifts])  # shifts are symmetric
    gallery_bits, gallery_mask = _gallery_planes(templates)
    # ia becomes each pair's probe, the template with fewer nonzero mask
    # words (ties keep the pair's order): an XOR swap in place
    nonzero = np.count_nonzero(gallery_mask, axis=1)
    swapped = nonzero[ib] < nonzero[ia]
    for x, y in ((ia, ib), (ib, ia), (ia, ib)):
        np.bitwise_xor(x, y, out=x, where=swapped)
    order, runs = _probe_runs(ia, swapped)
    del ia, swapped
    # probe-major Hamming, shift index, joint valid, WS and shift index
    outputs = [np.empty(n), np.empty(n, np.intp), np.empty(n, np.int64),
               np.empty(n), np.empty(n, np.intp)]
    words = gallery_bits.shape[1]
    count_dtype = np.uint16 if words * 64 <= np.iinfo(np.uint16).max else np.int64
    longest = max(r1 - r0 for _, r0, r1, _ in runs)
    cols = np.arange(longest)
    plane_bytes = len(shifts) * words * 8
    n_workers = max(1, min(_cpu_count(), len(runs), n * plane_bytes // WORKER_BYTES))
    # a block holds no more templates than the longest probe run
    block = max(1, min(BLOCK_BYTES // plane_bytes, longest))
    h, w = templates[0].height, templates[0].width
    scratch = [
        _worker_scratch(
            h, w, policy, words, block, longest, count_dtype, BLOCK_BYTES // n_workers
        )
        for _ in range(n_workers)
    ]

    errors: list[BaseException] = []

    def work(share: int) -> None:
        probe_scratch, block_scratch = scratch[share]
        run_counts = block_scratch[2]
        try:
            for probe_index, r0, r1, flip in runs[share::n_workers]:
                if errors:  # another share failed: stop at the next probe
                    return
                live, probe = _probe_planes(templates[probe_index], shifts, probe_scratch)
                # a block takes as many templates as its live words leave
                # room for; a probe without one counts zero everywhere
                step = block * words // max(live.size, 1)
                for b0 in range(r0, r1, step):
                    b1 = min(b0 + step, r1)
                    g = ib[order[b0:b1]]
                    # the block's rows, cut to the live words
                    planes = [plane[g[:, None], live] for plane in (gallery_bits, gallery_mask)]
                    _count_block(
                        probe, planes, run_counts[:, :, b0 - r0:b1 - r0], block_scratch,
                    )
                counts = run_counts[:, :, :r1 - r0]
                if flip < r1:  # (b, a) at -s counts as (a, b) at s
                    counts[:, :, flip - r0:] = counts[:, negated, flip - r0:]
                _score_run(
                    counts, alpha, cols[:r1 - r0], [output[r0:r1] for output in outputs]
                )
        except BaseException as error:  # raised again on the calling thread
            errors.append(error)

    others = [
        threading.Thread(target=work, args=(share,)) for share in range(1, n_workers)
    ]
    for thread in others:
        thread.start()
    work(0)
    for thread in others:
        thread.join()
    if errors:
        raise errors[0]
    for k in (outputs[1], outputs[4]):  # shift indices to shifts, in place
        np.take(shift_array, k, out=k)
    for column, output in zip(columns[1:], outputs):
        column[order] = output
    np.isfinite(columns[1], out=columns[0])  # an unusable pair's Hamming is inf
    return PairScores(*columns)


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
    """Compare two templates: masked Hamming, weighted similarity, mask rates.

    One pair through :func:`match_pairs`.  Raises
    :class:`EmptyJointMaskError` when no candidate shift has a jointly
    valid pixel.  The all-pixel form, whose WS divides its agreement sum
    by the full pixel count, is ``match_pair(a.all_valid(), b.all_valid(),
    ...)``; its mask rates are those of the all-valid masks, 1.
    """
    scores = match_pairs((a, b), [0], [1], alpha, policy)
    if not scores.usable[0]:
        raise EmptyJointMaskError("no jointly valid pixels at any candidate shift")
    return IrisMatchResult(
        hamming=float(scores.hamming[0]),
        ws_score=float(scores.ws[0]),
        best_shift=int(scores.best_shift[0]),
        joint_valid=int(scores.joint_valid[0]),
        mask_rate_a=a.valid_fraction(),
        mask_rate_b=b.valid_fraction(),
        ws_shift=int(scores.ws_shift[0]),
    )
