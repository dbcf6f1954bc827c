"""Periocular distances, cue assembly and score-level fusion.

Combines the iris matcher output, the periocular feature distance (between
rows of a feature table's ``(n, D)`` matrix, :func:`perioc_distances`) and
the segmentation-derived quality cues into the eight-element vector fed
to the fusion network, and provides the fixed weighted-sum baseline.
The network scores a whole cue matrix (:func:`dynamic_fuse`) or a stream
of ``(cues, payload)`` blocks (:func:`dynamic_fuse_blocks`) over the same
fixed windows of :data:`BLOCK_ROWS` rows, so both give the same bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .bitmatch import _check_alpha
from .mlp import MlpParams, mlp_logits, softmax
from .templates import CUE_NAMES, check_cues

BLOCK_ROWS = 1024  # cue rows per forward pass of the fusion network
# The match-table columns that cue_matrix reads.
CUE_COLUMNS = ("iris_valid", "ws", "perioc_dist", *CUE_NAMES[2:])
# Feature differences per block of perioc_distances.  1 MiB blocks left the
# peak RSS of later stages in the same process about 3 MB higher at 64x512.
PERIOC_BLOCK_BYTES = 1 << 16


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


def perioc_distances(features, a, b) -> np.ndarray:
    """Euclidean distances between rows ``a[k]`` and ``b[k]`` of an ``(n, D)``
    feature matrix.

    The rows are differenced over blocks of pairs of about
    :data:`PERIOC_BLOCK_BYTES`, so the temporaries stay small however many
    pairs there are.  ``np.vecdot`` sums each row as ``np.dot`` sums one
    pair, so each distance is bit-identical to ``sqrt(dot(d, d))`` of that
    pair alone.
    """
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    out = np.empty(a.size)
    rows = max(1, PERIOC_BLOCK_BYTES // features[0].nbytes)
    for start in range(0, a.size, rows):
        block = slice(start, start + rows)
        diff = features[a[block]] - features[b[block]]
        out[block] = np.sqrt(np.vecdot(diff, diff))
    return out


def normalized_distance(distance, norm: NormalizationParams):
    """Min-max normalised distance(s), clamped to [0, 1]."""
    span = norm.perioc_max - norm.perioc_min
    return np.clip((np.asarray(distance) - norm.perioc_min) / span, 0.0, 1.0)


def cue_matrix(matches, norm: NormalizationParams) -> np.ndarray:
    """The ``(n, 8)`` fusion inputs of a match table's usable rows.

    ``matches`` maps match-CSV column names (at least :data:`CUE_COLUMNS`)
    to arrays, of a whole table or of one block of its rows.  All rows are
    checked at once with :func:`~irisfuse.templates.check_cues`, so a
    bad cue raises a ``ValueError`` naming it.
    """
    use = matches["iris_valid"]
    cues = np.column_stack([
        matches["ws"][use],
        normalized_distance(matches["perioc_dist"][use], norm),
        *(matches[name][use] for name in CUE_NAMES[2:]),
    ])
    check_cues(cues)
    return cues


def static_fuse(iris_score: float, perioc_score: float, weight: float) -> float:
    """Fixed weighted sum of two comparably scaled similarity scores."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    return weight * iris_score + (1.0 - weight) * perioc_score


def static_inputs(ws_score, alpha: float, norm_dist):
    """Rescale matcher outputs onto common higher-is-better [0, 1] scales.

    The weighted-similarity score is divided by its maximum
    ``max(2 - alpha, alpha)`` (all 1-1 agreements, or all 0-0 agreements
    when ``alpha > 1``); the normalised periocular distance is flipped.
    ``alpha`` must lie inside (0, 2), as for the matcher.
    """
    _check_alpha(alpha)
    return ws_score / max(2.0 - alpha, alpha), 1.0 - norm_dist


def dynamic_fuse(params: MlpParams, cues) -> np.ndarray:
    """Consolidated match scores: the network's genuine-class probability.

    ``cues`` is an ``(n, 8)`` matrix; the forward pass runs
    :data:`BLOCK_ROWS` rows at a time, so its activations stay small
    however many rows are scored.
    """
    ((scores, _),) = dynamic_fuse_blocks(params, [(cues, None)])
    return scores


def dynamic_fuse_blocks(params: MlpParams, blocks):
    """:func:`dynamic_fuse` of a stream of ``(cues, payload)`` blocks, ``cues``
    an ``(n_k, 8)`` matrix: yields each block's ``(scores, payload)``, in order.

    The network runs over windows of :data:`BLOCK_ROWS` consecutive rows of
    all blocks taken together, whatever the block sizes, so every score is
    bit-identical to :func:`dynamic_fuse` of the rows stacked at once (a
    window's matrix product sums in an order set by its row count; a 1-row
    window is a matrix-vector product).  A block's scores are yielded once
    the window holding its last row has run, so the rows of at most one
    unfinished window wait, and the blocks that hold them.
    """
    waiting = deque()  # (row count, payload) of the blocks not yet yielded
    ready = np.empty(0)  # the scores of their rows that have been computed
    pending = np.empty((0, len(CUE_NAMES)))  # rows of the unfinished window

    def run(rows) -> np.ndarray:
        return softmax(mlp_logits(params, rows))[:, 0]

    for cues, payload in blocks:
        x = np.asarray(cues, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"cues must be an (n, 8) matrix, got shape {x.shape}")
        waiting.append((len(x), payload))
        if len(pending):
            x = np.concatenate([pending, x])
        full = len(x) - len(x) % BLOCK_ROWS
        ready = np.concatenate(
            [ready, *(run(x[start : start + BLOCK_ROWS]) for start in range(0, full, BLOCK_ROWS))])
        pending = x[full:]
        while waiting and waiting[0][0] <= len(ready):
            size, payload = waiting.popleft()
            yield ready[:size], payload
            ready = ready[size:]
    if len(pending):
        ready = np.concatenate([ready, run(pending)])
    for size, payload in waiting:
        yield ready[:size], payload
        ready = ready[size:]
