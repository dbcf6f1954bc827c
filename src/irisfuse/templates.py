"""Core domain types: binary iris templates, periocular records, fusion cues.

Templates are stored bit-packed: one contiguous MSB-first bitstream per
plane in row-major pixel order, padded with zero bits only at the very
end.  All types are immutable after construction and safe to share
across any number of reader threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_HEIGHT = 64
DEFAULT_WIDTH = 512
DEFAULT_PERIOC_DIM = 512


def plane_bytes(height: int, width: int) -> int:
    """Bytes per packed bit plane of an ``height x width`` template."""
    return (height * width + 7) // 8


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_binary_plane(values, n_pixels: int, name: str) -> np.ndarray:
    arr = np.asarray(values)
    flat = arr.reshape(-1)
    if flat.size != n_pixels:
        raise ValueError(
            f"{name}: expected {n_pixels} entries, got {flat.size}"
        )
    if not np.logical_or(flat == 0, flat == 1).all():
        raise ValueError(f"{name}: entries must be 0 or 1")
    return flat.astype(np.uint8)


@dataclass(frozen=True)
class IrisTemplate:
    """Binary iris feature map plus a same-shape validity mask.

    ``packed_bits`` and ``packed_mask`` each hold ``plane_bytes(H, W)``
    bytes; mask bit 1 marks a valid (reliable) iris pixel.  Pixel
    ``(i, j)`` lives at bit index ``i * width + j`` of the stream.
    """

    height: int
    width: int
    packed_bits: np.ndarray
    packed_mask: np.ndarray

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValueError(
                f"template dimensions must be >= 1, got {self.height}x{self.width}"
            )
        nbytes = plane_bytes(self.height, self.width)
        tail = self.height * self.width % 8
        pad_mask = np.uint8((1 << (8 - tail)) - 1) if tail else np.uint8(0)
        for name in ("packed_bits", "packed_mask"):
            plane = np.ascontiguousarray(getattr(self, name), dtype=np.uint8)
            if plane.shape != (nbytes,):
                raise ValueError(
                    f"{name}: expected {nbytes} packed bytes for "
                    f"{self.height}x{self.width}, got shape {plane.shape}"
                )
            if pad_mask and (plane[-1] & pad_mask):
                raise ValueError(f"{name}: nonzero padding bits in final byte")
            object.__setattr__(self, name, _freeze(plane))

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    def unpack_bits(self) -> np.ndarray:
        """Feature bits as an ``(H, W)`` uint8 array."""
        return np.unpackbits(self.packed_bits, count=self.n_pixels).reshape(
            self.height, self.width
        )

    def unpack_mask(self) -> np.ndarray:
        """Validity mask as an ``(H, W)`` uint8 array."""
        return np.unpackbits(self.packed_mask, count=self.n_pixels).reshape(
            self.height, self.width
        )

    def valid_count(self) -> int:
        """Number of valid pixels (set mask bits)."""
        return int(np.bitwise_count(self.packed_mask).sum())

    def valid_fraction(self) -> float:
        """Fraction of valid pixels: the template's mask rate."""
        return self.valid_count() / self.n_pixels


def pack_template(bits, mask, height: int, width: int) -> IrisTemplate:
    """Validate and bit-pack a (bits, mask) pair into an :class:`IrisTemplate`.

    ``bits`` and ``mask`` may be any array-likes of 0/1 values with
    ``height * width`` entries, flat or 2-D row-major.
    """
    n = height * width
    bits_flat = _as_binary_plane(bits, n, "bits")
    mask_flat = _as_binary_plane(mask, n, "mask")
    return IrisTemplate(
        height=height,
        width=width,
        packed_bits=np.packbits(bits_flat),
        packed_mask=np.packbits(mask_flat),
    )


@dataclass(frozen=True)
class PeriocularRecord:
    """Periocular feature vector plus eye / eyebrow area fractions.

    Areas are fractions of the periocular image covered by the detected
    eye and eyebrow regions; they must be non-negative and sum to at
    most 1.
    """

    features: np.ndarray
    eye_area: float
    brow_area: float

    def __post_init__(self) -> None:
        vec = np.ascontiguousarray(self.features, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("features must be a non-empty 1-D vector")
        if not np.isfinite(vec).all():
            raise ValueError("features contain a non-finite entry")
        object.__setattr__(self, "features", _freeze(vec))
        for name in ("eye_area", "brow_area"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        if self.eye_area + self.brow_area > 1.0:
            raise ValueError(
                f"eye_area + brow_area must not exceed 1, got "
                f"{self.eye_area} + {self.brow_area}"
            )

    @property
    def dim(self) -> int:
        return self.features.size


CUE_NAMES = (
    "iris_score",
    "perioc_dist",
    "mask_rate_a",
    "mask_rate_b",
    "eye_sum",
    "eye_diff",
    "brow_sum",
    "brow_diff",
)


# Closed range of each bounded cue; the other cues need only be finite.
CUE_RANGES = {
    "mask_rate_a": (0.0, 1.0),
    "mask_rate_b": (0.0, 1.0),
    "eye_sum": (0.0, 2.0),
    "brow_sum": (0.0, 2.0),
    "eye_diff": (-1.0, 1.0),
    "brow_diff": (-1.0, 1.0),
}


def check_cues(cues: np.ndarray) -> None:
    """Reject an ``(n, 8)`` cue matrix holding a non-finite or out-of-range cue.

    The error names the cue and its first bad value; finiteness is
    checked for every cue before any range.
    """
    finite = np.isfinite(cues)
    if not finite.all():
        k = int(np.flatnonzero(~finite.all(axis=0))[0])
        value = cues[~finite[:, k], k][0]
        raise ValueError(f"{CUE_NAMES[k]} must be finite, got {value}")
    for name, (lo, hi) in CUE_RANGES.items():
        column = cues[:, CUE_NAMES.index(name)]
        bad = column[(column < lo) | (column > hi)]
        if bad.size:
            raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {bad[0]}")
