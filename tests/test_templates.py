import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisfuse.templates import (
    IrisTemplate,
    PeriocularRecord,
    check_cues,
    pack_template,
    plane_bytes,
)


def test_identity_construction_all_ones():
    t = pack_template([1, 1, 1, 1], [1, 1, 1, 1], 2, 2)
    assert int(np.bitwise_count(t.packed_bits).sum()) == 4
    assert t.valid_count() == 4


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="expected 4 entries"):
        pack_template([1, 0, 1], [1, 1, 1], 2, 2)


def test_non_binary_value_rejected():
    with pytest.raises(ValueError, match="must be 0 or 1"):
        pack_template([0, 2, 0, 1], [1, 1, 1, 1], 2, 2)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        pack_template([0, 1, 0, 1], [1, 0.5, 1, 1], 2, 2)


def test_round_trip_100_seeded_random_templates():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        bits = (rng.random((64, 512)) < 0.5).astype(np.uint8)
        mask = (rng.random((64, 512)) < 0.7).astype(np.uint8)
        t = pack_template(bits, mask, 64, 512)
        out_bits, out_mask = t.unpack_bits(), t.unpack_mask()
        assert (out_bits == bits).all()
        assert (out_mask == mask).all()


@given(
    height=st.integers(1, 9),
    width=st.integers(1, 17),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_identity_property(height, width, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(height, width), dtype=np.uint8)
    mask = rng.integers(0, 2, size=(height, width), dtype=np.uint8)
    t = pack_template(bits, mask, height, width)
    assert t.packed_bits.shape == (plane_bytes(height, width),)
    out_bits, out_mask = t.unpack_bits(), t.unpack_mask()
    assert (out_bits == bits).all()
    assert (out_mask == mask).all()


def test_pixel_addressing_matches_row_major_order():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(5, 13), dtype=np.uint8)
    mask = rng.integers(0, 2, size=(5, 13), dtype=np.uint8)
    t = pack_template(bits, mask, 5, 13)
    # pixel (i, j) is bit i * 13 + j of one MSB-first stream per plane
    for plane, values in ((t.packed_bits, bits), (t.packed_mask, mask)):
        stream = np.unpackbits(plane)
        for i in range(5):
            for j in range(13):
                assert stream[i * 13 + j] == values[i, j]
        assert not stream[5 * 13:].any()


def test_packed_storage_size():
    assert plane_bytes(64, 512) == 64 * 512 // 8
    assert plane_bytes(3, 3) == 2  # 9 bits round up
    t = pack_template(np.ones((3, 3)), np.ones((3, 3)), 3, 3)
    assert t.packed_bits.nbytes == 2


def test_templates_are_immutable():
    t = pack_template([1, 0, 1, 0], [1, 1, 1, 1], 2, 2)
    with pytest.raises(ValueError):
        t.packed_bits[0] = 0


def test_nonzero_padding_rejected():
    # 2x2 -> 4 used bits; low nibble of the single byte is padding
    with pytest.raises(ValueError, match="padding"):
        IrisTemplate(
            height=2,
            width=2,
            packed_bits=np.array([0b1111_0001], dtype=np.uint8),
            packed_mask=np.array([0b1111_0000], dtype=np.uint8),
        )


def test_degenerate_dimensions_rejected():
    with pytest.raises(ValueError, match="dimensions"):
        pack_template([], [], 0, 4)


class TestPeriocularRecord:
    def test_valid_record(self):
        r = PeriocularRecord((1.0, 0.0, 0.0, 0.0), eye_area=0.1, brow_area=0.05)
        assert r.dim == 4
        assert r.eye_area == 0.1

    def test_area_sum_error(self):
        with pytest.raises(ValueError, match="must not exceed 1"):
            PeriocularRecord((1.0, 0.0), eye_area=0.7, brow_area=0.5)

    def test_nan_feature_error(self):
        with pytest.raises(ValueError, match="non-finite"):
            PeriocularRecord((1.0, float("nan")), eye_area=0.1, brow_area=0.1)

    def test_area_out_of_range(self):
        with pytest.raises(ValueError, match="eye_area"):
            PeriocularRecord((1.0,), eye_area=1.5, brow_area=0.0)

    def test_features_immutable(self):
        r = PeriocularRecord((1.0, 2.0), eye_area=0.2, brow_area=0.1)
        with pytest.raises(ValueError):
            r.features[0] = 9.0


class TestCueVector:
    """The per-pair cue rows that :func:`check_cues` accepts."""

    def test_rejects_out_of_range_mask_rate(self):
        with pytest.raises(ValueError, match="mask_rate_a"):
            check_cues(np.array([[0.9, 0.2, 1.5, 0.7, 0.4, 0.0, 0.2, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            check_cues(np.array([[float("inf"), 0.2, 0.5, 0.7, 0.4, 0.0, 0.2, 0.0]]))
