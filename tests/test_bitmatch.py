import os
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisfuse import bitmatch, reference
from irisfuse.bitmatch import (
    EmptyJointMaskError,
    IrisMatchResult,
    ShiftPolicy,
    black_match_rate,
    mask_rate,
    match_pair,
    PairScores,
    match_pairs,
    white_match_rate,
)
from irisfuse.templates import pack_template


def full_mask_template(bits, rng=None):
    bits = np.asarray(bits, dtype=np.uint8)
    h, w = bits.shape
    return pack_template(bits, np.ones((h, w), np.uint8), h, w)


def all_valid(templates):
    """The templates' all-valid copies, whose scores are the all-pixel ones."""
    return [t.all_valid() for t in templates]


def random_pair(rng, h, w, density=0.8):
    a = reference._random_template(rng, h, w, density)
    b = reference._random_template(rng, h, w, density)
    return a, b


class TestShiftPolicy:
    def test_order_is_zero_then_negative_before_positive(self):
        assert ShiftPolicy(4, 2).shifts() == (0, -2, 2, -4, 4)

    def test_max_shift_must_be_multiple_of_step(self):
        with pytest.raises(ValueError, match="multiple"):
            ShiftPolicy(5, 2)

    def test_zero_policy(self):
        assert ShiftPolicy(0, 1).shifts() == (0,)


class TestMaskedHamming:
    def test_identical_templates_give_zero(self):
        rng = np.random.default_rng(0)
        bits = (rng.random((8, 32)) < 0.5).astype(np.uint8)
        t = full_mask_template(bits)
        result = match_pair(t, t, policy=ShiftPolicy(4, 1))
        assert (result.hamming, result.best_shift, result.joint_valid) == (0.0, 0, 8 * 32)

    def test_complement_gives_one(self):
        rng = np.random.default_rng(1)
        bits = (rng.random((8, 32)) < 0.5).astype(np.uint8)
        a = full_mask_template(bits)
        b = full_mask_template(1 - bits)
        result = match_pair(a, b, policy=ShiftPolicy(0, 1))
        assert (result.hamming, result.best_shift, result.joint_valid) == (1.0, 0, 8 * 32)

    def test_rotation_recovered_by_shift_search(self):
        rng = np.random.default_rng(2)
        bits = (rng.random((8, 32)) < 0.5).astype(np.uint8)
        a = full_mask_template(bits)
        b = full_mask_template(np.roll(bits, 2, axis=1))
        result = match_pair(a, b, policy=ShiftPolicy(4, 1))
        assert (result.hamming, result.best_shift, result.joint_valid) == (0.0, 2, 8 * 32)
        assert result.ws_shift == 2
        # and the naive route agrees on the whole search
        assert reference.naive_masked_hamming(a, b, ShiftPolicy(4, 1)) == (
            0.0,
            2,
            8 * 32,
        )

    def test_dimension_mismatch(self):
        a = full_mask_template(np.zeros((2, 4), np.uint8))
        b = full_mask_template(np.zeros((2, 8), np.uint8))
        with pytest.raises(ValueError, match="dimension mismatch"):
            match_pair(a, b)

    def test_empty_joint_mask_raises(self):
        bits = np.zeros((2, 4), np.uint8)
        top = np.zeros((2, 4), np.uint8)
        top[0] = 1
        bottom = 1 - top
        a = pack_template(bits, top, 2, 4)
        b = pack_template(bits, bottom, 2, 4)
        with pytest.raises(EmptyJointMaskError):
            match_pair(a, b, policy=ShiftPolicy(2, 1))

    def test_masked_region_is_ignored(self):
        # disagreements placed only under an invalid row cannot count
        bits_a = np.zeros((4, 8), np.uint8)
        bits_b = np.zeros((4, 8), np.uint8)
        bits_b[0] = 1
        mask = np.ones((4, 8), np.uint8)
        mask[0] = 0
        a = pack_template(bits_a, mask, 4, 8)
        b = pack_template(bits_b, mask, 4, 8)
        result = match_pair(a, b, policy=ShiftPolicy(0, 1))
        assert result.hamming == 0.0
        assert result.joint_valid == 24

    def test_shift_search_dominance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = random_pair(rng, 8, 32)
            try:
                wide = match_pair(a, b, policy=ShiftPolicy(8, 1)).hamming
                narrow = match_pair(a, b, policy=ShiftPolicy(0, 1)).hamming
            except EmptyJointMaskError:
                continue
            assert wide <= narrow

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_pair(rng, 6, 24)
            try:
                d_ab = match_pair(a, b, policy=ShiftPolicy(4, 1)).hamming
                d_ba = match_pair(b, a, policy=ShiftPolicy(4, 1)).hamming
            except EmptyJointMaskError:
                continue
            assert d_ab == d_ba


class TestWeightedSimilarity:
    def test_identical_all_ones_scores_two_minus_alpha(self):
        t = full_mask_template(np.ones((4, 8), np.uint8))
        result = match_pair(t, t, alpha=0.3)
        assert result.ws_score == pytest.approx(1.7, abs=1e-15)
        assert result.ws_shift == 0

    def test_identical_all_zeros_scores_alpha(self):
        t = full_mask_template(np.zeros((4, 8), np.uint8))
        assert match_pair(t, t, alpha=0.3).ws_score == pytest.approx(0.3, abs=1e-15)

    def test_hand_worked_four_pixel_case(self):
        # agreements: one 1-1 and two 0-0, one disagreement:
        # ((2 - 0.3)*1 + 0.3*2 + 0) / 4 = 0.575
        a = pack_template([1, 1, 0, 0], [1, 1, 1, 1], 2, 2)
        b = pack_template([1, 0, 0, 0], [1, 1, 1, 1], 2, 2)
        result = match_pair(a, b, alpha=0.3, policy=ShiftPolicy(0, 1))
        assert result.ws_score == pytest.approx(0.575, abs=1e-15)
        assert result.ws_shift == 0

    def test_alpha_one_reduces_to_one_minus_hamming(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = random_pair(rng, 8, 32)
            try:
                result = match_pair(a, b, alpha=1.0, policy=ShiftPolicy(4, 1))
            except EmptyJointMaskError:
                continue
            assert result.ws_score + result.hamming == pytest.approx(1.0, abs=1e-12)

    def test_alpha_out_of_range(self):
        t = full_mask_template(np.ones((2, 4), np.uint8))
        for bad in (0.0, 2.0, -0.3, 2.5):
            with pytest.raises(ValueError, match="alpha"):
                match_pair(t, t, alpha=bad)

    def test_identity_extremes_match_pixel_fractions(self):
        rng = np.random.default_rng(6)
        for alpha in (0.3, 0.8, 1.4):
            bits = (rng.random((8, 16)) < 0.4).astype(np.uint8)
            t = full_mask_template(bits)
            f_white = bits.mean()
            f_black = 1.0 - f_white
            assert match_pair(t, t, alpha=alpha).ws_score == pytest.approx(
                alpha * f_black + (2.0 - alpha) * f_white, abs=1e-12
            )

    def test_unmasked_mode_ignores_masks_and_divides_by_area(self):
        bits_a = np.array([[1, 1, 0, 0]], np.uint8)
        bits_b = np.array([[1, 0, 0, 0]], np.uint8)
        mask = np.array([[1, 0, 0, 1]], np.uint8)  # would hide the disagreements
        a = pack_template(bits_a, mask, 1, 4)
        b = pack_template(bits_b, mask, 1, 4)
        unmasked = match_pair(a.all_valid(), b.all_valid(), alpha=0.3, policy=ShiftPolicy(0, 1))
        assert unmasked.ws_score == pytest.approx(0.575, abs=1e-15)
        assert (unmasked.hamming, unmasked.joint_valid) == (0.25, 4)
        assert (unmasked.mask_rate_a, unmasked.mask_rate_b) == (1.0, 1.0)
        masked = match_pair(a, b, alpha=0.3, policy=ShiftPolicy(0, 1))
        assert masked.ws_score == pytest.approx((1.7 + 0.3) / 2, abs=1e-15)
        assert (masked.hamming, masked.joint_valid) == (0.0, 2)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = random_pair(rng, 6, 24)
            try:
                s_ab = match_pair(a, b, 0.3, ShiftPolicy(4, 1)).ws_score
                s_ba = match_pair(b, a, 0.3, ShiftPolicy(4, 1)).ws_score
            except EmptyJointMaskError:
                continue
            assert s_ab == s_ba


class TestPixelMatchRates:
    def test_identical_template_rate_one(self):
        rng = np.random.default_rng(8)
        bits = (rng.random((4, 8)) < 0.5).astype(np.uint8)
        bits[0, 0] = 1
        bits[0, 1] = 0
        t = full_mask_template(bits)
        assert white_match_rate(t, t) == 1.0
        assert black_match_rate(t, t) == 1.0

    def test_hand_worked_white_rate(self):
        # a has 4 whites, b has 6 whites, 3 co-located: 2*3/(4+6) = 0.6
        a_bits = np.zeros((2, 8), np.uint8)
        b_bits = np.zeros((2, 8), np.uint8)
        a_bits[0, :4] = 1
        b_bits[0, 1:7] = 1
        a = full_mask_template(a_bits)
        b = full_mask_template(b_bits)
        assert white_match_rate(a, b) == pytest.approx(0.6, abs=1e-15)

    def test_hand_worked_black_rate(self):
        # a has 2 blacks, b has 2 blacks, 1 co-located: 2*1/(2+2) = 0.5
        a_bits = np.ones((1, 4), np.uint8)
        b_bits = np.ones((1, 4), np.uint8)
        a_bits[0, 0] = 0
        a_bits[0, 1] = 0
        b_bits[0, 1] = 0
        b_bits[0, 2] = 0
        a = full_mask_template(a_bits)
        b = full_mask_template(b_bits)
        assert black_match_rate(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_disjoint_white_sets_rate_zero(self):
        a_bits = np.array([[1, 1, 0, 0]], np.uint8)
        b_bits = np.array([[0, 0, 1, 1]], np.uint8)
        assert white_match_rate(
            full_mask_template(a_bits), full_mask_template(b_bits)
        ) == 0.0

    def test_all_ones_pair_has_no_black_rate(self):
        t = full_mask_template(np.ones((2, 4), np.uint8))
        with pytest.raises(ValueError, match="black match rate undefined"):
            black_match_rate(t, t)

    def test_all_zeros_pair_has_no_white_rate(self):
        t = full_mask_template(np.zeros((2, 4), np.uint8))
        with pytest.raises(ValueError, match="white match rate undefined"):
            white_match_rate(t, t)


class TestMaskRate:
    def test_all_valid(self):
        t = full_mask_template(np.zeros((4, 4), np.uint8))
        assert mask_rate(t, t) == (1.0, 1.0, 1.0)

    def test_top_half_vs_left_half(self):
        bits = np.zeros((4, 4), np.uint8)
        top = np.zeros((4, 4), np.uint8)
        top[:2] = 1
        left = np.zeros((4, 4), np.uint8)
        left[:, :2] = 1
        a = pack_template(bits, top, 4, 4)
        b = pack_template(bits, left, 4, 4)
        assert mask_rate(a, b) == (0.25, 0.5, 0.5)

    def test_all_invalid_second_template(self):
        bits = np.zeros((2, 4), np.uint8)
        a = pack_template(bits, np.ones((2, 4), np.uint8), 2, 4)
        b = pack_template(bits, np.zeros((2, 4), np.uint8), 2, 4)
        joint, rate_a, rate_b = mask_rate(a, b)
        assert (joint, rate_b) == (0.0, 0.0)
        assert rate_a == 1.0


class TestMatchPair:
    def test_result_fields_consistent_with_kernels(self):
        rng = np.random.default_rng(9)
        a, b = random_pair(rng, 8, 32)
        policy = ShiftPolicy(4, 1)
        for a, b in ((a, b), all_valid((a, b))):
            _, rate_a, rate_b = mask_rate(a, b)
            result = match_pair(a, b, alpha=0.3, policy=policy)
            scores = match_pairs([a, b], [0], [1], 0.3, policy)
            assert result == IrisMatchResult(
                hamming=scores.hamming[0],
                ws_score=scores.ws[0],
                best_shift=scores.best_shift[0],
                joint_valid=scores.joint_valid[0],
                mask_rate_a=rate_a,
                mask_rate_b=rate_b,
                ws_shift=scores.ws_shift[0],
            )
            assert [type(getattr(result, f.name)) for f in fields(result)] == [
                float, float, int, int, float, float, int
            ]

    def test_result_validation(self):
        with pytest.raises(ValueError, match="hamming"):
            IrisMatchResult(1.5, 0.5, 0, 10, 0.5, 0.5, 0)
        with pytest.raises(ValueError, match="joint_valid"):
            IrisMatchResult(0.5, 0.5, 0, 0, 0.5, 0.5, 0)


class TestUsabilityRule:
    """Today's rule: one jointly valid pixel at one shift makes a pair usable."""

    @pytest.mark.parametrize("bit, ws", [(1, 2.0 - 0.3), (0, 0.3)], ids=["1-1", "0-0"])
    def test_one_agreeing_pixel_gets_an_extreme_score(self, bit, ws):
        rng = np.random.default_rng(bit)
        bits = rng.integers(0, 2, (2, 2, 8), dtype=np.uint8)
        masks = np.zeros((2, 2, 8), np.uint8)
        # one valid pixel each, two columns apart: they meet at one shift of +-2
        bits[0, 1, 3] = bits[1, 1, 5] = bit
        masks[0, 1, 3] = masks[1, 1, 5] = 1
        a, b = (pack_template(bits[k], masks[k], 2, 8) for k in range(2))
        policy = ShiftPolicy(2, 1)
        hd, shift, joint = reference.naive_masked_hamming(a, b, policy)
        assert (hd, joint) == (0.0, 1) and abs(shift) == 2
        assert reference.naive_weighted_similarity(a, b, 0.3, policy) == (ws, shift)
        scores = match_pairs([a, b], [0], [1], 0.3, policy)
        assert scores.usable[0]
        assert (scores.hamming[0], scores.best_shift[0], scores.joint_valid[0]) == (0.0, shift, 1)
        assert (scores.ws[0], scores.ws_shift[0]) == (ws, shift)
        result = match_pair(a, b, 0.3, policy)
        assert (result.hamming, result.ws_score, result.best_shift, result.joint_valid) == (
            0.0, ws, shift, 1)


class TestKernelInvariants:
    @given(
        seed=st.integers(0, 2**31),
        height=st.integers(1, 8),
        width=st.integers(2, 24),
        alpha=st.sampled_from((0.3, 0.7, 1.0, 1.5)),
        max_shift=st.integers(0, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry_dominance_and_alpha_one_reduction(
        self, seed, height, width, alpha, max_shift
    ):
        rng = np.random.default_rng(seed)
        a = reference._random_template(rng, height, width, 0.85)
        b = reference._random_template(rng, height, width, 0.85)
        policy = ShiftPolicy(max_shift, 1)
        try:
            ab = match_pair(a, b, alpha, policy)
            ba = match_pair(b, a, alpha, policy)
            hd_zero = match_pair(a, b, alpha, ShiftPolicy(0, 1)).hamming
        except EmptyJointMaskError:
            return
        assert ab.hamming == ba.hamming
        assert ab.ws_score == ba.ws_score
        assert ab.hamming <= hd_zero
        assert 0.0 <= ab.hamming <= 1.0
        assert 0.0 <= ab.ws_score <= max(alpha, 2.0 - alpha)
        ws_unit = match_pair(a, b, 1.0, policy).ws_score
        assert ws_unit + ab.hamming == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    def test_kernels_equal_reference_on_random_pairs(self):
        # small slice of the full suite; the complete 1000+-pair run is
        # exercised by the acceptance tests and the `oracle` command
        rng = np.random.default_rng(10)
        policy = ShiftPolicy(4, 1)
        for _ in range(40):
            a, b = random_pair(rng, 8, 16, density=0.7)
            for alpha in (0.3, 1.0):
                result = or_none(match_pair, a, b, alpha, policy)
                hd = or_none(reference.naive_masked_hamming, a, b, policy)
                ws = or_none(
                    reference.naive_weighted_similarity, a, b, alpha, policy
                )
                if result is None:
                    assert hd is None and ws is None
                else:
                    assert (result.hamming, result.best_shift, result.joint_valid) == hd
                    assert (result.ws_score, result.ws_shift) == ws
            assert mask_rate(a, b) == reference.naive_mask_rate(a, b)

    def test_tie_breaking_prefers_small_then_negative_shift(self):
        # constant templates: every shift ties, smallest |s| must win
        t = full_mask_template(np.ones((2, 8), np.uint8))
        result = match_pair(t, t, policy=ShiftPolicy(4, 1))
        assert (result.best_shift, result.ws_shift) == (0, 0)
        # period-2 stripes: shifts -1 and +1 both reach distance 0 while
        # shift 0 disagrees everywhere; negative is searched first
        a = full_mask_template(np.array([[1, 0, 1, 0]], np.uint8))
        b = full_mask_template(np.array([[0, 1, 0, 1]], np.uint8))
        result = match_pair(a, b, policy=ShiftPolicy(2, 1))
        assert (result.hamming, result.best_shift, result.ws_shift) == (0.0, -1, -1)
        assert reference.naive_masked_hamming(a, b, ShiftPolicy(2, 1))[:2] == (0.0, -1)


def edge_band(h, w):
    """A mask invalid from pixel 64, the start of the second word, for
    two rows or up to the end.

    With rows of 96 or 128 pixels, a word within the band's full row has
    no valid pixel at any shift, while the second word, all invalid at
    shift 0, takes valid pixels from its row at the first nonzero shift.
    """
    mask = np.ones(h * w, np.uint8)
    mask[64:64 + 2 * w] = 0
    return mask.reshape(h, w)


def batch_templates(rng, h, w):
    """Random templates plus edge cases: disjoint, empty, banded and
    constant ones."""
    top = np.zeros((h, w), np.uint8)
    top[0] = 1
    stripes = np.tile(np.arange(w) % 2, (h, 1)).astype(np.uint8)
    ones = np.ones((h, w), np.uint8)
    return [
        reference._random_template(rng, h, w, 0.9),
        reference._random_template(rng, h, w, 0.5),
        reference._random_template(rng, h, w, 0.15),
        pack_template(rng.random((h, w)) < 0.5, top, h, w),  # row 0 only
        pack_template(rng.random((h, w)) < 0.5, 1 - top, h, w),  # never row 0
        pack_template(ones, np.zeros((h, w)), h, w),  # no valid pixel
        pack_template(ones, ones, h, w),  # every shift ties
        pack_template(stripes, ones, h, w),  # ties between -1 and +1
        pack_template(1 - stripes, ones, h, w),
        reference._random_template(rng, h, w, (0.3, 0.7)),  # one occlusion band
        reference._random_template(rng, h, w, (0.3, 0.7)),
        pack_template(rng.random((h, w)) < 0.5, edge_band(h, w), h, w),
    ]


def or_none(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EmptyJointMaskError:
        return None


def assert_rows_equal_reference(templates, ia, ib, alpha, policy, masked, unmasked):
    """Every row of ``masked``, the scores of ``templates``, and of
    ``unmasked``, those of their all-valid copies, equals the per-pixel
    oracle exactly."""
    assert unmasked.usable.all()
    assert not masked.usable.all() and masked.usable.any()
    for k, (i, j) in enumerate(zip(ia, ib)):
        a, b = templates[i], templates[j]
        hd = or_none(reference.naive_masked_hamming, a, b, policy)
        ws = or_none(reference.naive_weighted_similarity, a, b, alpha, policy)
        assert masked.usable[k] == (hd is not None)
        if hd is not None:
            assert (
                masked.hamming[k], masked.best_shift[k], masked.joint_valid[k]
            ) == hd
            assert (masked.ws[k], masked.ws_shift[k]) == ws
        assert (unmasked.ws[k], unmasked.ws_shift[k]) == (
            reference.naive_weighted_similarity(a, b, alpha, policy, unmasked=True)
        )


def assert_beyond_uint16_equal_reference(a, b, policy, scores, k):
    """Row ``k`` scores the pair (a, b), whose counts overflow uint16."""
    hd = reference.naive_masked_hamming(a, b, policy)
    assert hd[2] > np.iinfo(np.uint16).max
    assert (scores.hamming[k], scores.best_shift[k], scores.joint_valid[k]) == hd
    assert (scores.ws[k], scores.ws_shift[k]) == (
        reference.naive_weighted_similarity(a, b, 0.3, policy)
    )


def assert_same_scores(x, y):
    for field in fields(PairScores):
        assert np.array_equal(getattr(x, field.name), getattr(y, field.name))


class TestBatchedKernel:
    """match_pairs against the per-pixel oracle, row by row, exactly."""

    @pytest.mark.parametrize("h, w, max_shift, step", [
        (3, 7, 3, 1),  # 21-bit planes: 3 bytes, padded to one word
        (5, 13, 4, 2),  # 65-bit planes: 9 bytes, padded to two words
        (8, 16, 6, 3),
        (3, 96, 4, 1),  # rows straddle words; 4.5 words, padded to five
        (2, 128, 6, 2),  # two words a row
    ])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("block_bytes", [1, bitmatch.BLOCK_BYTES])
    def test_rows_equal_reference(
        self, monkeypatch, h, w, max_shift, step, alpha, block_bytes
    ):
        monkeypatch.setattr(bitmatch, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(h * w + max_shift)
        templates = batch_templates(rng, h, w)
        n = len(templates)
        ia, ib = np.divmod(rng.permutation(n * n), n)  # shuffled, not probe-major
        policy = ShiftPolicy(max_shift, step)
        masked = match_pairs(templates, ia, ib, alpha, policy)
        unmasked = match_pairs(all_valid(templates), ia, ib, alpha, policy)
        assert_rows_equal_reference(templates, ia, ib, alpha, policy, masked, unmasked)

    @pytest.mark.parametrize("h, w, max_shift, step", [(3, 96, 4, 1), (2, 128, 6, 2)])
    def test_band_masks_leave_dead_words(self, h, w, max_shift, step):
        # the premise of the banded rows above: some word of the edge band
        # holds no valid pixel at any shift, and some word with none at
        # shift 0 gains one at another shift
        words = -(-h * w // 64)
        shifts = ShiftPolicy(max_shift, step).shifts()
        mask = edge_band(h, w)

        def live(shifted):
            reach = np.zeros(words * 64, bool)
            reach[:h * w] = np.any([np.roll(mask, s, axis=1) for s in shifted], axis=0).ravel()
            return reach.reshape(words, 64).any(axis=1)

        assert not live(shifts).all()
        assert (live(shifts) & ~live([0])).any()

    def test_counts_beyond_uint16(self):
        # 1 x 70000 pixels: more valid pixels than a uint16 count can hold
        rng = np.random.default_rng(13)
        a, b = random_pair(rng, 1, 70_000, density=0.99)
        policy = ShiftPolicy(1, 1)
        scores = match_pairs([a, b], [0], [1], 0.3, policy)
        assert_beyond_uint16_equal_reference(a, b, policy, scores, 0)

    def test_counts_beyond_uint16_in_one_probe_run(self, monkeypatch):
        # one probe against three gallery templates, a block each
        monkeypatch.setattr(bitmatch, "BLOCK_BYTES", 1)
        rng = np.random.default_rng(20)
        templates = [reference._random_template(rng, 1, 70_000, 0.99) for _ in range(4)]
        policy = ShiftPolicy(1, 1)
        scores = match_pairs(templates, [0, 0, 0], [1, 2, 3], 0.3, policy)
        for k in range(3):
            assert_beyond_uint16_equal_reference(
                templates[0], templates[k + 1], policy, scores, k
            )

    def test_ties_resolve_to_smallest_then_negative_shift(self):
        templates = batch_templates(np.random.default_rng(12), 2, 8)
        scores = match_pairs(templates, [6, 7], [6, 8], 0.3, ShiftPolicy(2, 1))
        assert scores.best_shift.tolist() == [0, -1]
        assert scores.ws_shift.tolist() == [0, -1]

    def test_sparser_template_on_either_side(self):
        # the second template of each pair has fewer nonzero mask words,
        # so it is the rotated one; swapped around, the first one is
        h, w = 2, 128
        stripes = np.tile(np.arange(w) % 2, (h, 1)).astype(np.uint8)
        ones = np.ones((h, w), np.uint8)
        row0 = np.zeros((h, w), np.uint8)
        row0[0] = 1
        bits = np.random.default_rng(21).random((h, w)) < 0.5
        templates = [
            pack_template(stripes, ones, h, w),
            pack_template(1 - stripes, row0, h, w),  # ties between -1 and +1
            pack_template(bits, ones, h, w),
            pack_template(np.roll(bits, 3, axis=1), row0, h, w),  # best at +3
            pack_template(ones, np.zeros((h, w)), h, w),  # no valid pixel
        ]
        nonzero_words = [
            np.count_nonzero(bitmatch._gallery_planes([t])[1]) for t in templates
        ]
        assert nonzero_words == [4, 2, 4, 2, 0]
        ia, ib = [0, 2, 0], [1, 3, 4]
        policy = ShiftPolicy(4, 1)
        for first, second, shifts in [(ia, ib, [-1, 3]), (ib, ia, [-1, -3])]:
            masked = match_pairs(templates, first, second, 0.3, policy)
            unmasked = match_pairs(all_valid(templates), first, second, 0.3, policy)
            assert masked.best_shift[:2].tolist() == shifts
            assert masked.ws_shift[:2].tolist() == shifts
            assert unmasked.ws_shift[0] == -1
            assert_rows_equal_reference(
                templates, first, second, 0.3, policy, masked, unmasked
            )

    def test_validates_once_up_front(self):
        a = full_mask_template(np.zeros((2, 4), np.uint8))
        b = full_mask_template(np.zeros((2, 8), np.uint8))
        with pytest.raises(ValueError, match="dimension mismatch"):
            match_pairs([a, a, b], [0], [1])  # b is in no pair
        with pytest.raises(ValueError, match="alpha"):
            match_pairs([a, a], [0], [1], alpha=2.0)
        with pytest.raises(ValueError, match="equal length"):
            match_pairs([a, a], [0, 1], [1])

    def test_no_pairs(self):
        a = full_mask_template(np.zeros((2, 4), np.uint8))
        scores = match_pairs([a], [], [])
        assert scores.usable.shape == (0,)

    @pytest.mark.parametrize("ia, ib", [
        ([-1], [0]),  # would wrap to the last template
        ([0], [-3]),
        ([3], [0]),
        ([0, 1], [2, 3]),
        (np.array([3], np.uint8), [0]),
    ])
    def test_rejects_indices_out_of_range(self, ia, ib):
        templates = batch_templates(np.random.default_rng(14), 2, 8)[:3]
        with pytest.raises(ValueError, match=r"indices must lie in \[0, 3\)"):
            match_pairs(templates, ia, ib)

    @pytest.mark.parametrize("ia, ib", [
        ([0.7], [1.2]),  # would truncate to (0, 1)
        ([0.0], [1.0]),
        ([0], [1.0]),
        ([True], [False]),
        (["0"], ["1"]),
    ])
    def test_rejects_non_integer_indices(self, ia, ib):
        templates = batch_templates(np.random.default_rng(14), 2, 8)[:3]
        with pytest.raises(ValueError, match="integer indices"):
            match_pairs(templates, ia, ib)


def rolled_planes(template, policy):
    """``_probe_planes``' live words and ``(P, mask, Z)`` planes, from
    ``np.roll`` of the unpacked template at each shift."""
    shifts = policy.shifts()
    words = -(-template.n_pixels // 64)
    bits = template.unpack_bits()
    mask = template.unpack_mask()

    def packed(plane):
        rolled = np.stack([np.roll(plane, s, axis=1).ravel() for s in shifts])
        out = np.zeros((len(shifts), words * 8), np.uint8)
        out[:, :-(-template.n_pixels // 8)] = np.packbits(rolled, axis=1)
        return out.view(np.uint64)

    ones, valid = packed(bits & mask), packed(mask)
    live = np.flatnonzero(np.bitwise_or.reduce(valid, axis=0))
    ones, valid = ones[:, live], valid[:, live]
    return live, np.stack([ones, valid, valid & ~ones])


class TestProbePlanes:
    """_probe_planes against np.roll, through one reused worker scratch."""

    @pytest.mark.parametrize("h, w, max_shift, step", [
        (3, 7, 3, 1),  # W % 8 != 0
        (5, 13, 4, 2),
        (8, 16, 6, 3),
        (3, 6, 6, 3),  # max_shift == W
        (2, 5, 12, 1),  # max_shift > 2W: margins of three copies each
        (3, 96, 4, 1),
        (2, 8, 0, 1),  # one shift
    ])
    @pytest.mark.parametrize("chunk", [1, 2, 3, None])
    @pytest.mark.parametrize("unmasked", [False, True])  # True: the all-valid copies
    def test_planes_equal_rolled_templates(
        self, monkeypatch, h, w, max_shift, step, chunk, unmasked
    ):
        policy = ShiftPolicy(max_shift, step)
        shifts = policy.shifts()
        words = -(-h * w // 64)
        # a BLOCK_BYTES as small as a rotation chunk of `chunk` shifts
        if chunk is not None:
            monkeypatch.setattr(bitmatch, "BLOCK_BYTES", chunk * 2 * 64 * words)
        scratch, _ = bitmatch._worker_scratch(
            h, w, policy, words, 1, 1, np.uint16, bitmatch.BLOCK_BYTES
        )
        assert scratch[2].shape[1] == min(chunk or len(shifts), len(shifts))
        rng = np.random.default_rng(h * w + max_shift)
        templates = batch_templates(rng, h, w)
        for template in all_valid(templates) if unmasked else templates:
            live, planes = bitmatch._probe_planes(template, shifts, scratch)
            expected_live, expected = rolled_planes(template, policy)
            assert np.array_equal(live, expected_live)
            assert np.array_equal(planes, expected)


@pytest.fixture
def split(monkeypatch):
    """``run(cpus, ...)``: match_pairs on ``cpus`` CPUs, whatever its size.

    Returns the scores and the number of workers that scored a probe,
    told apart by their scratch buffers.
    """
    monkeypatch.setattr(bitmatch, "WORKER_BYTES", 1)
    probe_planes = bitmatch._probe_planes
    workers = set()

    def recording(template, shifts, scratch):
        workers.add(id(scratch))
        return probe_planes(template, shifts, scratch)

    monkeypatch.setattr(bitmatch, "_probe_planes", recording)

    def run(cpus, *args, **kwargs):
        monkeypatch.setattr(bitmatch, "_cpu_count", lambda: cpus)
        workers.clear()
        scores = match_pairs(*args, **kwargs)
        return scores, len(workers)

    return run


class TestWorkerSplit:
    """match_pairs gives the same scores on any number of worker threads."""

    @pytest.mark.parametrize("h, w, max_shift, step", [
        (3, 7, 3, 1),
        (5, 13, 4, 2),
        (8, 16, 6, 3),
    ])
    @pytest.mark.parametrize("block_bytes", [1, bitmatch.BLOCK_BYTES])
    def test_rows_equal_reference_on_any_worker_count(
        self, monkeypatch, split, h, w, max_shift, step, block_bytes
    ):
        monkeypatch.setattr(bitmatch, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(h * w + max_shift)
        templates = batch_templates(rng, h, w)
        n = len(templates)
        ia, ib = np.divmod(rng.permutation(n * n), n)
        policy = ShiftPolicy(max_shift, step)
        results = {}
        for cpus in (1, 2, 3):
            masked, used = split(cpus, templates, ia, ib, 0.3, policy)
            unmasked, _ = split(cpus, all_valid(templates), ia, ib, 0.3, policy)
            assert used == cpus
            results[cpus] = masked, unmasked
        for masked, unmasked in results.values():
            assert_same_scores(masked, results[1][0])
            assert_same_scores(unmasked, results[1][1])
        assert_rows_equal_reference(templates, ia, ib, 0.3, policy, *results[3])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_counts_beyond_uint16(self, split, cpus):
        rng = np.random.default_rng(13)
        a, b = random_pair(rng, 1, 70_000, density=0.99)
        policy = ShiftPolicy(1, 1)
        scores, used = split(cpus, [a, b], [0, 1], [1, 0], 0.3, policy)
        assert used == min(cpus, 2)  # two probe runs
        assert_beyond_uint16_equal_reference(a, b, policy, scores, 0)
        assert_beyond_uint16_equal_reference(b, a, policy, scores, 1)

    def test_more_workers_than_probe_runs(self, split):
        # a probe run is one rotated template, the sparser one of each pair:
        # template 5 has no valid pixel, the others one nonzero mask word
        templates = batch_templates(np.random.default_rng(15), 4, 8)
        assert [k for k in range(9) if not templates[k].packed_mask.any()] == [5]
        others = [0, 1, 2, 3, 4, 6, 7, 8]
        policy = ShiftPolicy(2, 1)
        for ia, ib, runs in [
            ([2, 2, 2, 5, 5], [0, 1, 3, 4, 8], 2),
            ([4] * 8, others, 1),  # ties keep the ia template
            (others, [5] * 8, 1),  # eight ia templates, one rotated
            (others + [5], [5] * 8 + [4], 1),
        ]:
            inline, used = split(1, templates, ia, ib, 0.3, policy)
            assert used == 1
            scores, used = split(8, templates, ia, ib, 0.3, policy)
            assert used == runs
            assert_same_scores(scores, inline)

    def test_worker_count_follows_the_work(self, monkeypatch, split):
        templates = batch_templates(np.random.default_rng(16), 4, 8)  # one word
        ia, ib = np.divmod(np.arange(81), 9)  # nine probe runs
        work = 81 * 5 * 1 * 8  # pairs x shifts x words x 8 bytes
        for worker_bytes, expected in [(work + 1, 1), (work // 2, 2), (work // 8, 8)]:
            monkeypatch.setattr(bitmatch, "WORKER_BYTES", worker_bytes)
            assert split(8, templates, ia, ib, 0.3, ShiftPolicy(2, 1))[1] == expected

    def test_each_worker_fills_a_full_block_budget(self, monkeypatch, split):
        monkeypatch.setattr(bitmatch, "BLOCK_BYTES", 1 << 14)
        worker_scratch = bitmatch._worker_scratch
        count_block = bitmatch._count_block
        made, blocks = [], []

        def recording(*args):
            made.append(worker_scratch(*args))
            return made[-1]

        def counting(probe, gallery, counts, scratch):
            n_shifts, live = probe.shape[1:]
            blocks.append((n_shifts, len(gallery[0]), live, scratch[0].size))
            return count_block(probe, gallery, counts, scratch)

        monkeypatch.setattr(bitmatch, "_worker_scratch", recording)
        monkeypatch.setattr(bitmatch, "_count_block", counting)
        templates = batch_templates(np.random.default_rng(19), 8, 64) * 4
        n, words = len(templates), 8
        ia, ib = np.divmod(np.arange(n * n), n)
        inline_blocks = None
        for cpus in (1, 2, 3):
            made.clear()
            blocks.clear()
            split(cpus, templates, ia, ib, 0.3, ShiftPolicy(4, 1))
            assert len(made) == cpus
            for probe, block in made:
                # a word plane and its popcounts of the whole budget each
                assert block[0].nbytes <= bitmatch.BLOCK_BYTES
                assert block[1].nbytes <= bitmatch.BLOCK_BYTES
                # the padded rotation buffers share the budget
                chunk = min(9, bitmatch.BLOCK_BYTES // cpus // (2 * 64 * words))
                assert probe[2].shape == (2, chunk, 64 * words)
                # probe planes: every word's, whatever K is
                assert probe[3].nbytes == 3 * 9 * words * 8
            assert sum(probe[2].nbytes for probe, _ in made) <= bitmatch.BLOCK_BYTES
            # a block of K live words holds block * words // K templates:
            # it fills no more than the word plane, and more templates than
            # a block of every word when words are dead
            assert all(s * m * k <= size for s, m, k, size in blocks)
            assert any(m > size // (s * words) for s, m, k, size in blocks if k < words)
            # and as many on any number of workers as inline
            inline_blocks = inline_blocks or sorted(blocks)
            assert sorted(blocks) == inline_blocks

    def test_many_workers_under_fast_thread_switching(self, split):
        templates = batch_templates(np.random.default_rng(18), 4, 8) * 4
        n = len(templates)
        ia, ib = np.divmod(np.arange(n * n), n)
        policy = ShiftPolicy(2, 1)
        inline, _ = split(1, templates, ia, ib, 0.3, policy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                scores, used = split(8, templates, ia, ib, 0.3, policy)
                assert used == 8
                assert_same_scores(scores, inline)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_worker_error_reaches_the_caller(self, monkeypatch, failing):
        monkeypatch.setattr(bitmatch, "WORKER_BYTES", 1)
        monkeypatch.setattr(bitmatch, "_cpu_count", lambda: 3)
        count_block = bitmatch._count_block
        caller = threading.get_ident()

        def failing_on_one_thread(*args):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError("probe failed")
            return count_block(*args)

        monkeypatch.setattr(bitmatch, "_count_block", failing_on_one_thread)
        templates = batch_templates(np.random.default_rng(17), 4, 8)
        ia, ib = np.divmod(np.arange(81), 9)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="probe failed"):
            match_pairs(templates, ia, ib)
        assert threading.active_count() == before


class TestCpuCount:
    def test_affinity_mask_where_present(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert bitmatch._cpu_count() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert bitmatch._cpu_count() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert bitmatch._cpu_count() == 1
