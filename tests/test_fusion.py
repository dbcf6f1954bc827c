import math

import numpy as np
import pytest

from irisfuse.bitmatch import IrisMatchResult, ShiftPolicy, match_pair
from irisfuse.fusion import (
    NormalizationParams,
    cue_matrix,
    dynamic_fuse,
    normalized_distance,
    PERIOC_BLOCK_BYTES,
    perioc_distances,
    static_fuse,
    static_inputs,
)
from irisfuse.mlp import N_PARAMS, MlpParams, TrainConfig, train_mlp
from irisfuse.templates import CUE_NAMES, PeriocularRecord, check_cues, pack_template


def record(features, eye=0.2, brow=0.1):
    return PeriocularRecord(features=np.asarray(features, float), eye_area=eye,
                            brow_area=brow)


class TestPeriocDistance:
    def test_identical_records_distance_zero(self):
        r = record([0.5, -1.0, 2.0])
        assert perioc_distances([r], [0], [0]).tolist() == [0.0]

    def test_unit_axes(self):
        records = [record([1.0, 0.0]), record([0.0, 1.0])]
        (d,) = perioc_distances(records, [0], [1])
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_matches_scalar_loop_oracle_at_d512(self):
        rng = np.random.default_rng(0)
        va = rng.normal(size=512)
        vb = rng.normal(size=512)
        total = 0.0
        for x, y in zip(va.tolist(), vb.tolist()):
            total += (x - y) ** 2
        expected = math.sqrt(total)
        (d,) = perioc_distances([record(va), record(vb)], [0], [1])
        assert d == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            perioc_distances([record([1.0, 2.0]), record([1.0, 2.0, 3.0])], [0], [1])

    @pytest.mark.parametrize("dim", [64, 512])
    def test_blocks_equal_per_pair_dot_to_the_bit(self, dim):
        rng = np.random.default_rng(dim)
        records = [record(rng.normal(size=dim)) for _ in range(40)]
        rows = PERIOC_BLOCK_BYTES // (8 * dim)
        n = 10 * rows + 3  # ten full blocks and a partial one
        a = rng.integers(0, len(records), n)
        b = rng.integers(0, len(records), n)
        want = []
        for i, j in zip(a.tolist(), b.tolist()):
            diff = records[i].features - records[j].features
            want.append(float(np.sqrt(np.dot(diff, diff))))
        assert perioc_distances(records, a, b).tobytes() == np.array(want).tobytes()


class TestNormalization:
    def test_requires_min_below_max(self):
        with pytest.raises(ValueError, match="must be <"):
            NormalizationParams(perioc_min=1.0, perioc_max=1.0)

    def test_from_distances(self):
        norm = NormalizationParams.from_distances([0.5, 2.0, 1.2])
        assert (norm.perioc_min, norm.perioc_max) == (0.5, 2.0)

    def test_clamping(self):
        norm = NormalizationParams(perioc_min=1.0, perioc_max=3.0)
        assert normalized_distance(0.0, norm) == 0.0
        assert normalized_distance(1.0, norm) == 0.0
        assert normalized_distance(2.0, norm) == 0.5
        assert normalized_distance(5.0, norm) == 1.0


def match_row(iris, distance, a, b, usable=True):
    """One match-table row of a compared pair, as ``match`` writes it."""
    return {
        "iris_valid": np.array([usable]),
        "ws": np.array([iris.ws_score]),
        "perioc_dist": np.array([distance]),
        "mask_rate_a": np.array([iris.mask_rate_a]),
        "mask_rate_b": np.array([iris.mask_rate_b]),
        "eye_sum": np.array([a.eye_area + b.eye_area]),
        "eye_diff": np.array([a.eye_area - b.eye_area]),
        "brow_sum": np.array([a.brow_area + b.brow_area]),
        "brow_diff": np.array([a.brow_area - b.brow_area]),
    }


class TestAssembleCues:
    NORM = NormalizationParams(perioc_min=0.0, perioc_max=2.0)

    @staticmethod
    def iris_result(ws=0.8, rate_a=0.9, rate_b=0.7):
        return IrisMatchResult(
            hamming=0.2,
            ws_score=ws,
            best_shift=1,
            joint_valid=10,
            mask_rate_a=rate_a,
            mask_rate_b=rate_b,
        )

    def cues(self, *args, norm=None):
        (row,) = cue_matrix(match_row(*args), norm or self.NORM)
        return dict(zip(CUE_NAMES, row.tolist()))

    def test_identical_records_symmetric_cues(self):
        a = record([1.0, 0.0], eye=0.2, brow=0.1)
        cues = self.cues(self.iris_result(), 1.0, a, a)
        assert cues["eye_sum"] == pytest.approx(0.4)
        assert cues["eye_diff"] == 0.0
        assert cues["brow_sum"] == pytest.approx(0.2)
        assert cues["brow_diff"] == 0.0

    def test_distance_at_minimum_normalises_to_zero(self):
        a = record([1.0, 0.0])
        cues = self.cues(self.iris_result(), 0.0, a, a)
        assert cues["perioc_dist"] == 0.0

    def test_full_worked_pair_on_synthetic_templates(self):
        # 4x4 templates: a all ones, b ones in top half, full masks
        bits_a = np.ones((4, 4), np.uint8)
        bits_b = np.zeros((4, 4), np.uint8)
        bits_b[:2] = 1
        full = np.ones((4, 4), np.uint8)
        iris = match_pair(
            pack_template(bits_a, full, 4, 4),
            pack_template(bits_b, full, 4, 4),
            alpha=0.3,
            policy=ShiftPolicy(0, 1),
        )
        # hand oracle: 8 one-one agreements, 8 disagreements over 16 px
        assert iris.hamming == pytest.approx(0.5)
        assert iris.ws_score == pytest.approx((1.7 * 8 + 0.3 * 0) / 16)
        pa = record([3.0, 0.0], eye=0.25, brow=0.10)
        pb = record([0.0, 4.0], eye=0.15, brow=0.20)
        (distance,) = perioc_distances([pa, pb], [0], [1])  # 5.0 by construction
        norm = NormalizationParams(perioc_min=1.0, perioc_max=6.0)
        cues = self.cues(iris, distance, pa, pb, norm=norm)
        assert cues["iris_score"] == iris.ws_score
        assert cues["perioc_dist"] == pytest.approx((5.0 - 1.0) / 5.0, abs=1e-15)
        assert (cues["mask_rate_a"], cues["mask_rate_b"]) == (1.0, 1.0)
        assert cues["eye_sum"] == pytest.approx(0.40, abs=1e-15)
        assert cues["eye_diff"] == pytest.approx(0.10, abs=1e-15)
        assert cues["brow_sum"] == pytest.approx(0.30, abs=1e-15)
        assert cues["brow_diff"] == pytest.approx(-0.10, abs=1e-15)

    def test_swap_negates_diffs_only(self):
        a = record([1.0, 0.0], eye=0.25, brow=0.10)
        b = record([0.0, 1.0], eye=0.15, brow=0.20)
        iris = self.iris_result(rate_a=0.8, rate_b=0.8)
        (d,) = perioc_distances([a, b], [0], [1])
        forward = self.cues(iris, d, a, b)
        backward = self.cues(iris, d, b, a)
        assert backward["eye_diff"] == -forward["eye_diff"]
        assert backward["brow_diff"] == -forward["brow_diff"]
        assert backward["eye_sum"] == forward["eye_sum"]
        assert backward["iris_score"] == forward["iris_score"]
        assert backward["perioc_dist"] == forward["perioc_dist"]

    def test_checks_every_row_with_the_cue_vector_rules(self):
        a = record([1.0, 0.0])
        table = match_row(self.iris_result(), 1.0, a, a)
        table["mask_rate_b"] = np.array([-0.25])
        with pytest.raises(ValueError, match=r"mask_rate_b must lie in \[0, 1\]"):
            cue_matrix(table, self.NORM)
        with pytest.raises(ValueError, match=r"mask_rate_b must lie in \[0, 1\]"):
            check_cues(np.array([[0.8, 0.5, 0.9, -0.25, 0.4, 0.0, 0.2, 0.0]]))


class TestStaticFuse:
    def test_endpoint_weights(self):
        assert static_fuse(0.8, 0.4, 1.0) == 0.8
        assert static_fuse(0.8, 0.4, 0.0) == 0.4

    def test_half_weight(self):
        assert static_fuse(0.8, 0.4, 0.5) == pytest.approx(0.6, abs=1e-15)

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError, match="weight"):
            static_fuse(0.5, 0.5, 1.2)

    def test_monotone_in_both_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            w = float(rng.uniform(0, 1))
            iris, perioc = rng.uniform(0, 1, 2)
            bump = float(rng.uniform(0, 0.5))
            base = static_fuse(iris, perioc, w)
            assert static_fuse(iris + bump, perioc, w) >= base
            assert static_fuse(iris, perioc + bump, w) >= base

    def test_static_inputs_rescale(self):
        iris01, perioc01 = static_inputs(1.7, 0.3, 0.25)
        assert iris01 == pytest.approx(1.0)
        assert perioc01 == pytest.approx(0.75)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
    def test_static_iris_input_stays_in_unit_interval(self, alpha):
        # identical all-zero templates reach the WS maximum for alpha > 1
        t = pack_template(np.zeros((4, 8)), np.ones((4, 8)), 4, 8)
        ws = match_pair(t, t, alpha=alpha, policy=ShiftPolicy(2, 1)).ws_score
        assert ws == pytest.approx(alpha)
        iris01, _ = static_inputs(ws, alpha, 0.0)
        assert 0.0 <= iris01 <= 1.0
        assert iris01 == pytest.approx(alpha / max(2.0 - alpha, alpha))


class TestDynamicFuse:
    def test_zero_params_give_half(self):
        cues = [[0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 0.5, 0.0]]
        assert dynamic_fuse(MlpParams(np.zeros(N_PARAMS)), cues).tolist() == [0.5]

    def test_output_in_unit_interval_for_random_cues(self):
        rng = np.random.default_rng(2)
        params = MlpParams.init_random(rng)
        # each cue drawn uniformly over its whole range, in CUE_NAMES order
        low = [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, -1.0]
        high = [2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0]
        cues = rng.uniform(low, high, size=(1000, 8))
        check_cues(cues)
        scores = dynamic_fuse(params, cues)
        assert scores.shape == (1000,)
        assert ((0.0 <= scores) & (scores <= 1.0)).all()

    def test_trained_network_separates_constructed_classes(self):
        rng = np.random.default_rng(3)
        n = 150
        genuine = np.column_stack(
            [
                rng.uniform(0.9, 1.4, n),  # high agreement score
                rng.uniform(0.0, 0.4, n),  # small periocular distance
                rng.uniform(0.4, 1.0, (n, 2)).reshape(n, 2),
                rng.uniform(0.2, 0.6, n),
                rng.uniform(-0.1, 0.1, n),
                rng.uniform(0.1, 0.4, n),
                rng.uniform(-0.1, 0.1, n),
            ]
        )
        impostor = genuine.copy()
        impostor[:, 0] = rng.uniform(0.2, 0.7, n)
        impostor[:, 1] = rng.uniform(0.5, 1.0, n)
        features = np.vstack([genuine, impostor])
        labels = np.array([0] * n + [1] * n)
        params = train_mlp(
            features,
            labels,
            TrainConfig(learning_rate=1e-2, epochs=150, seed=4,
                        genuine_impostor_ratio=None),
        )
        assert dynamic_fuse(params, genuine).mean() > dynamic_fuse(params, impostor).mean()
