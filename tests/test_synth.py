import numpy as np
import pytest

from irisfuse.bitmatch import ShiftPolicy, black_match_rate, match_pair, white_match_rate
from irisfuse.evaluation import eer, protocol_pairs, roc_curve
from irisfuse.synth import SynthConfig, degraded_scenario, gen_population, gen_score_scenario


def template_pairs(population, genuine: bool):
    """Template pairs of the within-side protocol's genuine or impostor rows."""
    pairs = protocol_pairs(population.manifest)
    keep = pairs["genuine"] == genuine
    refs = [e.template_ref for e in population.manifest.entries]
    return [
        (population.templates[refs[a]], population.templates[refs[b]])
        for a, b in zip(pairs["a"][keep].tolist(), pairs["b"][keep].tolist())
    ]


def within_class_pairs(population):
    return template_pairs(population, genuine=True)


def cross_class_pairs(population, limit=200):
    return template_pairs(population, genuine=False)[:limit]


class TestDeterminism:
    def test_same_config_bit_identical(self):
        config = SynthConfig(seed=5, num_subjects=4, samples_per_subject=3,
                             height=16, width=32, perioc_dim=8)
        one = gen_population(config)
        two = gen_population(config)
        assert one.manifest == two.manifest
        assert one.degraded_subjects == two.degraded_subjects
        for name, column in one.periocular.items():
            assert column.tobytes() == two.periocular[name].tobytes(), name
        for ref in one.templates:
            assert (one.templates[ref].packed_bits == two.templates[ref].packed_bits).all()
            assert (one.templates[ref].packed_mask == two.templates[ref].packed_mask).all()

    def test_different_seed_differs(self):
        base = SynthConfig(seed=0, num_subjects=2, samples_per_subject=2,
                           height=8, width=16, perioc_dim=4)
        other = SynthConfig(seed=1, num_subjects=2, samples_per_subject=2,
                            height=8, width=16, perioc_dim=4)
        a = gen_population(base)
        b = gen_population(other)
        ref = next(iter(a.templates))
        assert not (a.templates[ref].packed_bits == b.templates[ref].packed_bits).all()


class TestStatisticalShape:
    def test_zero_flip_rate_full_masks_gives_zero_hamming(self):
        config = SynthConfig(
            seed=1, num_subjects=3, samples_per_subject=3, height=16, width=64,
            genuine_flip_rate=0.0, mask_coverage_range=(1.0, 1.0), perioc_dim=4,
        )
        population = gen_population(config)
        for a, b in within_class_pairs(population):
            assert match_pair(a, b, policy=ShiftPolicy(0, 1)).hamming == 0.0

    def test_genuine_hamming_matches_flip_expectation(self):
        # two independent flips of the same prototype disagree with
        # probability 2 f (1 - f)
        config = SynthConfig(
            seed=2, num_subjects=6, samples_per_subject=4, height=64, width=512,
            genuine_flip_rate=0.1, mask_coverage_range=(1.0, 1.0), perioc_dim=4,
        )
        population = gen_population(config)
        distances = [
            match_pair(a, b, policy=ShiftPolicy(0, 1)).hamming
            for a, b in within_class_pairs(population)
        ]
        assert np.mean(distances) == pytest.approx(2 * 0.1 * 0.9, abs=0.02)

    def test_impostor_hamming_near_half(self):
        config = SynthConfig(
            seed=3, num_subjects=6, samples_per_subject=2, height=64, width=512,
            mask_coverage_range=(1.0, 1.0), perioc_dim=4,
        )
        population = gen_population(config)
        distances = [
            match_pair(a, b, policy=ShiftPolicy(0, 1)).hamming
            for a, b in cross_class_pairs(population)
        ]
        assert np.mean(distances) == pytest.approx(0.5, abs=0.02)

    def test_mask_coverage_always_inside_range(self):
        config = SynthConfig(
            seed=4, num_subjects=5, samples_per_subject=4, height=32, width=64,
            mask_coverage_range=(0.55, 0.8), perioc_dim=4,
        )
        population = gen_population(config)
        for template in population.templates.values():
            assert 0.55 <= template.valid_fraction() <= 0.8

    def test_black_rate_exceeds_white_rate_when_blacks_prevail(self):
        # bit density below one half biases agreement toward black pixels
        config = SynthConfig(
            seed=5, num_subjects=6, samples_per_subject=3, height=32, width=128,
            bit_density=0.4, genuine_flip_rate=0.1,
            mask_coverage_range=(1.0, 1.0), perioc_dim=4,
        )
        population = gen_population(config)
        white, black = [], []
        for a, b in within_class_pairs(population):
            white.append(white_match_rate(a, b))
            black.append(black_match_rate(a, b))
        assert np.mean(black) > np.mean(white)


class TestDegradedScenario:
    def test_degraded_subjects_marked_and_distinct(self):
        config = degraded_scenario(seed=0, num_subjects=20, samples_per_subject=2)
        population = gen_population(config)
        assert len(population.degraded_subjects) == round(0.35 * 20)
        degraded_cov = [
            population.templates[e.template_ref].valid_fraction()
            for e in population.manifest.entries
            if e.subject_id in population.degraded_subjects
        ]
        clean_cov = [
            population.templates[e.template_ref].valid_fraction()
            for e in population.manifest.entries
            if e.subject_id not in population.degraded_subjects
        ]
        assert max(degraded_cov) < min(clean_cov)

    def test_both_sides_population(self):
        config = SynthConfig(seed=6, num_subjects=3, samples_per_subject=2,
                             height=8, width=16, perioc_dim=4, both_sides=True)
        population = gen_population(config)
        assert population.manifest.sides() == ["L", "R"]
        assert len(population.templates) == 3 * 2 * 2


class TestConfigValidation:
    def test_flip_rate_bounds(self):
        with pytest.raises(ValueError, match="flip_rate"):
            SynthConfig(genuine_flip_rate=0.5)

    def test_coverage_bounds(self):
        with pytest.raises(ValueError, match="coverage"):
            SynthConfig(mask_coverage_range=(0.0, 0.5))
        with pytest.raises(ValueError, match="coverage"):
            SynthConfig(mask_coverage_range=(0.9, 0.5))

    def test_coverage_narrower_than_pixel_granularity(self):
        config = SynthConfig(num_subjects=2, samples_per_subject=1, height=2,
                             width=2, mask_coverage_range=(0.55, 0.6), perioc_dim=2)
        with pytest.raises(ValueError, match="widen the range"):
            gen_population(config)


class TestScoreScenario:
    def test_identical_gaussians_near_half_eer(self):
        scores = gen_score_scenario(0, 0.0, 1.0, 0.0, 1.0, 20_000, 20_000)
        assert eer(roc_curve(scores)) == pytest.approx(0.5, abs=0.02)

    def test_mean_gap_two_matches_gaussian_closed_form(self):
        import math

        scores = gen_score_scenario(1, 2.0, 1.0, 0.0, 1.0, 100_000, 100_000)
        expected = 0.5 * (1.0 + math.erf(-1.0 / math.sqrt(2.0)))
        assert eer(roc_curve(scores)) == pytest.approx(expected, abs=0.01)

    def test_disjoint_supports_give_zero_eer(self):
        scores = gen_score_scenario(2, 10.0, 0.5, 0.0, 0.5, 2000, 2000)
        assert eer(roc_curve(scores)) == 0.0

    def test_clip_bounds_scores(self):
        scores = gen_score_scenario(3, 0.5, 1.0, 0.5, 1.0, 500, 500, clip=(0.0, 1.0))
        assert scores.genuine.min() >= 0.0
        assert scores.genuine.max() <= 1.0

    def test_determinism(self):
        a = gen_score_scenario(4, 1.0, 1.0, 0.0, 1.0, 100, 100)
        b = gen_score_scenario(4, 1.0, 1.0, 0.0, 1.0, 100, 100)
        assert (a.genuine == b.genuine).all()
        assert (a.impostor == b.impostor).all()
