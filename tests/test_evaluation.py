import itertools
import math
import tracemalloc

import numpy as np
import pytest

from irisfuse.evaluation import (
    LEFT_RIGHT_DISJOINT,
    WITHIN_SIDE,
    Manifest,
    ManifestEntry,
    ScoreSet,
    count_pairs,
    eer,
    protocol_pairs,
    roc_curve,
    sum_rule_combine,
    tar_at_far,
)


def make_manifest(subjects: int, samples: int, sides: str = "L") -> Manifest:
    entries = []
    for s in range(subjects):
        subject = f"S{s:04d}"
        for side in sides:
            for i in range(samples):
                ref = f"{subject}_{side}{i}"
                entries.append(ManifestEntry(subject, side, i, ref, ref))
    return Manifest(tuple(entries))


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestManifest:
    def test_duplicate_key_rejected(self):
        e = ManifestEntry("S1", "L", 0, "t", "p")
        with pytest.raises(ValueError, match="duplicate"):
            Manifest((e, ManifestEntry("S1", "L", 0, "t2", "p2")))

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="eye_side"):
            ManifestEntry("S1", "X", 0, "t", "p")


def reference_pairs(manifest: Manifest, protocol: str) -> list[tuple]:
    """``(a, b, genuine, a_id, b_id, side)`` per comparison, by enumeration.

    Pair groups in ``itertools.combinations`` order over the
    (subject, sample)-sorted units of each side (or over (subject, sample)
    units for the left/right protocol), genuine groups first; a left/right
    group is its L comparison, then its R comparison.
    """
    entries = manifest.entries
    groups = []
    if protocol == WITHIN_SIDE:
        for side in sorted({e.eye_side for e in entries}):
            units = sorted(
                (k for k, e in enumerate(entries) if e.eye_side == side),
                key=lambda k: (entries[k].subject_id, entries[k].sample_index),
            )
            for x, y in itertools.combinations(units, 2):
                ex, ey = entries[x], entries[y]
                groups.append((ex.subject_id == ey.subject_id, ex.entry_id,
                               ey.entry_id, [(x, y, side)]))
    else:
        units: dict[tuple[str, int], dict[str, int]] = {}
        for k, e in enumerate(entries):
            units.setdefault((e.subject_id, e.sample_index), {})[e.eye_side] = k
        for (kx, x), (ky, y) in itertools.combinations(sorted(units.items()), 2):
            groups.append((kx[0] == ky[0], f"{kx[0]}:{kx[1]}", f"{ky[0]}:{ky[1]}",
                           [(x["L"], y["L"], "L"), (x["R"], y["R"], "R")]))
    ordered = [g for g in groups if g[0]] + [g for g in groups if not g[0]]
    return [
        (a, b, genuine, a_id, b_id, side)
        for genuine, a_id, b_id, members in ordered
        for a, b, side in members
    ]


def rows_of(manifest: Manifest, pairs: dict) -> list[tuple]:
    """:func:`protocol_pairs` columns as reference tuples, checking sides."""
    entries = manifest.entries
    rows = []
    for a, b, genuine, a_id, b_id in zip(
        pairs["a"].tolist(), pairs["b"].tolist(), pairs["genuine"].tolist(),
        pairs["a_id"].tolist(), pairs["b_id"].tolist(),
    ):
        assert entries[a].eye_side == entries[b].eye_side
        rows.append((a, b, genuine, a_id, b_id, entries[a].eye_side))
    return rows


def group_counts(pairs: dict, rows_per_group: int = 1) -> tuple[int, int]:
    genuine = pairs["genuine"]
    n_gen = int(np.count_nonzero(genuine))
    return n_gen // rows_per_group, (genuine.size - n_gen) // rows_per_group


class TestGeneratePairs:
    def test_two_subjects_two_samples_by_hand(self):
        pairs = protocol_pairs(make_manifest(2, 2), WITHIN_SIDE)
        assert group_counts(pairs) == (2, 4)
        genuine_ids = set(zip(pairs["a_id"][pairs["genuine"]].tolist(),
                              pairs["b_id"][pairs["genuine"]].tolist()))
        assert genuine_ids == {
            ("S0000:L:0", "S0000:L:1"),
            ("S0001:L:0", "S0001:L:1"),
        }

    def test_closed_forms_on_synthetic_shapes(self):
        for subjects, samples in ((3, 4), (5, 2), (7, 3)):
            manifest = make_manifest(subjects, samples)
            n_gen, n_imp = count_pairs(manifest, WITHIN_SIDE)
            assert n_gen == subjects * math.comb(samples, 2)
            assert n_imp == math.comb(subjects, 2) * samples**2

    def test_both_sides_within_side_doubles_counts(self):
        manifest = make_manifest(3, 2, sides="LR")
        n_gen, n_imp = count_pairs(manifest, WITHIN_SIDE)
        assert n_gen == 2 * 3 * 1
        assert n_imp == 2 * 3 * 4

    def test_sum_rule_units_and_members(self):
        manifest = make_manifest(3, 2, sides="LR")
        pairs = protocol_pairs(manifest, LEFT_RIGHT_DISJOINT)
        assert group_counts(pairs, rows_per_group=2) == (3 * 1, 3 * 4)
        entries = manifest.entries
        # the first group: two rows, its L comparison then its R comparison
        assert [entries[a].eye_side for a in pairs["a"][:2]] == ["L", "R"]
        assert [entries[b].eye_side for b in pairs["b"][:2]] == ["L", "R"]
        assert pairs["a_id"][:2].tolist() == ["S0000:0", "S0000:0"]
        assert pairs["b_id"][:2].tolist() == ["S0000:1", "S0000:1"]
        assert pairs["genuine"][:2].all()

    def test_sum_rule_requires_both_sides(self):
        entries = list(make_manifest(2, 2, sides="LR").entries)
        with pytest.raises(ValueError, match="both eye sides"):
            protocol_pairs(Manifest(tuple(entries[:-1])), LEFT_RIGHT_DISJOINT)

    def test_fewer_than_two_subjects_rejected(self):
        with pytest.raises(ValueError, match="two subjects"):
            protocol_pairs(make_manifest(1, 5), WITHIN_SIDE)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_pairs(make_manifest(2, 2), "everything-vs-everything")

    def test_ragged_manifest_supported(self):
        # variable samples per subject still pair correctly
        entries = (
            ManifestEntry("A", "L", 0, "a0", "a0"),
            ManifestEntry("A", "L", 1, "a1", "a1"),
            ManifestEntry("A", "L", 2, "a2", "a2"),
            ManifestEntry("B", "L", 0, "b0", "b0"),
        )
        pairs = protocol_pairs(Manifest(entries), WITHIN_SIDE)
        assert group_counts(pairs) == (3, 3)

    def test_count_pairs_agrees_with_enumeration(self):
        # ragged subjects, both sides, a side-only sample on one subject
        entries = [
            ManifestEntry(s, side, i, f"{s}{side}{i}", f"{s}{side}{i}")
            for s, n in (("A", 3), ("B", 1), ("C", 2))
            for side in "LR"
            for i in range(n)
        ]
        entries.append(ManifestEntry("C", "L", 7, "cl7", "cl7"))
        ragged = Manifest(tuple(entries))
        assert count_pairs(ragged, WITHIN_SIDE) == group_counts(protocol_pairs(ragged))
        paired = Manifest(tuple(entries[:-1]))
        assert count_pairs(paired, LEFT_RIGHT_DISJOINT) == group_counts(
            protocol_pairs(paired, LEFT_RIGHT_DISJOINT), rows_per_group=2
        )

    def test_count_pairs_raises_the_enumeration_errors(self):
        entries = make_manifest(2, 2, sides="LR").entries
        with pytest.raises(ValueError, match="both eye sides"):
            count_pairs(Manifest(entries[:-1]), LEFT_RIGHT_DISJOINT)
        with pytest.raises(ValueError, match="two subjects"):
            count_pairs(make_manifest(1, 5), WITHIN_SIDE)
        with pytest.raises(ValueError, match="unknown protocol"):
            count_pairs(make_manifest(2, 2), "everything-vs-everything")

    @pytest.mark.parametrize("protocol", [WITHIN_SIDE, LEFT_RIGHT_DISJOINT])
    def test_rows_match_combinations_reference(self, protocol):
        # ragged, shuffled, two-sided; ids that sort differently as numbers
        rng = np.random.default_rng(11)
        entries = [
            ManifestEntry(s, side, i, f"{s}{side}{i}", f"{s}{side}{i}")
            for s, indices in (("S10", (0, 4, 2)), ("S2", (1,)), ("S3", (5, 0)),
                               ("S07", (3, 1, 9, 2)))
            for side in "LR"
            for i in indices
        ]
        if protocol == WITHIN_SIDE:
            entries.append(ManifestEntry("S2", "R", 8, "s2r8", "s2r8"))
        order = rng.permutation(len(entries))
        manifest = Manifest(tuple(entries[k] for k in order))
        expected = reference_pairs(manifest, protocol)
        assert rows_of(manifest, protocol_pairs(manifest, protocol)) == expected
        assert any(genuine for _, _, genuine, *_ in expected)
        assert not all(genuine for _, _, genuine, *_ in expected)


class TestSumRule:
    def test_single_pair(self):
        assert sum_rule_combine([0.3], [0.5])[0] == pytest.approx(0.8)

    def test_zero_left_is_identity(self):
        right = np.array([0.1, 0.2, 0.3])
        assert (sum_rule_combine(np.zeros(3), right) == right).all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        left = rng.normal(size=50)
        right = rng.normal(size=50)
        combined = sum_rule_combine(left, right)
        for k in range(50):
            assert combined[k] == left[k] + right[k]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sum_rule_combine([1.0], [1.0, 2.0])


class TestRocCurve:
    def test_perfect_separation_passes_through_zero_one(self):
        scores = ScoreSet(genuine=np.full(20, 0.9), impostor=np.full(30, 0.1))
        curve = roc_curve(scores)
        assert any(f == 0.0 and t == 1.0 for f, t in zip(curve.far, curve.tar))

    def test_monotone_in_both_coordinates(self):
        rng = np.random.default_rng(1)
        scores = ScoreSet(
            genuine=rng.normal(1, 1, 500), impostor=rng.normal(0, 1, 500)
        )
        curve = roc_curve(scores)
        assert (np.diff(curve.far) >= 0).all()
        assert (np.diff(curve.tar) >= 0).all()
        assert (np.diff(curve.thresholds) <= 0).all()

    def test_identical_distributions_give_half_auc(self):
        rng = np.random.default_rng(2)
        scores = ScoreSet(
            genuine=rng.normal(0, 1, 10_000), impostor=rng.normal(0, 1, 10_000)
        )
        curve = roc_curve(scores)
        assert np.trapezoid(curve.tar, curve.far) == pytest.approx(0.5, abs=0.02)

    def test_toy_set_matches_hand_enumeration(self):
        scores = ScoreSet(
            genuine=np.array([0.9, 0.6, 0.4]), impostor=np.array([0.5, 0.3, 0.1])
        )
        curve = roc_curve(scores)
        observed = {
            (round(t, 10), f, g)
            for t, f, g in zip(curve.thresholds, curve.far, curve.tar)
        }
        # brute-force enumeration over the six distinct thresholds plus sentinel
        expected = set()
        genuine = [0.9, 0.6, 0.4]
        impostor = [0.5, 0.3, 0.1]
        thresholds = sorted(set(genuine + impostor))
        thresholds.append(math.nextafter(0.9, math.inf))
        for t in thresholds:
            far = sum(s >= t for s in impostor) / 3
            tar = sum(s >= t for s in genuine) / 3
            expected.add((round(t, 10), far, tar))
        assert observed == expected

    @pytest.mark.parametrize("higher_is_genuine", [True, False])
    def test_thresholds_are_np_unique_of_the_scores(self, higher_is_genuine):
        rng = np.random.default_rng(4)
        genuine = np.concatenate([rng.normal(1, 1, 300).round(1), [0.0, -0.0, -0.0]])
        impostor = np.concatenate([[-0.0, 0.0], rng.normal(0, 1, 900).round(2)])
        scores = ScoreSet(genuine, impostor, higher_is_genuine)
        want = np.unique(np.concatenate(scores.oriented()))  # keeps one of 0.0 and -0.0
        curve = roc_curve(scores)
        assert curve.thresholds[:0:-1].tobytes() == want.tobytes()
        assert curve.thresholds[0] == np.nextafter(want[-1], np.inf)

    def test_peak_memory_stays_near_four_curve_arrays(self):
        rng = np.random.default_rng(5)
        scores = ScoreSet(genuine=rng.normal(1, 1, 4_000), impostor=rng.normal(0, 1, 196_000))
        tracemalloc.start()
        try:
            curve = roc_curve(scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * curve.thresholds.nbytes

    def test_empty_class_rejected(self):
        scores = ScoreSet(genuine=np.array([]), impostor=np.array([0.5]))
        with pytest.raises(ValueError, match="non-empty"):
            roc_curve(scores)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ScoreSet(genuine=np.array([np.nan]), impostor=np.array([0.5]))


class TestEer:
    def test_perfect_separation_gives_zero(self):
        scores = ScoreSet(genuine=np.full(50, 0.9), impostor=np.full(50, 0.1))
        assert eer(roc_curve(scores)) == 0.0

    def test_identical_distributions_give_half(self):
        rng = np.random.default_rng(4)
        scores = ScoreSet(
            genuine=rng.normal(0, 1, 10_000), impostor=rng.normal(0, 1, 10_000)
        )
        assert eer(roc_curve(scores)) == pytest.approx(0.5, abs=0.02)

    def test_gaussian_mean_gap_two_matches_closed_form(self):
        rng = np.random.default_rng(5)
        scores = ScoreSet(
            genuine=rng.normal(2, 1, 100_000), impostor=rng.normal(0, 1, 100_000)
        )
        assert eer(roc_curve(scores)) == pytest.approx(normal_cdf(-1.0), abs=0.01)

    def test_negating_scores_and_flipping_orientation_is_invariant(self):
        rng = np.random.default_rng(6)
        genuine = rng.normal(1.5, 1, 3000)
        impostor = rng.normal(0, 1, 4000)
        forward = eer(roc_curve(ScoreSet(genuine=genuine, impostor=impostor)))
        flipped = eer(roc_curve(
            ScoreSet(genuine=-genuine, impostor=-impostor, higher_is_genuine=False)
        ))
        assert forward == flipped

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(7)
        genuine = rng.normal(1.5, 1, 2000)
        impostor = rng.normal(0, 1, 2000)
        base = ScoreSet(genuine=genuine, impostor=impostor)
        warped = ScoreSet(
            genuine=np.exp(0.5 * genuine), impostor=np.exp(0.5 * impostor)
        )
        assert eer(roc_curve(base)) == pytest.approx(eer(roc_curve(warped)), abs=1e-12)
        assert (tar_at_far(roc_curve(base), 0.01, n_impostor=base.n_impostor).tar
                == tar_at_far(roc_curve(warped), 0.01, n_impostor=warped.n_impostor).tar)
        assert (roc_curve(base).far == roc_curve(warped).far).all()
        assert (roc_curve(base).tar == roc_curve(warped).tar).all()


class TestTarAtFar:
    def test_perfect_separation_gives_one(self):
        curve = roc_curve(ScoreSet(genuine=np.full(50, 0.9), impostor=np.full(50, 0.1)))
        for target in (0.5, 0.01, 1e-4):
            assert tar_at_far(curve, target, n_impostor=50).tar == 1.0

    def test_underpowered_flag(self):
        scores = ScoreSet(
            genuine=np.linspace(0.5, 1.0, 20), impostor=np.linspace(0.0, 0.6, 50)
        )
        curve = roc_curve(scores)
        result = tar_at_far(curve, 1e-4, n_impostor=scores.n_impostor)
        assert result.underpowered
        assert result.achieved_far == 0.0
        well_powered = tar_at_far(curve, 0.1, n_impostor=scores.n_impostor)
        assert not well_powered.underpowered

    def test_toy_set_matches_exhaustive_enumeration(self):
        genuine = np.array([0.92, 0.81, 0.77, 0.65, 0.50])
        impostor = np.array([0.70, 0.55, 0.40, 0.30, 0.20])
        curve = roc_curve(ScoreSet(genuine=genuine, impostor=impostor))
        for target in (0.0, 0.2, 0.4, 0.6, 1.0):
            best = -1.0
            for t in np.concatenate([genuine, impostor, [1.0]]):
                far = float((impostor >= t).mean())
                tar = float((genuine >= t).mean())
                if far <= target:
                    best = max(best, tar)
            assert tar_at_far(curve, target, n_impostor=impostor.size).tar == best

    def test_bad_target_rejected(self):
        curve = roc_curve(ScoreSet(genuine=np.array([1.0]), impostor=np.array([0.0])))
        with pytest.raises(ValueError, match="far_target"):
            tar_at_far(curve, 1.5, n_impostor=1)


class TestReferenceProtocolShapes:
    """Exact pair counts for two reference verification-protocol shapes."""

    def test_single_side_159_subjects_10_samples(self):
        manifest = make_manifest(159, 10, sides="L")
        assert count_pairs(manifest, WITHIN_SIDE) == (7_155, 1_256_100)

    def test_sum_rule_180_subjects_10_samples_both_sides(self):
        manifest = make_manifest(180, 10, sides="LR")
        assert count_pairs(manifest, LEFT_RIGHT_DISJOINT) == (8_100, 1_611_000)
