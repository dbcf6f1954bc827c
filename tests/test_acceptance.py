"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance is pinned here; nothing is calibrated at
runtime.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from irisfuse import bitmatch, fusion, gradcheck
from irisfuse.cli import main as cli_main
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
    tar_at_far,
)
from irisfuse.fileio import read_score_csv
from irisfuse.reference import run_equivalence_suite
from irisfuse.synth import degraded_scenario, gen_population, gen_score_scenario
from irisfuse.templates import pack_template

SCENARIO_SEED = 0  # published seed of the end-to-end fusion experiment


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_kernel_oracle_equivalence():
    suite = run_equivalence_suite(seed=0)
    ok = suite.passed and suite.pairs_checked >= 1000 and suite.elapsed_seconds < 30
    report(
        "kernel-oracle-equivalence",
        ok,
        f"{suite.pairs_checked} pairs (4x4 .. 64x512), "
        f"{suite.mismatches} mismatches, {suite.elapsed_seconds:.1f}s (< 30s)",
    )
    assert suite.pairs_checked >= 1000
    assert suite.mismatches == 0
    assert suite.elapsed_seconds < 30


def test_ws_hamming_reduction_at_alpha_one():
    rng = np.random.default_rng(1)
    checked = 0
    worst = 0.0
    sizes = ((8, 32, 0.9), (16, 64, 0.75), (32, 128, 0.8), (64, 512, 0.85))
    policy = bitmatch.ShiftPolicy(8, 2)
    while checked < 1000:
        h, w, density = sizes[checked % len(sizes)]
        bits = (rng.random((h, w)) < 0.5).astype(np.uint8)
        mask_a = (rng.random((h, w)) < density).astype(np.uint8)
        mask_b = (rng.random((h, w)) < density).astype(np.uint8)
        a = pack_template(bits, mask_a, h, w)
        if checked % 3 == 0:
            # genuinely shifted partner with extra bit noise
            rolled = np.roll(bits, int(rng.integers(-8, 9)), axis=1)
            flips = (rng.random((h, w)) < 0.1).astype(np.uint8)
            b = pack_template(rolled ^ flips, mask_b, h, w)
        else:
            b = pack_template(
                (rng.random((h, w)) < 0.5).astype(np.uint8), mask_b, h, w
            )
        try:
            ws, _ = bitmatch.weighted_similarity(a, b, 1.0, policy)
            hd, _, _ = bitmatch.masked_hamming(a, b, policy)
        except bitmatch.EmptyJointMaskError:
            continue
        worst = max(worst, abs(ws + hd - 1.0))
        checked += 1
    ok = worst < 1e-12
    report(
        "ws-hamming-reduction",
        ok,
        f"alpha=1 on {checked} masked/shifted pairs, max |WS + HD - 1| = {worst:.2e}"
        " (< 1e-12)",
    )
    assert worst < 1e-12


def test_gradient_checks():
    r = gradcheck.check_mlp_gradients(seed=0, points=20)
    ok = r.passed and r.elapsed_seconds < 10
    report(
        "gradient-checks",
        ok,
        f"{r.name} {r.max_rel_error:.1e} (tolerance 1e-4, 20 points, "
        f"{r.elapsed_seconds:.1f}s < 10s)",
    )
    assert r.max_rel_error < 1e-4, r.name
    assert r.elapsed_seconds < 10


def _shape_manifest(subjects: int, samples: int, sides: str) -> Manifest:
    entries = []
    for s in range(subjects):
        subject = f"S{s:04d}"
        for side in sides:
            for i in range(samples):
                ref = f"{subject}_{side}{i}"
                entries.append(ManifestEntry(subject, side, i, ref, ref))
    return Manifest(tuple(entries))


def _enumerated_counts(manifest: Manifest, protocol: str, rows_per_group: int):
    """(genuine, impostor) groups of the protocol's index arrays."""
    pairs = protocol_pairs(manifest, protocol)
    n_rows = pairs["a"].size
    assert pairs["b"].size == pairs["genuine"].size == n_rows
    assert n_rows % rows_per_group == 0
    genuine = int(np.count_nonzero(pairs["genuine"]))
    return genuine // rows_per_group, (n_rows - genuine) // rows_per_group


def test_protocol_counts():
    single_manifest = _shape_manifest(159, 10, "L")
    combined_manifest = _shape_manifest(180, 10, "LR")
    single = count_pairs(single_manifest, WITHIN_SIDE)
    combined = count_pairs(combined_manifest, LEFT_RIGHT_DISJOINT)
    single_rows = _enumerated_counts(single_manifest, WITHIN_SIDE, 1)
    combined_rows = _enumerated_counts(combined_manifest, LEFT_RIGHT_DISJOINT, 2)
    ok = (
        single == single_rows == (7_155, 1_256_100)
        and combined == combined_rows == (8_100, 1_611_000)
    )
    report(
        "protocol-counts",
        ok,
        f"159x10 single side -> {single[0]:,}/{single[1]:,} "
        f"(index arrays {single_rows[0]:,}/{single_rows[1]:,}); "
        f"180x10 both sides + sum rule -> {combined[0]:,}/{combined[1]:,} "
        f"(index arrays {combined_rows[0]:,}/{combined_rows[1]:,})",
    )
    assert single == single_rows == (7_155, 1_256_100)
    assert combined == combined_rows == (8_100, 1_611_000)


def test_metric_oracles():
    gaussian = gen_score_scenario(2, 2.0, 1.0, 0.0, 1.0, 100_000, 100_000)
    gaussian_eer = eer(roc_curve(gaussian))
    expected = normal_cdf(-1.0)

    disjoint = gen_score_scenario(3, 10.0, 0.5, 0.0, 0.5, 5_000, 5_000)
    disjoint_eer = eer(roc_curve(disjoint))

    base = gen_score_scenario(4, 1.0, 1.0, 0.0, 1.0, 20_000, 20_000)
    warped = ScoreSet(
        genuine=np.exp(0.5 * base.genuine), impostor=np.exp(0.5 * base.impostor)
    )
    curve_base = roc_curve(base)
    curve_warped = roc_curve(warped)
    eer_drift = abs(eer(curve_base) - eer(curve_warped))
    tar_drift = abs(
        tar_at_far(curve_base, 1e-3, n_impostor=base.n_impostor).tar
        - tar_at_far(curve_warped, 1e-3, n_impostor=warped.n_impostor).tar
    )
    roc_identical = (curve_base.far == curve_warped.far).all() and (
        curve_base.tar == curve_warped.tar
    ).all()

    ok = (
        abs(gaussian_eer - expected) < 0.01
        and disjoint_eer == 0.0
        and eer_drift < 1e-12
        and tar_drift == 0.0
        and roc_identical
    )
    report(
        "metric-oracle",
        ok,
        f"Gaussian-gap-2 EER {gaussian_eer:.4f} vs {expected:.4f} (+-0.01), "
        f"disjoint EER {disjoint_eer}, increasing-transform drift {eer_drift:.1e}",
    )
    assert abs(gaussian_eer - expected) < 0.01
    assert disjoint_eer == 0.0
    assert eer_drift < 1e-12
    assert tar_drift == 0.0
    assert roc_identical


def _run_cli(*args):
    code = cli_main([str(a) for a in args])
    assert code == 0, f"command failed: {args}"


def _scenario_synth_args(out_dir: Path, seed: int):
    config = degraded_scenario(seed=seed)
    return [
        "synth", "--out", out_dir, "--seed", seed,
        "--subjects", config.num_subjects,
        "--samples", config.samples_per_subject,
        "--height", config.height, "--width", config.width,
        "--perioc-dim", config.perioc_dim,
        "--perioc-noise", config.perioc_within_noise,
        "--flip-rate", config.genuine_flip_rate,
        "--mask-coverage", *config.mask_coverage_range,
        "--degraded-fraction", config.degraded_fraction,
        "--degraded-flip-rate", config.degraded_flip_rate,
        "--degraded-coverage", *config.degraded_coverage_range,
        "--train-fraction", 0.5,
    ]


def _pipeline(out_dir: Path, seed: int):
    """synth -> match -> fuse-train -> match -> score -> eval, via the CLI."""
    _run_cli(*_scenario_synth_args(out_dir, seed))
    common = [
        "--templates-dir", out_dir / "templates",
        "--features", out_dir / "features.csv",
        "--max-shift", 8,
    ]
    _run_cli("match", "--manifest", out_dir / "manifest-train.jsonl",
             "--out", out_dir / "match-train.csv", *common)
    _run_cli("fuse-train", "--match-csv", out_dir / "match-train.csv",
             "--out", out_dir / "checkpoint.json", "--seed", seed,
             "--optimizer", "adam", "--learning-rate", 3e-3, "--epochs", 400)
    _run_cli("match", "--manifest", out_dir / "manifest-test.jsonl",
             "--out", out_dir / "match-test.csv", *common)
    _run_cli("score", "--match-csv", out_dir / "match-test.csv",
             "--checkpoint", out_dir / "checkpoint.json",
             "--out", out_dir / "scores.csv")
    _run_cli("eval", "--scores", out_dir / "scores.csv", "--column", "dynamic",
             "--out-prefix", out_dir / "dynamic", "--dataset", "degraded-synthetic")


def test_end_to_end_fusion_benefit(tmp_path):
    start = time.perf_counter()
    out_dir = tmp_path / "scenario"
    _pipeline(out_dir, SCENARIO_SEED)

    table = read_score_csv(out_dir / "scores.csv")
    use = ~np.isnan(table["ws"])
    labels = np.where(table["label"][use] == "genuine", 0, 1)
    ws = table["ws"][use]
    perioc01 = 1.0 - table["perioc_norm"][use]
    dynamic = table["dynamic"][use]
    iris01 = ws / (2.0 - 0.3)

    def eer_of(values):
        return eer(roc_curve(
            ScoreSet(genuine=values[labels == 0], impostor=values[labels == 1])
        ))

    iris_eer = eer_of(ws)
    perioc_eer = eer_of(perioc01)
    dynamic_eer = eer_of(dynamic)
    static_eers = {
        w: eer_of(fusion.static_fuse(iris01, perioc01, w))
        for w in np.round(np.linspace(0.0, 1.0, 21), 2)
    }
    best_w, static_eer = min(static_eers.items(), key=lambda kv: kv[1])
    elapsed = time.perf_counter() - start

    summary = json.loads((out_dir / "dynamic-summary.json").read_text())
    ok = (
        dynamic_eer < static_eer < min(iris_eer, perioc_eer)
        and elapsed < 120
        and summary["eer"] == pytest.approx(dynamic_eer, abs=1e-12)
    )
    report(
        "end-to-end-fusion-benefit",
        ok,
        f"seed {SCENARIO_SEED}: EER iris {iris_eer:.4f}, perioc {perioc_eer:.4f}, "
        f"best static {static_eer:.4f} (w={best_w}), dynamic {dynamic_eer:.4f}; "
        f"{elapsed:.0f}s (< 120s)",
    )
    assert dynamic_eer < iris_eer
    assert dynamic_eer < perioc_eer
    assert dynamic_eer < static_eer
    assert static_eer < min(iris_eer, perioc_eer)
    assert elapsed < 120
    assert summary["eer"] == pytest.approx(dynamic_eer, abs=1e-12)


def test_pipeline_determinism(tmp_path):
    # compact population: the contract is byte identity, not scale
    artifacts = [
        "features.csv",
        "manifest.jsonl",
        "manifest-train.jsonl",
        "match-train.csv",
        "checkpoint.json",
        "scores.csv",
        "dynamic-roc.csv",
        "dynamic-summary.json",
    ]

    def small_run(out_dir: Path):
        _run_cli("synth", "--out", out_dir, "--seed", 12, "--subjects", 10,
                 "--samples", 3, "--height", 16, "--width", 64,
                 "--perioc-dim", 8, "--perioc-noise", 0.1,
                 "--train-fraction", 0.5)
        common = ["--templates-dir", out_dir / "templates",
                  "--features", out_dir / "features.csv", "--max-shift", 4]
        _run_cli("match", "--manifest", out_dir / "manifest-train.jsonl",
                 "--out", out_dir / "match-train.csv", *common)
        _run_cli("fuse-train", "--match-csv", out_dir / "match-train.csv",
                 "--out", out_dir / "checkpoint.json", "--seed", 12,
                 "--epochs", 50)
        _run_cli("score", "--match-csv", out_dir / "match-train.csv",
                 "--checkpoint", out_dir / "checkpoint.json",
                 "--out", out_dir / "scores.csv")
        _run_cli("eval", "--scores", out_dir / "scores.csv",
                 "--out-prefix", out_dir / "dynamic")

    first = tmp_path / "first"
    second = tmp_path / "second"
    small_run(first)
    small_run(second)
    differing = []
    for name in artifacts:
        if (first / name).read_bytes() != (second / name).read_bytes():
            differing.append(name)
    for template in sorted((first / "templates").iterdir()):
        twin = second / "templates" / template.name
        if template.read_bytes() != twin.read_bytes():
            differing.append(f"templates/{template.name}")
    ok = not differing
    report(
        "pipeline-determinism",
        ok,
        "repeated synth->match->fuse-train->score->eval byte-identical"
        if ok
        else f"differs: {differing}",
    )
    assert not differing


def test_black_rate_exceeds_white_rate_for_genuine_pairs():
    # black-majority templates: co-occurring black pixels dominate
    config = degraded_scenario(
        seed=6, num_subjects=12, samples_per_subject=4, bit_density=0.4,
        degraded_fraction=0.0, mask_coverage_range=(0.8, 1.0),
    )
    population = gen_population(config)
    pairs = protocol_pairs(population.manifest)
    refs = [e.template_ref for e in population.manifest.entries]
    genuine = pairs["genuine"]

    white_rates, black_rates = [], []
    for i, j in zip(pairs["a"][genuine].tolist(), pairs["b"][genuine].tolist()):
        a = population.templates[refs[i]]
        b = population.templates[refs[j]]
        white_rates.append(bitmatch.white_match_rate(a, b))
        black_rates.append(bitmatch.black_match_rate(a, b))
    mean_white = float(np.mean(white_rates))
    mean_black = float(np.mean(black_rates))
    ok = mean_black > mean_white
    report(
        "black-vs-white-match-rate",
        ok,
        f"genuine pairs at 40% bit density: mean R_B {mean_black:.4f} > "
        f"mean R_W {mean_white:.4f}",
    )
    assert mean_black > mean_white
