"""Command-line pipeline: synth, match, fuse-train, score, eval, checks.

Every command is deterministic for fixed flags and seed; failures exit
non-zero with a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bitmatch, fileio, fusion, gradcheck, mlp, reference, synth, templates
from .evaluation import (
    PROTOCOLS,
    WITHIN_SIDE,
    ScoreSet,
    count_pairs,
    eer,
    protocol_pairs,
    roc_curve,
    sum_rule_combine,
    tar_at_far,
)


def _add_matcher_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha",
        type=float,
        default=bitmatch.DEFAULT_ALPHA,
        help="agreement weighting: 1-1 pairs score 2-alpha, 0-0 pairs score alpha",
    )
    parser.add_argument("--max-shift", type=int, default=16, help="shift search radius")
    parser.add_argument("--step", type=int, default=1, help="shift search step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irisfuse",
        description="Masked iris-template matching with dynamic periocular fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic population")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subjects", type=int, default=20)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--height", type=int, default=templates.DEFAULT_HEIGHT)
    p.add_argument("--width", type=int, default=templates.DEFAULT_WIDTH)
    p.add_argument("--perioc-dim", type=int, default=templates.DEFAULT_PERIOC_DIM)
    p.add_argument("--bit-density", type=float, default=0.5)
    p.add_argument("--flip-rate", type=float, default=0.1)
    p.add_argument("--perioc-noise", type=float, default=0.03)
    p.add_argument(
        "--mask-coverage", type=float, nargs=2, default=(0.6, 0.95), metavar=("LO", "HI")
    )
    p.add_argument("--degraded-fraction", type=float, default=0.0)
    p.add_argument("--degraded-flip-rate", type=float, default=0.3)
    p.add_argument(
        "--degraded-coverage",
        type=float,
        nargs=2,
        default=(0.15, 0.35),
        metavar=("LO", "HI"),
    )
    p.add_argument("--both-sides", action="store_true")
    p.add_argument(
        "--train-fraction",
        type=float,
        default=None,
        help="also write subject-disjoint manifest-train/test splits",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("match", help="score all protocol pairs of a population")
    p.add_argument("--manifest", required=True)
    p.add_argument("--templates-dir", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="match CSV path")
    p.add_argument("--protocol", choices=PROTOCOLS, default=WITHIN_SIDE)
    _add_matcher_flags(p)
    p.add_argument(
        "--unmasked-ws",
        action="store_true",
        help="score weighted similarity over all pixels, ignoring masks",
    )
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("fuse-train", help="train the fusion network from a match CSV")
    p.add_argument("--match-csv", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--optimizer", choices=mlp.OPTIMIZERS, default="sgd-momentum")
    p.add_argument(
        "--ratio",
        type=int,
        nargs=2,
        default=(1, 2),
        metavar=("GENUINE", "IMPOSTOR"),
        help="class-balance sampling ratio; 0 0 disables balancing",
    )
    p.set_defaults(func=cmd_fuse_train)

    p = sub.add_parser("score", help="emit static and dynamic fused scores")
    p.add_argument("--match-csv", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="score CSV path")
    p.add_argument("--alpha", type=float, default=bitmatch.DEFAULT_ALPHA)
    p.add_argument(
        "--static-weight",
        type=float,
        default=0.5,
        help="iris weight of the fixed weighted-sum baseline",
    )
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="ROC / EER / TAR@FAR report from a score CSV")
    p.add_argument("--scores", required=True)
    p.add_argument(
        "--column",
        choices=("dynamic", "static", "ws", "hamming", "perioc"),
        default="dynamic",
    )
    p.add_argument("--out-prefix", required=True, help="writes <prefix>-roc.csv and <prefix>-summary.json")
    p.add_argument("--far-target", type=float, default=1e-4)
    p.add_argument(
        "--sum-rule",
        action="store_true",
        help="sum scores of aligned left/right comparisons per pair",
    )
    p.add_argument("--dataset", default="unknown")
    p.add_argument("--method", default=None, help="method label; defaults to the column")
    p.add_argument("--alpha", type=float, default=bitmatch.DEFAULT_ALPHA)
    p.add_argument("--max-shift", type=int, default=16)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the fusion gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=gradcheck.DEFAULT_POINTS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle", help="packed kernels vs per-pixel reference")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=1, help="pair-count multiplier")
    p.set_defaults(func=cmd_oracle)

    return parser


# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        seed=args.seed,
        num_subjects=args.subjects,
        samples_per_subject=args.samples,
        height=args.height,
        width=args.width,
        bit_density=args.bit_density,
        genuine_flip_rate=args.flip_rate,
        mask_coverage_range=tuple(args.mask_coverage),
        perioc_dim=args.perioc_dim,
        perioc_within_noise=args.perioc_noise,
        both_sides=args.both_sides,
        degraded_fraction=args.degraded_fraction,
        degraded_flip_rate=args.degraded_flip_rate,
        degraded_coverage_range=tuple(args.degraded_coverage),
    )
    if args.train_fraction is not None:
        if not 0.0 < args.train_fraction < 1.0:
            raise ValueError("--train-fraction must lie strictly inside (0, 1)")
        n_train = round(args.train_fraction * config.num_subjects)
        if n_train < 2 or config.num_subjects - n_train < 2:
            raise ValueError("--train-fraction leaves fewer than 2 subjects in a split")
    population = synth.gen_population(config)
    out = Path(args.out)
    (out / "templates").mkdir(parents=True, exist_ok=True)
    for ref, template in sorted(population.templates.items()):
        fileio.write_template(out / "templates" / f"{ref}.irt", template)
    fileio.write_feature_csv(out / "features.csv", population.periocular)
    fileio.write_manifest(out / "manifest.jsonl", population.manifest)
    if args.train_fraction is not None:
        subjects = population.manifest.subjects()
        train_ids = set(subjects[:n_train])
        fileio.write_manifest(
            out / "manifest-train.jsonl", population.manifest.filter_subjects(train_ids)
        )
        fileio.write_manifest(
            out / "manifest-test.jsonl",
            population.manifest.filter_subjects(set(subjects) - train_ids),
        )
    meta = {
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in vars(config).items()},
        "degraded_subjects": sorted(population.degraded_subjects),
    }
    (out / "synth-config.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {len(population.templates)} templates for "
        f"{config.num_subjects} subjects to {out}"
    )
    return 0


def cmd_match(args) -> int:
    manifest = fileio.read_manifest(args.manifest)
    periocular = fileio.read_feature_csv(args.features)
    policy = bitmatch.ShiftPolicy(max_shift=args.max_shift, step=args.step)
    pairs = protocol_pairs(manifest, args.protocol)
    a, b = pairs["a"], pairs["b"]

    templates_dir = Path(args.templates_dir)
    index: dict[str, int] = {}
    templates = []
    for entry in manifest.entries:
        if entry.template_ref not in index:
            index[entry.template_ref] = len(templates)
            templates.append(
                fileio.read_template(templates_dir / f"{entry.template_ref}.irt")
            )
        if entry.periocular_ref not in periocular:
            raise ValueError(f"feature table misses id {entry.periocular_ref!r}")

    # per-entry arrays, gathered per comparison by the manifest rows a and b
    entries = manifest.entries
    template_of = np.array([index[e.template_ref] for e in entries], dtype=np.intp)
    records = [periocular[e.periocular_ref] for e in entries]
    eye = np.array([r.eye_area for r in records])
    brow = np.array([r.brow_area for r in records])
    ia, ib = template_of[a], template_of[b]
    scores = bitmatch.match_pairs(templates, ia, ib, args.alpha, policy)
    ws = scores.ws
    if args.unmasked_ws:
        ws = bitmatch.match_pairs(templates, ia, ib, args.alpha, policy, unmasked=True).ws
    mask_rates = np.array([t.valid_fraction() for t in templates])
    usable = scores.usable
    fileio.write_match_csv(args.out, {
        "a_id": pairs["a_id"],
        "b_id": pairs["b_id"],
        "side": np.array([e.eye_side for e in entries])[a],
        "label": np.where(pairs["genuine"], "genuine", "impostor"),
        "iris_valid": usable,
        "hamming": np.where(usable, scores.hamming, np.nan),
        "ws": np.where(usable, ws, np.nan),
        "best_shift": np.where(usable, scores.best_shift, np.nan),
        "joint_valid": np.where(usable, scores.joint_valid, np.nan),
        "mask_rate_a": mask_rates[ia],
        "mask_rate_b": mask_rates[ib],
        "perioc_dist": fusion.perioc_distances(records, a, b),
        "eye_sum": eye[a] + eye[b],
        "eye_diff": eye[a] - eye[b],
        "brow_sum": brow[a] + brow[b],
        "brow_diff": brow[a] - brow[b],
    })
    n_gen, n_imp = count_pairs(manifest, args.protocol)
    print(f"wrote {len(a)} comparisons ({n_gen} genuine / {n_imp} impostor groups)")
    return 0


def cmd_fuse_train(args) -> int:
    matches = fileio.read_match_csv(args.match_csv)
    use = matches["iris_valid"]
    n_usable = int(np.count_nonzero(use))
    if use.size > n_usable:
        print(f"excluded {use.size - n_usable} unusable iris pairs from training",
              file=sys.stderr)
    if n_usable < 2:
        raise ValueError("need at least two usable comparisons to train")
    norm = fusion.NormalizationParams.from_distances(matches["perioc_dist"][use])
    features = fusion.cue_matrix(matches, norm)
    labels = (matches["label"][use] != "genuine").astype(np.int64)
    ratio = None if tuple(args.ratio) == (0, 0) else tuple(args.ratio)
    config = mlp.TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        genuine_impostor_ratio=ratio,
        optimizer=args.optimizer,
    )
    params = mlp.train_mlp(features, labels, config)
    fileio.write_checkpoint(args.out, params, norm, config)
    print(f"trained on {n_usable} comparisons, checkpoint at {args.out}")
    return 0


def cmd_score(args) -> int:
    matches = fileio.read_match_csv(args.match_csv)
    params, norm, _ = fileio.read_checkpoint(args.checkpoint)
    use = matches["iris_valid"]
    cues = fusion.cue_matrix(matches, norm)
    # validates --alpha and --static-weight even when no row is usable
    iris01, perioc01 = fusion.static_inputs(cues[:, 0], args.alpha, cues[:, 1])
    static = fusion.static_fuse(iris01, perioc01, args.static_weight)
    scores = {name: matches[name] for name, _ in fileio.SCORE_SCHEMA if name in matches}
    for name, values in (
        ("iris_score", cues[:, 0]),
        ("perioc_norm", cues[:, 1]),
        ("static", static),
        ("dynamic", fusion.dynamic_fuse(params, cues)),
    ):
        scores[name] = np.full(use.size, np.nan)
        scores[name][use] = values
    fileio.write_score_csv(args.out, scores)
    print(f"wrote {use.size} scored comparisons to {args.out}")
    return 0


# eval --column -> (score-table column, whether higher scores mean genuine)
_EVAL_COLUMNS = {
    "dynamic": ("dynamic", True),
    "static": ("static", True),
    "ws": ("ws", True),
    "hamming": ("hamming", False),
    "perioc": ("perioc_norm", False),
}


def _collect_scores(
    table: dict[str, np.ndarray], column: str, combine_sides: bool
) -> tuple[ScoreSet, int]:
    name, higher_is_genuine = _EVAL_COLUMNS[column]
    values, genuine = table[name], table["label"] == "genuine"
    if combine_sides:
        # group rows by (a_id, b_id); pairs keep the order of their first row
        _, a_code = np.unique(table["a_id"], return_inverse=True)
        b_ids, b_code = np.unique(table["b_id"], return_inverse=True)
        _, first_row, group, size = np.unique(
            a_code * len(b_ids) + b_code,
            return_index=True, return_inverse=True, return_counts=True,
        )
        appearance = np.argsort(first_row)
        n_genuine = np.bincount(group[genuine], minlength=size.size)
        mixed = (n_genuine != 0) & (n_genuine != size)
        faulty = appearance[(mixed | (size != 2))[appearance]]
        if faulty.size:
            g = faulty[0]
            a_id, b_id = table["a_id"][first_row[g]], table["b_id"][first_row[g]]
            if mixed[g]:
                raise ValueError(f"inconsistent labels for pair ({a_id}, {b_id})")
            raise ValueError(
                f"sum rule expects two aligned comparisons per pair, "
                f"({a_id}, {b_id}) has {size[g]}"
            )
        members = np.argsort(group, kind="stable").reshape(-1, 2)
        first, second = members[appearance].T
        pair_sides = np.sort([table["side"][first], table["side"][second]], axis=0)
        bad = np.flatnonzero((pair_sides[0] != "L") | (pair_sides[1] != "R"))
        if bad.size:
            k = first[bad[0]]
            raise ValueError(
                f"sum rule expects one L and one R comparison per pair, "
                f"({table['a_id'][k]}, {table['b_id'][k]}) has sides "
                f"{pair_sides[:, bad[0]].tolist()}"
            )
        values = sum_rule_combine(values[first], values[second])
        genuine = genuine[first]
    scored = ~np.isnan(values)  # a pair is unusable if either side is
    return (
        ScoreSet(
            genuine=values[scored & genuine],
            impostor=values[scored & ~genuine],
            higher_is_genuine=higher_is_genuine,
        ),
        int(np.count_nonzero(~scored)),
    )


def cmd_eval(args) -> int:
    scores, skipped = _collect_scores(
        fileio.read_score_csv(args.scores), args.column, args.sum_rule
    )
    if skipped:
        print(f"skipped {skipped} comparisons without a {args.column} score",
              file=sys.stderr)
    curve = roc_curve(scores)
    result = tar_at_far(curve, args.far_target, n_impostor=scores.n_impostor)
    if result.underpowered:
        print(
            f"warning: {scores.n_impostor} impostor scores cannot resolve "
            f"FAR={args.far_target}",
            file=sys.stderr,
        )
    summary = {
        "dataset": args.dataset,
        "n_genuine": scores.n_genuine,
        "n_impostor": scores.n_impostor,
        "eer": eer(curve),
        "tar_at_far": result.tar,
        "far_target": args.far_target,
        "alpha": args.alpha,
        "max_shift": args.max_shift,
        "method": args.method or args.column,
    }
    fileio.write_roc_csv(f"{args.out_prefix}-roc.csv", curve)
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    Path(f"{args.out_prefix}-summary.json").write_text(summary_text, encoding="utf-8")
    print(summary_text, end="")
    return 0


def cmd_gradcheck(args) -> int:
    report = gradcheck.check_mlp_gradients(seed=args.seed, points=args.points)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"[{status}] {report.name}: max relative error "
        f"{report.max_rel_error:.3e} (tolerance {report.tolerance:g}, "
        f"{report.points} points, {report.elapsed_seconds:.2f}s)"
    )
    return 0 if report.passed else 1


def cmd_oracle(args) -> int:
    report = reference.run_equivalence_suite(seed=args.seed, scale=args.scale)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"[{status}] packed kernels vs per-pixel reference: "
        f"{report.pairs_checked} pairs, {report.mismatches} mismatches, "
        f"{report.unusable_pairs} unusable, {report.elapsed_seconds:.2f}s"
    )
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # contract: machine-readable errors on stderr
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
