"""Command-line pipeline: synth, match, fuse-train, score, eval, checks.

Every command is deterministic for fixed flags and seed; failures exit
non-zero with a machine-readable JSON object on stderr.

The matcher settings (alpha, the shift policy, the protocol and
``--unmasked-ws``, which scores all-valid template copies) are flags of
``match`` alone, which records them in a sidecar beside its CSV
(:func:`fileio.write_sidecar`).  ``score`` copies the match CSV's
sidecar beside its own and takes alpha from it; ``eval`` reports its
alpha and shift policy.  Both refuse a table without a valid sidecar.

A flag that sets a field of ``synth.SynthConfig``, ``mlp.TrainConfig``
or ``bitmatch.ShiftPolicy`` defaults to that field's default.  The
records are the configs (``dataclasses.asdict``), and the sidecar is
``match``'s flags named by :data:`fileio.SIDECAR_KEYS`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bitmatch, fileio, fusion, gradcheck, mlp, reference, synth
from .evaluation import (
    PROTOCOLS,
    WITHIN_SIDE,
    ScoreSet,
    check_far_target,
    eer,
    protocol_pairs,
    roc_curve,
    sum_rule_combine,
    tar_at_far,
)


# eval --column -> (score-table column, whether higher scores mean genuine)
_EVAL_COLUMNS = {
    "dynamic": ("dynamic", True),
    "static": ("static", True),
    "ws": ("ws", True),
    "hamming": ("hamming", False),
    "perioc": ("perioc_norm", False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irisfuse",
        description="Masked iris-template matching with dynamic periocular fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth_defaults = synth.SynthConfig
    p = sub.add_parser("synth", help="generate a synthetic population")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=synth_defaults.seed)
    p.add_argument("--subjects", type=int, default=synth_defaults.num_subjects)
    p.add_argument("--samples", type=int, default=synth_defaults.samples_per_subject)
    p.add_argument("--height", type=int, default=synth_defaults.height)
    p.add_argument("--width", type=int, default=synth_defaults.width)
    p.add_argument("--perioc-dim", type=int, default=synth_defaults.perioc_dim)
    p.add_argument("--bit-density", type=float, default=synth_defaults.bit_density)
    p.add_argument("--flip-rate", type=float, default=synth_defaults.genuine_flip_rate)
    p.add_argument("--perioc-noise", type=float, default=synth_defaults.perioc_within_noise)
    p.add_argument("--mask-coverage", type=float, nargs=2,
                   default=synth_defaults.mask_coverage_range, metavar=("LO", "HI"))
    p.add_argument("--degraded-fraction", type=float, default=synth_defaults.degraded_fraction)
    p.add_argument("--degraded-flip-rate", type=float, default=synth_defaults.degraded_flip_rate)
    p.add_argument("--degraded-coverage", type=float, nargs=2,
                   default=synth_defaults.degraded_coverage_range, metavar=("LO", "HI"))
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
    p.add_argument("--alpha", type=float, default=bitmatch.DEFAULT_ALPHA,
                   help="agreement weighting: 1-1 pairs score 2-alpha, 0-0 pairs score alpha")
    p.add_argument("--max-shift", type=int, default=bitmatch.ShiftPolicy.max_shift,
                   help="shift search radius")
    p.add_argument("--step", type=int, default=bitmatch.ShiftPolicy.step,
                   help="shift search step")
    p.add_argument(
        "--unmasked-ws",
        action="store_true",
        help="score weighted similarity over all pixels, ignoring masks",
    )
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("fuse-train", help="train the fusion network from a match CSV")
    p.add_argument("--match-csv", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    train_defaults = mlp.TrainConfig
    p.add_argument("--seed", type=int, default=train_defaults.seed)
    p.add_argument("--learning-rate", type=float, default=train_defaults.learning_rate)
    p.add_argument("--batch-size", type=int, default=train_defaults.batch_size)
    p.add_argument("--epochs", type=int, default=train_defaults.epochs)
    p.add_argument("--optimizer", choices=mlp.OPTIMIZERS, default=train_defaults.optimizer)
    p.add_argument(
        "--ratio",
        type=int,
        nargs=2,
        default=train_defaults.genuine_impostor_ratio,
        metavar=("GENUINE", "IMPOSTOR"),
        help="class-balance sampling ratio; 0 0 disables balancing",
    )
    p.set_defaults(func=cmd_fuse_train)

    p = sub.add_parser("score", help="emit static and dynamic fused scores")
    p.add_argument("--match-csv", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="score CSV path")
    p.add_argument(
        "--static-weight",
        type=float,
        default=0.5,
        help="iris weight of the fixed weighted-sum baseline",
    )
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="ROC / EER / TAR@FAR report from a score CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--column", choices=_EVAL_COLUMNS, default="dynamic")
    p.add_argument("--out-prefix", required=True, help="writes <prefix>-roc.csv and <prefix>-summary.json")
    p.add_argument("--far-target", type=float, default=1e-4)
    p.add_argument(
        "--sum-rule",
        action="store_true",
        help="sum scores of aligned left/right comparisons per pair",
    )
    p.add_argument("--dataset", default="unknown")
    p.add_argument("--method", default=None, help="method label; defaults to the column")
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
        "config": dataclasses.asdict(config),
        "degraded_subjects": sorted(population.degraded_subjects),
    }
    fileio.write_json(out / "synth-config.json", meta)
    print(
        f"wrote {len(population.templates)} templates for "
        f"{config.num_subjects} subjects to {out}"
    )
    return 0


def _joint_valid_texts(scores: bitmatch.PairScores) -> fileio.FieldTexts:
    """The ``joint_valid`` field of each comparison, blank where it is
    unusable: each distinct count is formatted once, into a table indexed
    by the count, and gathered per row (no sort of the rows)."""
    counts = np.flatnonzero(np.bincount(scores.joint_valid))
    table = np.empty(counts[-1] + 1 if counts.size else 0, dtype=object)
    table[counts] = fileio.field_texts("joint_valid", fileio.OPT_INT, counts).texts
    texts = table[scores.joint_valid]
    texts[~scores.usable] = ""
    return fileio.FieldTexts(fileio.OPT_INT, texts)


def cmd_match(args) -> int:
    manifest = fileio.read_manifest(args.manifest)
    periocular = fileio.read_feature_csv(args.features)
    row_of = {ref: row for row, ref in enumerate(periocular["id"].tolist())}
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
        if entry.periocular_ref not in row_of:
            raise ValueError(f"feature table misses id {entry.periocular_ref!r}")

    # per-entry arrays, gathered per comparison by the manifest rows a and b
    entries = manifest.entries
    template_of = np.array([index[e.template_ref] for e in entries], dtype=np.intp)
    perioc_of = np.array([row_of[e.periocular_ref] for e in entries], dtype=np.intp)
    eye, brow = periocular["eye_area"][perioc_of], periocular["brow_area"][perioc_of]
    ia, ib = template_of[a], template_of[b]
    scores = bitmatch.match_pairs(templates, ia, ib, args.alpha, policy)
    ws = scores.ws
    if args.unmasked_ws:  # all-pixel WS: the kernel on all-valid masks
        ws = bitmatch.match_pairs([t.all_valid() for t in templates], ia, ib, args.alpha, policy).ws
    # per-template texts, gathered per comparison as references to the same strings
    mask_rates = fileio.field_texts(
        "mask_rate", fileio.FLOAT, [t.valid_fraction() for t in templates]).texts
    usable = scores.usable
    # per-shift texts, gathered per usable comparison by its best shift
    shifts = np.arange(-policy.max_shift, policy.max_shift + 1)
    shift_texts = fileio.field_texts("best_shift", fileio.OPT_INT, shifts).texts
    # a table never sits beside the sidecar of another run
    fileio.sidecar_path(args.out).unlink(missing_ok=True)
    fileio.write_match_csv(args.out, {
        "a_id": pairs["a_id"],
        "b_id": pairs["b_id"],
        "side": np.array([e.eye_side for e in entries])[a],
        "label": pairs["genuine"],
        "iris_valid": usable,
        "hamming": np.where(usable, scores.hamming, np.nan),
        "ws": np.where(usable, ws, np.nan),
        "best_shift": fileio.FieldTexts(fileio.OPT_INT, np.where(
            usable, shift_texts[scores.best_shift + policy.max_shift], "")),
        "joint_valid": _joint_valid_texts(scores),
        "mask_rate_a": fileio.FieldTexts(fileio.FLOAT, mask_rates[ia]),
        "mask_rate_b": fileio.FieldTexts(fileio.FLOAT, mask_rates[ib]),
        "perioc_dist": fusion.perioc_distances(
            periocular["features"], perioc_of[a], perioc_of[b]),
        "eye_sum": eye[a] + eye[b],
        "eye_diff": eye[a] - eye[b],
        "brow_sum": brow[a] + brow[b],
        "brow_diff": brow[a] - brow[b],
    })
    fileio.write_sidecar(args.out, {key: getattr(args, key) for key in fileio.SIDECAR_KEYS})
    n_genuine = int(np.count_nonzero(pairs["genuine"]))
    print(f"wrote {len(a)} comparisons ({n_genuine} genuine / {len(a) - n_genuine} impostor)")
    return 0


def cmd_fuse_train(args) -> int:
    matches = fileio.read_match_csv(args.match_csv, ("label", *fusion.CUE_COLUMNS))
    use = matches["iris_valid"]
    n_usable = int(np.count_nonzero(use))
    if use.size > n_usable:
        print(f"excluded {use.size - n_usable} unusable iris pairs from training",
              file=sys.stderr)
    if n_usable < 2:
        raise ValueError("need at least two usable comparisons to train")
    norm = fusion.NormalizationParams.from_distances(matches["perioc_dist"][use])
    features = fusion.cue_matrix(matches, norm)
    labels = (~matches["label"][use]).astype(np.int64)  # class 0 is genuine
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
    params, norm, _ = fileio.read_checkpoint(args.checkpoint)
    settings = fileio.read_sidecar(args.match_csv)
    # rejects a bad --static-weight before the output is opened
    fusion.static_fuse(0.0, 0.0, args.static_weight)
    # match columns that the score CSV copies are written as the texts they were read as
    copied = [name for name, _ in fileio.SCORE_SCHEMA if name in dict(fileio.MATCH_SCHEMA)]

    def cue_blocks():  # each block's cues, carrying its score columns and usable rows
        for matches, texts in fileio.read_match_blocks(
                args.match_csv, (*copied, *fusion.CUE_COLUMNS)):
            use = matches["iris_valid"]
            cues = fusion.cue_matrix(matches, norm)
            iris01, perioc01 = fusion.static_inputs(
                cues[:, 0], settings["alpha"], cues[:, 1])
            scores = {name: texts[name] for name in copied}
            # iris_score is cues[:, 0], the ws of the usable rows
            scores["iris_score"] = fileio.FieldTexts(
                fileio.OPT_FLOAT, np.where(use, texts["ws"].texts, ""))
            for name, values in (
                ("perioc_norm", cues[:, 1]),
                ("static", fusion.static_fuse(iris01, perioc01, args.static_weight)),
            ):
                scores[name] = np.full(use.size, np.nan)
                scores[name][use] = values
            yield cues, (scores, use)

    n = 0
    fileio.sidecar_path(args.out).unlink(missing_ok=True)
    with fileio.score_csv_writer(args.out) as append:
        for dynamic, (scores, use) in fusion.dynamic_fuse_blocks(params, cue_blocks()):
            scores["dynamic"] = np.full(use.size, np.nan)
            scores["dynamic"][use] = dynamic
            append(scores)
            n += use.size
    fileio.write_sidecar(args.out, settings)
    print(f"wrote {n} scored comparisons to {args.out}")
    return 0


def _collect_scores(
    table: dict[str, np.ndarray], column: str, combine_sides: bool
) -> tuple[ScoreSet, int, int]:
    """The scores of ``column`` by label, and the genuine and impostor
    comparisons without one (pairs of comparisons under the sum rule)."""
    name, higher_is_genuine = _EVAL_COLUMNS[column]
    values, genuine = table[name], table["label"]
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
        int(np.count_nonzero(~scored & genuine)),
        int(np.count_nonzero(~scored & ~genuine)),
    )


def cmd_eval(args) -> int:
    check_far_target(args.far_target)  # before the table is read
    columns = ("label", _EVAL_COLUMNS[args.column][0])
    if args.sum_rule:
        columns += ("a_id", "b_id", "side")
    scores, unusable_genuine, unusable_impostor = _collect_scores(
        fileio.read_score_csv(args.scores, columns), args.column, args.sum_rule)
    settings = fileio.read_sidecar(args.scores)  # after the table: a missing one is named
    if unusable_genuine + unusable_impostor:
        print(f"skipped {unusable_genuine + unusable_impostor} comparisons without a "
              f"{args.column} score", file=sys.stderr)
    curve = roc_curve(scores)
    n_genuine, n_impostor = scores.n_genuine, scores.n_impostor
    del scores  # freed before the ROC is written
    result = tar_at_far(curve, args.far_target, n_impostor=n_impostor)
    if result.underpowered:
        print(
            f"warning: {n_impostor} impostor scores cannot resolve "
            f"FAR={args.far_target}",
            file=sys.stderr,
        )
    summary = {
        "dataset": args.dataset,
        "n_genuine": n_genuine,
        "n_impostor": n_impostor,
        "n_unusable_genuine": unusable_genuine,
        "n_unusable_impostor": unusable_impostor,
        "eer": eer(curve),
        "tar_at_far": result.tar,
        "far_target": args.far_target,
        "alpha": settings["alpha"],
        "max_shift": settings["max_shift"],
        "step": settings["step"],
        "method": args.method or args.column,
    }
    fileio.write_roc_csv(f"{args.out_prefix}-roc.csv", curve)
    summary_text = fileio.write_json(f"{args.out_prefix}-summary.json", summary)
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
