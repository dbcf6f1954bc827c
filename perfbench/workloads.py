"""The benchmark's workloads: population generator flags and timed CLI stages.

Each workload is a batch job.  Set-up runs ``irisfuse synth`` with the
generator flags below (untimed); the timed stages then run, in order, in
one process through ``irisfuse.cli.main`` with the CLI default
``--threads 1``.  Stage arguments name ``{inp}`` (the synthesised inputs)
and ``{out}`` (this repetition's artifacts).

The generator seed is part of each workload's definition, not the bench
``--seed``: across generator seeds the README demo's EER ranged from
0.0022 to 0.0095 and its TAR at FAR 1e-4 from 0.002 to 0.98, so a
seed-dependent population would leave ``eer`` and ``tar_at_far`` without
a usable regression bound.  The bench seed picks the match rows that are
recomputed with the per-pixel reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

WITHIN_SIDE = "all-vs-all-within-side"
LEFT_RIGHT = "left-right-disjoint"

_FUSE_TRAIN = (
    "--seed", "0", "--optimizer", "adam", "--learning-rate", "3e-3", "--epochs", "400",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict[str, str]  # synth flag -> value; "" marks a switch
    stages: tuple[tuple[str, tuple[str, ...]], ...]  # (stage name, CLI argv)
    reference_rows: int  # match rows per match stage recomputed per run

    def synth_argv(self, out: str) -> list[str]:
        argv = ["synth", "--out", out]
        for flag, value in self.synth.items():
            argv += [flag] if value == "" else [flag, value]
        return argv

    def stage_argv(self, argv: tuple[str, ...], inp: str, out: str) -> list[str]:
        return [arg.format(inp=inp, out=out) for arg in argv]

    @property
    def subjects(self) -> int:
        return int(self.synth["--subjects"])

    @property
    def samples(self) -> int:
        return int(self.synth["--samples"])

    @property
    def sides(self) -> int:
        return 2 if "--both-sides" in self.synth else 1

    def split_subjects(self, manifest_name: str) -> int:
        """Subjects in a manifest written by synth, as ``cmd_synth`` splits them."""
        if manifest_name == "manifest.jsonl":
            return self.subjects
        n_train = round(float(self.synth["--train-fraction"]) * self.subjects)
        return n_train if manifest_name == "manifest-train.jsonl" else self.subjects - n_train

    def rotation_plane_bytes(self, max_shift: int) -> int:
        """Computed bytes of every template's rotated bit and mask planes."""
        templates = self.subjects * self.samples * self.sides
        plane = ceil(int(self.synth["--height"]) * int(self.synth["--width"]) / 8)
        return templates * (2 * max_shift + 1) * plane * 2


def _match(manifest: str, out: str, matcher: tuple[str, ...]) -> tuple[str, ...]:
    return (
        "match", "--manifest", "{inp}/" + manifest, "--templates-dir", "{inp}/templates",
        "--features", "{inp}/features.csv", "--out", "{out}/" + out, *matcher,
    )


def _train_test(
    matcher: tuple[str, ...], eval_flags: tuple[str, ...]
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """match-train, fuse-train, match-test, score, eval: the README pipeline."""
    return (
        ("match-train", _match("manifest-train.jsonl", "match-train.csv", matcher)),
        ("fuse-train", ("fuse-train", "--match-csv", "{out}/match-train.csv",
                        "--out", "{out}/checkpoint.json", *_FUSE_TRAIN)),
        ("match-test", _match("manifest-test.jsonl", "match-test.csv", matcher)),
        ("score", ("score", "--match-csv", "{out}/match-test.csv", "--checkpoint",
                   "{out}/checkpoint.json", "--out", "{out}/scores.csv",
                   "--static-weight", "0.5")),
        ("eval", ("eval", "--scores", "{out}/scores.csv", "--column", "dynamic",
                  "--out-prefix", "{out}/dynamic", *eval_flags)),
    )


WORKLOADS = (
    Workload(
        name="demo-pipeline",
        why="the README demo, the documented user path; time is spread over "
            "bitmatch, mlp training, fileio codecs and cli row objects",
        synth={
            "--seed": "0", "--subjects": "70", "--samples": "6", "--height": "32",
            "--width": "256", "--perioc-dim": "64", "--perioc-noise": "0.14",
            "--flip-rate": "0.06", "--degraded-fraction": "0.35",
            "--train-fraction": "0.5",
        },
        stages=_train_test(
            ("--alpha", "0.3", "--max-shift", "8"),
            ("--far-target", "1e-4", "--dataset", "demo"),
        ),
        reference_rows=6,
    ),
    Workload(
        name="paper-match",
        why="the paper's 64x512 templates at +-16 shifts, where the packed "
            "kernel dominates match time and rotation planes drive peak RSS",
        synth={
            "--seed": "0", "--subjects": "22", "--samples": "4", "--height": "64",
            "--width": "512", "--perioc-noise": "0.14", "--flip-rate": "0.06",
            "--degraded-fraction": "0.35",
        },
        stages=(
            ("match", _match("manifest.jsonl", "match.csv",
                             ("--alpha", "0.3", "--max-shift", "16"))),
            ("fuse-train", ("fuse-train", "--match-csv", "{out}/match.csv",
                            "--out", "{out}/checkpoint.json", *_FUSE_TRAIN[:-1], "100")),
            ("score", ("score", "--match-csv", "{out}/match.csv", "--checkpoint",
                       "{out}/checkpoint.json", "--out", "{out}/scores.csv",
                       "--static-weight", "0.5")),
            ("eval", ("eval", "--scores", "{out}/scores.csv", "--column", "dynamic",
                      "--out-prefix", "{out}/dynamic", "--far-target", "1e-2",
                      "--dataset", "paper-match")),
        ),
        reference_rows=2,
    ),
    Workload(
        name="lr-sumrule",
        why="the left/right protocol with sum-rule eval on small templates; "
            "fileio, fusion and mlp outweigh the kernel, so kernel changes barely move it",
        synth={
            "--seed": "0", "--subjects": "30", "--samples": "5", "--height": "16",
            "--width": "128", "--perioc-dim": "64", "--perioc-noise": "0.14",
            "--flip-rate": "0.06", "--degraded-fraction": "0.35", "--both-sides": "",
            "--train-fraction": "0.5",
        },
        stages=_train_test(
            ("--protocol", LEFT_RIGHT, "--alpha", "0.3", "--max-shift", "4"),
            ("--sum-rule", "--far-target", "1e-3", "--dataset", "lr-sumrule"),
        ),
        reference_rows=24,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def flag_value(argv, flag: str, default: str) -> str:
    """Value following ``flag`` in a CLI argument list, or ``default``."""
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default
