import csv
import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from irisfuse import bitmatch, cli, fileio, fusion, reference
from irisfuse.cli import main
from irisfuse.evaluation import WITHIN_SIDE, ScoreSet, roc_curve, tar_at_far
from irisfuse.fusion import (
    NormalizationParams,
    cue_matrix,
    dynamic_fuse,
    static_fuse,
    static_inputs,
)
from irisfuse.mlp import MlpParams, TrainConfig, mlp_forward
from irisfuse.synth import SynthConfig
from irisfuse.templates import CUE_NAMES, check_cues, pack_template


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def synth_args(out, seed=3, subjects=8, samples=3, **extra):
    args = [
        "synth", "--out", out, "--seed", seed, "--subjects", subjects,
        "--samples", samples, "--height", 16, "--width", 64,
        "--perioc-dim", 8, "--perioc-noise", 0.1,
    ]
    for key, value in extra.items():
        args.append(f"--{key.replace('_', '-')}")
        if value is not None:
            args.extend(value if isinstance(value, (list, tuple)) else [value])
    return args


def columns(rows):
    """A list of row dicts as a table of columns."""
    return {name: [row[name] for row in rows] for name in rows[0]}


# match's settings at its CLI defaults, as its sidecar holds them
DEFAULT_SETTINGS = {
    "alpha": 0.3, "max_shift": 16, "step": 1, "protocol": WITHIN_SIDE, "unmasked_ws": False,
}


def with_sidecar(table, **settings):
    """Give a hand-built match or score CSV the sidecar that ``match``
    writes, at the CLI defaults unless ``settings`` says otherwise."""
    fileio.write_sidecar(table, {**DEFAULT_SETTINGS, **settings})
    return table


@pytest.fixture
def population_dir(tmp_path):
    out = tmp_path / "pop"
    assert run_cli(*synth_args(out, train_fraction=0.5)) == 0
    return out


class TestSynthCommand:
    def test_writes_expected_artifacts(self, population_dir):
        assert (population_dir / "manifest.jsonl").exists()
        assert (population_dir / "manifest-train.jsonl").exists()
        assert (population_dir / "manifest-test.jsonl").exists()
        assert (population_dir / "features.csv").exists()
        assert (population_dir / "synth-config.json").exists()
        manifest = fileio.read_manifest(population_dir / "manifest.jsonl")
        assert len(manifest.entries) == 8 * 3
        for entry in manifest.entries:
            assert (population_dir / "templates" / f"{entry.template_ref}.irt").exists()

    def test_split_is_subject_disjoint(self, population_dir):
        train = fileio.read_manifest(population_dir / "manifest-train.jsonl")
        test = fileio.read_manifest(population_dir / "manifest-test.jsonl")
        assert not (set(train.subjects()) & set(test.subjects()))
        assert len(train.subjects()) + len(test.subjects()) == 8

    def test_bad_train_fraction_fails_with_json_error(self, tmp_path, capsys):
        # out of range, and a split of 4 subjects into 1 and 3
        for fraction, message in ((1.5, "strictly inside"), (0.25, "fewer than 2")):
            out = tmp_path / f"x{fraction}"
            code = run_cli(*synth_args(out, subjects=4, samples=2, train_fraction=fraction))
            assert code == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError"
            assert "train-fraction" in err["message"] and message in err["message"]
            assert not out.exists()


class TestMatchCommand:
    def test_match_writes_rows_for_every_pair(self, population_dir, tmp_path):
        out = tmp_path / "match.csv"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", out, "--max-shift", 4,
        ) == 0
        rows = fileio.read_match_csv(out)
        # 8 subjects x 3 samples: 8*3 genuine + C(8,2)*9 impostor
        assert all(len(v) == 8 * 3 + math.comb(8, 2) * 9 for v in rows.values())

    def test_mask_rates_are_each_template_valid_fraction_as_repr(self, population_dir, tmp_path):
        out = tmp_path / "match.csv"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", out, "--max-shift", 4,
        ) == 0
        rate = {
            f"{e.subject_id}:{e.eye_side}:{e.sample_index}": repr(fileio.read_template(
                population_dir / "templates" / f"{e.template_ref}.irt").valid_fraction())
            for e in fileio.read_manifest(population_dir / "manifest.jsonl").entries
        }
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(set(rate.values())) > 1
        assert [(r["mask_rate_a"], r["mask_rate_b"]) for r in rows] == [
            (rate[r["a_id"]], rate[r["b_id"]]) for r in rows]

    def test_best_shift_texts_leave_unusable_rows_empty(self, population_dir, tmp_path):
        # one template without a valid pixel makes every pair it is in unusable
        manifest = fileio.read_manifest(population_dir / "manifest.jsonl")
        path = population_dir / "templates" / f"{manifest.entries[0].template_ref}.irt"
        first = fileio.read_template(path)
        fileio.write_template(path, pack_template(
            first.unpack_bits(), np.zeros((first.height, first.width)),
            first.height, first.width))
        out = tmp_path / "match.csv"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", out, "--max-shift", 4,
        ) == 0
        template = {
            e.entry_id: fileio.read_template(
                population_dir / "templates" / f"{e.template_ref}.irt")
            for e in manifest.entries
        }
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        policy = bitmatch.ShiftPolicy(4, 1)
        shifts = set()
        for row in rows:
            a, b = template[row["a_id"]], template[row["b_id"]]
            if row["iris_valid"] == "0":
                with pytest.raises(bitmatch.EmptyJointMaskError):
                    bitmatch.match_pair(a, b, policy=policy)
                assert row["best_shift"] == row["joint_valid"] == ""
            else:
                shift = bitmatch.match_pair(a, b, policy=policy).best_shift
                assert row["best_shift"] == str(shift)
                shifts.add(shift)
        assert sum(row["iris_valid"] == "0" for row in rows) == len(manifest.entries) - 1
        assert min(shifts) < 0 < max(shifts)

    def test_alpha_one_makes_ws_complement_hamming(self, population_dir, tmp_path):
        out = tmp_path / "match.csv"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", out, "--max-shift", 4, "--alpha", 1.0,
        ) == 0
        rows = fileio.read_match_csv(out)
        use = rows["iris_valid"]
        assert use.any()
        np.testing.assert_allclose(
            rows["ws"][use] + rows["hamming"][use], 1.0, rtol=0, atol=1e-12
        )

    def test_unmasked_ws_mode_scores_over_full_area(self, population_dir, tmp_path):
        from irisfuse import bitmatch, fileio as fio

        out = tmp_path / "match-unmasked.csv"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", out, "--max-shift", 2, "--unmasked-ws",
        ) == 0
        rows = fio.read_match_csv(out)
        manifest = fio.read_manifest(population_dir / "manifest.jsonl")
        by_id = {e.entry_id: e for e in manifest.entries}
        for k in np.flatnonzero(rows["iris_valid"])[:5]:
            a, b = (
                fio.read_template(
                    population_dir / "templates" / f"{by_id[rows[c][k]].template_ref}.irt"
                )
                for c in ("a_id", "b_id")
            )
            expected = bitmatch.match_pair(
                a.all_valid(), b.all_valid(), 0.3, bitmatch.ShiftPolicy(2, 1)
            )
            assert rows["ws"][k] == expected.ws_score

    def test_feature_rows_are_found_by_id(self, population_dir, tmp_path):
        features = population_dir / "features.csv"
        header, *rows = features.read_text().splitlines()
        reversed_rows = tmp_path / "reversed.csv"
        reversed_rows.write_text("\n".join([header, *rows[::-1]]) + "\n")
        written = []
        for path in (features, reversed_rows):
            out = tmp_path / f"match-{path.stem}.csv"
            assert run_cli(
                "match", "--manifest", population_dir / "manifest.jsonl",
                "--templates-dir", population_dir / "templates",
                "--features", path, "--out", out, "--max-shift", 4,
            ) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def match_args(self, population_dir, out, *extra):
        return (
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", out, "--max-shift", 4, *extra,
        )

    @pytest.mark.parametrize("alpha", [0.0, 2.5])
    def test_invalid_alpha_fails_before_writing(
        self, population_dir, tmp_path, capsys, alpha
    ):
        out = tmp_path / "match.csv"
        assert run_cli(*self.match_args(population_dir, out, "--alpha", alpha)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "alpha" in err["message"]
        assert not out.exists()

    def test_template_with_other_dims_fails_before_writing(
        self, population_dir, tmp_path, capsys
    ):
        from irisfuse.templates import pack_template

        odd = pack_template(np.zeros((8, 64)), np.ones((8, 64)), 8, 64)
        fileio.write_template(population_dir / "templates" / "S0003_L01.irt", odd)
        out = tmp_path / "match.csv"
        assert run_cli(*self.match_args(population_dir, out)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "dimension mismatch" in err["message"]
        assert not out.exists()

    def test_missing_template_file_fails(self, population_dir, tmp_path, capsys):
        (population_dir / "templates" / "S0000_L00.irt").unlink()
        code = run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", tmp_path / "match.csv",
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    def test_failed_write_leaves_no_sidecar_beside_the_old_csv(
        self, population_dir, tmp_path, capsys, fail_mid_write
    ):
        out = tmp_path / "match.csv"
        assert run_cli(*self.match_args(population_dir, out)) == 0
        old = out.read_bytes()
        assert fileio.sidecar_path(out).exists()
        fail_mid_write("match.csv")
        assert run_cli(*self.match_args(population_dir, out, "--alpha", 1.0)) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "OSError"
        assert out.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["match.csv", "pop"]


def separated_scores(path):
    """A score CSV whose genuine and impostor scores do not overlap."""
    rows = []
    for k in range(10):
        rows.append(dict(
            a_id=f"g{k}", b_id=f"g{k}'", side="L", label=True,
            iris_score=1.0, perioc_norm=0.1, mask_rate_a=0.9, mask_rate_b=0.9,
            eye_sum=0.4, eye_diff=0.0, brow_sum=0.2, brow_diff=0.0,
            hamming=0.1, ws=1.5, static=0.9, dynamic=0.9 + 0.001 * k,
        ))
        rows.append(dict(
            a_id=f"i{k}", b_id=f"i{k}'", side="L", label=False,
            iris_score=0.3, perioc_norm=0.9, mask_rate_a=0.9, mask_rate_b=0.9,
            eye_sum=0.4, eye_diff=0.0, brow_sum=0.2, brow_diff=0.0,
            hamming=0.45, ws=0.6, static=0.2, dynamic=0.1 + 0.001 * k,
        ))
    fileio.write_score_csv(path, columns(rows))
    return with_sidecar(path)


class TestPipeline:
    def run_pipeline(self, population_dir, tmp_path, tag="run", matcher=()):
        match_train = tmp_path / f"{tag}-match-train.csv"
        match_test = tmp_path / f"{tag}-match-test.csv"
        checkpoint = tmp_path / f"{tag}-ckpt.json"
        scores = tmp_path / f"{tag}-scores.csv"
        prefix = tmp_path / f"{tag}-eval"
        common = [
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--max-shift", 4, *matcher,
        ]
        assert run_cli("match", "--manifest", population_dir / "manifest-train.jsonl",
                       "--out", match_train, *common) == 0
        assert run_cli("fuse-train", "--match-csv", match_train,
                       "--out", checkpoint, "--seed", 7, "--epochs", 40) == 0
        assert run_cli("match", "--manifest", population_dir / "manifest-test.jsonl",
                       "--out", match_test, *common) == 0
        assert run_cli("score", "--match-csv", match_test,
                       "--checkpoint", checkpoint, "--out", scores) == 0
        assert run_cli("eval", "--scores", scores, "--column", "dynamic",
                       "--out-prefix", prefix, "--dataset", "synthetic") == 0
        return match_train, checkpoint, match_test, scores, prefix

    def test_full_pipeline_emits_all_artifacts(self, population_dir, tmp_path, capsys):
        *_, scores, prefix = self.run_pipeline(population_dir, tmp_path)
        summary = json.loads((tmp_path / "run-eval-summary.json").read_text())
        assert set(summary) == {
            "dataset", "n_genuine", "n_impostor", "n_unusable_genuine",
            "n_unusable_impostor", "eer", "tar_at_far", "far_target", "alpha",
            "max_shift", "step", "method",
        }
        assert summary["dataset"] == "synthetic"
        assert summary["method"] == "dynamic"
        assert 0.0 <= summary["eer"] <= 1.0
        roc = fileio.read_roc_csv(f"{prefix}-roc.csv")
        assert (np.diff(roc.far) >= 0).all()
        score_rows = fileio.read_score_csv(scores)
        has_cues = ~np.isnan(score_rows["iris_score"])
        assert has_cues.any()
        assert not np.isnan(score_rows["dynamic"][has_cues]).any()

    def test_score_and_eval_take_the_settings_match_used(self, population_dir, tmp_path):
        # neither score nor eval is given a matcher flag
        _, _, match_test, scores, prefix = self.run_pipeline(
            population_dir, tmp_path, matcher=("--alpha", 1.0))
        summary = json.loads(Path(f"{prefix}-summary.json").read_text())
        assert (summary["alpha"], summary["max_shift"], summary["step"]) == (1.0, 4, 1)
        # at alpha 1 the static baseline divides ws by max(2 - 1, 1) = 1
        table = fileio.read_score_csv(scores)
        use = ~np.isnan(table["iris_score"])
        assert use.any()
        np.testing.assert_array_equal(
            table["static"][use],
            static_fuse(table["iris_score"][use], 1.0 - table["perioc_norm"][use], 0.5),
        )
        sidecar = fileio.sidecar_path(match_test).read_bytes()
        assert json.loads(sidecar) == {
            "alpha": 1.0, "max_shift": 4, "step": 1, "protocol": WITHIN_SIDE,
            "unmasked_ws": False,
        }
        assert fileio.sidecar_path(scores).read_bytes() == sidecar

    def test_pipeline_is_byte_deterministic(self, population_dir, tmp_path):
        first = self.run_pipeline(population_dir, tmp_path, tag="a")
        second = self.run_pipeline(population_dir, tmp_path, tag="b")
        for f_path, s_path in zip(first, second):
            if str(f_path).endswith("eval"):
                f_path = f"{f_path}-summary.json"
                s_path = f"{s_path}-summary.json"
            with open(f_path, "rb") as fh:
                first_bytes = fh.read()
            with open(s_path, "rb") as fh:
                second_bytes = fh.read()
            assert first_bytes == second_bytes, f"{f_path} differs"

    def test_eval_on_separated_scores_reports_zero_eer(self, tmp_path, capsys):
        path = separated_scores(tmp_path / "scores.csv")
        assert run_cli("eval", "--scores", path, "--column", "dynamic",
                       "--out-prefix", tmp_path / "sep") == 0
        summary = json.loads((tmp_path / "sep-summary.json").read_text())
        assert summary["eer"] == 0.0
        assert summary["tar_at_far"] == 1.0

    def test_fault_mid_write_leaves_an_existing_summary_untouched(
        self, tmp_path, capsys, fail_mid_write
    ):
        path = separated_scores(tmp_path / "scores.csv")
        summary = tmp_path / "sep-summary.json"
        summary.write_bytes(b"previous summary\n")
        fail_mid_write("sep-summary.json")
        assert run_cli("eval", "--scores", path, "--column", "dynamic",
                       "--out-prefix", tmp_path / "sep") == 1
        error = capsys.readouterr().err.splitlines()[-1]  # after the FAR warning
        assert json.loads(error)["error"] == "OSError"
        assert summary.read_bytes() == b"previous summary\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "scores.csv", "scores.csv.meta.json", "sep-roc.csv", "sep-summary.json",
        ]

    def test_hamming_column_uses_distance_orientation(self, tmp_path):
        rows = []
        for k in range(8):
            rows.append(dict(
                a_id=f"g{k}", b_id="x", side="L", label=True,
                iris_score=1.0, perioc_norm=0.1, mask_rate_a=1.0, mask_rate_b=1.0,
                eye_sum=0.4, eye_diff=0.0, brow_sum=0.2, brow_diff=0.0,
                hamming=0.10 + 0.001 * k, ws=1.5, static=0.9, dynamic=0.9,
            ))
            rows.append(dict(
                a_id=f"i{k}", b_id="x", side="L", label=False,
                iris_score=0.3, perioc_norm=0.9, mask_rate_a=1.0, mask_rate_b=1.0,
                eye_sum=0.4, eye_diff=0.0, brow_sum=0.2, brow_diff=0.0,
                hamming=0.42 + 0.001 * k, ws=0.6, static=0.2, dynamic=0.1,
            ))
        path = with_sidecar(tmp_path / "scores.csv")
        fileio.write_score_csv(path, columns(rows))
        assert run_cli("eval", "--scores", path, "--column", "hamming",
                       "--out-prefix", tmp_path / "hd") == 0
        summary = json.loads((tmp_path / "hd-summary.json").read_text())
        assert summary["eer"] == 0.0


MATCH_HEADER = (
    "a_id,b_id,side,label,iris_valid,hamming,ws,best_shift,joint_valid,"
    "mask_rate_a,mask_rate_b,perioc_dist,eye_sum,eye_diff,brow_sum,brow_diff"
)
SCORE_HEADER = (
    "a_id,b_id,side,label,iris_score,perioc_norm,mask_rate_a,mask_rate_b,"
    "eye_sum,eye_diff,brow_sum,brow_diff,hamming,ws,static,dynamic"
)


def write_match_text(path, n_unusable=5, n_usable=0):
    """A small match CSV written as text: unusable rows, then usable ones."""
    lines = [MATCH_HEADER]
    lines += [f"S{k}:L:0,S{k + 1}:L:0,L,impostor,0,,,,,0.1,0.2,1.5,0.3,0.1,0.2,-0.1"
              for k in range(n_unusable)]
    lines += [f"S{k}:L:0,S{k}:L:1,L,genuine,1,0.2,1.25,3,400,0.9,0.8,0.5,0.4,0.0,0.3,0.05"
              for k in range(n_usable)]
    path.write_text("\n".join(lines) + "\n")
    with_sidecar(path)


@pytest.fixture
def checkpoint(tmp_path):
    path = tmp_path / "ckpt.json"
    fileio.write_checkpoint(path, MlpParams.init_random(5), NormalizationParams(0.5, 3.0))
    return path


def random_match_table(rng, n_usable, n_unusable):
    """Match-table columns with unusable rows scattered among usable ones."""
    n = n_usable + n_unusable
    usable = np.ones(n, dtype=bool)
    usable[rng.choice(n, n_unusable, replace=False)] = False
    eye = rng.uniform(0.0, 0.5, (2, n))
    brow = rng.uniform(0.0, 0.4, (2, n))

    def iris(values):
        return np.where(usable, values, np.nan)

    return {
        "a_id": [f"S{k // 7}:L:{k % 7}" for k in range(n)],
        "b_id": [f"S{k // 5}:R:{k % 5}" for k in range(n)],
        "side": ["L"] * n,
        "label": rng.random(n) < 0.3,
        "iris_valid": usable,
        "hamming": iris(rng.uniform(0.0, 0.5, n)),
        "ws": iris(rng.uniform(0.0, 1.7, n)),
        "best_shift": iris(rng.integers(-8, 9, n)),
        "joint_valid": iris(rng.integers(1, 4096, n)),
        "mask_rate_a": rng.uniform(0.0, 1.0, n),
        "mask_rate_b": rng.uniform(0.0, 1.0, n),
        "perioc_dist": rng.uniform(0.0, 4.0, n),  # clamps at both ends of (0.5, 3)
        "eye_sum": eye[0] + eye[1],
        "eye_diff": eye[0] - eye[1],
        "brow_sum": brow[0] + brow[1],
        "brow_diff": brow[0] - brow[1],
    }


def reference_cue_row(ws, perioc_dist, norm, rest):
    """One comparison's eight fusion cues, checked on their own."""
    span = norm.perioc_max - norm.perioc_min
    perioc = float(np.clip((perioc_dist - norm.perioc_min) / span, 0.0, 1.0))
    row = np.array([ws, perioc, *rest], dtype=np.float64)
    check_cues(row[None, :])
    return row


def reference_score_rows(match_csv, checkpoint, alpha, weight):
    """Score-CSV rows computed one comparison at a time."""
    params, norm, _ = fileio.read_checkpoint(checkpoint)
    out = []
    with open(match_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            fused = ["", "", "", ""]
            if row["iris_valid"] == "1":
                cues = reference_cue_row(
                    float(row["ws"]), float(row["perioc_dist"]), norm,
                    [float(row[name]) for name in CUE_NAMES[2:]],
                )
                iris_score, perioc = float(cues[0]), float(cues[1])
                iris01, perioc01 = static_inputs(iris_score, alpha, perioc)
                fused = [repr(iris_score), repr(perioc),
                         repr(static_fuse(iris01, perioc01, weight)),
                         repr(mlp_forward(params, cues)[0])]
            out.append(
                [row[k] for k in ("a_id", "b_id", "side", "label")] + fused[:2]
                + [row[k] for k in CUE_NAMES[2:]]
                + [row["hamming"], row["ws"]] + fused[2:]
            )
    return out


class TestScoreCommand:
    @pytest.mark.parametrize("n_usable", [0, 2])
    @pytest.mark.parametrize(
        "flag, value, word",
        [("--static-weight", 1.5, "weight"), ("--static-weight", -0.5, "weight")],
    )
    def test_invalid_flag_fails_before_writing(
        self, tmp_path, checkpoint, capsys, n_usable, flag, value, word
    ):
        match_csv = tmp_path / "match.csv"
        write_match_text(match_csv, n_unusable=5, n_usable=n_usable)
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", out, flag, value) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert word in err["message"]
        assert not out.exists()

    def test_columnar_scores_match_per_row_reference(self, tmp_path, checkpoint):
        from irisfuse.fusion import BLOCK_ROWS

        rng = np.random.default_rng(17)
        n_usable = BLOCK_ROWS + 1  # the last forward block holds one row
        match_csv = tmp_path / "match.csv"
        fileio.write_match_csv(match_csv, random_match_table(rng, n_usable, 40))
        out = tmp_path / "scores.csv"
        alpha, weight = 0.4, 0.3
        with_sidecar(match_csv, alpha=alpha)
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", out, "--static-weight", weight) == 0
        with open(out, newline="") as fh:
            got = list(csv.reader(fh))
        assert ",".join(got[0]) == SCORE_HEADER
        want = reference_score_rows(match_csv, checkpoint, alpha, weight)
        assert len(got) - 1 == len(want) == n_usable + 40
        assert sum(row[4] != "" for row in want) == n_usable
        for line, (have, ref) in enumerate(zip(got[1:], want), start=2):
            assert have[:-1] == ref[:-1], f"line {line}"
            assert (have[-1] == "") == (ref[-1] == ""), f"line {line}"
        # A 1,024-row product sums in another order than a 1-row one, so
        # ``dynamic`` may move in its last bits: here by up to 6 ulp, on the
        # benchmark workloads by up to 2.0e-15 (95 ulp).
        have = np.array([float(row[-1]) for row in got[1:] if row[-1]])
        ref = np.array([float(row[-1]) for row in want if row[-1]])
        np.testing.assert_allclose(have, ref, rtol=0, atol=1e-14)


def sidecar_json(drop=(), **changes):
    """The JSON of the default settings with ``changes`` and without ``drop``."""
    settings = {**DEFAULT_SETTINGS, **changes}
    return json.dumps({k: v for k, v in settings.items() if k not in drop})


# (sidecar bytes, or None for no sidecar; words of the error message)
BAD_SIDECARS = [
    pytest.param(None, "missing", id="missing"),
    pytest.param(sidecar_json()[:-1], "invalid JSON", id="truncated"),
    pytest.param(b"\xff\xfe{", "invalid JSON", id="not-utf8"),
    pytest.param(json.dumps(list(DEFAULT_SETTINGS)), "expected exactly the keys", id="list"),
    pytest.param(sidecar_json(drop=("step",)), "expected exactly the keys", id="missing-key"),
    pytest.param(sidecar_json(threads=1), "expected exactly the keys", id="extra-key"),
    pytest.param(sidecar_json(alpha=0.0), "alpha must lie strictly inside", id="alpha-0.0"),
    pytest.param(sidecar_json(alpha=5.0), "alpha must lie strictly inside", id="alpha-5.0"),
    pytest.param(sidecar_json(alpha=True), "alpha must be a number", id="alpha-bool"),
    pytest.param(sidecar_json(alpha="0.3"), "alpha must be a number", id="alpha-text"),
    pytest.param(sidecar_json(max_shift=-2), "max_shift must be >= 0", id="negative-shift"),
    pytest.param(sidecar_json(step=0, max_shift=0), "step must be >= 1", id="zero-step"),
    pytest.param(sidecar_json(max_shift=5, step=2), "multiple of step", id="shift-step"),
    pytest.param(sidecar_json(max_shift=4.0), "must be integers", id="float-shift"),
    pytest.param(sidecar_json(step=True), "must be integers", id="bool-step"),
    pytest.param(sidecar_json(protocol="all-vs-all"), "unknown protocol", id="protocol"),
    pytest.param(sidecar_json(unmasked_ws=0), "unmasked_ws must be", id="unmasked-int"),
]


def put_sidecar(table, text):
    """Write ``text`` as the sidecar of ``table``, or remove it for None."""
    path = fileio.sidecar_path(table)
    path.unlink(missing_ok=True)
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return path


class TestSidecar:
    """score and eval take the matcher settings from the sidecar alone."""

    @pytest.mark.parametrize("n_usable", [0, 2])
    @pytest.mark.parametrize("text, words", BAD_SIDECARS)
    def test_bad_sidecar_fails_score_before_writing(
        self, tmp_path, checkpoint, capsys, n_usable, text, words
    ):
        match_csv = tmp_path / "match.csv"
        write_match_text(match_csv, n_unusable=5, n_usable=n_usable)
        sidecar = put_sidecar(match_csv, text)
        before = sorted(tmp_path.iterdir())
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", tmp_path / "scores.csv") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{sidecar}: ")
        assert words in err["message"]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("text, words", BAD_SIDECARS)
    def test_bad_sidecar_fails_eval_before_writing(self, tmp_path, capsys, text, words):
        scores = separated_scores(tmp_path / "scores.csv")
        sidecar = put_sidecar(scores, text)
        before = sorted(tmp_path.iterdir())
        assert run_cli("eval", "--scores", scores, "--out-prefix", tmp_path / "sep") == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{sidecar}: ")
        assert words in err["message"]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command, flag, value", [
        ("score", "--alpha", 0.3), ("eval", "--alpha", 0.3), ("eval", "--max-shift", 16),
    ])
    def test_matcher_flags_belong_to_match_alone(self, capsys, command, flag, value):
        inputs = {"score": ("--match-csv", "m.csv", "--checkpoint", "c.json", "--out", "s.csv"),
                  "eval": ("--scores", "s.csv", "--out-prefix", "e")}[command]
        with pytest.raises(SystemExit) as exit_:
            run_cli(command, *inputs, flag, value)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_score_replaces_a_stale_sidecar_with_the_match_one(self, tmp_path, checkpoint):
        match_csv = tmp_path / "match.csv"
        write_match_text(match_csv, n_unusable=2, n_usable=3)
        with_sidecar(match_csv, alpha=1.5, max_shift=6, step=3, unmasked_ws=True)
        scores = with_sidecar(tmp_path / "scores.csv")  # of another run
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", scores) == 0
        assert (fileio.sidecar_path(scores).read_bytes()
                == fileio.sidecar_path(match_csv).read_bytes())
        assert fileio.read_sidecar(scores) == {
            **DEFAULT_SETTINGS, "alpha": 1.5, "max_shift": 6, "step": 3, "unmasked_ws": True}


def replace_field(path, line, name, text, schema=fileio.MATCH_SCHEMA):
    """Rewrite field ``name`` of 1-based ``line`` of a CSV written without quotes."""
    lines = path.read_text().split("\n")
    fields = lines[line - 1].split(",")
    fields[[n for n, _ in schema].index(name)] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines))


def reference_score_csv(match_csv, checkpoint, out, alpha=0.3, weight=0.5):
    """The score CSV computed over the whole match table at once."""
    params, norm, _ = fileio.read_checkpoint(checkpoint)
    matches = fileio.read_match_csv(match_csv)
    use = matches["iris_valid"]
    cues = cue_matrix(matches, norm)
    iris01, perioc01 = static_inputs(cues[:, 0], alpha, cues[:, 1])
    scores = {name: matches[name] for name, _ in fileio.SCORE_SCHEMA if name in matches}
    for name, values in (
        ("iris_score", cues[:, 0]),
        ("perioc_norm", cues[:, 1]),
        ("static", static_fuse(iris01, perioc01, weight)),
        ("dynamic", dynamic_fuse(params, cues)),
    ):
        scores[name] = np.full(use.size, np.nan)
        scores[name][use] = values
    fileio.write_score_csv(out, scores)


def small_blocks_match_csv(path, monkeypatch, unusable=()):
    """A 45-row match CSV read 7 rows and fused 5 rows at a time."""
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 7)
    monkeypatch.setattr(fusion, "BLOCK_ROWS", 5)
    table = random_match_table(np.random.default_rng(23), 45, 0)
    rows = list(unusable)
    table["iris_valid"][rows] = False
    for name in ("hamming", "ws", "best_shift", "joint_valid"):
        table[name][rows] = np.nan
    fileio.write_match_csv(path, table)
    with_sidecar(path)


class TestStreamingScore:
    def test_scores_equal_the_whole_table_reference(self, tmp_path, checkpoint, monkeypatch):
        # rows 6/7, 13/14 and 20 sit at read-block edges, rows 21-27 fill a
        # read block, and the 31 usable rows end in a 1-row window
        unusable = [6, 7, 13, 14, 20, *range(21, 28), 30, 44]
        match_csv = tmp_path / "match.csv"
        small_blocks_match_csv(match_csv, monkeypatch, unusable)
        with_sidecar(match_csv, alpha=0.4)
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", out, "--static-weight", 0.3) == 0
        reference_score_csv(match_csv, checkpoint, tmp_path / "ref.csv", 0.4, 0.3)
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ckpt.json", "match.csv", "match.csv.meta.json", "ref.csv", "scores.csv",
            "scores.csv.meta.json"]

    @pytest.mark.parametrize("fault, error, message", [
        ("cue", "ValueError", r"mask_rate_b must lie in [0, 1], got 1.5"),
        ("parse", "ParseError", "match.csv:45: column 'ws': not a number: 'abc'"),
        ("both", "ValueError", r"mask_rate_b must lie in [0, 1], got 1.5"),
    ])
    def test_fault_in_a_later_block_leaves_out_untouched(
        self, tmp_path, checkpoint, monkeypatch, capsys, fault, error, message
    ):
        match_csv = tmp_path / "match.csv"
        small_blocks_match_csv(match_csv, monkeypatch)
        # a cue fault in the last read block, or (for "both") in the first
        # one, which wins over a parse fault in the last block
        cue_line = 3 if fault == "both" else 45
        if fault != "parse":
            replace_field(match_csv, cue_line, "mask_rate_b", "1.5")
        if fault != "cue":
            replace_field(match_csv, 45, "ws", "abc")
        out = tmp_path / "scores.csv"
        out.write_bytes(b"previous scores\n")
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", out) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert message in err["message"]
        assert out.read_bytes() == b"previous scores\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ckpt.json", "match.csv", "match.csv.meta.json", "scores.csv"]


def score_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCopiedColumns:
    """``score`` writes the match columns it copies as the texts it read."""

    def test_non_canonical_numbers_reach_the_score_csv_verbatim(self, tmp_path, checkpoint):
        match_csv = tmp_path / "match.csv"
        fileio.write_match_csv(match_csv, random_match_table(np.random.default_rng(5), 6, 0))
        with_sidecar(match_csv)
        edits = {"mask_rate_a": "1e-3", "eye_sum": "0.10", "ws": "+0.5", "hamming": "7"}
        for name, text in edits.items():
            replace_field(match_csv, 3, name, text)
        out, ref = tmp_path / "scores.csv", tmp_path / "ref.csv"
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", out) == 0
        reference_score_csv(match_csv, checkpoint, ref)  # parses and formats every column
        names = [name for name, _ in fileio.SCORE_SCHEMA]
        want = score_rows(ref)
        assert [want[2][names.index(name)] for name in edits] == ["0.001", "0.1", "0.5", "7.0"]
        for name, text in {**edits, "iris_score": "+0.5"}.items():
            want[2][names.index(name)] = text
        assert score_rows(out) == want
        np.testing.assert_array_equal(fileio.read_score_csv(out)["ws"],
                                      fileio.read_score_csv(ref)["ws"])

    def test_ids_that_need_quotes_are_quoted_again(self, tmp_path, checkpoint):
        table = random_match_table(np.random.default_rng(6), 8, 2)
        table["a_id"] = [f'S{k},"L":0' for k in range(10)]
        table["b_id"] = [f'S"{k}"' for k in range(10)]
        match_csv, out, ref = tmp_path / "match.csv", tmp_path / "scores.csv", tmp_path / "ref.csv"
        fileio.write_match_csv(with_sidecar(match_csv), table)
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", out) == 0
        reference_score_csv(match_csv, checkpoint, ref)
        assert out.read_bytes() == ref.read_bytes()
        assert [row[:2] for row in score_rows(out)[1:]] == [
            list(ids) for ids in zip(table["a_id"], table["b_id"])]

    def test_unusable_row_keeps_its_ws_text_without_an_iris_score(self, tmp_path, checkpoint):
        match_csv = tmp_path / "match.csv"
        write_match_text(match_csv, n_unusable=2, n_usable=2)
        replace_field(match_csv, 2, "ws", "0.75")
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--match-csv", match_csv, "--checkpoint", checkpoint,
                       "--out", out) == 0
        names = [name for name, _ in fileio.SCORE_SCHEMA]
        rows = score_rows(out)
        assert rows[1][names.index("ws")] == "0.75"
        assert rows[1][names.index("iris_score")] == ""
        assert [row[names.index("iris_score")] for row in rows[1:]] == ["", "", "1.25", "1.25"]


class TestNarrowReads:
    def test_eval_ignores_a_bad_field_it_does_not_read(self, tmp_path, checkpoint, capsys):
        match_csv = tmp_path / "match.csv"
        fileio.write_match_csv(match_csv, random_match_table(np.random.default_rng(2), 40, 4))
        clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
        reference_score_csv(match_csv, checkpoint, with_sidecar(clean))
        bad.write_bytes(clean.read_bytes())
        with_sidecar(bad)
        replace_field(bad, 5, "static", "x", fileio.SCORE_SCHEMA)
        replace_field(bad, 9, "mask_rate_a", "", fileio.SCORE_SCHEMA)
        for scores, prefix in ((clean, "c"), (bad, "b")):
            assert run_cli("eval", "--scores", scores, "--column", "dynamic",
                           "--out-prefix", tmp_path / prefix, "--far-target", 0.1) == 0
        for name in ("summary.json", "roc.csv"):
            assert (tmp_path / f"b-{name}").read_bytes() == (tmp_path / f"c-{name}").read_bytes()
        capsys.readouterr()
        assert run_cli("eval", "--scores", bad, "--column", "static",
                       "--out-prefix", tmp_path / "s", "--far-target", 0.1) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "bad.csv:5: column 'static': not a number: 'x'" in err["message"]
        # a ragged row is reported whichever columns are read
        lines = clean.read_text().split("\n")
        lines[2] += ",extra"
        bad.write_text("\n".join(lines))
        assert run_cli("eval", "--scores", bad, "--column", "dynamic",
                       "--out-prefix", tmp_path / "r") == 1
        err = json.loads(capsys.readouterr().err)
        assert "bad.csv:3: expected 16 fields, got 17" in err["message"]

    def test_fuse_train_ignores_a_bad_field_it_does_not_read(self, tmp_path, capsys):
        table = random_match_table(np.random.default_rng(8), 60, 6)
        clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
        fileio.write_match_csv(clean, table)
        fileio.write_match_csv(bad, table)
        for line, name in ((4, "hamming"), (6, "best_shift"), (8, "joint_valid")):
            replace_field(bad, line, name, "x")
        for match_csv, ckpt in ((clean, "c.json"), (bad, "b.json")):
            assert run_cli("fuse-train", "--match-csv", match_csv, "--out", tmp_path / ckpt,
                           "--epochs", 3) == 0
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "c.json").read_bytes()
        capsys.readouterr()
        replace_field(bad, 7, "eye_sum", "nan")
        assert run_cli("fuse-train", "--match-csv", bad, "--out", tmp_path / "x.json") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "bad.csv:7: column 'eye_sum': non-finite value" in err["message"]
        assert not (tmp_path / "x.json").exists()


class TestFuseTrainCues:
    def test_cue_matrix_equals_per_row_cue_vectors(self, population_dir, tmp_path):
        match_csv = tmp_path / "match.csv"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", match_csv, "--max-shift", 4,
        ) == 0
        matches = fileio.read_match_csv(match_csv)
        use = matches["iris_valid"]
        norm = NormalizationParams.from_distances(matches["perioc_dist"][use])
        rows = [
            reference_cue_row(matches["ws"][k], matches["perioc_dist"][k], norm,
                              [matches[name][k] for name in CUE_NAMES[2:]])
            for k in np.flatnonzero(use)
        ]
        assert cue_matrix(matches, norm).tobytes() == np.array(rows).tobytes()


class TestFlagDefaults:
    """A flag left out records its config class's default."""

    def test_synth_records_the_synth_config_defaults(self, tmp_path):
        out = tmp_path / "pop"
        assert run_cli("synth", "--out", out, "--subjects", 3, "--samples", 2,
                       "--height", 8, "--width", 32, "--perioc-dim", 4) == 0
        config = SynthConfig(num_subjects=3, samples_per_subject=2, height=8, width=32,
                             perioc_dim=4)
        recorded = json.loads((out / "synth-config.json").read_text())["config"]
        assert recorded == json.loads(json.dumps(dataclasses.asdict(config)))

    def test_match_and_fuse_train_record_their_defaults(self, population_dir, tmp_path):
        match_csv, checkpoint = tmp_path / "match.csv", tmp_path / "ckpt.json"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv", "--out", match_csv,
        ) == 0
        assert fileio.read_sidecar(match_csv) == DEFAULT_SETTINGS
        assert (DEFAULT_SETTINGS["max_shift"], DEFAULT_SETTINGS["step"]) == (16, 1)
        assert run_cli("fuse-train", "--match-csv", match_csv, "--out", checkpoint,
                       "--epochs", 1) == 0
        recorded = fileio.read_checkpoint(checkpoint)[2]
        assert recorded == json.loads(json.dumps(dataclasses.asdict(TrainConfig(epochs=1))))


class TestSumRulePipeline:
    def test_both_sides_sum_rule(self, tmp_path):
        out = tmp_path / "pop2"
        assert run_cli(*synth_args(out, seed=5, subjects=6, samples=2),
                       "--both-sides") == 0
        match_csv = tmp_path / "match.csv"
        assert run_cli(
            "match", "--manifest", out / "manifest.jsonl",
            "--templates-dir", out / "templates",
            "--features", out / "features.csv",
            "--out", match_csv, "--max-shift", 2,
            "--protocol", "left-right-disjoint",
        ) == 0
        rows = fileio.read_match_csv(match_csv)
        # 6 subjects x 2 samples as (subject, sample) units, two rows per group
        assert len(rows["side"]) == 2 * (6 * 1 + math.comb(6, 2) * 4)
        assert set(rows["side"]) == {"L", "R"}
        checkpoint = tmp_path / "ckpt.json"
        assert run_cli("fuse-train", "--match-csv", match_csv,
                       "--out", checkpoint, "--epochs", 30) == 0
        scores = tmp_path / "scores.csv"
        assert run_cli("score", "--match-csv", match_csv,
                       "--checkpoint", checkpoint, "--out", scores) == 0
        assert run_cli("eval", "--scores", scores, "--column", "ws",
                       "--out-prefix", tmp_path / "sr", "--sum-rule") == 0
        summary = json.loads((tmp_path / "sr-summary.json").read_text())
        assert summary["n_genuine"] == 6 * 1
        assert summary["n_impostor"] == math.comb(6, 2) * 4

    def test_row_order_does_not_change_the_result(self, tmp_path):
        rng = np.random.default_rng(17)
        rows = []
        for k in range(40):
            label = "genuine" if k % 4 == 0 else "impostor"
            for side in ("L", "R"):
                dynamic = "" if k % 9 == 5 and side == "R" else repr(float(rng.uniform()))
                rows.append(f"S{k}:0,S{k}:1,{side},{label},1.0,0.1,0.9,0.9,0.4,0.0,"
                            f"0.2,0.0,0.1,1.0,0.9,{dynamic}")
        outputs = []
        for order in (rows, rows[::-1], rows[0::2] + rows[1::2]):
            tag = len(outputs)
            scores = with_sidecar(tmp_path / f"scores{tag}.csv")
            scores.write_text("\n".join([SCORE_HEADER, *order]) + "\n")
            assert run_cli("eval", "--scores", scores, "--sum-rule",
                           "--out-prefix", tmp_path / f"sr{tag}", "--far-target", 0.1) == 0
            outputs.append([(tmp_path / f"sr{tag}-{name}").read_bytes()
                            for name in ("summary.json", "roc.csv")])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("sum_rule, counts", [
        (False, {"n_genuine": 3, "n_impostor": 5,
                 "n_unusable_genuine": 1, "n_unusable_impostor": 3}),
        (True, {"n_genuine": 1, "n_impostor": 2,
                "n_unusable_genuine": 1, "n_unusable_impostor": 2}),
    ])
    def test_summary_counts_unusable_comparisons_per_label(self, tmp_path, sum_rule, counts):
        def rows(a, label, left, right):
            return [f"{a},{a}',{side},{label},1.0,0.1,0.9,0.9,0.4,0.0,0.2,0.0,0.1,1.0,0.9,{d}"
                    for side, d in (("L", left), ("R", right))]

        # a pair is unusable under the sum rule if either side is
        lines = [SCORE_HEADER, *rows("g0", "genuine", 0.9, 0.8), *rows("g1", "genuine", 0.7, ""),
                 *rows("i0", "impostor", 0.2, 0.1), *rows("i1", "impostor", 0.3, 0.2),
                 *rows("i2", "impostor", "", ""), *rows("i3", "impostor", "", 0.4)]
        scores = with_sidecar(tmp_path / "scores.csv")
        scores.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", "--scores", scores, "--out-prefix", tmp_path / "sr",
                       "--far-target", 0.5, *(("--sum-rule",) if sum_rule else ())) == 0
        summary = json.loads((tmp_path / "sr-summary.json").read_text())
        assert {key: summary[key] for key in counts} == counts

    @pytest.mark.parametrize("faulty_first, message", [
        ("count", "(m, m') has 3"),
        ("labels", "inconsistent labels for pair (m, m')"),
        ("none", "inconsistent labels for pair (b, b')"),
    ])
    def test_first_faulty_pair_in_file_order_is_reported(
        self, tmp_path, capsys, faulty_first, message
    ):
        def row(a, side, label):
            return f"{a},{a}',{side},{label},1.0,0.1,0.9,0.9,0.4,0.0,0.2,0.0,0.1,1.0,0.9,0.5"

        # "b" sorts before "m" but appears after it; "b" has mixed labels
        m_third = {"count": [row("m", "L", "impostor")],
                   "labels": [row("m", "L", "genuine")], "none": []}[faulty_first]
        lines = [SCORE_HEADER, row("m", "L", "impostor"), row("b", "L", "genuine"),
                 row("b", "R", "impostor"), row("m", "R", "impostor"), *m_third]
        scores = with_sidecar(tmp_path / "scores.csv")
        scores.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", "--scores", scores, "--sum-rule",
                       "--out-prefix", tmp_path / "sr", "--far-target", 0.5) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert message in err["message"]

    @pytest.mark.parametrize("third_usable", [True, False])
    def test_pair_with_three_comparisons_is_rejected(self, tmp_path, capsys, third_usable):
        def row(a, side, label, dynamic):
            return (f"{a},{a}',{side},{label},1.0,0.1,0.9,0.9,0.4,0.0,0.2,0.0,"
                    f"0.1,1.0,0.9,{dynamic}")

        lines = [SCORE_HEADER, row("g", "L", "genuine", 0.9), row("g", "R", "genuine", 0.8),
                 row("i", "L", "impostor", 0.2), row("i", "R", "impostor", 0.1),
                 row("x", "L", "impostor", 0.3), row("x", "R", "impostor", 0.4),
                 row("x", "L", "impostor", 0.5 if third_usable else "")]
        scores = with_sidecar(tmp_path / "scores.csv")
        scores.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", "--scores", scores, "--sum-rule",
                       "--out-prefix", tmp_path / "sr", "--far-target", 0.5) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "(x, x') has 3" in err["message"]
        assert not (tmp_path / "sr-summary.json").exists()

    def test_pair_without_one_left_and_one_right_is_rejected(self, tmp_path, capsys):
        def row(a, b, side, label, dynamic):
            return (f"{a},{b},{side},{label},1.0,0.1,0.9,0.9,0.4,0.0,0.2,0.0,"
                    f"0.1,1.0,0.9,{dynamic}")

        lines = [SCORE_HEADER,
                 row("A:0", "A:1", "L", "genuine", 0.9), row("A:0", "A:1", "L", "genuine", 0.8),
                 row("A:0", "B:0", "L", "impostor", 0.2), row("A:0", "B:0", "R", "impostor", 0.1)]
        scores = with_sidecar(tmp_path / "scores.csv")
        scores.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", "--scores", scores, "--sum-rule",
                       "--out-prefix", tmp_path / "sr", "--far-target", 0.5) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "(A:0, A:1)" in err["message"]
        assert "one L and one R" in err["message"]
        assert not (tmp_path / "sr-summary.json").exists()


@pytest.fixture(scope="module")
def pipeline_scores(tmp_path_factory):
    """Score CSVs of two small pipelines: within-side on a train/test
    split, and left/right on a both-sides population (for the sum rule)."""
    out = tmp_path_factory.mktemp("scores")
    tables = {}
    for tag, synth, protocol in (
        ("within", {"train_fraction": 0.5}, WITHIN_SIDE),
        ("sum-rule", {"both_sides": None, "train_fraction": 0.5}, "left-right-disjoint"),
    ):
        pop = out / tag
        assert run_cli(*synth_args(pop, seed=5, subjects=10, **synth)) == 0
        common = ["--templates-dir", pop / "templates", "--features", pop / "features.csv",
                  "--max-shift", 4, "--protocol", protocol]
        for split in ("train", "test"):
            assert run_cli("match", "--manifest", pop / f"manifest-{split}.jsonl",
                           "--out", out / f"{tag}-{split}.csv", *common) == 0
        assert run_cli("fuse-train", "--match-csv", out / f"{tag}-train.csv",
                       "--out", out / f"{tag}-ckpt.json", "--epochs", 20) == 0
        tables[tag] = out / f"{tag}-scores.csv"
        assert run_cli("score", "--match-csv", out / f"{tag}-test.csv",
                       "--checkpoint", out / f"{tag}-ckpt.json", "--out", tables[tag]) == 0
    return tables


def repr_roc_text(scores_csv, column, sum_rule):
    """The ROC CSV of a score CSV's column with every field written as its repr."""
    name = cli._EVAL_COLUMNS[column][0]
    read = ("label", name, *(("a_id", "b_id", "side") if sum_rule else ()))
    scores, _, _ = cli._collect_scores(fileio.read_score_csv(scores_csv, read), column, sum_rule)
    curve = roc_curve(scores)
    rows = zip(curve.thresholds.tolist(), curve.far.tolist(), curve.tar.tolist())
    return "threshold,far,tar\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


class TestEvalRoc:
    COLUMNS = ("dynamic", "static", "ws", "hamming", "perioc")

    @pytest.mark.parametrize("tag, sum_rule", [("within", False), ("sum-rule", True)])
    @pytest.mark.parametrize("column", COLUMNS)
    def test_roc_equals_formatting_every_field(
        self, pipeline_scores, tmp_path, capsys, column, tag, sum_rule
    ):
        scores = pipeline_scores[tag]
        assert run_cli("eval", "--scores", scores, "--column", column, "--far-target", 0.01,
                       "--out-prefix", tmp_path / "e", *(("--sum-rule",) if sum_rule else ())) == 0
        roc = (tmp_path / "e-roc.csv").read_text()
        assert roc == repr_roc_text(scores, column, sum_rule)
        assert roc.count("\n") > 100  # many distinct scores

    def test_thresholds_are_the_texts_they_were_read_as(self, tmp_path, capsys):
        # (label, dynamic): 0.5, 0.25 and 0 are each written three or two ways
        fields = [("genuine", "0.50"), ("genuine", "9e-1"), ("genuine", "0.75"),
                  ("impostor", "5e-1"), ("impostor", "+0.5"), ("impostor", "0.1"),
                  ("impostor", "-0.0"), ("impostor", "0.0"), ("impostor", "0.25"),
                  ("impostor", "2.5e-1"), ("impostor", "")]
        lines = [SCORE_HEADER] + [
            f"a{k},b{k},L,{label},1.0,0.1,0.9,0.9,0.4,0.0,0.2,0.0,0.1,1.0,0.9,{dynamic}"
            for k, (label, dynamic) in enumerate(fields)]
        scores = with_sidecar(tmp_path / "scores.csv")
        scores.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", "--scores", scores, "--out-prefix", tmp_path / "e",
                       "--far-target", 0.5) == 0
        with open(tmp_path / "e-roc.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        # the doubles are the ones earlier versions wrote as their repr
        table = fileio.read_score_csv(scores, ("label", "dynamic"))
        used = ~np.isnan(table["dynamic"])
        curve = roc_curve(ScoreSet(table["dynamic"][used & table["label"]],
                                   table["dynamic"][used & ~table["label"]]))
        thresholds = np.array([float(row[0]) for row in rows])
        assert thresholds.view(np.uint64).tolist() == curve.thresholds.view(np.uint64).tolist()
        assert [row[1:] for row in rows] == [[repr(f), repr(t)] for f, t in
                                             zip(curve.far.tolist(), curve.tar.tolist())]
        # each threshold is the first text read with its bits; the sentinel is a repr
        zero = "-0.0" if np.signbit(curve.thresholds[-1]) else "0.0"
        assert [row[0] for row in rows] == [
            repr(float(np.nextafter(0.9, 1.0))), "9e-1", "0.75", "0.50", "0.25", "0.1", zero]

    def test_read_peak_memory_stays_near_the_arrays_and_texts(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(11)
        row = dict(a_id="S0:L:0", b_id="S1:L:0", side="L", iris_score=1.0, perioc_norm=0.1,
                   mask_rate_a=0.9, mask_rate_b=0.9, eye_sum=0.4, eye_diff=0.0, brow_sum=0.2,
                   brow_diff=0.0, hamming=0.1, ws=1.5, static=0.9)
        table = {name: np.full(n, value) for name, value in row.items()}
        table["label"] = rng.random(n) < 0.05
        table["dynamic"] = np.where(rng.random(n) < 0.1, np.nan, rng.random(n))
        path = tmp_path / "scores.csv"
        fileio.write_score_csv(path, table)
        tracemalloc.start()
        try:
            got, texts = cli._read_scores(path, ("label", "dynamic"), "dynamic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got["dynamic"], table["dynamic"])
        np.testing.assert_array_equal(got["label"], table["label"])
        written = fileio.field_texts("dynamic", fileio.OPT_FLOAT, table["dynamic"]).texts.tolist()
        assert texts.take(np.arange(n)) == written
        # the store: each text's bytes and one int64 a row, not a str a row
        store = sum(map(len, written)) + 8 * n
        assert peak < 1.5 * (got["label"].nbytes + got["dynamic"].nbytes + store)

    @pytest.mark.parametrize("far_target", ["1.5", "-0.1", "nan"])
    def test_bad_far_target_is_rejected_before_the_table_is_read(
        self, tmp_path, capsys, far_target
    ):
        with pytest.raises(ValueError) as expected:  # the message tar_at_far gives
            tar_at_far(roc_curve(ScoreSet([1.0], [0.0])), float(far_target), n_impostor=1)
        # a table that is read first would fail as missing
        assert run_cli("eval", "--scores", tmp_path / "missing.csv",
                       "--out-prefix", tmp_path / "e", "--far-target", far_target) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": str(expected.value)}
        assert list(tmp_path.iterdir()) == []


class TestCheckCommands:
    def test_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--points", 5) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 1

    # the suite itself runs in test_acceptance; here only its wiring to the CLI
    @pytest.mark.parametrize("mismatches, code", [(0, 0), (3, 1)], ids=["pass", "fail"])
    def test_oracle_reports_the_suite(self, monkeypatch, capsys, mismatches, code):
        report = reference.EquivalenceReport(
            pairs_checked=40, mismatches=mismatches, unusable_pairs=2, elapsed_seconds=0.5
        )
        calls = []

        def suite(seed, scale):
            calls.append((seed, scale))
            return report

        monkeypatch.setattr(reference, "run_equivalence_suite", suite)
        assert run_cli("oracle", "--seed", 4, "--scale", 2) == code
        assert calls == [(4, 2)]
        status = "[PASS]" if code == 0 else "[FAIL]"
        assert capsys.readouterr().out == (
            f"{status} packed kernels vs per-pixel reference: "
            f"40 pairs, {mismatches} mismatches, 2 unusable, 0.50s\n"
        )


class TestErrorContract:
    def test_unreadable_input_yields_json_error(self, tmp_path, capsys):
        code = run_cli("eval", "--scores", tmp_path / "missing.csv",
                       "--out-prefix", tmp_path / "x")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_malformed_csv_yields_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,real,header\n")
        code = run_cli("fuse-train", "--match-csv", bad, "--out", tmp_path / "c.json")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"


# The paper-match population: 64x512 templates, matched at +-16 shifts.
PAPER_SYNTH = (
    "--seed", 0, "--subjects", 22, "--samples", 4, "--height", 64, "--width", 512,
    "--perioc-noise", 0.14, "--flip-rate", 0.06, "--degraded-fraction", 0.35,
)
# SHA-256 of its synthesised templates and manifest (see templates_digest)
PAPER_TEMPLATES_SHA256 = "27b1d95fb78e33d6c8fb6bee62d5db7e08f302f2abeea4de3992b08a9e3cd41d"
# SHA-256 of its match CSV without perioc_dist (see match_digest)
PAPER_MATCH_SHA256 = "aa547669703f22c6e9483c396ace789dbd7adec084672c8f65159407d562d882"
# the same with --unmasked-ws, whose ws column scores over every pixel
PAPER_UNMASKED_MATCH_SHA256 = "6fc510a3d8f7d6df76a0cea9f2c0e96b2b3aa5ef67515716f6a9e692169f82bf"


def templates_digest(pop):
    """One SHA-256 over the manifest and every template file, in name
    order.  The feature table is left out: synth normalises its vectors
    through BLAS."""
    digest = hashlib.sha256()
    files = [pop / "manifest.jsonl", *sorted((pop / "templates").iterdir())]
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def match_digest(path):
    """SHA-256 of a match CSV's lines with the ``perioc_dist`` field cut
    out: its sums go through BLAS, whose order depends on the CPU."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cut = rows[0].index("perioc_dist")
    text = "".join(",".join(row[:cut] + row[cut + 1:]) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="class")
def paper_population(tmp_path_factory):
    pop = tmp_path_factory.mktemp("paper")
    assert run_cli("synth", "--out", pop, *PAPER_SYNTH) == 0
    if templates_digest(pop) != PAPER_TEMPLATES_SHA256:
        pytest.skip("this numpy synthesises other templates from the same seed")
    return pop


def paper_match_digest(pop, out, *flags):
    """match_digest of the paper-match population's match CSV."""
    assert run_cli(
        "match", "--manifest", pop / "manifest.jsonl", "--templates-dir",
        pop / "templates", "--features", pop / "features.csv",
        "--alpha", 0.3, "--max-shift", 16, *flags, "--out", out,
    ) == 0
    return match_digest(out)


class TestPaperMatchBytes:
    def test_match_csv_keeps_its_bytes(self, paper_population, tmp_path):
        assert paper_match_digest(paper_population, tmp_path / "match.csv") == (
            PAPER_MATCH_SHA256)

    def test_unmasked_ws_match_csv_keeps_its_bytes(self, paper_population, tmp_path):
        assert paper_match_digest(
            paper_population, tmp_path / "match.csv", "--unmasked-ws"
        ) == PAPER_UNMASKED_MATCH_SHA256
