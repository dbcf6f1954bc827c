import json
import math

import numpy as np
import pytest

from irisfuse import fileio
from irisfuse.cli import main


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
        code = run_cli(*synth_args(tmp_path / "x", train_fraction=1.5))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "train-fraction" in err["message"]


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
        assert len(rows) == 8 * 3 + math.comb(8, 2) * 9

    def test_alpha_one_makes_ws_complement_hamming(self, population_dir, tmp_path):
        out = tmp_path / "match.csv"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", out, "--max-shift", 4, "--alpha", 1.0,
        ) == 0
        rows = [r for r in fileio.read_match_csv(out) if r.iris_valid]
        assert rows
        for row in rows:
            assert row.ws + row.hamming == pytest.approx(1.0, abs=1e-12)

    def test_unmasked_ws_mode_scores_over_full_area(self, population_dir, tmp_path):
        from irisfuse import bitmatch, fileio as fio

        out = tmp_path / "match-unmasked.csv"
        assert run_cli(
            "match", "--manifest", population_dir / "manifest.jsonl",
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--out", out, "--max-shift", 2, "--unmasked-ws",
        ) == 0
        rows = [r for r in fio.read_match_csv(out) if r.iris_valid][:5]
        manifest = fio.read_manifest(population_dir / "manifest.jsonl")
        by_id = {e.entry_id: e for e in manifest.entries}
        for row in rows:
            a = fio.read_template(
                population_dir / "templates" / f"{by_id[row.a_id].template_ref}.irt"
            )
            b = fio.read_template(
                population_dir / "templates" / f"{by_id[row.b_id].template_ref}.irt"
            )
            expected, _ = bitmatch.weighted_similarity(
                a, b, 0.3, bitmatch.ShiftPolicy(2, 1), unmasked=True
            )
            assert row.ws == expected

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


class TestPipeline:
    def run_pipeline(self, population_dir, tmp_path, tag="run"):
        match_train = tmp_path / f"{tag}-match-train.csv"
        match_test = tmp_path / f"{tag}-match-test.csv"
        checkpoint = tmp_path / f"{tag}-ckpt.json"
        scores = tmp_path / f"{tag}-scores.csv"
        prefix = tmp_path / f"{tag}-eval"
        common = [
            "--templates-dir", population_dir / "templates",
            "--features", population_dir / "features.csv",
            "--max-shift", 4,
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
            "dataset", "n_genuine", "n_impostor", "eer", "tar_at_far",
            "far_target", "alpha", "max_shift", "method",
        }
        assert summary["dataset"] == "synthetic"
        assert summary["method"] == "dynamic"
        assert 0.0 <= summary["eer"] <= 1.0
        roc = fileio.read_roc_csv(f"{prefix}-roc.csv")
        assert (np.diff(roc.far) >= 0).all()
        score_rows = fileio.read_score_csv(scores)
        assert all(r.dynamic is not None for r in score_rows if r.iris_score is not None)

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
        rows = []
        for k in range(10):
            rows.append(fileio.ScoreRow(
                a_id=f"g{k}", b_id=f"g{k}'", side="L", label="genuine",
                iris_score=1.0, perioc_norm=0.1, mask_rate_a=0.9, mask_rate_b=0.9,
                eye_sum=0.4, eye_diff=0.0, brow_sum=0.2, brow_diff=0.0,
                hamming=0.1, ws=1.5, static=0.9, dynamic=0.9 + 0.001 * k,
            ))
            rows.append(fileio.ScoreRow(
                a_id=f"i{k}", b_id=f"i{k}'", side="L", label="impostor",
                iris_score=0.3, perioc_norm=0.9, mask_rate_a=0.9, mask_rate_b=0.9,
                eye_sum=0.4, eye_diff=0.0, brow_sum=0.2, brow_diff=0.0,
                hamming=0.45, ws=0.6, static=0.2, dynamic=0.1 + 0.001 * k,
            ))
        path = tmp_path / "scores.csv"
        fileio.write_score_csv(path, rows)
        assert run_cli("eval", "--scores", path, "--column", "dynamic",
                       "--out-prefix", tmp_path / "sep") == 0
        summary = json.loads((tmp_path / "sep-summary.json").read_text())
        assert summary["eer"] == 0.0
        assert summary["tar_at_far"] == 1.0

    def test_hamming_column_uses_distance_orientation(self, tmp_path):
        rows = []
        for k in range(8):
            rows.append(fileio.ScoreRow(
                a_id=f"g{k}", b_id="x", side="L", label="genuine",
                iris_score=1.0, perioc_norm=0.1, mask_rate_a=1.0, mask_rate_b=1.0,
                eye_sum=0.4, eye_diff=0.0, brow_sum=0.2, brow_diff=0.0,
                hamming=0.10 + 0.001 * k, ws=1.5, static=0.9, dynamic=0.9,
            ))
            rows.append(fileio.ScoreRow(
                a_id=f"i{k}", b_id="x", side="L", label="impostor",
                iris_score=0.3, perioc_norm=0.9, mask_rate_a=1.0, mask_rate_b=1.0,
                eye_sum=0.4, eye_diff=0.0, brow_sum=0.2, brow_diff=0.0,
                hamming=0.42 + 0.001 * k, ws=0.6, static=0.2, dynamic=0.1,
            ))
        path = tmp_path / "scores.csv"
        fileio.write_score_csv(path, rows)
        assert run_cli("eval", "--scores", path, "--column", "hamming",
                       "--out-prefix", tmp_path / "hd") == 0
        summary = json.loads((tmp_path / "hd-summary.json").read_text())
        assert summary["eer"] == 0.0


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
        assert len(rows) == 2 * (6 * 1 + math.comb(6, 2) * 4)
        assert {r.side for r in rows} == {"L", "R"}
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


class TestCheckCommands:
    def test_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--points", 5) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_oracle_suite_scaled_down_passes(self, capsys):
        # full-size suite runs in the acceptance tests; here a sanity call
        assert run_cli("oracle", "--seed", 1) == 0
        assert "[PASS]" in capsys.readouterr().out


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
