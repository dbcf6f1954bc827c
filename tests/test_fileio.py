import csv
import dataclasses
import hashlib
import io
import itertools
import json
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisfuse import fileio
from irisfuse.evaluation import Manifest, ManifestEntry, RocCurve, ScoreSet, roc_curve
from irisfuse.fusion import NormalizationParams, cue_matrix
from irisfuse.mlp import MlpParams, TrainConfig
from irisfuse.templates import pack_template


def nul_read_message(column: str) -> str:
    """What a read NUL raises after ``file:line:``.  Before Python 3.11,
    ``csv.reader`` rejects the whole line before any column is split."""
    if sys.version_info < (3, 11):
        return "line contains NUL"
    return f"column '{column}': NUL character"


def random_template(rng, h=64, w=512):
    bits = rng.integers(0, 2, size=(h, w), dtype=np.uint8)
    mask = rng.integers(0, 2, size=(h, w), dtype=np.uint8)
    return pack_template(bits, mask, h, w)


class TestTemplateContainer:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        template = random_template(rng)
        path = tmp_path / "t.irt"
        fileio.write_template(path, template)
        again = fileio.read_template(path)
        # writing the parsed template reproduces the file byte for byte
        assert fileio.template_to_bytes(again) == path.read_bytes()
        assert (again.packed_bits == template.packed_bits).all()
        assert (again.packed_mask == template.packed_mask).all()

    def test_file_length_formula(self, tmp_path):
        rng = np.random.default_rng(1)
        template = random_template(rng, h=3, w=5)
        path = tmp_path / "t.irt"
        fileio.write_template(path, template)
        assert path.stat().st_size == 9 + 2 * ((3 * 5 + 7) // 8)

    def test_truncated_file_names_lengths(self, tmp_path):
        rng = np.random.default_rng(2)
        data = fileio.template_to_bytes(random_template(rng, h=4, w=8))
        path = tmp_path / "t.irt"
        path.write_bytes(data[:-3])
        with pytest.raises(fileio.ParseError, match=r"expected 17 bytes.*got 14"):
            fileio.read_template(path)

    def test_bad_magic(self):
        with pytest.raises(fileio.ParseError, match="bad magic"):
            fileio.template_from_bytes(b"XXXX" + bytes(20))

    def test_bad_version(self):
        rng = np.random.default_rng(3)
        data = bytearray(fileio.template_to_bytes(random_template(rng, 2, 4)))
        data[4] = 9
        with pytest.raises(fileio.ParseError, match="version"):
            fileio.template_from_bytes(bytes(data))

    def test_header_too_short(self):
        with pytest.raises(fileio.ParseError, match="truncated header"):
            fileio.template_from_bytes(b"IRT")

    @given(
        height=st.integers(1, 8),
        width=st.integers(1, 24),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_bytes_round_trip_property(self, height, width, seed):
        rng = np.random.default_rng(seed)
        template = random_template(rng, height, width)
        data = fileio.template_to_bytes(template)
        again = fileio.template_from_bytes(data)
        assert fileio.template_to_bytes(again) == data


class TestFeatureCsv:
    @staticmethod
    def make_table(rng, n=4, dim=6):
        """A feature table of ``n`` samples with ids in id order (a list, so
        that a test can rename one)."""
        rows = [(rng.normal(size=dim), rng.uniform(0, 0.4), rng.uniform(0, 0.3)) for _ in range(n)]
        features, eye, brow = map(np.array, zip(*rows))
        return {"id": [f"id{k:02d}" for k in range(n)], "eye_area": eye, "brow_area": brow,
                "features": features}

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        table = self.make_table(rng)
        path = tmp_path / "features.csv"
        fileio.write_feature_csv(path, table)
        again = fileio.read_feature_csv(path)
        assert list(again) == ["id", "eye_area", "brow_area", "features"]
        assert again["features"].shape == (4, 6) and again["features"].flags.c_contiguous
        assert_tables_equal(again, table)

    def test_round_trip_across_blocks(self, tmp_path):
        # at D = 512 a block holds 7 rows, so 8 rows read as two blocks
        rng = np.random.default_rng(4)
        table = self.make_table(rng, n=8, dim=512)
        path = tmp_path / "features.csv"
        fileio.write_feature_csv(path, table)
        assert fileio.BLOCK_FIELDS // (3 + 512) == 7
        again = fileio.read_feature_csv(path)
        assert again["features"].shape == (8, 512) and again["features"].flags.c_contiguous
        assert_tables_equal(again, table)

    def test_short_row_reports_line_number(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "features.csv"
        fileio.write_feature_csv(path, self.make_table(rng, n=3, dim=4))
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])  # drop the last value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(fileio.ParseError, match=r"features\.csv:3: expected 7 fields"):
            fileio.read_feature_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "features.csv"
        fileio.write_feature_csv(path, self.make_table(rng, n=2, dim=2))
        text = path.read_text().replace(path.read_text().splitlines()[1].split(",")[3], "inf", 1)
        path.write_text(text)
        with pytest.raises(fileio.ParseError, match="non-finite"):
            fileio.read_feature_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(fileio.ParseError, match="header"):
            fileio.read_feature_csv(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(
            "id,eye_area,brow_area,f0\nx,0.1,0.1,1.0\nx,0.1,0.1,2.0\n"
        )
        with pytest.raises(fileio.ParseError, match="duplicate id"):
            fileio.read_feature_csv(path)

    def test_written_bytes(self, tmp_path):
        table = self.make_table(np.random.default_rng(12), n=3, dim=3)
        table["id"][1] = "id,quoted"  # "," sorts before "0"
        path = tmp_path / "features.csv"
        fileio.write_feature_csv(path, table)
        columns = (table["id"], table["eye_area"].tolist(), table["brow_area"].tolist(),
                   table["features"].tolist())
        rows = [["id", "eye_area", "brow_area", "f0", "f1", "f2"]] + sorted(
            [ref, repr(eye), repr(brow), *map(repr, features)]
            for ref, eye, brow, features in zip(*columns)
        )
        assert [row[0] for row in rows[1:]] == ["id,quoted", "id00", "id02"]
        assert path.read_bytes() == csv_writer_text(rows).encode()

    def test_writer_rejects_a_duplicate_id(self, tmp_path):
        table = self.make_table(np.random.default_rng(15), n=3, dim=2)
        table["id"][2] = "id00"
        with pytest.raises(ValueError, match="duplicate id 'id00'"):
            fileio.write_feature_csv(tmp_path / "features.csv", table)
        assert list(tmp_path.iterdir()) == []

    def test_writer_rejects_areas_summing_past_one(self, tmp_path):
        table = self.make_table(np.random.default_rng(16), n=3, dim=2)
        table["eye_area"][1], table["brow_area"][1] = 0.5, 0.5  # areas may fill the image
        path = tmp_path / "features.csv"
        fileio.write_feature_csv(path, table)
        assert_tables_equal(fileio.read_feature_csv(path), table)
        table["eye_area"][1] = 0.7
        with pytest.raises(ValueError, match=re.escape(
                "id 'id01': eye_area + brow_area must not exceed 1, got 0.7 + 0.5")):
            fileio.write_feature_csv(path, table)

    @pytest.mark.parametrize("name, value", [
        ("eye_area", 1.5), ("eye_area", -0.25), ("brow_area", 1.5), ("brow_area", np.nan)])
    def test_writer_rejects_an_area_out_of_range(self, tmp_path, name, value):
        table = self.make_table(np.random.default_rng(17), n=3, dim=2)
        table[name][2] = value
        with pytest.raises(ValueError, match=re.escape(
                f"id 'id02': {name} must lie in [0, 1], got {value}")):
            fileio.write_feature_csv(tmp_path / "features.csv", table)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_writer_rejects_a_non_finite_feature(self, tmp_path, value):
        table = self.make_table(np.random.default_rng(18), n=3, dim=2)
        table["features"][0, 1] = value
        with pytest.raises(ValueError, match=re.escape(
                f"column 'f1': row 0: {value!r} would not read back")):
            fileio.write_feature_csv(tmp_path / "features.csv", table)

    @pytest.mark.parametrize("features", [np.zeros(3), np.zeros((3, 0))])
    def test_writer_rejects_features_that_are_not_a_matrix(self, tmp_path, features):
        table = self.make_table(np.random.default_rng(19), n=3, dim=2)
        table["features"] = features
        with pytest.raises(ValueError, match=r"features must be an \(n, D\) matrix"):
            fileio.write_feature_csv(tmp_path / "features.csv", table)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["x,0.1,0.1,1.0", "x,0.1,0.1,2.0", "y,0.1,0.1,abc"], r":3: duplicate id 'x'"),
            (["x,0.1,0.1,1.0", "x,0.1,0.1,abc"], r":3: duplicate id 'x'"),
            (["x,0.1,0.1,abc", "x,0.1,0.1,1.0"], r":2: column 'f0': not a number: 'abc'"),
            (["x,1.5,0.1,1.0", "y,0.1,0.1,abc"], r":2: eye_area must lie in \[0, 1\], got 1.5"),
            (["x,0.1,0.1,1.0", "x,0.1,0.1"], r":3: expected 4 fields, got 3"),
            # an area and a duplicate: the earlier line wins, and the duplicate within a line
            (["x,0.1,0.1,1.0", "y,1.5,0.1,1.0", "x,0.1,0.1,1.0"],
             r":3: eye_area must lie in \[0, 1\], got 1.5"),
            (["x,0.1,0.1,1.0", "x,0.1,0.1,1.0", "y,1.5,0.1,1.0"], r":3: duplicate id 'x'"),
            (["x,0.1,0.1,1.0", "x,1.5,0.1,1.0"], r":3: duplicate id 'x'"),
            (["x,0.1,0.1,1.0", "y,0.6,0.5,1.0", "x,0.1,0.1,1.0"],
             r":3: eye_area \+ brow_area must not exceed 1, got 0.6 \+ 0.5"),
            (["x,0.1,0.1,1.0", "y,0.1,1.5,abc"], r":3: column 'f0': not a number: 'abc'"),
            (["x,0.1,0.1,1.0", "y,0.1,1.5,1.0"], r":3: brow_area must lie in \[0, 1\], got 1.5"),
        ],
    )
    @pytest.mark.parametrize("block_fields", [fileio.BLOCK_FIELDS, 4])  # 4: a row per block
    def test_first_fault_in_file_order(self, tmp_path, monkeypatch, rows, message, block_fields):
        monkeypatch.setattr(fileio, "BLOCK_FIELDS", block_fields)
        path = tmp_path / "features.csv"
        path.write_text("id,eye_area,brow_area,f0\n" + "\n".join(rows) + "\n")
        with pytest.raises(fileio.ParseError, match=r"features\.csv" + message):
            fileio.read_feature_csv(path)

    @pytest.mark.parametrize("bad, message", [
        ("abc", "not a number: 'abc'"),
        ("inf", "non-finite value"),
        ("", "not a number: ''"),
    ])
    def test_bad_field_in_a_wide_table_names_its_line_and_column(self, tmp_path, bad, message):
        table = self.make_table(np.random.default_rng(14), n=20, dim=600)
        path = tmp_path / "features.csv"
        fileio.write_feature_csv(path, table)
        assert fileio._block_rows(fileio._feature_schema(600)) < 20  # several blocks
        lines = path.read_text().splitlines()
        for line, column in [(12, 500), (13, 3)]:  # the later line has the earlier column
            fields = lines[line - 1].split(",")
            fields[3 + column] = bad
            lines[line - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(fileio.ParseError, match=rf"features\.csv:12: column 'f500': {message}$"):
            fileio.read_feature_csv(path)

    def test_duplicate_across_blocks_reported_before_later_bad_float(self, tmp_path):
        n = fileio.BLOCK_ROWS + 7
        rows = [f"id{k},0.1,0.1,1.0" for k in range(n)]
        rows[-1] = "id9,0.1,0.1,abc"
        rows[-3] = "id5,0.1,0.1,1.0"  # line n - 1, in the second block
        path = tmp_path / "features.csv"
        path.write_text("id,eye_area,brow_area,f0\n" + "\n".join(rows) + "\n")
        with pytest.raises(fileio.ParseError, match=rf":{n - 1}: duplicate id 'id5'"):
            fileio.read_feature_csv(path)

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("id,eye_area,brow_area,f0\nx,0.1,0.1,1.0\n" + "y" * 200_000 + ",0.1,0.1,1.0\n")
        with pytest.raises(fileio.ParseError, match=r"features\.csv:3: field larger than field limit"):
            fileio.read_feature_csv(path)

    @pytest.mark.parametrize("ref", ["x\0", "a\0b"])
    def test_nul_in_id_rejected_both_ways(self, tmp_path, ref):
        path = tmp_path / "features.csv"
        path.write_text(f"id,eye_area,brow_area,f0\ny,0.1,0.1,1.0\n{ref},0.1,0.1,1.0\n")
        with pytest.raises(fileio.ParseError, match=r"features\.csv:3: " + nul_read_message("id")):
            fileio.read_feature_csv(path)
        table = self.make_table(np.random.default_rng(13), n=2, dim=2)
        table["id"][1] = ref
        with pytest.raises(ValueError, match="column 'id': text holds a NUL character"):
            fileio.write_feature_csv(tmp_path / "written.csv", table)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("id,eye_area,brow_area,g0\n", "bad feature column names"),
            ("id,eye_area,brow_area\n", "bad feature column names"),
            ("id,eye_area,brow_area,f0\n", "no data rows"),
            ("", "bad feature-table header"),
        ],
    )
    def test_bad_layout_rejected(self, tmp_path, text, message):
        path = tmp_path / "features.csv"
        path.write_text(text)
        with pytest.raises(fileio.ParseError, match=message):
            fileio.read_feature_csv(path)


class TestManifestJsonl:
    def test_round_trip(self, tmp_path):
        manifest = Manifest(
            tuple(
                ManifestEntry(f"S{k}", "L", i, f"t{k}{i}", f"p{k}{i}")
                for k in range(3)
                for i in range(2)
            )
        )
        path = tmp_path / "manifest.jsonl"
        fileio.write_manifest(path, manifest)
        assert fileio.read_manifest(path) == manifest

    def test_bad_json_line_reported(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"subject_id": "S1"\n')
        with pytest.raises(fileio.ParseError, match=r"manifest\.jsonl:1: invalid JSON"):
            fileio.read_manifest(path)

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps({"subject_id": "S1", "eye_side": "L"}) + "\n")
        with pytest.raises(fileio.ParseError, match="expected keys"):
            fileio.read_manifest(path)

    def test_non_integer_sample_index(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        record = {
            "subject_id": "S1",
            "eye_side": "L",
            "sample_index": "0",
            "template_ref": "t",
            "periocular_ref": "p",
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(fileio.ParseError, match="sample_index"):
            fileio.read_manifest(path)

    @pytest.mark.parametrize("key, value, message", [
        # a bool is a Python int
        pytest.param("sample_index", True, "sample_index must be an integer", id="index-bool"),
        pytest.param("sample_index", 1.0, "sample_index must be an integer", id="index-float"),
        pytest.param("subject_id", 7, "subject_id must be a string, got 7", id="subject-int"),
        pytest.param("template_ref", ["x"], r"template_ref must be a string, got \['x'\]",
                     id="template-list"),
        pytest.param("periocular_ref", None, "periocular_ref must be a string, got None",
                     id="periocular-null"),
    ])
    def test_mistyped_value_reported_with_its_line(self, tmp_path, key, value, message):
        path = tmp_path / "manifest.jsonl"
        good = {"subject_id": "S1", "eye_side": "L", "sample_index": 0,
                "template_ref": "t0", "periocular_ref": "p0"}
        bad = {**good, "sample_index": 1, key: value}
        path.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
        with pytest.raises(fileio.ParseError, match=rf"manifest\.jsonl:3: {message}$"):
            fileio.read_manifest(path)


def match_table():
    """A usable and an unusable comparison as match-table columns."""
    return {
        "a_id": ["S0:L:0", "S0:L:0"],
        "b_id": ["S0:L:1", "S1:L:0"],
        "side": ["L", "L"],
        "label": [True, False],
        "iris_valid": [True, False],
        "hamming": [0.125, np.nan],
        "ws": [0.8123456789012345, np.nan],
        "best_shift": [-2, np.nan],
        "joint_valid": [417, np.nan],
        "mask_rate_a": [0.75, 0.1],
        "mask_rate_b": [0.5, 0.2],
        "perioc_dist": [1.25, 2.5],
        "eye_sum": [0.4, 0.3],
        "eye_diff": [-0.05, 0.1],
        "brow_sum": [0.3, 0.2],
        "brow_diff": [0.02, -0.1],
    }


def assert_tables_equal(got, want):
    assert list(got) == list(want)
    for name, values in want.items():
        np.testing.assert_array_equal(got[name], np.asarray(values), err_msg=name)


def replace_field(path, line, column, text):
    """Rewrite field ``column`` of 1-based ``line`` of a CSV file."""
    lines = path.read_text().split("\n")
    fields = lines[line - 1].split(",")
    fields[column] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines))


def csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def python_parse(kind, text):
    """``(value, None)`` or ``(None, message)`` for one field, by float()/int()."""
    if text == "" and kind != fileio.FLOAT:
        return np.nan, None
    parse, what = (int, "an integer") if kind == fileio.OPT_INT else (float, "a number")
    try:
        value = parse(text)
    except ValueError:
        return None, f"not {what}: {text!r}"
    if kind == fileio.OPT_INT:
        return (value, None) if abs(value) < 2**53 else (None, f"integer out of range: {text!r}")
    return (value, None) if np.isfinite(value) else (None, "non-finite value")


class TestTableCodec:
    STR_TEXTS = ["plain", "a,b", 'q"uote', 'both,"', "line\nbreak", " leading space", ""]
    EDGE_TEXTS = [
        "1_000", " 1.5", "+1.5", "\u0661\u0662", "1e500", "nan", "infinity", "0x10", "1.5e", "",
        "-0.0", "1e-400", "1.5 ", "15", "-2", str(2**53), "9" * 400, "1.5\x00",
    ]

    def test_str_fields_written_as_csv_writer_writes_them(self, tmp_path):
        rng = np.random.default_rng(8)
        n = fileio.BLOCK_ROWS + 7
        schema = (("a", fileio.STR), ("b", fileio.STR), ("x", fileio.FLOAT))
        table = {
            "a": rng.choice(self.STR_TEXTS, n).tolist(),
            "b": rng.choice(self.STR_TEXTS, n).tolist(),
            "x": rng.normal(size=n),
        }
        path = tmp_path / "t.csv"
        fileio._write_table(path, schema, table)
        rows = [["a", "b", "x"]] + [
            [a, b, repr(x)] for a, b, x in zip(table["a"], table["b"], table["x"].tolist())
        ]
        assert path.read_bytes() == csv_writer_text(rows).encode()
        assert_tables_equal(fileio._read_table(path, schema, "test"), table)

    def test_one_column_empty_field_written_quoted(self, tmp_path):
        schema = (("a", fileio.STR),)
        table = {"a": ["x", "", "y,z", ""]}
        path = tmp_path / "t.csv"
        fileio._write_table(path, schema, table)
        assert path.read_bytes() == csv_writer_text([["a"]] + [[t] for t in table["a"]]).encode()
        assert_tables_equal(fileio._read_table(path, schema, "test"), table)

    @pytest.mark.parametrize("block_rows, block_fields", [(5, 10**6), (7, 50), (3, 1)])
    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch, block_rows, block_fields):
        features = TestFeatureCsv.make_table(np.random.default_rng(13), n=40, dim=20)
        table = {name: values * 9 for name, values in match_table().items()}
        fileio.write_feature_csv(tmp_path / "f.csv", features)
        fileio.write_match_csv(tmp_path / "m.csv", table)
        monkeypatch.setattr(fileio, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(fileio, "BLOCK_FIELDS", block_fields)
        fileio.write_feature_csv(tmp_path / "f2.csv", features)
        fileio.write_match_csv(tmp_path / "m2.csv", table)
        assert (tmp_path / "f2.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()
        assert (tmp_path / "m2.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()
        assert_tables_equal(fileio.read_feature_csv(tmp_path / "f2.csv"), features)
        assert_tables_equal(fileio.read_match_csv(tmp_path / "m2.csv"), table)

    @pytest.mark.parametrize("kind", [fileio.FLOAT, fileio.OPT_FLOAT, fileio.OPT_INT])
    def test_number_text_is_repr_or_int(self, tmp_path, kind):
        rng = np.random.default_rng(9)
        values = np.concatenate([
            [-0.0, 5e-324, 1e-05, 0.0001, 1e16, 9999999999999998.0],
            rng.normal(size=600),
            np.exp(rng.uniform(-700, 700, size=600)),
            rng.integers(-(2**53) + 1, 2**53, size=600),
        ])
        if kind == fileio.OPT_INT:
            values = np.trunc(values[np.abs(values) < 2**53]) + 0.0  # no -0.0
        if kind != fileio.FLOAT:
            values[rng.random(values.size) < 0.2] = np.nan
        schema = (("x", kind), ("s", fileio.STR))
        path = tmp_path / "t.csv"
        fileio._write_table(path, schema, {"x": values, "s": ["r"] * values.size})
        text = str if kind == fileio.OPT_INT else repr
        want = ["" if v != v else text(int(v) if kind == fileio.OPT_INT else v)
                for v in values.tolist()]
        assert path.read_text().split("\n")[1:-1] == [f"{t},r" for t in want]
        got = fileio._read_table(path, schema, "test")["x"]
        assert got.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "kind, value",
        [(fileio.FLOAT, np.inf), (fileio.FLOAT, np.nan), (fileio.FLOAT, -np.inf),
         (fileio.OPT_FLOAT, np.inf), (fileio.OPT_FLOAT, -np.inf),
         (fileio.OPT_INT, 2.0**60), (fileio.OPT_INT, -(2.0**53)), (fileio.OPT_INT, 2.5),
         (fileio.OPT_INT, np.inf)],
    )
    def test_writer_rejects_numbers_the_reader_rejects(self, tmp_path, kind, value):
        schema = (("s", fileio.STR), ("x", kind))
        values = [1.0, 2.0, 3.0, value, value]
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=re.escape(f"column 'x': row 3: {value!r}")):
            fileio._write_table(path, schema, {"s": ["a"] * 5, "x": values})
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(b"before")
        with pytest.raises(ValueError, match="column 'x': row 3"):
            fileio._write_table(path, schema, {"s": ["a"] * 5, "x": values})
        assert path.read_bytes() == b"before"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_block_leaves_an_existing_table_untouched(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"old table")
        with pytest.raises(RuntimeError, match="later block"):
            with fileio._table_writer(path, fileio.MATCH_SCHEMA) as append:
                append(match_table())
                raise RuntimeError("later block")
        assert path.read_bytes() == b"old table"
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_row_is_counted_over_all_blocks(self, tmp_path):
        schema = (("x", fileio.FLOAT),)
        with pytest.raises(ValueError, match="column 'x': row 4: nan"):
            with fileio._table_writer(tmp_path / "t.csv", schema) as append:
                append({"x": [0.5, 1.5, 2.5]})
                append({"x": [3.5, np.nan]})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", [fileio.FLOAT, fileio.OPT_FLOAT, fileio.OPT_INT])
    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_reader_accepts_what_python_accepts(self, tmp_path, kind, text):
        path = tmp_path / "t.csv"
        path.write_text("x,s\n" + "2,r\n" * 3 + f"{text},r\n", encoding="utf-8")
        schema = (("x", kind), ("s", fileio.STR))
        value, error = python_parse(kind, text)
        if error is None:
            got = fileio._read_table(path, schema, "test")["x"]
            np.testing.assert_array_equal(got, [2.0, 2.0, 2.0, value])
        else:
            with pytest.raises(fileio.ParseError, match=re.escape(f"t.csv:5: column 'x': {error}")):
                fileio._read_table(path, schema, "test")


class TestFieldTexts:
    SCHEMA = (("s", fileio.STR), ("x", fileio.FLOAT), ("y", fileio.OPT_FLOAT),
              ("k", fileio.OPT_INT), ("f", fileio.FLAG), ("g", fileio.LABEL))

    @staticmethod
    def texts(kind, texts):
        return fileio.FieldTexts(kind, np.array(texts, dtype=object))

    def test_texts_are_written_as_given_and_text_fields_quoted(self, tmp_path):
        fields = {
            "s": ["a,b", 'q"uote', "plain", ""],
            "x": ["1e-3", "0.10", "+0.5", "7"],
            "y": ["", "1_000", " 2.5", "-0.0"],
            "k": ["007", "", "+3", "-2"],
            "f": ["1", "0", "0", "1"],
            "g": ["genuine", "impostor", "impostor", "genuine"],
        }
        path = tmp_path / "t.csv"
        fileio._write_table(path, self.SCHEMA, {
            name: self.texts(kind, fields[name]) for name, kind in self.SCHEMA})
        rows = [list(fields)] + [list(row) for row in zip(*fields.values())]
        assert path.read_bytes() == csv_writer_text(rows).encode()
        got = fileio._read_table(path, self.SCHEMA, "test")
        np.testing.assert_array_equal(got["x"], [1e-3, 0.1, 0.5, 7.0])
        np.testing.assert_array_equal(got["k"], [7.0, np.nan, 3.0, -2.0])

    def test_number_text_holding_a_line_break_is_quoted(self, tmp_path):
        schema = (("x", fileio.FLOAT), ("s", fileio.STR))
        source = tmp_path / "in.csv"
        source.write_text('x,s\n"0.5\n",a\n1.5,b\n')
        ((_, texts),) = fileio._table_blocks(source, schema, "test")
        assert texts["x"] == ("0.5\n", "1.5")  # float() accepts the line break
        path = tmp_path / "t.csv"
        fileio._write_table(path, schema, {"x": self.texts(fileio.FLOAT, texts["x"]),
                                           "s": ["a", "b"]})
        assert path.read_text() == 'x,s\n"0.5\n",a\n1.5,b\n'
        np.testing.assert_array_equal(fileio._read_table(path, schema, "test")["x"], [0.5, 1.5])

    @pytest.mark.parametrize("given, kind", [
        (fileio.OPT_FLOAT, fileio.FLOAT), (fileio.FLOAT, fileio.OPT_FLOAT),
        (fileio.STR, fileio.LABEL), (fileio.OPT_INT, fileio.FLAG),
    ])
    def test_texts_of_another_kind_are_rejected(self, tmp_path, given, kind):
        schema = (("s", fileio.STR), ("x", kind))
        path = tmp_path / "t.csv"
        path.write_bytes(b"before")
        table = {"s": ["a"], "x": self.texts(given, ["1"])}
        with pytest.raises(ValueError, match=re.escape(
                f"column 'x': {given} field texts given for a {kind} column")):
            fileio._write_table(path, schema, table)
        assert path.read_bytes() == b"before"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind", [fileio.FLOAT, fileio.OPT_FLOAT, fileio.OPT_INT,
                                      fileio.FLAG, fileio.STR, fileio.LABEL])
    def test_field_texts_are_the_texts_a_writer_writes(self, tmp_path, kind):
        values = {
            fileio.FLOAT: [0.1, -0.0, 1e-3, 5e-324, 1e16],
            fileio.OPT_FLOAT: [0.1, np.nan, 1e-3, np.nan, 2.5],
            fileio.OPT_INT: [7.0, np.nan, -2.0, 0.0, 2.0**52],
            fileio.FLAG: [True, False, False, True, True],
            fileio.STR: ["a,b", 'q"', "", "plain", "x"],
            fileio.LABEL: [True, False, True, True, False],
        }[kind]
        given = fileio.field_texts("x", kind, values)
        assert given.kind == kind and given.texts.dtype == object
        schema = (("x", kind), ("n", fileio.FLOAT))
        for name, column in (("formatted", values), ("given", given)):
            fileio._write_table(tmp_path / name, schema, {"x": column, "n": [0.0] * 5})
        assert (tmp_path / "given").read_bytes() == (tmp_path / "formatted").read_bytes()
        with open(tmp_path / "given", newline="") as fh:
            assert given.texts.tolist() == [row[0] for row in list(csv.reader(fh))[1:]]

    @pytest.mark.parametrize("kind, value", [
        (fileio.FLOAT, np.nan), (fileio.OPT_FLOAT, np.inf), (fileio.OPT_INT, 2.5)])
    def test_field_texts_reject_what_the_writer_rejects(self, kind, value):
        with pytest.raises(ValueError, match=re.escape(f"column 'x': row 2: {value!r}")):
            fileio.field_texts("x", kind, [1.0, 2.0, value])
        with pytest.raises(ValueError, match="column 's': text holds a NUL"):
            fileio.field_texts("s", fileio.STR, ["a", "b\0"])


class TestMatchCsv:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, match_table())
        table = fileio.read_match_csv(path)
        assert_tables_equal(table, match_table())
        assert table["iris_valid"].dtype == bool
        again = tmp_path / "again.csv"
        fileio.write_match_csv(again, table)
        assert again.read_bytes() == path.read_bytes()

    def test_written_text(self, tmp_path):
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, match_table())
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(name for name, _ in fileio.MATCH_SCHEMA)
        assert lines[1] == (
            "S0:L:0,S0:L:1,L,genuine,1,0.125,0.8123456789012345,-2,417,"
            "0.75,0.5,1.25,0.4,-0.05,0.3,0.02"
        )
        assert lines[2] == "S0:L:0,S1:L:0,L,impostor,0,,,,,0.1,0.2,2.5,0.3,0.1,0.2,-0.1"

    @pytest.mark.parametrize(
        "kind, values",
        [
            (fileio.STR, ["S0:L:0", "a,b", 'q"uote', ""]),
            (fileio.FLAG, [True, False, True, True]),
            (fileio.FLOAT, [0.1 + 0.2, -0.0, 1e-300, 12345.678901234567]),
            (fileio.OPT_FLOAT, [np.nan, 1 / 3, np.nan, -2.5e10]),
            (fileio.OPT_INT, [-16, np.nan, 0, 2**53 - 1]),
        ],
    )
    def test_column_kind_round_trip(self, tmp_path, kind, values):
        schema = (("x", kind),)
        path = tmp_path / "t.csv"
        fileio._write_table(path, schema, {"x": values})
        got = fileio._read_table(path, schema, "test")["x"]
        np.testing.assert_array_equal(got, np.asarray(values, dtype=got.dtype))
        if kind in (fileio.FLOAT, fileio.OPT_FLOAT):
            assert got.tobytes() == np.asarray(values, dtype=np.float64).tobytes()

    @pytest.mark.parametrize(
        "line, column, text, message",
        [
            (3, 15, "0.1,0.2", r":3: expected 16 fields, got 17"),
            (3, 3, "intruder", r":3: column 'label': bad label 'intruder'"),
            (2, 4, "2", r":2: column 'iris_valid': bad flag '2'"),
            (2, 5, "abc", r":2: column 'hamming': not a number: 'abc'"),
            (3, 11, "inf", r":3: column 'perioc_dist': non-finite value"),
            (2, 6, "nan", r":2: column 'ws': non-finite value"),
            (2, 7, "1.5", r":2: column 'best_shift': not an integer: '1.5'"),
            (2, 8, str(2**53), r":2: column 'joint_valid': integer out of range"),
            (3, 9, "", r":3: column 'mask_rate_a': not a number: ''"),
        ],
    )
    def test_parse_error_names_file_line_and_column(
        self, tmp_path, line, column, text, message
    ):
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, match_table())
        replace_field(path, line, column, text)
        with pytest.raises(fileio.ParseError, match=r"match\.csv" + message):
            fileio.read_match_csv(path)
        name = fileio.MATCH_SCHEMA[column][0]
        with pytest.raises(fileio.ParseError, match=r"match\.csv" + message):
            fileio.read_match_csv(path, ("a_id", name))
        others = [n for n, _ in fileio.MATCH_SCHEMA if n != name]
        if "expected 16 fields" in message:  # every row's field count is checked
            with pytest.raises(fileio.ParseError, match=r"match\.csv" + message):
                fileio.read_match_csv(path, others)
        else:  # a column that is not read is not parsed
            got = fileio.read_match_csv(path, others)
            assert_tables_equal(got, {n: v for n, v in match_table().items() if n != name})

    def test_carriage_return_in_str_field_round_trips(self, tmp_path):
        table = match_table()
        table["a_id"] = ["a\rb", "S0:L:0"]
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, table)
        assert path.read_bytes().split(b"\n")[1].startswith(b'"a\rb",S0:L:1,')
        assert_tables_equal(fileio.read_match_csv(path), table)

    @pytest.mark.parametrize("text", ["x\0", "a\0b"])
    def test_nul_in_str_field_rejected_when_read(self, tmp_path, text):
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, match_table())
        replace_field(path, 3, 1, text)
        with pytest.raises(fileio.ParseError, match=r"match\.csv:3: " + nul_read_message("b_id")):
            fileio.read_match_csv(path)

    @pytest.mark.parametrize(
        "side",
        [["L", "x\0"], ["L", "a\0b"], np.array(["L", "a\0b"])],  # <U keeps an inner NUL
        ids=["trailing", "inner", "inner-array"],
    )
    def test_nul_in_str_field_rejected_when_written(self, tmp_path, side):
        table = match_table()
        table["side"] = side
        with pytest.raises(ValueError, match="column 'side': text holds a NUL character"):
            fileio.write_match_csv(tmp_path / "match.csv", table)

    @pytest.mark.parametrize("name, values", [
        ("iris_valid", ["0", "0"]),  # a non-empty str is truthy
        ("iris_valid", [0.0, 0.5]),
        ("iris_valid", [0, 1]),
        ("iris_valid", np.array([1, 0], dtype=np.uint8)),
        ("label", ["impostor", "impostor"]),
        ("label", np.array(["genuine", "impostor"])),
    ])
    def test_flag_and_label_columns_take_only_booleans(self, tmp_path, name, values):
        table = match_table()
        table[name] = values
        with pytest.raises(ValueError, match=f"column '{name}': .*booleans"):
            fileio.write_match_csv(tmp_path / "match.csv", table)
        assert list(tmp_path.iterdir()) == []

    def test_read_peak_memory_stays_near_the_arrays(self, tmp_path):
        n = 100_000
        table = {name: np.resize(np.asarray(v), n) for name, v in match_table().items()}
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, table)
        tracemalloc.start()
        try:
            got = fileio.read_match_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_tables_equal(got, table)
        assert peak < 1.5 * sum(values.nbytes for values in got.values())

    def test_first_fault_in_file_order_across_blocks(self, tmp_path):
        n = fileio.BLOCK_ROWS + 7
        table = {name: values[:1] * n for name, values in match_table().items()}
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, table)
        assert len(fileio.read_match_csv(path)["a_id"]) == n
        bad_line = fileio.BLOCK_ROWS + 4  # in the second block
        replace_field(path, bad_line + 1, 3, "intruder")
        replace_field(path, bad_line, 12, "x")  # earlier line, later column
        with pytest.raises(fileio.ParseError, match=rf":{bad_line}: column 'eye_sum'"):
            fileio.read_match_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, match_table())
        path.write_text(path.read_text().replace("impostor", "intruder"))
        with pytest.raises(fileio.ParseError, match="bad label"):
            fileio.read_match_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "match.csv"
        path.write_text("a,b\n")
        with pytest.raises(fileio.ParseError, match=r"match\.csv:1: bad match-table header"):
            fileio.read_match_csv(path)

    def test_narrow_read_checks_the_whole_header(self, tmp_path):
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, match_table())
        path.write_text(path.read_text().replace("best_shift", "best_shft", 1))
        with pytest.raises(fileio.ParseError, match=r"match\.csv:1: bad match-table header"):
            fileio.read_match_csv(path, ("label", "ws"))

    def test_narrow_reads_equal_the_full_read(self, tmp_path):
        n = 3 * fileio.BLOCK_ROWS + 5
        rng = np.random.default_rng(4)
        table = {name: np.resize(np.asarray(v), n) for name, v in match_table().items()}
        table["ws"] = np.where(table["iris_valid"], rng.uniform(0, 2, n), np.nan)
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, table)
        full = fileio.read_match_csv(path)
        assert_tables_equal(full, table)
        assert_tables_equal(fileio.read_match_csv(path, None), table)
        names = [name for name, _ in fileio.MATCH_SCHEMA]
        assert_tables_equal(fileio.read_match_csv(path, names[::-1]), table)
        narrow = fileio.read_match_csv(path, ("ws", "label", "ws"))
        assert_tables_equal(narrow, {"label": table["label"], "ws": table["ws"]})
        blocks = list(fileio.read_match_blocks(path, ("side", "ws")))
        assert [len(b["ws"]) for b, _ in blocks] == [fileio.BLOCK_ROWS] * 3 + [5]
        assert_tables_equal(
            {name: np.concatenate([b[name] for b, _ in blocks]) for name in ("side", "ws")},
            {"side": table["side"], "ws": table["ws"]},
        )
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for name, kind in (("side", fileio.STR), ("ws", fileio.OPT_FLOAT)):
            assert all(t[name].kind == kind for _, t in blocks)
            texts = np.concatenate([t[name].texts for _, t in blocks])
            assert texts.dtype == object
            assert texts.tolist() == [row[names.index(name)] for row in rows]

    def test_header_only_gives_one_empty_block(self, tmp_path):
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, {name: [] for name, _ in fileio.MATCH_SCHEMA})
        ((block, texts),) = fileio.read_match_blocks(path, ("iris_valid", "ws"))
        assert list(block) == list(texts) == ["iris_valid", "ws"]
        assert block["iris_valid"].dtype == bool and block["ws"].size == 0
        assert texts["ws"].kind == fileio.OPT_FLOAT
        assert texts["ws"].texts.dtype == object and texts["ws"].texts.size == 0

    @pytest.mark.parametrize("read", [fileio.read_match_csv, fileio.read_match_blocks])
    def test_unknown_column_name_raises(self, tmp_path, read):
        with pytest.raises(ValueError, match="no column 'score'"):
            read(tmp_path / "never-opened.csv", ("label", "score"))
        with pytest.raises(ValueError, match="no column 'perioc_dist'"):  # a match column
            fileio.read_score_csv(tmp_path / "never-opened.csv", ("dynamic", "perioc_dist"))

    def test_header_only_gives_empty_columns(self, tmp_path):
        path = tmp_path / "match.csv"
        table = {name: [] for name, _ in fileio.MATCH_SCHEMA}
        fileio.write_match_csv(path, table)
        again = fileio.read_match_csv(path)
        assert all(values.size == 0 for values in again.values())
        assert again["iris_valid"].dtype == bool

    def test_out_of_range_cue_in_usable_row_names_the_cue(self, tmp_path):
        table = match_table()
        table["mask_rate_b"] = [1.5, 1.5]
        path = tmp_path / "match.csv"
        fileio.write_match_csv(path, table)
        matches = fileio.read_match_csv(path)  # ranges are a cue rule, not a format rule
        norm = NormalizationParams(0.0, 2.0)
        with pytest.raises(ValueError, match=r"mask_rate_b must lie in \[0, 1\], got 1.5"):
            cue_matrix(matches, norm)
        matches["iris_valid"][0] = False  # unusable rows are not fed to the network
        assert cue_matrix(matches, norm).shape == (0, 8)


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = fileio._repr_texts(values)
    want = list(map(repr, values.tolist()))
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


class TestReprTexts:
    """The writer's float formatter against ``repr``, value for value."""

    FAST_POWERS_OF_TWO = range(-36, 53)  # 2**-36 > 1e-11, 2**52 < 2**53

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300))
    def test_any_finite_floats(self, values):
        assert_reprs(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(26).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        for start in range(0, bits.size, 2**16):  # formatted as a writer would: a part at a time
            assert_reprs(bits[start : start + 2**16].view(np.float64))

    def test_powers_of_two_and_their_neighbours(self):
        powers = np.ldexp(1.0, np.array(self.FAST_POWERS_OF_TWO))
        assert_reprs(with_neighbours(np.concatenate([powers, -powers])))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-14, 20)])
        assert_reprs(with_neighbours(np.concatenate([powers, -powers])))

    def test_edges_of_the_fast_range_and_just_outside(self):
        edges = np.array([1e-11, 2.0**53, 1e16, 2.0**54, 1e17, 1e-5, 1e-4, 1e15])
        assert_reprs(with_neighbours(np.concatenate([edges, -edges])))

    def test_doubles_whose_interval_ends_are_integers(self):
        # x = m * 2**e with e + k = 1: integers and halves from 2**52 to
        # 2**53, even integers from 1e16 to 2**54
        rng = np.random.default_rng(27)
        below = rng.integers(2**52, 2**53, 20_000).astype(np.float64)
        above = 2.0 * rng.integers(5 * 10**15, 2**53, 20_000)
        assert_reprs(np.concatenate([below, below + 0.5, above]))

    def test_zeros_subnormals_and_the_largest_double(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
        assert_reprs(values)
        assert fileio._repr_texts(np.array([np.nan, np.inf, -np.inf])) == ["nan", "inf", "-inf"]

    @pytest.mark.parametrize("digits", range(1, 18))
    def test_values_of_each_number_of_significant_digits(self, digits):
        rng = np.random.default_rng(digits)
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, 400, dtype=np.int64)
        exponents = rng.integers(-30, 30, 400)
        values = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
        assert_reprs(values)
        assert_reprs(np.negative(values))

    def test_empty(self):
        assert fileio._repr_texts(np.array([])) == []


class TestWriterChunks:
    """A writer holds appended rows until their float fields fill a chunk
    of :data:`fileio.FORMAT_FIELDS` to format at once."""

    FLOATS_PER_ROW = 3  # the score table's computed columns: perioc_norm, static, dynamic

    def score_table(self, n):
        rng = np.random.default_rng(n)
        table = {name: np.tile(np.asarray(values), n // 2 + 1)[:n]
                 for name, values in TestScoreCsv.table().items()}
        usable = rng.random(n) < 0.9
        for name in ("perioc_norm", "static", "dynamic"):
            table[name] = np.where(usable, rng.random(n) ** 5, np.nan)
        for name, kind in fileio.SCORE_SCHEMA:
            if name not in ("perioc_norm", "static", "dynamic"):  # copied as texts, as score does
                table[name] = fileio.field_texts(name, kind, table[name])
        return table

    @staticmethod
    def block(table, rows):
        return {name: fileio.FieldTexts(v.kind, v.texts[rows]) if isinstance(v, fileio.FieldTexts)
                else v[rows] for name, v in table.items()}

    def test_blocks_of_any_size_write_the_bytes_of_one_append(self, tmp_path):
        chunk = fileio.FORMAT_FIELDS // self.FLOATS_PER_ROW
        sizes = [1, 255, 256, 257, chunk - 1, chunk + 1]
        table = self.score_table(sum(sizes))
        fileio.write_score_csv(tmp_path / "one.csv", table)
        with fileio.score_csv_writer(tmp_path / "blocks.csv") as append:
            start = 0
            for size in sizes:
                append(self.block(table, slice(start, start + size)))
                start += size
        one = (tmp_path / "one.csv").read_bytes()
        assert (tmp_path / "blocks.csv").read_bytes() == one
        rows = list(csv.reader(io.StringIO(one.decode())))[1:]
        for name in ("perioc_norm", "static", "dynamic"):
            column = [name for name, _ in fileio.SCORE_SCHEMA].index(name)
            assert [row[column] for row in rows] == [
                "" if v != v else repr(v) for v in table[name].tolist()]

    @pytest.mark.parametrize("fault, message", [
        ("a_id", "column 'a_id': text holds a NUL character"),
        ("hamming", "column 'hamming': text holds a NUL character"),
        ("dynamic", "column 'dynamic': row 9: inf would not read back"),
    ])
    def test_a_fault_is_raised_by_the_append_that_carries_it(self, tmp_path, fault, message):
        path = tmp_path / "scores.csv"
        table = self.score_table(12)
        with pytest.raises(ValueError, match=re.escape(message)):
            with fileio.score_csv_writer(path) as append:
                append(self.block(table, slice(0, 8)))  # waits: fewer fields than a chunk
                bad = self.block(table, slice(8, 12))
                if fault == "a_id":
                    bad["a_id"] = np.array(["x", "y\0z", "x", "x"])
                elif fault == "hamming":
                    texts = bad["hamming"].texts.copy()
                    texts[0] = "0.5\0"
                    bad["hamming"] = fileio.FieldTexts(fileio.OPT_FLOAT, texts)
                else:
                    bad["dynamic"] = np.array([0.5, np.inf, 0.5, 0.5])
                append(bad)
                pytest.fail("the append that carries the fault did not raise")
        assert list(tmp_path.iterdir()) == []


class TestScoreCsv:
    @staticmethod
    def table():
        return {
            "a_id": ["S0:L:0", "S0:L:0"],
            "b_id": ["S0:L:1", "S2:L:0"],
            "side": ["L", "L"],
            "label": [True, False],
            "iris_score": [1.456, np.nan],
            "perioc_norm": [0.25, np.nan],
            "mask_rate_a": [0.9, 0.2],
            "mask_rate_b": [0.8, 0.1],
            "eye_sum": [0.4, 0.5],
            "eye_diff": [0.0, 0.2],
            "brow_sum": [0.3, 0.2],
            "brow_diff": [0.0, 0.1],
            "hamming": [0.11, np.nan],
            "ws": [1.456, np.nan],
            "static": [0.81, np.nan],
            "dynamic": [0.97, np.nan],
        }

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "scores.csv"
        fileio.write_score_csv(path, self.table())
        assert_tables_equal(fileio.read_score_csv(path), self.table())
        lines = path.read_text().splitlines()
        assert lines[2] == "S0:L:0,S2:L:0,L,impostor,,,0.2,0.1,0.5,0.2,0.2,0.1,,,,"

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        table = self.table()
        table["dynamic"] = [0.5]
        with pytest.raises(ValueError, match="differ in length"):
            fileio.write_score_csv(tmp_path / "scores.csv", table)


class TestRocCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        scores = ScoreSet(genuine=rng.normal(1, 1, 50), impostor=rng.normal(0, 1, 80))
        curve = roc_curve(scores)
        path = tmp_path / "roc.csv"
        fileio.write_roc_csv(path, curve)
        again = fileio.read_roc_csv(path)
        assert (again.thresholds == curve.thresholds).all()
        assert (again.far == curve.far).all()
        assert (again.tar == curve.tar).all()

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = tmp_path / "roc.csv"
        path.write_text("threshold,far,tar\n0.5,0.1,0.2\n" + "1" * 200_000 + ",0.1,0.2\n")
        with pytest.raises(fileio.ParseError, match=r"roc\.csv:3: field larger than field limit"):
            fileio.read_roc_csv(path)

    def test_written_bytes_equal_formatting_every_row(self, tmp_path):
        rng = np.random.default_rng(8)
        scores = ScoreSet(genuine=rng.normal(1, 1, 40), impostor=rng.normal(0, 1, 300))
        curve = roc_curve(scores)
        curve = RocCurve(curve.thresholds, curve.far, np.where(curve.tar == 0, -0.0, curve.tar))
        assert np.unique(curve.tar).size < curve.tar.size / 4  # tar repeats its values
        path = tmp_path / "roc.csv"
        fileio.write_roc_csv(path, curve)
        columns = (curve.thresholds.tolist(), curve.far.tolist(), curve.tar.tolist())
        rows = [["threshold", "far", "tar"]] + [list(map(repr, row)) for row in zip(*columns)]
        assert path.read_bytes() == csv_writer_text(rows).encode()
        assert "-0.0" in path.read_text()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", ["threshold", "far", "tar"])
    def test_non_finite_value_names_its_row(self, tmp_path, monkeypatch, column, bad):
        monkeypatch.setattr(fileio, "FORMAT_FIELDS", 2)  # two rows an append
        columns = {"threshold": np.linspace(1.0, 0.0, 9), "far": np.linspace(0.0, 1.0, 9),
                   "tar": np.linspace(0.0, 1.0, 9)}
        columns[column][6] = bad  # in the fourth append, named by its row in the table
        curve = RocCurve(columns["threshold"], columns["far"], columns["tar"])
        with pytest.raises(ValueError,
                           match=f"column '{column}': row 6: {bad!r} would not read back"):
            fileio.write_roc_csv(tmp_path / "roc.csv", curve)
        assert list(tmp_path.iterdir()) == []


def csv_only_row_blocks(path, schema_of):
    """:func:`fileio._row_blocks` with every line parsed by ``csv.reader``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            schema = schema_of(next(reader, None))
            yield schema
            line, step = 2, fileio._block_rows(schema)
            rows = list(itertools.islice(reader, step))
            while True:
                yield line, rows
                line += len(rows)
                if not (rows := list(itertools.islice(reader, step))):
                    return
        except csv.Error as exc:
            raise fileio.ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def read_outcome(read):
    """What ``read()`` gives, as comparable values: every array as its dtype
    and bytes, and a ParseError as its message."""
    def comparable(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, dict):
            return [(k, comparable(v)) for k, v in value.items()]
        if isinstance(value, (list, tuple)):
            return [comparable(v) for v in value]
        return value

    try:
        return comparable(read())
    except fileio.ParseError as exc:
        return f"ParseError: {exc}"


class TestRowSource:
    """Lines split at ``,`` read as ``csv.reader`` reads them."""

    HEADER = "id,eye_area,brow_area,f0"
    IDS = ["a", "b", "a1", "", " b"]
    ODD_IDS = ["a,b", 'q"t', '"', "x\0", "l\nb", "c\rr", "y" * 40]
    NUMBERS = ["0.5", "1e-3", "-0.0", "0.25", " 1", "0"]  # each a valid area
    number = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(NUMBERS + ["", "abc", "2", "inf"]))
    # (fields, whether csv.writer writes them or they are joined bare)
    plain_row = st.tuples(st.tuples(st.sampled_from(IDS), number, number, number), st.just(False))
    ragged_row = st.tuples(st.lists(st.sampled_from(IDS + NUMBERS), max_size=6), st.just(False))
    odd_row = st.tuples(st.tuples(st.sampled_from(ODD_IDS), number, number, number), st.booleans())

    @staticmethod
    def line(fields, quoted):
        return csv_writer_text([fields])[:-1] if quoted else ",".join(fields)

    @given(
        rows=st.lists(st.one_of(plain_row, plain_row, ragged_row, odd_row), max_size=14),
        header=st.sampled_from([HEADER, '"id",eye_area,brow_area,f0', "id,eye_area,brow_area"]),
        newline=st.sampled_from(["\n", "\r\n"]),
        trailing=st.booleans(),
        field_limit=st.sampled_from([csv.field_size_limit(), 30]),  # 30: the header fits
        block_fields=st.sampled_from([4, 12, fileio.BLOCK_FIELDS]),
        read_chars=st.sampled_from([1, 2, 7, 32, fileio.READ_CHARS]),
        columns=st.sampled_from([None, ("f0",), ("id", "brow_area")]),
    )
    @settings(max_examples=400, deadline=None)
    def test_reads_equal_csv_reader_reads(
        self, tmp_path_factory, rows, header, newline, trailing, field_limit, block_fields,
        read_chars, columns,
    ):
        lines = [header] + [self.line(*row) for row in rows]
        text = newline.join(lines) + (newline if trailing else "")
        path = tmp_path_factory.mktemp("rows") / "features.csv"
        path.write_bytes(text.encode())
        schema = fileio._feature_schema(1)
        reads = {
            "table": lambda: list(fileio._table_blocks(path, schema, "feature", columns)),
            "features": lambda: fileio.read_feature_csv(path),
        }
        default_limit = csv.field_size_limit(field_limit)
        try:
            with mock.patch.object(fileio, "BLOCK_FIELDS", block_fields), \
                    mock.patch.object(fileio, "READ_CHARS", read_chars):
                for read in reads.values():
                    got = read_outcome(read)
                    with mock.patch.object(fileio, "_row_blocks", csv_only_row_blocks):
                        assert got == read_outcome(read)
        finally:
            csv.field_size_limit(default_limit)

    @pytest.mark.parametrize("later, message", [
        ('"a,b"', None),
        ('"a\nb"', None),
        ("a\rb", ":5: expected 4 fields, got 1"),  # csv ends a row at a bare CR
        ("y" * 200_000, ":5: field larger than field limit"),
        ("x\0", ":5: " + nul_read_message("id")),
    ])
    def test_odd_line_in_a_later_block(self, tmp_path, monkeypatch, later, message):
        monkeypatch.setattr(fileio, "BLOCK_FIELDS", 8)  # two rows a block
        rows = ["a,0.5,0.5,1.0", "b,0.5,0.5,1.0", "c,0.5,0.5,1.0", f"{later},0.5,0.5,2.0",
                "d,0.5,0.5,1.0", "e,0.5,0.5,1.0"]
        path = tmp_path / "features.csv"
        path.write_text("\n".join([self.HEADER, *rows]) + "\n")
        if message is None:
            table = fileio.read_feature_csv(path)
            assert table["id"].tolist() == ["a", "b", "c", later[1:-1], "d", "e"]
            assert table["features"][:, 0].tolist() == [1.0, 1.0, 1.0, 2.0, 1.0, 1.0]
        else:
            with pytest.raises(fileio.ParseError, match=re.escape(f"features.csv{message}")):
                fileio.read_feature_csv(path)

    LINES = ["a,0.5,0.5,1.0", "bb,0.25,0.5,2.0", "c,0.5,0.25,3.0", "dd,0.125,0.5,4.0"]

    @pytest.mark.parametrize("read_chars", [1, 2, 3, 5, 11, 64])
    @pytest.mark.parametrize("text, rows", [
        pytest.param("\n".join([HEADER, *LINES]) + "\n", 4, id="lines-across-reads"),
        pytest.param("\n".join([HEADER, *LINES, '"e,f",0.5,0.5,5.0']) + "\n", 5, id="late-quote"),
        pytest.param("\n".join([HEADER, *LINES, '"e\nf",0.5,0.5,5.0']) + "\n", 5,
                     id="late-quoted-newline"),
        pytest.param("\n".join([HEADER, *LINES]) + "\r\ne,0.5,0.5,5.0\r\n", 5, id="late-crlf"),
        pytest.param("\n".join([HEADER, *LINES]) + "\ne\r0.5,0.5,0.5,5.0\n", None, id="late-bare-cr"),
        pytest.param("\n".join([HEADER, *LINES, "e\0,0.5,0.5,5.0"]) + "\n", None, id="late-nul"),
        pytest.param("\n".join([HEADER, *LINES]), 4, id="no-final-newline"),
        pytest.param("\n".join([HEADER, *LINES]) + "\r", 4, id="final-cr"),
        pytest.param("\n".join([HEADER, *LINES, "e" * 40 + ",0.5,0.5,5.0"]) + "\n", None,
                     id="over-long-field"),
        pytest.param("\n".join([HEADER, *LINES, "e" * 20 + ",0.125,0.125,5.000000000000"]) + "\n",
                     5, id="over-long-line-short-fields"),
        pytest.param("\n".join([HEADER, *LINES[:2], "", *LINES[2:]]) + "\n", None, id="empty-line"),
    ])
    def test_reads_across_small_reads_equal_csv_reader_reads(
        self, tmp_path, monkeypatch, text, rows, read_chars
    ):
        monkeypatch.setattr(fileio, "READ_CHARS", read_chars)
        monkeypatch.setattr(fileio, "BLOCK_FIELDS", 8)  # two rows a block
        path = tmp_path / "features.csv"
        path.write_bytes(text.encode())
        schema = fileio._feature_schema(1)
        reads = [lambda: list(fileio._table_blocks(path, schema, "feature")),
                 lambda: fileio.read_feature_csv(path)]
        default_limit = csv.field_size_limit(30)  # the header and the plain lines fit
        try:
            for read in reads:
                got = read_outcome(read)
                with mock.patch.object(fileio, "_row_blocks", csv_only_row_blocks):
                    assert got == read_outcome(read)
            if rows is None:  # a fault, the same as csv.reader's
                with pytest.raises(fileio.ParseError):
                    reads[1]()
            else:
                assert len(reads[1]()["id"]) == rows
        finally:
            csv.field_size_limit(default_limit)


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path):
        params = MlpParams.init_random(11)
        norm = NormalizationParams(perioc_min=0.123456789012345678, perioc_max=2.0)
        config = TrainConfig(seed=42, epochs=17)
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, norm, config)
        again_params, again_norm, meta = fileio.read_checkpoint(path)
        assert (again_params.vector == params.vector).all()
        assert again_norm == norm
        assert meta["seed"] == 42
        assert meta["epochs"] == 17
        # the record is the config: its fields, by name, as JSON gives them back
        assert list(meta) == sorted(field.name for field in dataclasses.fields(TrainConfig))
        assert meta == json.loads(json.dumps(dataclasses.asdict(config)))

    @pytest.mark.parametrize("config, digest", [
        (TrainConfig(seed=42, epochs=17, optimizer="adam", genuine_impostor_ratio=None),
         "997bd2bc7c914f79deda0cad63491a31df1409d86a56d83d2117142874749234"),
        (None, "5f467d6b2405210f0c39b3dde9259b34959ddeddb6e4984f19776d518cf5d439"),
    ])
    def test_checkpoint_keeps_its_bytes(self, tmp_path, config, digest):
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(
            path, MlpParams.init_random(11), NormalizationParams(0.25, 2.0), config)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_written_as_indented_sorted_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, MlpParams.init_random(3), NormalizationParams(0.5, 3.0))
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_fault_mid_write_leaves_an_existing_checkpoint_untouched(
        self, tmp_path, fail_mid_write
    ):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b"previous checkpoint\n")
        fail_mid_write("ckpt.json")
        with pytest.raises(OSError, match="mid-write"):
            fileio.write_checkpoint(path, MlpParams.init_random(0), NormalizationParams(0.0, 1.0))
        assert path.read_bytes() == b"previous checkpoint\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_layer_shape_mismatch_rejected(self, tmp_path):
        params = MlpParams.init_random(0)
        norm = NormalizationParams(0.0, 1.0)
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, params, norm)
        payload = json.loads(path.read_text())
        payload["layer_sizes"] = [8, 16, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(fileio.ParseError, match="layer sizes"):
            fileio.read_checkpoint(path)

    def test_mis_shaped_weight_matrix_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, MlpParams.init_random(0), NormalizationParams(0.0, 1.0))
        payload = json.loads(path.read_text())
        payload["weights"][2] = [row[:-1] for row in payload["weights"][2]]
        path.write_text(json.dumps(payload))
        with pytest.raises(
            fileio.ParseError, match=r"ckpt\.json: layer 2: weight shape \(16, 7\) != \(16, 8\)"
        ):
            fileio.read_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, MlpParams.init_random(0), NormalizationParams(0.0, 1.0))
        payload = json.loads(path.read_text())
        payload["biases"][1][0] = float("nan")  # json writes NaN, which it also reads
        path.write_text(json.dumps(payload))
        with pytest.raises(fileio.ParseError, match="non-finite parameter"):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("where, value", [
        (("normalization", "perioc_min"), "0.1"),
        (("normalization", "perioc_min"), True),
        (("normalization", "perioc_max"), "3"),
        (("weights", 0, 1, 2), "0.5"),
        (("weights", 2, 0, 0), True),
        (("biases", 1, 0), "0.5"),
        (("biases", 3, 1), False),
    ])
    def test_value_that_is_not_a_json_number_rejected(self, tmp_path, where, value):
        path = tmp_path / "ckpt.json"
        fileio.write_checkpoint(path, MlpParams.init_random(0), NormalizationParams(0.0, 1.0))
        payload = json.loads(path.read_text())
        *parents, last = where
        container = payload
        for key in parents:
            container = container[key]
        container[last] = value
        path.write_text(json.dumps(payload))
        name = where[1] if where[0] == "normalization" else where[0]
        with pytest.raises(
            fileio.ParseError,
            match=re.escape(f"ckpt.json: {name}: expected a JSON number, got {value!r}"),
        ):
            fileio.read_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{}")
        with pytest.raises(fileio.ParseError, match="not a fusion checkpoint"):
            fileio.read_checkpoint(path)
