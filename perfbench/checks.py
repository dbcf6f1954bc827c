"""Output checks: closed-form pair counts, the per-pixel reference, digests.

Every check returns a list of error strings; an empty list passes.  The
artifacts are parsed here with the standard library, not with the
codecs under test.  ``irisfuse.reference`` (the per-pixel oracle) and the
template types are imported from the checkout being measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import struct
from pathlib import Path

import numpy as np

from workloads import LEFT_RIGHT, WITHIN_SIDE

# Relative tolerance on a recomputed periocular distance: a float64 sum
# of at most a few hundred squares, reordered at most.
PERIOC_RTOL = 1e-12


def expected_rows(subjects: int, samples: int, sides: int, protocol: str) -> tuple[int, int]:
    """(genuine, impostor) match-CSV rows under a protocol, in closed form.

    Within-side: per side ``S * C(n, 2)`` genuine and ``C(S, 2) * n^2``
    impostor comparisons.  Left/right: the same counts over (subject,
    sample) units, each group writing one row per side.
    """
    genuine = subjects * math.comb(samples, 2)
    impostor = math.comb(subjects, 2) * samples * samples
    if protocol == WITHIN_SIDE:
        return sides * genuine, sides * impostor
    if protocol == LEFT_RIGHT:
        return 2 * genuine, 2 * impostor
    raise ValueError(f"unknown protocol {protocol!r}")


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def file_digests(directory) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    root = Path(directory)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _manifest(path) -> dict[tuple[str, str, int], dict]:
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                e = json.loads(line)
                entries[(e["subject_id"], e["eye_side"], e["sample_index"])] = e
    return entries


def _entries(row: dict[str, str], manifest) -> tuple[dict, dict]:
    """Manifest entries of a match row's two samples (either protocol's ids)."""
    out = []
    for key in ("a_id", "b_id"):
        parts = row[key].split(":")
        if len(parts) == 3:  # subject:side:index
            subject, side, index = parts
        else:  # subject:index, side in its own column
            (subject, index), side = parts, row["side"]
        out.append(manifest[(subject, side, int(index))])
    return out[0], out[1]


def _features(path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {r[0]: np.array([float(v) for v in r[3:]]) for r in reader}


def read_irt(path):
    """An ``.irt`` template parsed from its documented byte layout."""
    from irisfuse.templates import IrisTemplate

    data = Path(path).read_bytes()
    magic, _version, height, width = struct.unpack_from("<4sBHH", data)
    if magic != b"IRT1":
        raise ValueError(f"{path}: bad magic {magic!r}")
    nbytes = math.ceil(height * width / 8)
    body = np.frombuffer(data, dtype=np.uint8, offset=struct.calcsize("<4sBHH"))
    return IrisTemplate(height, width, body[:nbytes].copy(), body[nbytes:2 * nbytes].copy())


def check_match(
    rows, expected: tuple[int, int], inp: Path, manifest_name: str,
    alpha: float, max_shift: int, sample: int, seed: int,
) -> list[str]:
    """Row counts per label, every periocular distance, and ``sample`` rows
    recomputed with the per-pixel reference (pass ``sample=0`` to skip)."""
    errors = []
    got = (
        sum(r["label"] == "genuine" for r in rows),
        sum(r["label"] == "impostor" for r in rows),
    )
    if got != expected:
        errors.append(f"(genuine, impostor) rows {got}, closed form gives {expected}")
    manifest = _manifest(inp / manifest_name)
    features = _features(inp / "features.csv")
    pairs = [_entries(r, manifest) for r in rows]
    if pairs:
        fa = np.stack([features[a["periocular_ref"]] for a, _ in pairs])
        fb = np.stack([features[b["periocular_ref"]] for _, b in pairs])
        want = np.sqrt(np.einsum("ij,ij->i", fa - fb, fa - fb))
        have = np.array([float(r["perioc_dist"]) for r in rows])
        bad = np.flatnonzero(~np.isclose(have, want, rtol=PERIOC_RTOL, atol=0.0))
        if bad.size:
            k = int(bad[0])
            errors.append(
                f"{bad.size} perioc_dist values differ from features.csv; row {k + 2}: "
                f"{float(have[k])!r} vs {float(want[k])!r}"
            )
    if sample:
        errors += _check_reference(rows, pairs, inp, alpha, max_shift, sample, seed)
    return errors


def _check_reference(rows, pairs, inp, alpha, max_shift, sample, seed) -> list[str]:
    from irisfuse.bitmatch import EmptyJointMaskError, ShiftPolicy
    from irisfuse.reference import naive_masked_hamming, naive_weighted_similarity

    policy = ShiftPolicy(max_shift=max_shift)
    errors = []
    for k in sorted(random.Random(seed).sample(range(len(rows)), min(sample, len(rows)))):
        row, (a, b) = rows[k], pairs[k]
        t_a = read_irt(inp / "templates" / f"{a['template_ref']}.irt")
        t_b = read_irt(inp / "templates" / f"{b['template_ref']}.irt")
        try:
            hd, shift, valid = naive_masked_hamming(t_a, t_b, policy)
            ws, _ = naive_weighted_similarity(t_a, t_b, alpha, policy)
            want = ("1", repr(hd), repr(ws), str(shift), str(valid))
        except EmptyJointMaskError:
            want = ("0", "", "", "", "")
        have = tuple(row[c] for c in ("iris_valid", "hamming", "ws", "best_shift", "joint_valid"))
        if tuple(map(_canon, have)) != tuple(map(_canon, want)):
            errors.append(f"row {k + 2} ({row['a_id']}, {row['b_id']}): {have} != reference {want}")
    if len(errors) > 3:
        errors[3:] = [f"{len(errors) - 3} more sampled rows differ from the reference"]
    return errors


def _canon(text: str):
    """Number written in a CSV field, compared by value, not spelling."""
    return float(text) if text else None


def check_score(score_rows, match_rows) -> list[str]:
    key = ("a_id", "b_id", "side", "label")
    if [tuple(r[k] for k in key) for r in score_rows] != [
        tuple(r[k] for k in key) for r in match_rows
    ]:
        return [f"{len(score_rows)} score rows do not align with {len(match_rows)} match rows"]
    return []


def check_eval(summary: dict, score_rows, sum_rule: bool, far_target: float, stderr: str) -> list[str]:
    """Genuine/impostor counts match the score CSV and the report is powered."""
    errors = []
    if sum_rule:
        groups: dict[tuple[str, str], list[dict]] = {}
        for r in score_rows:
            groups.setdefault((r["a_id"], r["b_id"]), []).append(r)
        scored = [g[0]["label"] for g in groups.values() if all(m["dynamic"] for m in g)]
    else:
        scored = [r["label"] for r in score_rows if r["dynamic"]]
    want = (scored.count("genuine"), scored.count("impostor"))
    have = (summary.get("n_genuine"), summary.get("n_impostor"))
    if have != want:
        errors.append(f"summary (n_genuine, n_impostor) {have}, score CSV gives {want}")
    for key in ("eer", "tar_at_far"):
        value = summary.get(key)
        if not (isinstance(value, float) and 0.0 <= value <= 1.0):
            errors.append(f"summary {key} = {value!r} is not a rate")
    if want[1] * far_target < 1.0 or "warning" in stderr:
        errors.append(f"{want[1]} impostor scores cannot resolve FAR {far_target}")
    return errors
