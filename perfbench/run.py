"""The irisfuse benchmark: three pipeline workloads through the real CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Set-up synthesises the workload's population (timed only as
``setup_s``).  Then, until ``--seconds`` of repetitions are used up,
each repetition runs the timed stages in one fresh process
(``worker.py``) through ``irisfuse.cli.main``; the first repetitions
are each followed by another set-up, whose inputs must match the first's.
A set-up process synthesises twice, cold and warm; ``setup_s`` is the
median over all of them.  Every stage is one operation; it fails
when it exits non-zero or when a check of its output fails.  Every
artifact's SHA-256 must repeat across repetitions.

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
Times are calibrated: each stage's wall time is scaled by a calibration
loop run just before and after it (``calibrated_walls``), so the drift of
a shared machine's speed cancels; ``pipeline_wall_s`` keeps the raw sum.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics: spans recorded around every public function of the
layer modules, rolled up into self times (raw wall seconds of the traced
repetition), plus a table per stage showing that the layers' self times
add up to the command's wall time.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The process exits non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 5
TIME_LIMIT_S = 170.0  # one invocation ends well within 180 s
# Calibration-loop time that defines the reference speed; a machine running
# the loop in this time reads wall seconds (see worker.calibrate).
REFERENCE_CALIBRATION_S = 0.009

import checks  # noqa: E402  (sibling modules; HERE is on sys.path)
import spans  # noqa: E402
from stats import describe, percentile, summarize  # noqa: E402
from workloads import BY_NAME, WORKLOADS, Workload, flag_value  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "match_pairs_per_s": "1/s",
    "fuse_train_s": "s",
    "score_rows_per_s": "1/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "eer": "fraction",
    "tar_at_far": "fraction",
}

PER_LAYER = {
    "bitmatch.self_s": "s",
    "bitmatch.calls": "count",
    "bitmatch.pairs_per_s": "1/s",
    "bitmatch.match_with_rotations.p50_us": "us",
    "bitmatch.match_with_rotations.p99_us": "us",
    "bitmatch.rotated_planes.self_s": "s",
    "cli.self_s": "s",
    "cli.match.self_s": "s",
    "cli.score.self_s": "s",
    "cli.match.threads_nproc_speedup": "ratio",
    "evaluation.self_s": "s",
    "evaluation.generate_pairs.self_s": "s",
    "evaluation.pair_groups": "count",
    "evaluation.roc_curve.calls": "count",
    "fileio.self_s": "s",
    "fileio.read_template.self_s": "s",
    "fileio.write_match_csv.self_s": "s",
    "fileio.read_match_csv.self_s": "s",
    "fileio.write_score_csv.self_s": "s",
    "fileio.read_score_csv.self_s": "s",
    "fileio.bytes_written": "bytes",
    "fusion.self_s": "s",
    "fusion.calls": "count",
    "mlp.self_s": "s",
    "mlp.train_mlp.self_s": "s",
    "mlp.epochs_run": "count",
    "mlp.mlp_logits.calls": "count",
    "synth.gen_population.self_s": "s",
    "trace.overhead_s": "s",
}


class Clock:
    """Deadline of one invocation, shared by every worker it starts."""

    def __init__(self, limit_s: float):
        self.end = time.monotonic() + limit_s

    def left(self) -> float:
        return self.end - time.monotonic()


class Operations:
    """Stages attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]


def run_worker(stages, work: Path, tag: str, trace: bool, clock: Clock) -> dict:
    """Run ``stages`` in a fresh process; returns the worker's result."""
    job = {
        "src": str(SRC), "stages": [{"name": n, "argv": a} for n, a in stages],
        "trace": trace, "run_id": f"{work.name}/{tag}", "result": str(work / f"{tag}.json"),
    }
    job_path = work / f"{tag}-job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            capture_output=True, text=True, timeout=max(clock.left(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker exceeded the time limit"}
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def calibrated_walls(result: dict) -> list[float]:
    """Stage wall times scaled to the reference speed.

    On a shared 2-vCPU virtual machine the speed drifted by 30-50% over
    tens of minutes, for every kind of work alike; each stage is scaled
    by the mean of the calibration times measured just before and just
    after it.
    """
    cal = result["calibration"]
    return [(s["end"] - s["start"]) * REFERENCE_CALIBRATION_S / ((cal[k] + cal[k + 1]) / 2)
            for k, s in enumerate(result["stages"])]


def stage_errors(stage: dict) -> list[str]:
    if stage["rc"] != 0:
        return [f"exit {stage['rc']}: {stage['stderr'].strip()[-500:]}"]
    return []


def _output_names(argv) -> list[str]:
    """File-name prefixes a stage writes (its ``--out`` / ``--out-prefix``)."""
    return [Path(argv[i + 1]).name for i, a in enumerate(argv[:-1])
            if a in ("--out", "--out-prefix")]


class WorkloadRun:
    """One workload's set-ups, repetitions, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, work: Path, clock: Clock):
        self.w = workload
        self.seed = seed
        self.work = work
        self.clock = clock
        self.ops = Operations()
        self.inp = work / "setup-0"
        self.out = work / "out"
        self.input_digests: dict[str, str] | None = None
        self.digests: dict[str, str] | None = None
        self.rows: dict[str, int] = {}  # stage -> match or score rows written
        self.summary: dict = {}
        self.worker_s = 0.0  # wall time of the timed workers so far
        self.setup_s: list[float] = []
        self.gen_population_s: list[float] = []
        self.wrapped: list[str] = []
        self.numpy = "unknown"

    # -- set-up ---------------------------------------------------------
    def setup(self, trace: bool) -> None:
        """Synthesise the inputs twice more in one process (the first run
        there is cold, the second warm); the very first set's are kept."""
        k = len(self.setup_s)
        targets = [self.work / f"setup-{k + j}" for j in range(2)]
        stages = [(f"synth-{k + j}", self.w.synth_argv(str(t))) for j, t in enumerate(targets)]
        result = run_worker(stages, self.work, f"synth-{k}", trace, self.clock)
        if "error" in result:
            self.ops.record(f"synth-{k}", [result["error"]])
            return
        walls = calibrated_walls(result)
        roll = spans.Rollup(result["spans"], [n for n, _ in stages]) if trace else None
        for stage, target, wall in zip(result["stages"], targets, walls):
            errors = stage_errors(stage)
            if not errors:
                digests = checks.file_digests(target)
                self.input_digests = self.input_digests or digests
                if digests != self.input_digests:
                    errors.append("synthesised inputs differ from the first set-up's")
            self.ops.record(stage["name"], errors)
            if target != self.inp:
                shutil.rmtree(target)
            if errors:
                return
            self.setup_s.append(wall)
            if roll is not None:
                self.gen_population_s.append(
                    roll.total(roll.self_s, "synth.gen_population", [stage["name"]]))
        self.numpy = result["numpy"]
        self.wrapped = result.get("wrapped", [])

    # -- one repetition of the timed stages -----------------------------
    def stages(self):
        inp, out = str(self.inp), str(self.out)
        return [(name, self.w.stage_argv(argv, inp, out)) for name, argv in self.w.stages]

    def timed_worker(self, stages, tag: str, trace: bool) -> dict:
        start = time.monotonic()
        try:
            return run_worker(stages, self.work, tag, trace, self.clock)
        finally:
            self.worker_s += time.monotonic() - start

    def repetition(self, trace: bool, tag: str) -> dict | None:
        """Run the timed stages once; None when any stage failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        stages = self.stages()
        result = self.timed_worker(stages, tag, trace)
        if "error" in result:
            for name, _ in stages:
                self.ops.record(f"{tag} {name}", [result["error"]])
            return None
        digests = checks.file_digests(self.out)
        first = self.digests is None
        self.digests = self.digests or digests
        ok = True
        for stage, (_, argv) in zip(result["stages"], stages):
            errors = stage_errors(stage)
            if not errors and first:
                errors = self.check_stage(stage, argv)
            for name in _output_names(argv):
                if any(f.startswith(name) and digests.get(f) != d
                       for f, d in self.digests.items()):
                    errors.append(f"{name} differs from the first repetition's")
            ok &= not errors
            self.ops.record(f"{tag} {stage['name']}", errors)
        result["bytes_written"] = sum(p.stat().st_size for p in self.out.iterdir())
        return result if ok else None

    def check_stage(self, stage: dict, argv: list[str]) -> list[str]:
        command = argv[0]
        if command == "match":
            rows = checks.read_csv(flag_value(argv, "--out", ""))
            self.rows[stage["name"]] = len(rows)
            manifest = Path(flag_value(argv, "--manifest", "")).name
            expected = checks.expected_rows(
                self.w.split_subjects(manifest), self.w.samples, self.w.sides,
                flag_value(argv, "--protocol", checks.WITHIN_SIDE),
            )
            return checks.check_match(
                rows, expected, self.inp, manifest,
                float(flag_value(argv, "--alpha", "0.3")),
                int(flag_value(argv, "--max-shift", "16")),
                self.w.reference_rows, self.seed,
            )
        if command == "score":
            rows = checks.read_csv(flag_value(argv, "--out", ""))
            self.rows[stage["name"]] = len(rows)
            return checks.check_score(rows, checks.read_csv(flag_value(argv, "--match-csv", "")))
        if command == "eval":
            prefix = flag_value(argv, "--out-prefix", "")
            self.summary = json.loads(Path(f"{prefix}-summary.json").read_text(encoding="utf-8"))
            return checks.check_eval(
                self.summary, checks.read_csv(flag_value(argv, "--scores", "")),
                "--sum-rule" in argv, float(flag_value(argv, "--far-target", "1e-4")),
                stage["stderr"],
            )
        return []

    # -- metrics ----------------------------------------------------------
    def by_command(self, items) -> dict[str, list]:
        """``items`` (one per stage) grouped by the stage's CLI command."""
        grouped: dict[str, list] = {}
        for item, (_, argv) in zip(items, self.w.stages):
            grouped.setdefault(argv[0], []).append(item)
        return grouped

    def end_to_end(self, result: dict) -> dict[str, float]:
        walls = calibrated_walls(result)
        by_command = self.by_command(walls)
        written = self.by_command([self.rows.get(name, 0) for name, _ in self.w.stages])

        def wall(command):
            return sum(by_command[command])

        def rows(command):
            return sum(written[command])

        return {
            "pipeline_s": sum(walls),
            "pipeline_wall_s": sum(s["end"] - s["start"] for s in result["stages"]),
            "match_pairs_per_s": rows("match") / wall("match"),
            "fuse_train_s": wall("fuse-train"),
            "score_rows_per_s": rows("score") / wall("score"),
            "eval_s": wall("eval"),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "eer": self.summary["eer"],
            "tar_at_far": self.summary["tar_at_far"],
        }

    def per_layer(self, result: dict) -> tuple[dict[str, float], spans.Rollup]:
        grouped = self.by_command([name for name, _ in self.w.stages])
        roll = spans.Rollup(result["spans"], [name for name, _ in self.w.stages])

        def self_s(prefix):
            return roll.total(roll.self_s, prefix)

        def calls(prefix, command=None):
            return roll.total(roll.calls, prefix, None if command is None else grouped[command])

        comparisons = sum(self.rows[n] for n in grouped["match"])
        kernel_us = [d * 1e6 for d in roll.durations["bitmatch.match_with_rotations"]]
        m = {f"{layer}.self_s": self_s(layer)
             for layer in ("bitmatch", "cli", "evaluation", "fileio", "fusion", "mlp")}
        m.update({
            "bitmatch.calls": calls("bitmatch"),
            "bitmatch.pairs_per_s":
                comparisons / m["bitmatch.self_s"] if m["bitmatch.self_s"] else 0.0,
            "bitmatch.match_with_rotations.p50_us": percentile(kernel_us, 50),
            "bitmatch.match_with_rotations.p99_us": percentile(kernel_us, 99),
            "bitmatch.rotated_planes.self_s": self_s("bitmatch.rotated_planes"),
            "cli.match.self_s": self_s("cli.match"),
            "cli.score.self_s": self_s("cli.score"),
            "evaluation.generate_pairs.self_s": self_s("evaluation.generate_pairs"),
            "evaluation.pair_groups": roll.counts.get("evaluation.pair_groups", 0),
            "evaluation.roc_curve.calls":
                calls("evaluation.roc_curve", "eval") / len(grouped["eval"]),
            "fileio.bytes_written": result["bytes_written"],
            "fusion.calls": calls("fusion"),
            "mlp.train_mlp.self_s": self_s("mlp.train_mlp"),
            "mlp.epochs_run": calls("mlp.mean_loss", "fuse-train"),
            "mlp.mlp_logits.calls": calls("mlp.mlp_logits", "score"),
        })
        for fn in ("read_template", "write_match_csv", "read_match_csv",
                   "write_score_csv", "read_score_csv"):
            m[f"fileio.{fn}.self_s"] = self_s(f"fileio.{fn}")
        return m, roll

    def threads_speedup(self, serial: dict) -> float | None:
        """First match stage's wall time at --threads 1 over --threads nproc.

        None when ``match`` no longer accepts ``--threads``.
        """
        nproc = len(os.sched_getaffinity(0))
        (name, argv), serial_s = next(
            (s, w) for s, w in zip(self.stages(), calibrated_walls(serial)) if s[1][0] == "match")
        threaded = self.work / "threads"
        shutil.rmtree(threaded, ignore_errors=True)
        threaded.mkdir()
        out = flag_value(argv, "--out", "")
        argv = [str(threaded / Path(out).name) if a == out else a for a in argv]
        result = self.timed_worker([(name, argv + ["--threads", str(nproc)])], "threads", False)
        if "error" in result:
            self.ops.record("threads match", [result["error"]])
            return None
        threaded_stage = result["stages"][0]
        if threaded_stage["rc"] == 2 and "--threads" in threaded_stage["stderr"]:
            return None
        errors = stage_errors(threaded_stage)
        if not errors and checks.file_digests(threaded) != {
                Path(out).name: self.digests[Path(out).name]}:
            errors.append(f"--threads {nproc} output differs from --threads 1")
        self.ops.record("threads match", errors)
        if errors:
            return None
        return serial_s / calibrated_walls(result)[0]


def median_metrics(samples: list[dict[str, float]]) -> dict[str, dict]:
    keys = samples[0].keys() if samples else []
    return {k: summarize([s[k] for s in samples]) for k in keys}


def machine_context(numpy_version: str) -> dict:
    ctx = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": platform.machine(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                ctx["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in range(8):
        cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (cache / "level").read_text().strip()
            size = (cache / "size").read_text().strip()
        except OSError:
            break
        if level in ("2", "3"):
            ctx[f"l{level}_cache"] = size
    return ctx


def work_dir(workload: str, seed: int, trace: bool) -> Path:
    return WORK / f"{workload}-seed{seed}-trace{int(trace)}"


def run_one(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and measure one workload; returns its result record."""
    clock = Clock(TIME_LIMIT_S)
    work = work_dir(w.name, seed, trace)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = WorkloadRun(w, seed, work, clock)
    run.setup(trace)
    untraced, traced, layers, speedups, took = [], [], [], [], []
    while run.ops.failed == 0:
        before = run.worker_s
        result = run.repetition(False, f"rep{len(took)}")
        if result is None:
            break
        untraced.append(run.end_to_end(result))
        if trace:
            result_t = run.repetition(True, f"traced{len(took)}")
            if result_t is None:
                break
            traced.append(run.end_to_end(result_t))
            layers.append(run.per_layer(result_t))
            speedups.append(run.threads_speedup(result))
        took.append(run.worker_s - before)
        if len(run.setup_s) < 2 * SETUPS:
            # set-ups interleave with repetitions so both sample the same spells of load
            run.setup(trace)
        if run.worker_s + statistics.median(took) / 2 > seconds or clock.left() < 2 * max(took):
            break
    record = {
        "workload": w.name, "why": w.why, "seed": seed, "trace": trace,
        "generator_flags": w.synth_argv("<inputs>"),
        "stages": [[n, list(a)] for n, a in w.stages],
        "repetitions": len(took), "seconds": round(run.worker_s, 3),
        "attempted": run.ops.attempted, "failed": run.ops.failed, "errors": run.ops.errors,
        "input_digests": run.input_digests or {}, "digests": run.digests or {},
        "samples": untraced,
    }
    max_shift = max(int(flag_value(a, "--max-shift", "16")) for _, a in w.stages if a[0] == "match")
    record["machine"] = machine_context(run.numpy) | {
        "rotation_plane_bytes_computed": w.rotation_plane_bytes(max_shift)}
    record["correct"] = run.ops.failed == 0 and bool(untraced) and (not trace or bool(layers))
    record["metrics"] = {}
    if not record["correct"]:
        return record
    record["end_to_end"] = median_metrics(untraced) | {"setup_s": summarize(run.setup_s)}
    if not trace:
        record["metrics"] = {k: {"value": record["end_to_end"][k]["median"], "unit": unit}
                             for k, unit in END_TO_END.items()}
        return record
    per_layer = median_metrics([m for m, _ in layers])
    per_layer["synth.gen_population.self_s"] = summarize(run.gen_population_s)
    missing = spans.absent(run.wrapped)
    measured = [s for s in speedups if s is not None]
    per_layer["cli.match.threads_nproc_speedup"] = summarize(measured or [0.0])
    if not measured:
        missing.append("cli.match.threads_nproc_speedup")
    per_layer["trace.overhead_s"] = summarize([
        statistics.median(t["pipeline_s"] for t in traced)
        - statistics.median(u["pipeline_s"] for u in untraced)])
    record["per_layer"] = per_layer
    record["absent"] = missing
    record["layer_table"] = [
        {"stage": stage, "wall_s": wall, "self_s": table}
        for stage, wall, table in layers[0][1].layer_table()]
    record["metrics"] = {k: {"value": per_layer[k]["median"], "unit": unit}
                         for k, unit in PER_LAYER.items()}
    return record


def print_record(record: dict) -> None:
    w = record["workload"]
    print(f"== {w} (seed {record['seed']}, trace {int(record['trace'])}): "
          f"{record['repetitions']} repetitions in {record['seconds']} s")
    print(f"   why: {record['why']}")
    print(f"   generator: {' '.join(record['generator_flags'])}")
    m = record["machine"]
    print("   machine: " + ", ".join(f"{k}={v}" for k, v in m.items())
          + " (rotation planes computed, not measured)")
    for key in ("end_to_end", "per_layer"):
        units = END_TO_END if key == "end_to_end" else PER_LAYER
        for name, summary in record.get(key, {}).items():
            unit = units.get(name, "s")
            print(f"   {name:40s} {summary['median']:>14.6g} {unit:8s} {describe(summary)}")
    if record.get("absent"):
        print(f"   absent (reported as 0): {', '.join(record['absent'])}")
    for row in record.get("layer_table", []):
        accounted = sum(row["self_s"].values())
        parts = " ".join(f"{k}={v:.4f}" for k, v in sorted(row["self_s"].items()))
        print(f"   stage {row['stage']:12s} wall {row['wall_s']:.4f} s = {accounted:.4f} s "
              f"of self time ({parts})")
    for name, digest in sorted(record["digests"].items()):
        print(f"   sha256 {digest} {name}")
    print(f"   operations: attempted {record['attempted']}, failed {record['failed']}")
    for error in record["errors"]:
        print(f"   FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *BY_NAME])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "irisfuse" / "cli.py").is_file():
        print(f"perfbench: no irisfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # checks import the per-pixel reference
    chosen = WORKLOADS if args.workload == "all" else (BY_NAME[args.workload],)
    records = []
    for w in chosen:
        record = run_one(w, args.seed, args.seconds, bool(args.trace))
        work = work_dir(w.name, args.seed, bool(args.trace))
        for bulky in ("setup-0", "out", "threads"):
            shutil.rmtree(work / bulky, ignore_errors=True)
        (work / "result.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
        print_record(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
