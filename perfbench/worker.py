"""Run CLI stages in one fresh process and record their wall times.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job names the
irisfuse source directory, the stages (name plus CLI argv), whether to
trace, and the file that receives the result: per-stage start, end and
exit code, captured output, the calibration times, the process's peak
RSS and, when tracing, every span.

A fixed calibration loop runs before the first stage and after every
stage.  Its wall time measures how fast the machine is running at that
moment, so stage times can be scaled to a reference speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np


_CALIBRATION_PLANES = np.random.default_rng(0).integers(0, 256, size=(33, 4096), dtype=np.uint8)


def calibrate() -> float:
    """Median wall time of three passes of a fixed mix of packed popcounts and
    Python dict/str work, the two kinds of work the pipeline's stages do.

    The collector is paused so that the program's live objects, which a
    collection would scan, do not change the loop's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        passes = []
        for _ in range(3):
            start = time.perf_counter()
            total = 0
            for i in range(50):
                total += int(np.bitwise_count(
                    _CALIBRATION_PLANES ^ _CALIBRATION_PLANES[i % 33]).sum())
                row = {str(j): j * 1.5 for j in range(300)}
                total += len(",".join(repr(v) for v in row.values()))
            passes.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(passes)


def peak_rss_kb() -> int:
    """This process's resident high-water mark.

    ``ru_maxrss`` carries the parent's peak across fork and exec, so the
    per-process ``VmHWM`` is read where the kernel provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(job: dict) -> dict:
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import irisfuse
    import irisfuse.cli

    if src not in Path(irisfuse.__file__).resolve().parents:
        raise SystemExit(f"imported irisfuse from {irisfuse.__file__}, not from {src}")

    tracer = wrapped = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer(job["run_id"])
        wrapped = spans.install(tracer)

    stages = []
    calibrate()  # the first pass runs cold; its time is not representative
    calibration = [calibrate()]
    for stage in job["stages"]:
        argv = stage["argv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = irisfuse.cli.main(argv)
                else:
                    rc = tracer.call(f"cli.{argv[0]}", irisfuse.cli.main, argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            end = time.perf_counter()
        stages.append({
            "name": stage["name"], "start": start, "end": end, "rc": rc,
            "stdout": out.getvalue()[-4000:], "stderr": err.getvalue()[-4000:],
        })
        calibration.append(calibrate())

    result = {
        "stages": stages,
        "calibration": calibration,
        "peak_rss_kb": peak_rss_kb(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["wrapped"] = wrapped
        result["spans"] = tracer.dump()
    return result


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
