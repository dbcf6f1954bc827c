"""In-memory spans around the calls into irisfuse's layers, and their roll-up.

A :class:`Tracer` records one span per call of every public function of
the layer modules, plus one span per CLI command opened by the worker.
Spans stay in four parallel lists and are written out once, at the end.
Tracing assumes one thread: the CLI stages run with ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# Layers whose public functions are wrapped; ``cli`` is the command span.
LAYERS = ("bitmatch", "fileio", "fusion", "mlp", "evaluation", "synth")

# Functions the per-layer metrics name.  One a later change deletes is
# reported as absent and its metrics read 0; its module roll-up remains.
NAMED = (
    "bitmatch.match_with_rotations",
    "bitmatch.rotated_planes",
    "evaluation.generate_pairs",
    "evaluation.roc_curve",
    "fileio.read_template",
    "fileio.write_match_csv",
    "fileio.read_match_csv",
    "fileio.write_score_csv",
    "fileio.read_score_csv",
    "mlp.train_mlp",
    "mlp.mean_loss",
    "mlp.mlp_logits",
    "synth.gen_population",
)


def _pair_groups(result) -> int:
    return sum(result.counts)


# Counts read from a function's result: function -> (counter, reader).
COUNTERS = {"evaluation.generate_pairs": ("evaluation.pair_groups", _pair_groups)}


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._clock = clock

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self._clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                try:
                    self.counts[counter[0]] += counter[1](result)
                except (AttributeError, TypeError):
                    pass  # the function no longer returns what the counter reads
            return result

        return traced

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counts": dict(self.counts),
        }


def install(tracer: Tracer, package: str = "irisfuse", layers=LAYERS) -> list[str]:
    """Wrap every public function of ``layers`` wherever ``package`` holds it.

    Names imported into another module (``cli``'s ``roc_curve``,
    ``fusion``'s ``mlp_forward``) are patched there too.  Returns the
    qualified names wrapped; a layer that cannot be imported wraps none.
    """
    wrappers = {}
    names = []
    for layer in layers:
        try:
            module = importlib.import_module(f"{package}.{layer}")
        except ModuleNotFoundError:
            continue
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
                names.append(f"{layer}.{attr}")
    holders = [
        m for name, m in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]
    for module in holders:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    return sorted(names)


def absent(wrapped, named=NAMED) -> list[str]:
    """Named functions that were not found, so their metrics are absent."""
    found = set(wrapped)
    return [name for name in named if name not in found]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[kid], lo), min(ends[kid], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out


class Rollup:
    """Self time, calls and durations per function, per root span.

    ``stage_names`` names, in order, the stage each root (command) span
    ran; every span is attributed to its root's stage.
    """

    def __init__(self, dump: dict, stage_names):
        names, starts, ends, parents = (
            dump["names"], dump["starts"], dump["ends"], dump["parents"]
        )
        own = self_times(starts, ends, parents)
        roots = []
        root_of = [0] * len(names)
        for idx, parent in enumerate(parents):
            if parent < 0:
                root_of[idx] = len(roots)
                roots.append(idx)
            else:
                root_of[idx] = root_of[parent]
        if len(roots) != len(stage_names):
            raise ValueError(f"{len(roots)} root spans for {len(stage_names)} stages")
        self.stages = list(stage_names)
        self.wall = [ends[r] - starts[r] for r in roots]
        self.self_s = defaultdict(float)  # (stage, function) -> seconds
        self.calls = defaultdict(int)  # (stage, function) -> calls
        self.durations = defaultdict(list)  # function -> seconds per call
        for idx, name in enumerate(names):
            key = (self.stages[root_of[idx]], name)
            self.self_s[key] += own[idx]
            self.calls[key] += 1
            self.durations[name].append(ends[idx] - starts[idx])
        self.counts = dict(dump.get("counts", {}))

    def total(self, table, prefix: str, stages=None) -> float:
        """Sum of ``table`` over functions named ``prefix`` or under it."""
        return sum(
            value for (stage, name), value in table.items()
            if (stages is None or stage in stages)
            and (name == prefix or name.startswith(prefix + "."))
        )

    def layer_table(self) -> list[tuple[str, float, dict[str, float]]]:
        """Per stage: command wall time and self time per layer (``cli`` included)."""
        rows = []
        for stage, wall in zip(self.stages, self.wall):
            per_layer = defaultdict(float)
            for (s, name), value in self.self_s.items():
                if s == stage:
                    per_layer[name.split(".", 1)[0]] += value
            rows.append((stage, wall, dict(per_layer)))
        return rows
