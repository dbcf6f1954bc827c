"""Central finite-difference verification of the fusion network's gradient.

Relative error uses a unit floor, ``|a - n| / max(1, |a|, |n|)``, so
near-zero coordinates are judged on absolute error instead of blowing
up; finite-difference noise at h=1e-5 sits orders of magnitude below
the 1e-4 tolerance either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import mlp

DEFAULT_TOLERANCE = 1e-4
DEFAULT_STEP = 1e-5
DEFAULT_POINTS = 20


def central_difference(f, x, h: float = DEFAULT_STEP) -> np.ndarray:
    """Numeric gradient of scalar ``f`` at ``x`` by central differences."""
    x = np.array(x, dtype=np.float64)
    grad = np.empty_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f(x)
        flat[i] = orig - h
        f_minus = f(x)
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


@dataclass(frozen=True)
class GradCheckReport:
    name: str
    points: int
    max_rel_error: float
    tolerance: float
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def check_mlp_gradients(
    seed: int = 0, points: int = DEFAULT_POINTS, tolerance: float = DEFAULT_TOLERANCE
) -> GradCheckReport:
    """Gradient of the per-sample cross-entropy w.r.t. every parameter."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(points):
        params = mlp.MlpParams.init_random(rng)
        cues = rng.normal(size=mlp.LAYER_SIZES[0])
        label = int(rng.integers(2))

        analytic = mlp.mlp_gradient(params, cues, label)

        def loss_at(vec, cues=cues, label=label):
            return mlp.softmax_xent(mlp.mlp_logits(mlp.MlpParams(vec), cues)[0], label)

        numeric = central_difference(loss_at, params.vector)
        worst = max(worst, max_relative_error(analytic, numeric))
    return GradCheckReport(
        name="fusion-mlp",
        points=points,
        max_rel_error=worst,
        tolerance=tolerance,
        elapsed_seconds=time.perf_counter() - start,
    )
