"""Central finite-difference verification of every analytic gradient.

Relative error uses a unit floor, ``|a - n| / max(1, |a|, |n|)``, so
near-zero coordinates are judged on absolute error instead of blowing
up; finite-difference noise at h=1e-5 sits orders of magnitude below
the 1e-4 tolerance either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import losses, mlp

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


def check_triplet_gradients(
    seed: int = 1, points: int = DEFAULT_POINTS, tolerance: float = DEFAULT_TOLERANCE
) -> GradCheckReport:
    """Gradients of the triplet hinge w.r.t. all three map batches.

    Configurations whose hinge argument sits within 0.05 of the kink are
    redrawn; the analytic subgradient there is one-sided and finite
    differences straddle it.
    """
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < points:
        batch = int(rng.integers(1, 4))
        shape = (batch, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        anchor = rng.normal(size=shape)
        positive = rng.normal(size=shape)
        negative = rng.normal(size=shape)
        margin = float(rng.uniform(0.0, 2.0))
        args = ((positive - anchor) ** 2).reshape(batch, -1).sum(1) - (
            (negative - anchor) ** 2
        ).reshape(batch, -1).sum(1) + margin
        if np.any(np.abs(args) < 0.05):
            continue
        checked += 1
        _, grad_a, grad_p, grad_n = losses.triplet_margin_loss_grads(
            anchor, positive, negative, margin
        )
        for analytic, which in ((grad_a, 0), (grad_p, 1), (grad_n, 2)):
            tensors = [anchor, positive, negative]

            def loss_at(x, which=which, tensors=tensors, margin=margin):
                t = list(tensors)
                t[which] = x
                return losses.triplet_margin_loss(*t, margin)

            numeric = central_difference(loss_at, tensors[which])
            worst = max(worst, max_relative_error(analytic, numeric))
    return GradCheckReport(
        name="triplet-margin-loss",
        points=points,
        max_rel_error=worst,
        tolerance=tolerance,
        elapsed_seconds=time.perf_counter() - start,
    )


def check_distance_loss_gradients(
    seed: int = 2, points: int = DEFAULT_POINTS, tolerance: float = DEFAULT_TOLERANCE
) -> GradCheckReport:
    """Gradient of the sigmoid cross-entropy w.r.t. the transformed distances."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(points):
        n = int(rng.integers(1, 8))
        s = rng.normal(scale=2.0, size=n)
        t = rng.integers(2, size=n).astype(np.float64)
        _, analytic = losses.distance_sigmoid_loss_grad(s, t)
        numeric = central_difference(
            lambda x, t=t: losses.distance_sigmoid_loss(x, t), s
        )
        worst = max(worst, max_relative_error(analytic, numeric))
    return GradCheckReport(
        name="distance-sigmoid-loss",
        points=points,
        max_rel_error=worst,
        tolerance=tolerance,
        elapsed_seconds=time.perf_counter() - start,
    )


def run_all(seed: int = 0, points: int = DEFAULT_POINTS) -> list[GradCheckReport]:
    """All three gradient checks with per-check derived seeds."""
    return [
        check_mlp_gradients(seed=seed, points=points),
        check_triplet_gradients(seed=seed + 1, points=points),
        check_distance_loss_gradients(seed=seed + 2, points=points),
    ]
