"""Fusion network: a fixed 8-32-16-8-2 tanh MLP with softmax output.

Implemented directly in numpy with analytic gradients so training is
fully deterministic given a seed: initialisation, class balancing and
mini-batch order all derive from one generator, and no parallel
reduction happens inside a run.

All :data:`N_PARAMS` parameters live in one flat float64 vector: for
each layer in turn, its ``(fan_in, fan_out)`` weight matrix row-major,
then its ``fan_out`` biases.  :func:`_layers` gives the per-layer views
of such a vector; the network, its gradient and the optimiser all work
on the flat vector.  :class:`MlpParams` wraps a read-only copy and
validates it (length and finiteness) when it is built: from the random
initialisation, from a checkpoint (:meth:`MlpParams.from_layers` also
checks each layer's shapes), once per training epoch for the full-set
loss, and for the training result.  Mini-batch steps build none; they
check the updated vector for finiteness directly.

A mini-batch step is bound by the cost of numpy calls, not by its
arithmetic, so the step and the optimiser updates are written to make few
calls: products by ``np.dot`` (into the gradient's views with ``out=``),
bias and ``tanh`` applied in place, the two-class log-softmax by columns,
and the optimiser state updated in place.  They keep one rule: every
element goes through the same floating-point operations, in the same
order, as the plain forms (``a @ w + b``, ``logits.max(axis=1)``,
``m = 0.9 * m + 0.1 * grad``, ...), on C-contiguous operands, so the
checkpoints are the bytes the plain forms give.  Each activation is its
own array, never a strided view into a shared buffer.  The plain forms
live on in ``tests/test_neural.py`` as the reference for that rule.

A run's settings are one :class:`TrainConfig`, which a checkpoint records
field by field; the plateau stop is fixed (:data:`PLATEAU_PATIENCE`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAYER_SIZES = (8, 32, 16, 8, 2)
N_PARAMS = sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]))

OPTIMIZERS = ("sgd-momentum", "adam")


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
        self.epoch = epoch


def _layers(vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(weight, bias)`` views of each layer of a flat parameter vector."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        end = pos + fan_in * fan_out
        layers.append((vec[pos:end].reshape(fan_in, fan_out), vec[end : end + fan_out]))
        pos = end + fan_out
    return layers


@dataclass(frozen=True)
class MlpParams:
    """Weights and biases of the fusion network, immutable.

    ``vector`` is a read-only copy of the :data:`N_PARAMS` parameters in
    the layout of :func:`_layers`.  ``weights[k]`` has shape
    ``(fan_in, fan_out)``; activations flow as row vectors.
    """

    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=np.float64)
        if vec.shape != (N_PARAMS,):
            raise ValueError(f"expected {N_PARAMS} parameters, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("non-finite parameter")
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)

    @classmethod
    def from_layers(cls, weights, biases) -> "MlpParams":
        """Parameters from per-layer weight matrices and bias vectors."""
        vec = np.empty(N_PARAMS)
        layers = _layers(vec)
        if len(weights) != len(layers) or len(biases) != len(layers):
            raise ValueError(f"expected {len(layers)} layers")
        for k, ((w, b), weight, bias) in enumerate(zip(layers, weights, biases)):
            weight = np.asarray(weight, dtype=np.float64)
            bias = np.asarray(bias, dtype=np.float64)
            if weight.shape != w.shape:
                raise ValueError(f"layer {k}: weight shape {weight.shape} != {w.shape}")
            if bias.shape != b.shape:
                raise ValueError(f"layer {k}: bias shape {bias.shape} != {b.shape}")
            w[...], b[...] = weight, bias
        return cls(vec)

    @classmethod
    def init_random(cls, seed) -> "MlpParams":
        """Uniform weights in +-sqrt(6 / (fan_in + fan_out)), zero biases.

        ``seed`` may be an integer or a ``numpy.random.Generator``.
        """
        rng = np.random.default_rng(seed)
        vec = np.zeros(N_PARAMS)
        for w, _ in _layers(vec):
            limit = math.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        return cls(vec)

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return tuple(w for w, _ in _layers(self.vector))

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return tuple(b for _, b in _layers(self.vector))


def _as_input_matrix(inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"inputs must have {LAYER_SIZES[0]} features, got {x.shape}")
    return x


def _forward(layers, x: np.ndarray, activations: list | None = None) -> np.ndarray:
    """Logits of the network whose :func:`_layers` views are ``layers``.

    Each layer's output is a new C-contiguous array: the product, then the
    bias added and ``tanh`` applied in place.  When ``activations`` is a
    list, each hidden layer's output is appended to it for backprop.
    """
    a = x
    last = len(LAYER_SIZES) - 2
    for k, (w, b) in enumerate(layers):
        a = np.dot(a, w)
        a += b
        if k < last:
            np.tanh(a, out=a)
            if activations is not None:
                activations.append(a)
    return a


def mlp_logits(params: MlpParams, inputs) -> np.ndarray:
    """Raw pre-softmax outputs, shape (n, 2)."""
    logits = _forward(_layers(params.vector), _as_input_matrix(inputs))
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite network output (exploded parameters?)")
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_forward(params: MlpParams, cues) -> tuple[float, float]:
    """Class probabilities ``(p_genuine, p_impostor)`` for one cue vector."""
    probs = softmax(mlp_logits(params, cues))[0]
    return float(probs[0]), float(probs[1])


def softmax_xent(logits, label) -> float:
    """Cross-entropy ``-log softmax(logits)[label]`` for one sample."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    if z.size != LAYER_SIZES[-1]:
        raise ValueError(f"expected {LAYER_SIZES[-1]} logits, got {z.size}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite logits")
    m = z.max()
    lse = m + math.log(np.exp(z - m).sum())
    return float(lse - z[int(label)])


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of ``(n, 2)`` logits, computed by columns."""
    shifted = logits - np.maximum(logits[:, 0], logits[:, 1])[:, None]
    e = np.exp(shifted)
    return shifted - np.log(e[:, 0] + e[:, 1])[:, None]


def _batch_loss_and_gradient(layers, grad_layers, x: np.ndarray, hot: np.ndarray) -> float:
    """Mean cross-entropy over the batch; its gradient is written into
    ``grad_layers``, the :func:`_layers` views of a gradient vector laid
    out like the parameters whose views are ``layers``.  ``hot`` is the
    ``(n, 2)`` boolean one-hot of the labels."""
    n = x.shape[0]
    activations = [x]
    log_probs = _log_softmax(_forward(layers, x, activations))
    loss = -float(np.add.reduce(log_probs[hot])) / n

    delta = np.exp(log_probs, out=log_probs)
    delta -= hot  # 1.0 off each label's probability; x - 0.0 is x, even for -0.0
    delta /= n

    for k in reversed(range(len(layers))):
        (w, _), (grad_w, grad_b) = layers[k], grad_layers[k]
        a_k = activations[k]  # the layer's input: tanh output of layer k-1
        np.dot(a_k.T, delta, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if k > 0:
            delta = np.dot(delta, w.T)
            a_k *= a_k  # a_k is not read again: 1 - a_k**2 is built in place
            np.subtract(1.0, a_k, out=a_k)
            delta *= a_k
    return loss


def mlp_gradient(params: MlpParams, cues, label) -> np.ndarray:
    """Analytic gradient of ``softmax_xent(mlp_forward(...))`` for one sample.

    Returned as a flat vector laid out like ``params.vector``.
    """
    x = _as_input_matrix(cues)
    hot = np.eye(LAYER_SIZES[-1], dtype=bool)[[int(label)]]
    grad = np.empty(N_PARAMS)
    _batch_loss_and_gradient(_layers(params.vector), _layers(grad), x, hot)
    return grad


def mean_loss(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy of the network over a labelled set."""
    log_probs = _log_softmax(mlp_logits(params, x))
    return float(-log_probs[np.arange(x.shape[0]), np.asarray(y)].mean())


# training stops after this many epochs without a full-set loss below
# (1 - PLATEAU_REL_TOL) times the best one
PLATEAU_PATIENCE = 20
PLATEAU_REL_TOL = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a fusion-network training run: exactly the
    settings a checkpoint records, with ``irisfuse fuse-train``'s defaults."""

    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 500
    seed: int = 0
    genuine_impostor_ratio: tuple[int, int] | None = (1, 2)
    optimizer: str = "sgd-momentum"
    momentum: float = 0.9

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.genuine_impostor_ratio is not None:
            g, i = self.genuine_impostor_ratio
            if g < 1 or i < 1:
                raise ValueError("genuine_impostor_ratio parts must be >= 1")


def _coerce_dataset(features, labels) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"features must be (n, {LAYER_SIZES[0]}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("features contain a non-finite entry")
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise ValueError("labels must align with features")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (genuine) or 1 (impostor)")
    return x, y.astype(np.int64)


def _balanced_indices(
    y: np.ndarray, ratio: tuple[int, int] | None, rng: np.random.Generator
) -> np.ndarray:
    if ratio is None:
        return np.arange(y.size)
    genuine = np.flatnonzero(y == 0)
    impostor = np.flatnonzero(y == 1)
    g_part, i_part = ratio
    target = math.ceil(genuine.size * i_part / g_part)
    if impostor.size > target:
        impostor = np.sort(rng.choice(impostor, size=target, replace=False))
    return np.concatenate([genuine, impostor])


def train_mlp(features, labels, config: TrainConfig = TrainConfig()) -> MlpParams:
    """Train the fusion network; deterministic for a given config.

    ``features`` is an ``(n, 8)`` cue matrix and ``labels`` the matching
    genuine/impostor labels, each exactly 0 or 1.  Impostor rows
    are subsampled to ``genuine_impostor_ratio`` before training.  The
    parameters with the best full-set loss seen at any epoch boundary
    are returned, so the result never scores worse than the initial
    network.  Raises :class:`TrainingDivergedError` on non-finite loss.
    """
    x, y = _coerce_dataset(features, labels)
    if len(np.unique(y)) < 2:
        raise ValueError("training set must contain both genuine and impostor samples")

    rng = np.random.default_rng(config.seed)
    keep = _balanced_indices(y, config.genuine_impostor_ratio, rng)
    x, y = x[keep], y[keep]

    best = MlpParams.init_random(rng)
    # the parameters, their gradient and the optimiser state are updated in
    # place, so the layer views are built once
    vec = best.vector.copy()
    grad = np.empty_like(vec)
    layers, grad_layers = _layers(vec), _layers(grad)
    hot = np.eye(LAYER_SIZES[-1], dtype=bool)[y]
    velocity = np.zeros_like(vec)
    # Adam's first and second moments as the rows of one array; decay and
    # gain are full rows, as operands of the moments' own shape take numpy's
    # fast path where a broadcast column does not
    moments = np.zeros((2, N_PARAMS))
    scratch = np.empty_like(moments)
    (adam_m, adam_v), (m_hat, v_hat) = moments, scratch
    decay = np.repeat([[0.9], [0.999]], N_PARAMS, axis=1)
    gain = np.repeat([[0.1], [0.001]], N_PARAMS, axis=1)
    adam_t = 0

    best_loss = mean_loss(best, x, y)
    epochs_since_improvement = 0

    n = x.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        x_epoch, hot_epoch = x[order], hot[order]
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            loss = _batch_loss_and_gradient(
                layers, grad_layers, x_epoch[start:stop], hot_epoch[start:stop]
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            # in place; each element goes through the operations of the
            # textbook form, in its order:
            #   velocity = momentum * velocity - learning_rate * grad
            #   m = 0.9 * m + 0.1 * grad;  v = 0.999 * v + 0.001 * grad * grad
            #   vec -= learning_rate * m_hat / (sqrt(v_hat) + 1e-8)
            if config.optimizer == "sgd-momentum":
                velocity *= config.momentum
                grad *= config.learning_rate
                velocity -= grad
                vec += velocity
            else:  # adam
                adam_t += 1
                moments *= decay
                np.multiply(gain, grad, out=scratch)
                v_hat *= grad
                moments += scratch
                np.divide(adam_m, 1.0 - 0.9**adam_t, out=m_hat)
                np.divide(adam_v, 1.0 - 0.999**adam_t, out=v_hat)
                np.sqrt(v_hat, out=v_hat)
                v_hat += 1e-8
                m_hat *= config.learning_rate
                m_hat /= v_hat
                vec -= m_hat
            if not np.isfinite(vec).all():
                raise TrainingDivergedError(epoch)

        params = MlpParams(vec)
        epoch_loss = mean_loss(params, x, y)
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)
        if epoch_loss < best_loss * (1.0 - PLATEAU_REL_TOL):
            best_loss, best = epoch_loss, params
            epochs_since_improvement = 0
        else:
            if epoch_loss < best_loss:
                best_loss, best = epoch_loss, params
            epochs_since_improvement += 1
            if epochs_since_improvement >= PLATEAU_PATIENCE:
                break

    return best
