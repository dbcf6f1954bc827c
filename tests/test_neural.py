import math

import numpy as np
import pytest

from irisfuse import gradcheck, mlp
from irisfuse.mlp import (
    LAYER_SIZES,
    N_PARAMS,
    MlpParams,
    TrainConfig,
    TrainingDivergedError,
    _balanced_indices,
    _batch_loss_and_gradient,
    _coerce_dataset,
    _layers,
    mean_loss,
    mlp_forward,
    mlp_gradient,
    mlp_logits,
    softmax_xent,
    train_mlp,
)


def scalar_forward_probs(params: MlpParams, x) -> list[float]:
    """Independent layer-by-layer scalar re-implementation of the network."""
    a = [float(v) for v in x]
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for j in range(w.shape[1]):
            s = float(b[j])
            for i in range(w.shape[0]):
                s += a[i] * float(w[i, j])
            out.append(s if k == last else math.tanh(s))
        a = out
    m = max(a)
    e = [math.exp(v - m) for v in a]
    total = sum(e)
    return [v / total for v in e]


# The plain forms of the network, its mini-batch step and the optimiser
# updates.  The library's step makes fewer numpy calls but must put every
# element through these operations in this order, so the tests below compare
# bytes, not values within a tolerance.  Both sides run in one process: BLAS
# picks its kernel by CPU, so a recorded digest would not hold elsewhere.


def plain_forward(vec: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits plus each layer's input, by ``a @ w + b`` and ``np.tanh``."""
    activations = [x]
    a = x
    layers = _layers(vec)
    for k, (w, b) in enumerate(layers):
        z = a @ w + b
        a = z if k == len(layers) - 1 else np.tanh(z)
        activations.append(a)
    return a, activations


def plain_log_probs(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def plain_step(vec: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of a batch and its gradient vector."""
    logits, activations = plain_forward(vec, x)
    n = x.shape[0]
    log_probs = plain_log_probs(logits)
    loss = float(-log_probs[np.arange(n), y].mean())
    delta = np.exp(log_probs)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad = np.empty(N_PARAMS)
    layers, grad_layers = _layers(vec), _layers(grad)
    for k in reversed(range(len(layers))):
        (w, _), (grad_w, grad_b) = layers[k], grad_layers[k]
        a_k = activations[k]
        grad_w[...] = a_k.T @ delta
        grad_b[...] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ w.T) * (1.0 - a_k * a_k)
    return loss, grad


def plain_mean_loss(vec: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    log_probs = plain_log_probs(plain_forward(vec, x)[0])
    return float(-log_probs[np.arange(x.shape[0]), y].mean())


def plain_train(features, labels, config: TrainConfig) -> np.ndarray:
    """``train_mlp``'s schedule, with the plain step and optimiser updates."""
    x, y = _coerce_dataset(features, labels)
    rng = np.random.default_rng(config.seed)
    keep = _balanced_indices(y, config.genuine_impostor_ratio, rng)
    x, y = x[keep], y[keep]
    best = MlpParams.init_random(rng).vector
    vec = best.copy()
    velocity, adam_m, adam_v = (np.zeros(N_PARAMS) for _ in range(3))
    best_loss, stale, t = plain_mean_loss(vec, x, y), 0, 0
    for _ in range(config.epochs):
        order = rng.permutation(y.size)
        x_epoch, y_epoch = x[order], y[order]
        for start in range(0, y.size, config.batch_size):
            stop = start + config.batch_size
            _, grad = plain_step(vec, x_epoch[start:stop], y_epoch[start:stop])
            if config.optimizer == "sgd-momentum":
                velocity = config.momentum * velocity - config.learning_rate * grad
                vec = vec + velocity
            else:
                t += 1
                adam_m = 0.9 * adam_m + 0.1 * grad
                adam_v = 0.999 * adam_v + 0.001 * grad * grad
                m_hat = adam_m / (1.0 - 0.9**t)
                v_hat = adam_v / (1.0 - 0.999**t)
                vec = vec - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        loss = plain_mean_loss(vec, x, y)
        if loss < best_loss * (1.0 - mlp.PLATEAU_REL_TOL):
            best_loss, best, stale = loss, vec, 0
        else:
            if loss < best_loss:
                best_loss, best = loss, vec
            stale += 1
            if stale >= mlp.PLATEAU_PATIENCE:
                break
    return best


class TestForward:
    def test_zero_params_give_even_split(self):
        p_gen, p_imp = mlp_forward(MlpParams(np.zeros(N_PARAMS)), np.zeros(LAYER_SIZES[0]))
        assert (p_gen, p_imp) == (0.5, 0.5)

    def test_outputs_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = MlpParams.init_random(rng)
            p_gen, p_imp = mlp_forward(params, rng.normal(size=LAYER_SIZES[0]))
            assert p_gen + p_imp == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= p_gen <= 1.0

    def test_matches_independent_scalar_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            params = MlpParams.init_random(rng)
            cues = rng.normal(size=LAYER_SIZES[0])
            p_gen, p_imp = mlp_forward(params, cues)
            expected = scalar_forward_probs(params, cues)
            assert p_gen == pytest.approx(expected[0], abs=1e-10)
            assert p_imp == pytest.approx(expected[1], abs=1e-10)

    def test_non_finite_parameters_rejected_at_construction(self):
        weights = [np.zeros(s) for s in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])]
        weights[0][0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            MlpParams.from_layers(weights, [np.zeros(n) for n in LAYER_SIZES[1:]])

    def test_wrong_shapes_rejected(self):
        with pytest.raises(ValueError, match="layer 0: weight shape"):
            MlpParams.from_layers(
                tuple(np.zeros((3, 3)) for _ in range(4)),
                tuple(np.zeros(n) for n in LAYER_SIZES[1:]),
            )
        weights = [np.zeros(s) for s in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])]
        with pytest.raises(ValueError, match="layer 2: bias shape"):
            MlpParams.from_layers(weights, [np.zeros(n) for n in (32, 16, 7, 2)])
        with pytest.raises(ValueError, match="expected 4 layers"):
            MlpParams.from_layers(weights[:3], [np.zeros(n) for n in LAYER_SIZES[1:4]])

    def test_vector_round_trip(self):
        params = MlpParams.init_random(7)
        again = MlpParams.from_layers(params.weights, params.biases)
        assert (again.vector == params.vector).all()
        assert (MlpParams(params.vector).vector == params.vector).all()
        for w1, w2 in zip(params.weights, again.weights):
            assert (w1 == w2).all()
        assert N_PARAMS == 8 * 32 + 32 + 32 * 16 + 16 + 16 * 8 + 8 + 8 * 2 + 2
        # layout: each layer's weights row-major, then its bias
        assert (params.vector[:256] == params.weights[0].reshape(-1)).all()
        assert (params.vector[256:288] == params.biases[0]).all()

    @pytest.mark.parametrize("size", [N_PARAMS - 1, N_PARAMS + 1])
    def test_wrong_vector_length_rejected(self, size):
        with pytest.raises(ValueError, match=f"expected {N_PARAMS} parameters"):
            MlpParams(np.zeros(size))
        with pytest.raises(ValueError, match=f"expected {N_PARAMS} parameters"):
            MlpParams(np.zeros((1, N_PARAMS)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_entry_rejected(self, bad):
        vec = np.zeros(N_PARAMS)
        vec[N_PARAMS - 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MlpParams(vec)

    def test_vector_is_read_only(self):
        params = MlpParams.init_random(8)
        assert not params.vector.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            params.vector[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            params.weights[1][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            params.biases[3][0] = 1.0

    def test_construction_copies_the_callers_array(self):
        vec = MlpParams.init_random(9).vector.copy()
        params = MlpParams(vec)
        cues = np.linspace(0.0, 1.0, LAYER_SIZES[0])
        before = mlp_forward(params, cues)
        vec[:] = 0.0
        assert params.vector[0] != 0.0
        assert mlp_forward(params, cues) == before


class TestSoftmaxXent:
    def test_uniform_logits_give_ln_two(self):
        for label in (0, 1):
            assert softmax_xent((0.0, 0.0), label) == pytest.approx(
                math.log(2.0), abs=1e-15
            )

    def test_saturated_correct_prediction(self):
        assert softmax_xent((20.0, -20.0), 0) < 1e-8

    def test_matches_direct_formula(self):
        expected = -math.log(math.exp(1.0) / (math.exp(1.0) + math.exp(-0.5)))
        assert softmax_xent((1.0, -0.5), 0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            softmax_xent((float("nan"), 0.0), 0)


class TestGradients:
    def test_finite_difference_agreement(self):
        report = gradcheck.check_mlp_gradients(seed=0, points=20)
        assert report.passed, f"max relative error {report.max_rel_error}"
        assert report.max_rel_error < 1e-4

    def test_saturated_correct_prediction_has_vanishing_gradient(self):
        rng = np.random.default_rng(2)
        params = MlpParams.init_random(rng)
        cues = rng.normal(size=LAYER_SIZES[0])
        logits = mlp_logits(params, cues)[0]
        label = int(np.argmax(logits))
        # scale the last layer until the prediction saturates
        weights = list(params.weights)
        biases = list(params.biases)
        weights[-1] = weights[-1] * 400.0
        biases[-1] = biases[-1] * 400.0
        saturated = MlpParams.from_layers(weights, biases)
        grad = mlp_gradient(saturated, cues, label)
        assert grad.shape == (N_PARAMS,)
        assert float(np.linalg.norm(grad)) < 1e-6

    def test_gradient_norm_vanishes_at_converged_minimum(self, monkeypatch):
        # tiny two-sample problem (one per class, mirrored) trained to
        # saturation; per-sample cross-entropy gradients must vanish
        cues = np.full((1, LAYER_SIZES[0]), 0.5)
        features = np.vstack([cues, cues * -1.0])
        labels = np.array([0, 1])
        # run to saturation, not to the plateau stop
        monkeypatch.setattr(mlp, "PLATEAU_PATIENCE", 2000)
        config = TrainConfig(
            learning_rate=0.1,
            batch_size=1,
            epochs=2000,
            seed=3,
            genuine_impostor_ratio=None,
            optimizer="adam",
        )
        params = train_mlp(features, labels, config)
        grad = mlp_gradient(params, features[0], 0)
        assert float(np.linalg.norm(grad)) < 1e-6


class TestTraining:
    @staticmethod
    def separable_cues(rng, n=100):
        genuine = np.column_stack(
            [
                rng.uniform(0.7, 0.95, n),
                rng.uniform(0.0, 0.3, n),
                rng.uniform(0.5, 1.0, (n, 2)).reshape(n, 2),
                rng.uniform(0.0, 2.0, (n, 2)).reshape(n, 2),
                rng.uniform(-0.2, 0.2, (n, 2)).reshape(n, 2),
            ]
        )
        impostor = np.column_stack(
            [
                rng.uniform(0.05, 0.3, n),
                rng.uniform(0.7, 1.0, n),
                rng.uniform(0.5, 1.0, (n, 2)).reshape(n, 2),
                rng.uniform(0.0, 2.0, (n, 2)).reshape(n, 2),
                rng.uniform(-0.2, 0.2, (n, 2)).reshape(n, 2),
            ]
        )
        features = np.vstack([genuine, impostor])
        labels = np.array([0] * n + [1] * n)
        return features, labels

    def test_separable_set_reaches_accuracy(self):
        rng = np.random.default_rng(4)
        features, labels = self.separable_cues(rng, n=100)  # 200 samples
        config = TrainConfig(
            learning_rate=1e-2, epochs=200, seed=5, genuine_impostor_ratio=None
        )
        params = train_mlp(features, labels, config)
        predictions = mlp_logits(params, features).argmax(axis=1)
        assert (predictions == labels).mean() >= 0.99

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(6)
        features, labels = self.separable_cues(rng, n=40)
        config = TrainConfig(learning_rate=1e-2, epochs=30, seed=9)
        first = train_mlp(features, labels, config)
        second = train_mlp(features, labels, config)
        assert (first.vector == second.vector).all()

    def test_different_seed_differs(self):
        rng = np.random.default_rng(7)
        features, labels = self.separable_cues(rng, n=40)
        first = train_mlp(features, labels, TrainConfig(epochs=5, seed=0))
        second = train_mlp(features, labels, TrainConfig(epochs=5, seed=1))
        assert not (first.vector == second.vector).all()

    @pytest.mark.parametrize("bad", [0.7, 1.9, -1, 2])
    def test_non_binary_labels_rejected(self, bad):
        rng = np.random.default_rng(13)
        features, labels = self.separable_cues(rng, n=10)
        labels = labels.astype(np.float64)
        labels[3] = bad
        with pytest.raises(ValueError, match=r"labels must be 0 \(genuine\) or 1"):
            train_mlp(features, labels, TrainConfig(epochs=1))

    def test_int_bool_and_float_labels_accepted(self):
        rng = np.random.default_rng(14)
        features, labels = self.separable_cues(rng, n=10)
        config = TrainConfig(epochs=3, seed=2)
        expected = train_mlp(features, labels, config).vector
        for same in (labels.astype(bool), [int(v) for v in labels],
                     labels.astype(np.float64)):
            assert (train_mlp(features, same, config).vector == expected).all()

    def test_single_class_rejected(self):
        rng = np.random.default_rng(8)
        features, labels = self.separable_cues(rng, n=20)
        with pytest.raises(ValueError, match="both genuine and impostor"):
            train_mlp(features[labels == 0], labels[labels == 0], TrainConfig())

    @pytest.mark.parametrize("keep", ["impostor", "none"])
    def test_impostor_only_or_empty_set_rejected(self, keep):
        rng = np.random.default_rng(8)
        features, labels = self.separable_cues(rng, n=20)
        rows = labels == 1 if keep == "impostor" else labels < 0
        with pytest.raises(ValueError, match="both genuine and impostor"):
            train_mlp(features[rows], labels[rows], TrainConfig())

    def test_divergence_reports_epoch(self):
        # tanh keeps activations bounded, so overflow needs an extreme
        # step size; the guard must then name the epoch
        rng = np.random.default_rng(9)
        features = rng.normal(size=(80, 8)) * 1e3
        labels = np.array([0] * 40 + [1] * 40)
        config = TrainConfig(learning_rate=1e307, epochs=50, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch") as info:
                train_mlp(features, labels, config)
        assert info.value.epoch == 0

    def test_final_loss_not_worse_than_initial(self):
        rng = np.random.default_rng(10)
        features, labels = self.separable_cues(rng, n=50)
        config = TrainConfig(learning_rate=1e-2, epochs=40, seed=11,
                             genuine_impostor_ratio=None)
        params = train_mlp(features, labels, config)
        initial = MlpParams.init_random(np.random.default_rng(config.seed))
        assert mean_loss(params, features, labels) <= mean_loss(
            initial, features, labels
        )

    def test_class_balance_ratio_subsamples_impostors(self):
        rng = np.random.default_rng(11)
        features, labels = self.separable_cues(rng, n=60)
        # 60 genuine vs 60 impostor; ratio 1:2 keeps everything, 2:1 halves
        keep_all = TrainConfig(epochs=1, seed=0, genuine_impostor_ratio=(1, 2))
        train_mlp(features, labels, keep_all)  # just must not raise
        idx = _balanced_indices(labels, (2, 1), np.random.default_rng(0))
        assert (labels[idx] == 0).sum() == 60
        assert (labels[idx] == 1).sum() == 30


def same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestMatchesPlainForms:
    @pytest.mark.parametrize("rows", [64, 7, 1])  # a full batch, a tail, one sample
    @pytest.mark.parametrize("scale", [1.0, 4.0])  # 4x saturates many tanh units
    def test_step(self, rows, scale):
        rng = np.random.default_rng(rows)
        vec = MlpParams.init_random(rng).vector * scale
        x = rng.normal(size=(rows, LAYER_SIZES[0]))
        y = rng.integers(0, 2, rows)
        expected_loss, expected = plain_step(vec, x, y)
        grad = np.empty(N_PARAMS)
        hot = np.eye(LAYER_SIZES[-1], dtype=bool)[y]
        loss = _batch_loss_and_gradient(_layers(vec), _layers(grad), x, hot)
        assert same_bytes(loss, expected_loss)
        assert same_bytes(grad, expected)
        if rows == 1:
            assert same_bytes(mlp_gradient(MlpParams(vec), x[0], y[0]), expected)

    def test_logits_and_mean_loss_on_a_score_block(self):
        rng = np.random.default_rng(16)
        params = MlpParams.init_random(rng)
        x = rng.normal(size=(1024, LAYER_SIZES[0]))
        y = rng.integers(0, 2, 1024)
        assert same_bytes(mlp_logits(params, x), plain_forward(params.vector, x)[0])
        assert same_bytes(mean_loss(params, x, y), plain_mean_loss(params.vector, x, y))

    @pytest.mark.parametrize("optimizer", ["sgd-momentum", "adam"])
    def test_training(self, optimizer):
        rng = np.random.default_rng(17)
        # 300 rows: four 64-row batches and a 44-row tail per epoch
        features, labels = TestTraining.separable_cues(rng, n=150)
        config = TrainConfig(learning_rate=3e-3, epochs=8, seed=3, optimizer=optimizer)
        trained = train_mlp(features, labels, config)
        assert same_bytes(trained.vector, plain_train(features, labels, config))
