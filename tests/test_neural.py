import math

import numpy as np
import pytest

from irisfuse import gradcheck
from irisfuse.mlp import (
    LAYER_SIZES,
    N_PARAMS,
    MlpParams,
    TrainConfig,
    TrainingDivergedError,
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

    def test_gradient_norm_vanishes_at_converged_minimum(self):
        # tiny two-sample problem (one per class, mirrored) trained to
        # saturation; per-sample cross-entropy gradients must vanish
        cues = np.full((1, LAYER_SIZES[0]), 0.5)
        features = np.vstack([cues, cues * -1.0])
        labels = np.array([0, 1])
        config = TrainConfig(
            learning_rate=0.1,
            batch_size=1,
            epochs=2000,
            seed=3,
            genuine_impostor_ratio=None,
            optimizer="adam",
            plateau_patience=2000,  # run to saturation, not to the plateau stop
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
        from irisfuse.mlp import mean_loss

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
        from irisfuse.mlp import _balanced_indices

        idx = _balanced_indices(labels, (2, 1), np.random.default_rng(0))
        assert (labels[idx] == 0).sum() == 60
        assert (labels[idx] == 1).sum() == 30
