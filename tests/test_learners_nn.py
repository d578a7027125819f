import numpy as np
import pytest

from marketradar.learners import (
    NetParams,
    NeuralNetModel,
    TrainingDiverged,
    fit_nn,
    init_layers,
    loss_and_grads,
    model_to_json,
    predict,
)
from marketradar.panel import StandardizationStats


def finite_difference_grads(weights, biases, X, y, l1, h=1e-6):
    """Central differences over every parameter entry."""
    grad_w = [np.zeros_like(w) for w in weights]
    grad_b = [np.zeros_like(b) for b in biases]

    def loss_at(ws, bs):
        return loss_and_grads(ws, bs, X, y, l1)[0]

    for li, w in enumerate(weights):
        for idx in np.ndindex(w.shape):
            bumped = [wi.copy() for wi in weights]
            bumped[li][idx] += h
            up = loss_at(bumped, biases)
            bumped[li][idx] -= 2 * h
            down = loss_at(bumped, biases)
            grad_w[li][idx] = (up - down) / (2 * h)
    for li, b in enumerate(biases):
        for idx in np.ndindex(b.shape):
            bumped = [bi.copy() for bi in biases]
            bumped[li][idx] += h
            up = loss_at(weights, bumped)
            bumped[li][idx] -= 2 * h
            down = loss_at(weights, bumped)
            grad_b[li][idx] = (up - down) / (2 * h)
    return grad_w, grad_b


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        weights, biases = init_layers([3, 4, 4, 1], rng)
        # keep ReLU inputs and weights away from their kinks
        weights = [w + 0.05 * np.sign(w) for w in weights]
        biases = [b + 0.1 for b in biases]
        _, gw, gb = loss_and_grads(weights, biases, X, y, l1=1e-3)
        fw, fb = finite_difference_grads(weights, biases, X, y, l1=1e-3)
        for analytic, numeric in zip(gw + gb, fw + fb):
            denom = np.maximum(np.abs(numeric), 1e-8)
            rel = np.abs(analytic - numeric) / denom
            assert rel.max() < 1e-4


class TestTraining:
    def test_dominant_l1_collapses_to_mean(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(64, 4))
        y = rng.normal(size=64) * 0.5 + 1.0
        params = NetParams(epochs=60, batch_size=16, n_layers=2, n_neurons=8,
                           learning_rate=0.01, l1=1e3)
        model = fit_nn(X, y, params, seed=2)
        preds = predict(model, X)
        assert np.all(np.abs(preds - y.mean()) < 0.05 * y.std(ddof=1))

    def test_learns_noise_free_linear_map(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 2))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1]
        params = NetParams(epochs=400, batch_size=32, n_layers=2, n_neurons=16,
                           learning_rate=0.01, l1=0.0)
        model = fit_nn(X, y, params, seed=4)
        mse = float(np.mean((predict(model, X) - y) ** 2))
        assert mse < 1e-3

    def test_final_mse_not_worse_than_initial(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 3))
        y = X @ np.array([0.5, -0.25, 0.1])
        params = NetParams(epochs=20, batch_size=25, n_layers=1, n_neurons=8,
                           learning_rate=0.005, l1=0.0)
        rng_init = np.random.default_rng(6)
        w0, b0 = init_layers([3, 8, 1], rng_init)
        initial = loss_and_grads(w0, b0, X, y, 0.0)[0]
        model = fit_nn(X, y, params, seed=6)
        final = float(np.mean((predict(model, X) - y) ** 2))
        assert final <= initial

    def test_divergence_raises_with_step_index(self):
        # Adam steps have magnitude ~learning_rate, so only an absurd rate
        # pushes activations past float range and the loss to non-finite.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(32, 2)) * 10
        y = rng.normal(size=32) * 10
        params = NetParams(epochs=50, batch_size=8, n_layers=2, n_neurons=16,
                           learning_rate=1e100, l1=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                fit_nn(X, y, params, seed=8)
        assert err.value.step >= 1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        params = NetParams(epochs=5, batch_size=10, n_layers=1, n_neurons=4,
                           learning_rate=0.01, l1=1e-4)
        a = fit_nn(X, y, params, seed=10)
        b = fit_nn(X, y, params, seed=10)
        assert model_to_json(a) == model_to_json(b)


class TestForward:
    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(11)
        weights, biases = init_layers([4, 8, 8, 1], rng)
        biases = [rng.normal(size=b.shape) * 0.1 for b in biases]
        stats = StandardizationStats(
            mean=np.array([0.5, -1.0, 0.0, 2.0]), sd=np.array([2.0, 0.5, 0.0, 3.0])
        )
        return NeuralNetModel(
            algo="nn", n_features=4, stats=stats, weights=weights, biases=biases
        )

    @pytest.mark.parametrize("n_rows", [1, 5000])
    def test_in_place_forward_matches_plain_chain(self, model, n_rows):
        X = np.random.default_rng(n_rows).normal(size=(n_rows, 4))
        a = model.stats.transform(X)
        for W, b in zip(model.weights[:-1], model.biases[:-1]):
            a = np.maximum(a @ W + b, 0.0)
        expected = (a @ model.weights[-1] + model.biases[-1])[:, 0]
        np.testing.assert_array_equal(predict(model, X), expected)
