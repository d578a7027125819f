import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marketradar.learners import (
    BoostParams,
    ForestParams,
    LassoParams,
    LinearModel,
    ModelError,
    NetParams,
    NeuralNetModel,
    TreeEnsembleModel,
    TreeNode,
    fit_gradient_boosting,
    fit_nn,
    fit_ols,
    fit_random_forest,
    model_from_json,
    model_to_json,
    predict,
)
from marketradar.panel import StandardizationStats


class TestPredict:
    def test_zero_coefficients_return_intercept(self):
        model = LinearModel(algo="ols", n_features=3, intercept=0.7, coef=np.zeros(3))
        np.testing.assert_allclose(predict(model, np.random.default_rng(0).normal(size=(5, 3))), 0.7)

    def test_in_sample_identity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        model = fit_ols(X, y)
        D = np.column_stack([np.ones(30), X])
        fitted = D @ np.concatenate([[model.intercept], model.coef])
        np.testing.assert_allclose(predict(model, X), fitted, atol=1e-12)

    def test_trees_ignore_standardization(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 2)) * 5 + 3
        y = (X[:, 0] > 3).astype(float)
        model = fit_random_forest(
            X, y, ForestParams(n_estimators=5, max_depth=2, max_samples=1.0), seed=0
        )
        assert model.stats is None
        base = predict(model, X)
        np.testing.assert_array_equal(base, predict(model, X))

    def test_standardization_applied_when_present(self):
        stats = StandardizationStats(mean=np.array([2.0]), sd=np.array([2.0]))
        model = LinearModel(
            algo="lasso", n_features=1, stats=stats, intercept=0.0, coef=np.array([1.0])
        )
        np.testing.assert_allclose(predict(model, np.array([[4.0]])), [1.0])

    def test_column_mismatch_errors(self):
        model = LinearModel(algo="ols", n_features=3, intercept=0.0, coef=np.zeros(3))
        with pytest.raises(ModelError, match="feature columns"):
            predict(model, np.zeros((4, 2)))


class TestSerialization:
    def _round_trip(self, model, X):
        text = model_to_json(model)
        back = model_from_json(text)
        assert model_to_json(back) == text
        np.testing.assert_array_equal(predict(back, X), predict(model, X))

    def test_linear_round_trip_exact(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        self._round_trip(fit_ols(X, y), X)

    def test_tree_round_trip_exact(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        model = fit_gradient_boosting(
            X, y, BoostParams(n_estimators=7, max_depth=3, subsample=0.6), seed=5
        )
        self._round_trip(model, X)

    def test_nn_round_trip_exact(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        model = fit_nn(
            X,
            y,
            NetParams(epochs=3, batch_size=10, n_layers=2, n_neurons=5, learning_rate=0.01),
            seed=6,
        )
        self._round_trip(model, X)

    def test_stats_survive_round_trip(self):
        stats = StandardizationStats(mean=np.array([0.5, -1.0]), sd=np.array([2.0, 0.0]))
        model = LinearModel(
            algo="lasso", n_features=2, stats=stats, intercept=0.1, coef=np.array([1.0, -2.0])
        )
        back = model_from_json(model_to_json(model))
        np.testing.assert_array_equal(back.stats.mean, stats.mean)
        np.testing.assert_array_equal(back.stats.sd, stats.sd)


# Every finite double, with signed zero and subnormals drawn on purpose.
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308]),
)
# A standard deviation: any finite double that is not below zero.
nonnegative = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([-0.0, 5e-324])
)


def finite_arrays(shape, elements=finite):
    return hnp.arrays(np.float64, shape, elements=elements)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def standardization(draw, n_features):
    if draw(st.booleans()):
        return None
    return StandardizationStats(
        mean=draw(finite_arrays(n_features)), sd=draw(finite_arrays(n_features, nonnegative))
    )


@st.composite
def linear_models(draw):
    n = draw(st.integers(1, 6))
    return LinearModel(
        algo="lasso",
        n_features=n,
        stats=draw(standardization(n)),
        seed=draw(st.none() | st.integers(0, 2**63 - 1)),
        hyper=draw(st.none() | st.builds(LassoParams, st.floats(0.0, 10.0))),
        intercept=draw(finite),
        coef=draw(finite_arrays(n)),
        rank_deficient=draw(st.booleans()),
    )


def trees(n_features):
    leaf = st.builds(
        lambda t, v, n: TreeNode(-1, t, None, None, v, n), finite, finite, st.integers(0, 10**6)
    )
    return st.recursive(
        leaf,
        lambda kids: st.builds(
            TreeNode,
            st.integers(0, n_features - 1), finite, kids, kids, finite, st.integers(0, 10**6),
        ),
        max_leaves=8,
    )


@st.composite
def tree_models(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4))
    return TreeEnsembleModel(
        algo=draw(st.sampled_from(["rf", "gb"])),
        n_features=n,
        seed=draw(st.none() | st.integers(0, 2**63 - 1)),
        trees=[draw(trees(n)) for _ in range(k)],
        tree_weights=draw(finite_arrays(k)),
        base=draw(finite),
    )


@st.composite
def nn_models(draw):
    sizes = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3)))] + [1]
    return NeuralNetModel(
        algo="nn",
        n_features=sizes[0],
        stats=draw(standardization(sizes[0])),
        seed=draw(st.none() | st.integers(0, 2**63 - 1)),
        weights=[draw(finite_arrays((a, b))) for a, b in zip(sizes, sizes[1:])],
        biases=[draw(finite_arrays(b)) for b in sizes[1:]],
    )


def tree_fields(node: TreeNode) -> list:
    """Preorder node fields, floats as their bits."""
    out = [
        (node.feature, float_bits(node.threshold), float_bits(node.value), node.n_samples)
    ]
    for child in (node.left, node.right):
        out.extend(tree_fields(child) if child is not None else [None])
    return out


class TestSerializationProperties:
    """model_to_json/model_from_json keep every bit of random finite models."""

    def _back(self, model):
        text = model_to_json(model)
        back = model_from_json(text)
        assert type(back) is type(model)
        assert model_to_json(back) == text
        for name in ("algo", "n_features", "seed", "hyper"):
            assert getattr(back, name) == getattr(model, name)
        if model.stats is None:
            assert back.stats is None
        else:
            assert same_bits(back.stats.mean, model.stats.mean)
            assert same_bits(back.stats.sd, model.stats.sd)
        return back

    @given(linear_models())
    def test_linear(self, model):
        back = self._back(model)
        assert float_bits(back.intercept) == float_bits(model.intercept)
        assert same_bits(back.coef, model.coef)
        assert back.rank_deficient == model.rank_deficient

    @given(tree_models())
    def test_tree_ensemble(self, model):
        back = self._back(model)
        assert float_bits(back.base) == float_bits(model.base)
        assert same_bits(back.tree_weights, model.tree_weights)
        assert [tree_fields(t) for t in back.trees] == [tree_fields(t) for t in model.trees]

    @given(nn_models())
    def test_nn(self, model):
        back = self._back(model)
        assert back.activation == model.activation
        assert len(back.weights) == len(model.weights)
        assert all(same_bits(a, b) for a, b in zip(back.weights, model.weights))
        assert all(same_bits(a, b) for a, b in zip(back.biases, model.biases))
