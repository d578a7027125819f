import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marketradar.learners import (
    BoostParams,
    ElasticNetParams,
    ForestParams,
    HyperparameterError,
    LassoParams,
    LinearModel,
    ModelError,
    NetParams,
    NODE_DTYPE,
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


# A gb model's document as written before trees were node tables, and its
# predictions on the first 8 rows of ``gb_model_data``.
GB_MODEL_V1 = (
    '{"algo": "gb", "base": -0.8550995, "format": "marketradar-model-v1", '
    '"hyper": {"algo_params": {"learning_rate": 0.1, "max_depth": 2, "max_features": 0.5, '
    '"min_samples_leaf": 3, "n_estimators": 3, "subsample": 0.8}}, "kind": "trees", '
    '"n_features": 3, "seed": 1, "stats": null, "tree_weights": [0.1, 0.1, 0.1], '
    '"trees": [[{"feature": 0, "left": 1, "n": 20, "right": 4, "threshold": -0.7155, '
    '"value": 0.07900622499999999}, {"feature": 2, "left": 2, "n": 6, "right": 3, '
    '"threshold": -0.022499999999999992, "value": -1.1303955833333335}, {"feature": -1, '
    '"left": -1, "n": 3, "right": -1, "threshold": 0.0, "value": -1.0404365}, '
    '{"feature": -1, "left": -1, "n": 3, "right": -1, "threshold": 0.0, '
    '"value": -1.2203546666666667}, {"feature": 0, "left": 5, "n": 14, "right": 6, '
    '"threshold": 0.48650000000000004, "value": 0.5973212857142858}, {"feature": -1, '
    '"left": -1, "n": 11, "right": -1, "threshold": 0.0, "value": 0.30678990909090903}, '
    '{"feature": -1, "left": -1, "n": 3, "right": -1, "threshold": 0.0, '
    '"value": 1.662603}], [{"feature": 0, "left": 1, "n": 20, "right": 4, '
    '"threshold": -0.6775, "value": -0.03827676545454542}, {"feature": 2, "left": 2, '
    '"n": 7, "right": 3, "threshold": 0.0825, "value": -0.8193205000000001}, '
    '{"feature": -1, "left": -1, "n": 4, "right": -1, "threshold": 0.0, '
    '"value": -0.610071475}, {"feature": -1, "left": -1, "n": 3, "right": -1, '
    '"threshold": 0.0, "value": -1.0983192000000002}, {"feature": 2, "left": 5, "n": 13, '
    '"right": 6, "threshold": -0.493, "value": 0.3822852454545455}, {"feature": -1, '
    '"left": -1, "n": 4, "right": -1, "threshold": 0.0, "value": 1.2444131045454547}, '
    '{"feature": -1, "left": -1, "n": 9, "right": -1, "threshold": 0.0, '
    '"value": -0.0008826919191918803}], [{"feature": 2, "left": 1, "n": 20, "right": 2, '
    '"threshold": -1.198, "value": 0.022334968104798004}, {"feature": -1, "left": -1, '
    '"n": 3, "right": -1, "threshold": 0.0, "value": 1.1335245956060607}, {"feature": 2, '
    '"left": 3, "n": 17, "right": 4, "threshold": 0.417, "value": -0.17375731910130715}, '
    '{"feature": -1, "left": -1, "n": 13, "right": -1, "threshold": 0.0, '
    '"value": -0.3484468106041181}, {"feature": -1, "left": -1, "n": 4, "right": -1, '
    '"threshold": 0.0, "value": 0.39398352828282834}]]}'
)
GB_PREDICTIONS = [
    -1.0549949785604118,
    -0.8593534593432401,
    -0.7851104254545455,
    -0.45104542998484837,
    -1.1218115677270784,
    -1.0549949785604118,
    -0.7348238796967755,
    -0.5992425706058663,
]


def gb_model_data():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(24, 3)).round(3)
    y = X[:, 0] - 0.5 * X[:, 1] ** 2 + rng.normal(size=24).round(3) * 0.1
    return X, y


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

    def test_earlier_document_loads_and_predicts_the_same_bits(self):
        X, y = gb_model_data()
        model = model_from_json(GB_MODEL_V1)
        assert model_to_json(model) == GB_MODEL_V1
        assert predict(model, X[:8]).tolist() == GB_PREDICTIONS
        params = BoostParams(n_estimators=3, max_depth=2, min_samples_leaf=3)
        assert model_to_json(fit_gradient_boosting(X, y, params, seed=1)) == GB_MODEL_V1

    @pytest.mark.parametrize("left, right", [(0, 2), (1, 1), (1, 9)])
    def test_tree_that_is_not_a_preorder_table_is_rejected(self, left, right):
        # a child before its parent, two parents, a child past the table
        doc = json.loads(GB_MODEL_V1)
        doc["trees"][2][0].update(left=left, right=right)
        with pytest.raises(ModelError, match="one parent each"):
            model_from_json(json.dumps(doc))

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


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (LassoParams, "alpha", -1.0),
        (ElasticNetParams, "l1_ratio", 1.5),
        (ForestParams, "max_samples", 0.0),
        (BoostParams, "min_samples_leaf", 0),
        (NetParams, "learning_rate", 0.0),
    ],
)
def test_out_of_range_hyperparameter_fails_at_construction(cls, field, value):
    with pytest.raises(HyperparameterError, match=f"^{field} must be"):
        cls(**{field: value})


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


def split_rows(feature, threshold, left, right, value, n):
    """Preorder node rows of a split over two subtrees' rows."""
    def shift(rows, by):
        return [(f, t, l + by if l >= 0 else -1, r + by if r >= 0 else -1, v, k)
                for f, t, l, r, v, k in rows]

    head = (feature, threshold, 1, 1 + len(left), value, n)
    return [head] + shift(left, 1) + shift(right, 1 + len(left))


def trees(n_features):
    leaf = st.builds(
        lambda t, v, n: [(-1, t, -1, -1, v, n)], finite, finite, st.integers(0, 10**6)
    )
    return st.recursive(
        leaf,
        lambda kids: st.builds(
            split_rows,
            st.integers(0, n_features - 1), finite, kids, kids, finite, st.integers(0, 10**6),
        ),
        max_leaves=8,
    ).map(lambda rows: TreeNode(np.array(rows, dtype=NODE_DTYPE)))


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
