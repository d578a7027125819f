import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketradar.learners import (
    BoostParams,
    TreeEnsembleModel,
    ForestParams,
    fit_gradient_boosting,
    fit_random_forest,
    model_to_json,
    predict,
    staged_training_mse,
)
from marketradar.learners import base, tree
from marketradar.learners.base import NODE_DTYPE, TreeNode


def exhaustive_best_split(x, y, min_leaf=1):
    """Independent scan of all midpoint thresholds minimizing child SSE."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    best = None
    for i in range(min_leaf, len(xs) - min_leaf + 1):
        if i == 0 or i == len(xs) or xs[i - 1] == xs[i]:
            continue
        thr = (xs[i - 1] + xs[i]) / 2
        left, right = ys[:i], ys[i:]
        sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        if best is None or sse < best[0]:
            best = (sse, thr, left.mean(), right.mean())
    return best


class TestRandomForest:
    def test_constant_target(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = np.full(40, 0.42)
        model = fit_random_forest(X, y, ForestParams(n_estimators=10, max_depth=3), seed=1)
        np.testing.assert_allclose(predict(model, X), 0.42, atol=1e-12)

    def test_predictions_bounded_by_target_range(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 4))
        y = rng.normal(size=100)
        model = fit_random_forest(X, y, ForestParams(n_estimators=20, max_depth=5), seed=2)
        fresh = rng.normal(size=(50, 4)) * 3
        preds = predict(model, fresh)
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12

    def test_depth_one_tree_recovers_margin_split(self):
        # one tree, all rows, exact scan: must match the independent oracle
        x = np.concatenate([np.linspace(-2.0, -1.0, 10), np.linspace(1.0, 2.0, 10)])
        y = (x > 0).astype(float)
        X = x[:, None]
        params = ForestParams(
            n_estimators=1, max_depth=1, min_samples_leaf=1, max_samples=1.0, max_features=1.0
        )
        model = fit_random_forest(X, y, params, seed=3)
        # bootstrap resamples rows, so check against the oracle on the sample
        tree = model.trees[0]
        assert -1.0 < tree.threshold < 1.0
        assert tree.left.value == pytest.approx(0.0)
        assert tree.right.value == pytest.approx(1.0)

    def test_split_matches_exhaustive_oracle_without_sampling(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=60)
        y = np.where(x > 0.3, 2.0, -1.0) + rng.normal(size=60) * 0.01
        params = ForestParams(
            n_estimators=1, max_depth=1, min_samples_leaf=5, max_samples=1.0, max_features=1.0
        )
        model = fit_random_forest(x[:, None], y, params, seed=0)
        tree = model.trees[0]
        # seeded bootstrap with max_samples=1.0 still resamples; rebuild oracle
        idx = np.random.default_rng(0).integers(0, 60, size=60)
        _, thr, left_mean, right_mean = exhaustive_best_split(x[idx], y[idx], min_leaf=5)
        assert tree.threshold == pytest.approx(thr)
        assert tree.left.value == pytest.approx(left_mean)
        assert tree.right.value == pytest.approx(right_mean)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        params = ForestParams(n_estimators=8, max_depth=4)
        a = fit_random_forest(X, y, params, seed=11)
        b = fit_random_forest(X, y, params, seed=11)
        assert model_to_json(a) == model_to_json(b)
        c = fit_random_forest(X, y, params, seed=12)
        assert model_to_json(a) != model_to_json(c)

    def test_tiny_sample_gives_single_leaf_mean(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 3.0])
        params = ForestParams(n_estimators=5, max_depth=3, min_samples_leaf=5, max_samples=1.0)
        model = fit_random_forest(X, y, params, seed=0)
        assert all(t.is_leaf for t in model.trees)


class TestGradientBoosting:
    def test_zero_learning_rate_predicts_mean(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50) + 2.0
        params = BoostParams(n_estimators=10, learning_rate=0.0)
        model = fit_gradient_boosting(X, y, params, seed=1)
        np.testing.assert_allclose(predict(model, X), y.mean(), atol=1e-12)

    def test_staged_mse_non_increasing_full_sample(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(120, 4))
        y = X[:, 0] - 0.5 * X[:, 2] + rng.normal(size=120) * 0.3
        params = BoostParams(n_estimators=40, max_depth=2, subsample=1.0, max_features=1.0)
        model = fit_gradient_boosting(X, y, params, seed=2)
        staged = staged_training_mse(model, X, y)
        assert np.all(np.diff(staged) <= 1e-12)

    def test_learns_quadratic_to_high_accuracy(self):
        x = np.linspace(-1, 1, 200)
        y = x**2
        params = BoostParams(
            n_estimators=300,
            max_depth=3,
            min_samples_leaf=1,
            learning_rate=0.1,
            subsample=1.0,
            max_features=1.0,
        )
        model = fit_gradient_boosting(x[:, None], y, params, seed=0)
        mse = float(np.mean((predict(model, x[:, None]) - y) ** 2))
        assert mse < 1e-3

    @pytest.mark.parametrize("budget", [1, 1000])
    def test_row_blocks_give_the_same_bits(self, budget, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 5))
        y = X[:, 0] * X[:, 1] + rng.normal(size=300)
        model = fit_gradient_boosting(X, y, BoostParams(n_estimators=30), seed=3)
        tables = [t.table for t in model.trees]
        whole = predict(model, X), base.leaf_values(tables, X), model.stages(X)
        monkeypatch.setattr(base, "_TREE_BLOCK_ELEMENTS", budget)
        blocked = predict(model, X), base.leaf_values(tables, X), model.stages(X)
        for got, want in zip(blocked, whole):
            assert got.tobytes() == want.tobytes()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 4))
        y = rng.normal(size=80)
        params = BoostParams(n_estimators=12, max_depth=2, subsample=0.7)
        a = fit_gradient_boosting(X, y, params, seed=21)
        b = fit_gradient_boosting(X, y, params, seed=21)
        assert model_to_json(a) == model_to_json(b)

    def test_row_order_based_sampling(self):
        # same seed, same rows in the same order: identical fit even after
        # permuting an unrelated copy differently (sampling is index-based)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        params = BoostParams(n_estimators=5, max_depth=2, subsample=0.5)
        a = fit_gradient_boosting(X, y, params, seed=3)
        perm = rng.permutation(60)
        b = fit_gradient_boosting(X[perm], y[perm], params, seed=3)
        # permuting rows changes which indices the subsample hits
        assert model_to_json(a) != model_to_json(b)


def reference_best_split(X, y, features, min_samples_leaf):
    """The per-feature scan that the one-table split search replaced."""
    n = len(y)
    if n < 2 * min_samples_leaf:
        return None
    best_score = -np.inf
    best = None
    for f in features:
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = y[order]
        # Split positions i mean "first i sorted rows go left"; only
        # boundaries between distinct values are real thresholds.
        cut = np.nonzero(xs_sorted[1:] > xs_sorted[:-1])[0] + 1
        cut = cut[(cut >= min_samples_leaf) & (cut <= n - min_samples_leaf)]
        if len(cut) == 0:
            continue
        csum = np.cumsum(ys_sorted)
        total = csum[-1]
        left_sum = csum[cut - 1]
        right_sum = total - left_sum
        # Maximizing sum_L^2/n_L + sum_R^2/n_R is equivalent to minimizing
        # within-node SSE, without having to carry the squared-y terms.
        score = left_sum**2 / cut + right_sum**2 / (n - cut)
        k = int(np.argmax(score))
        if score[k] > best_score:
            best_score = float(score[k])
            i = cut[k]
            a, b = xs_sorted[i - 1], xs_sorted[i]
            mid = (a + b) / 2.0
            best = (int(f), float(mid if mid < b else a))
    return best


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def split_nodes(draw):
    """Nodes as _grow_tree passes them: n >= 2 * min_samples_leaf rows,
    with integer-valued columns (duplicate values), exact copies of earlier
    columns (ties across features), constant columns and a feature subset."""
    min_leaf = draw(st.integers(1, 7))
    n = draw(st.integers(2 * min_leaf, 2 * min_leaf + 24))
    p = draw(st.integers(1, 6))
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(["integer", "copy", "constant", "float"]))
        if kind == "integer":
            col = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        elif kind == "copy" and columns:
            col = columns[draw(st.integers(0, len(columns) - 1))]
        elif kind == "constant":
            col = [draw(finite)] * n
        else:
            col = draw(st.lists(finite, min_size=n, max_size=n))
        columns.append(col)
    X = np.array(columns, dtype=np.float64).T
    y = np.array(
        draw(st.lists(st.integers(-3, 3).map(float) | finite, min_size=n, max_size=n))
    )
    features = np.array(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1))))
    return X, y, features, min_leaf


class TestBestSplit:
    @given(node=split_nodes())
    def test_matches_per_feature_reference(self, node):
        assert tree._best_split(*node) == reference_best_split(*node)

    def test_tie_across_features_goes_to_lowest_feature(self):
        # columns 1 and 3 are equal and split y perfectly; column 2 is
        # constant, column 0 is noise
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        X = np.column_stack([[3.0, 1.0, 2.0, 1.0, 3.0, 2.0], x, np.ones(6), x])
        y = np.array([0.0, 0.0, 0.0, 0.0, 5.0, 5.0])
        assert tree._best_split(X, y, np.arange(4), 1) == (1, 1.5)
        assert tree._best_split(X, y, np.array([2, 3]), 1) == (3, 1.5)
        assert tree._best_split(X, y, np.array([2]), 1) is None

    @pytest.mark.parametrize("n", [64, 252])
    def test_fits_identical_to_reference_scan(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        X = np.column_stack([rng.normal(size=(n, 4)), rng.integers(0, 3, size=(n, 2))])
        y = X[:, 0] - X[:, 4] + rng.normal(size=n)
        forest = ForestParams(n_estimators=6, min_samples_leaf=2)
        boost = BoostParams(n_estimators=12, min_samples_leaf=2, subsample=0.8)
        fits = [
            lambda: fit_random_forest(X, y, forest, seed=5),
            lambda: fit_gradient_boosting(X, y, boost, seed=5),
        ]
        table = [model_to_json(fit()) for fit in fits]
        monkeypatch.setattr(tree, "_best_split", reference_best_split)
        assert [model_to_json(fit()) for fit in fits] == table


def reference_grow_tree(X, y, rng, params):
    """The copy-based recursion that growing on row positions replaced: a
    node table for (X, y), each split copying its rows into the children."""
    nodes = []

    def grow(X, y, depth):
        row = len(nodes)
        n, p = X.shape
        nodes.append((-1, 0.0, -1, -1, float(y.sum() / n), n))
        if depth >= params.max_depth or n < 2 * params.min_samples_leaf or np.all(y == y[0]):
            return
        k = max(1, math.ceil(params.max_features * p))
        features = np.sort(rng.choice(p, size=k, replace=False)) if k < p else np.arange(p)
        split = tree._best_split(X, y, features, params.min_samples_leaf)
        if split is None:
            return
        f, threshold = split
        go_left = X[:, f] <= threshold
        grow(X[go_left], y[go_left], depth + 1)
        right = len(nodes)
        grow(X[~go_left], y[~go_left], depth + 1)
        nodes[row] = (f, threshold, row + 1, right) + nodes[row][4:]

    grow(X, y, 0)
    return np.array(nodes, dtype=NODE_DTYPE)


def reference_random_forest(X, y, params, seed):
    n, rng = len(y), np.random.default_rng(seed)
    n_draw = max(1, math.ceil(params.max_samples * n))
    trees = []
    for _ in range(params.n_estimators):
        idx = rng.integers(0, n, size=n_draw)
        trees.append(TreeNode(reference_grow_tree(X[idx], y[idx], rng, params)))
    return TreeEnsembleModel(
        algo="rf", n_features=X.shape[1], seed=seed, hyper=params, trees=trees,
        tree_weights=np.full(len(trees), 1.0 / len(trees)), base=0.0,
    )


def reference_gradient_boosting(X, y, params, seed):
    """Each stage grown on its sample alone, then every row of X walked
    through the new tree by ``leaf_values``."""
    n, rng = len(y), np.random.default_rng(seed)
    base_value = float(y.mean())
    current = np.full(n, base_value)
    n_draw = max(1, math.ceil(params.subsample * n))
    trees = []
    for _ in range(params.n_estimators):
        idx = rng.choice(n, size=n_draw, replace=False) if n_draw < n else np.arange(n)
        table = reference_grow_tree(X[idx], y[idx] - current[idx], rng, params)
        trees.append(TreeNode(table))
        current += params.learning_rate * base.leaf_values([table], X)[:, 0]
    return TreeEnsembleModel(
        algo="gb", n_features=X.shape[1], seed=seed, hyper=params, trees=trees,
        tree_weights=np.full(len(trees), params.learning_rate), base=base_value,
    )


@st.composite
def panels(draw):
    """Small (X, y) with tied, copied and constant columns and tied targets."""
    n = draw(st.integers(2, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["integer", "copy", "constant", "float"]))
        if kind == "integer":
            col = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        elif kind == "copy" and columns:
            col = columns[draw(st.integers(0, len(columns) - 1))]
        elif kind == "constant":
            col = [draw(finite)] * n
        else:
            col = draw(st.lists(finite, min_size=n, max_size=n))
        columns.append(col)
    y = draw(st.lists(st.integers(-3, 3).map(float) | finite, min_size=n, max_size=n))
    return np.array(columns, dtype=np.float64).T, np.array(y)


tree_shapes = dict(
    n_estimators=st.integers(1, 6),
    max_depth=st.integers(1, 4),
    min_samples_leaf=st.sampled_from([1, 5]),
    max_features=st.sampled_from([0.34, 0.5, 1.0]),
)


# Two adjacent floats whose midpoint rounds onto the upper one: the split
# between them takes the lower value as its threshold, in the reference as in
# the program, so each side keeps its rows.
ADJACENT = (
    np.array([[np.nextafter(1000.0, 0.0)], [1000.0]] * 4), np.array([0.0, 1.0] * 4)
)


class TestGrowthOracle:
    @settings(deadline=None)
    @given(
        panel=panels(),
        params=st.builds(ForestParams, max_samples=st.sampled_from([0.5, 1.0]), **tree_shapes),
        seed=st.integers(0, 2**16),
    )
    @example(panel=ADJACENT, params=ForestParams(n_estimators=2, min_samples_leaf=1), seed=0)
    def test_forest_equals_copying_reference(self, panel, params, seed):
        X, y = panel
        want = model_to_json(reference_random_forest(X, y, params, seed))
        assert model_to_json(fit_random_forest(X, y, params, seed)) == want

    @settings(deadline=None)
    @given(
        panel=panels(),
        params=st.builds(
            BoostParams,
            learning_rate=st.sampled_from([0.1, 0.3]),
            subsample=st.sampled_from([0.5, 0.8, 1.0]),
            **tree_shapes,
        ),
        seed=st.integers(0, 2**16),
    )
    @example(panel=ADJACENT, params=BoostParams(n_estimators=2, min_samples_leaf=1), seed=0)
    def test_boosting_equals_per_stage_walk_reference(self, panel, params, seed):
        X, y = panel
        want = model_to_json(reference_gradient_boosting(X, y, params, seed))
        assert model_to_json(fit_gradient_boosting(X, y, params, seed)) == want

    @settings(deadline=None)
    @given(
        panel=panels(),
        share=st.sampled_from([0.5, 0.8, 1.0]),
        bootstrap=st.booleans(),
        min_samples_leaf=st.sampled_from([1, 5]),
        seed=st.integers(0, 2**16),
    )
    @example(panel=ADJACENT, share=0.8, bootstrap=False, min_samples_leaf=1, seed=0)
    def test_fitted_is_each_rows_leaf_value(self, panel, share, bootstrap, min_samples_leaf, seed):
        # gb's rows (a sample, then the rows it left out) or an rf bootstrap
        X, y = panel
        n, rng = len(y), np.random.default_rng(seed)
        n_fit = max(1, math.ceil(share * n))
        if bootstrap:
            rows = rng.integers(0, n, size=n_fit)
        else:
            idx = rng.choice(n, size=n_fit, replace=False)
            rows = np.concatenate([idx, np.setdiff1d(np.arange(n), idx)])
        params = BoostParams(max_depth=4, min_samples_leaf=min_samples_leaf, max_features=0.5)
        table, fitted = tree._grow_tree(X, y, rows, n_fit, rng, params)
        walked = base.leaf_values([table], X)[:, 0]
        seen = np.isin(np.arange(n), rows)
        assert fitted[seen].tobytes() == walked[seen].tobytes()
        assert np.isnan(fitted[~seen]).all()

    def test_adjacent_floats_split_without_an_empty_leaf(self):
        X, y = ADJACENT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = BoostParams(n_estimators=2, min_samples_leaf=1)
            model = fit_gradient_boosting(X, y, params, seed=0)
            yhat = predict(model, np.array([[2000.0], [X[0, 0]], [X[1, 0]], [0.0]]))
        for t in model.trees:
            leaves = t.table[t.table["feature"] < 0]
            assert (leaves["n"] >= 1).all()
            assert np.isfinite(leaves["value"]).all()
        assert np.isfinite(yhat).all()
        assert model.trees[0].table["threshold"][0] == X[0, 0]
