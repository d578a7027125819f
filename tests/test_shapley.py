import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketradar import shapley

from marketradar.learners import (
    BoostParams,
    ForestParams,
    ModelError,
    NODE_DTYPE,
    NetParams,
    TreeEnsembleModel,
    TreeNode,
    fit_gradient_boosting,
    fit_random_forest,
    fit_lasso,
    fit_nn,
    predict,
)
from marketradar.panel import SignalBlock, SignalId, standardize
from marketradar.shapley import (
    Attribution,
    ImportanceRecord,
    brute_force_shapley,
    lasso_importance,
    mean_abs_importance,
    sampled_shapley,
    tree_shap,
    tree_shap_batch,
    _as_background,
    _leaf_table,
    _shapley_weight_tables,
)

D = dt.date


def reference_leaf_paths(root):
    """(value, features, lower, upper) per leaf by a recursive walk of the
    node views; pass means lo < v <= hi."""
    leaves = []

    def walk(node, bounds):
        if node.is_leaf:
            feats = np.array(sorted(bounds), dtype=np.intp)
            lows = np.array([bounds[f][0] for f in feats])
            highs = np.array([bounds[f][1] for f in feats])
            leaves.append((node.value, feats, lows, highs))
            return
        f, t = node.feature, node.threshold
        lo, hi = bounds.get(f, (-np.inf, np.inf))
        if t > lo:  # left region (lo, min(hi, t)] nonempty
            walk(node.left, {**bounds, f: (lo, min(hi, t))})
        if t < hi:  # right region (max(lo, t), hi] nonempty
            walk(node.right, {**bounds, f: (max(lo, t), hi)})

    walk(root, {})
    return leaves


def reference_tree_shap_batch(model, X, background):
    """The leaf-by-leaf kernel with three n x m matrices per leaf."""
    X = np.asarray(X, dtype=np.float64)
    Z = _as_background(background, X.shape[1])
    n, p = X.shape
    m = Z.shape[0]
    phi = np.zeros((n, p))

    per_tree = [reference_leaf_paths(t) for t in model.trees]
    max_depth = max(
        (len(feats) for leaves in per_tree for _, feats, _, _ in leaves), default=0
    )
    w_only_x, w_only_z = _shapley_weight_tables(max_depth)

    for weight, leaves in zip(model.tree_weights, per_tree):
        for value, feats, lows, highs in leaves:
            if len(feats) == 0:
                continue  # constrains nothing: same contribution to every v(S)
            px = (X[:, feats] > lows) & (X[:, feats] <= highs)
            pz = (Z[:, feats] > lows) & (Z[:, feats] <= highs)
            fx = px.astype(np.float64)
            fz = pz.astype(np.float64)
            a = np.rint(fx @ (1.0 - fz).T).astype(np.intp)
            b = np.rint((1.0 - fx) @ fz.T).astype(np.intp)
            alive = ((1.0 - fx) @ (1.0 - fz).T) < 0.5
            gain_x = np.where(alive, w_only_x[a, b], 0.0)
            gain_z = np.where(alive, w_only_z[a, b], 0.0)
            scale = weight * value / m
            for i, f in enumerate(feats):
                contrib = fx[:, i] * (gain_x @ (1.0 - fz[:, i])) + (
                    1.0 - fx[:, i]
                ) * (gain_z @ fz[:, i])
                phi[:, f] += scale * contrib

    base = float(np.mean(predict(model, Z)))
    return phi, base


def assert_same_leaf_table(model):
    """``_leaf_table`` equals, bit for bit, the slot table of the leaves the
    recursive walk finds, in the same order."""
    paths = [
        (weight * value, feats, lows, highs)
        for weight, t in zip(model.tree_weights, model.trees)
        for value, feats, lows, highs in reference_leaf_paths(t)
        if len(feats)
    ]
    k = max((len(feats) for _, feats, _, _ in paths), default=0)
    feature = np.zeros((len(paths), k), dtype=np.intp)
    low = np.full((len(paths), k), -np.inf)
    high = np.full((len(paths), k), np.inf)
    for i, (_, feats, lows, highs) in enumerate(paths):
        feature[i, : len(feats)], low[i, : len(feats)], high[i, : len(feats)] = feats, lows, highs
    scale = np.array([path[0] for path in paths], dtype=np.float64)
    for got, want in zip(_leaf_table(model), (feature, low, high, scale)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def assert_matches_reference(model, X, Z):
    phi, base = tree_shap_batch(model, X, Z)
    ref, ref_base = reference_tree_shap_batch(model, X, Z)
    np.testing.assert_allclose(phi, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    assert base == ref_base
    return phi


def reference_sampled_shapley(f, x, background, n_permutations, seed):
    """The pair estimator as a plain loop, with one f call per path: the
    same seeded draws of orders and background rows, each order run
    forwards and reversed."""
    x = np.asarray(x, dtype=np.float64)
    Z = np.asarray(background, dtype=np.float64)
    p = len(x)
    n = math.ceil(n_permutations / 2)
    rng = np.random.default_rng(seed)
    ranks = rng.permuted(np.tile(np.arange(p), (n, 1)), axis=1)
    rows = rng.integers(len(Z), size=n)
    fz = f(Z)
    pair_means = np.zeros((n, p))
    for t in range(n):
        order = np.argsort(ranks[t])
        for path in (order, order[::-1]):
            # row k: x on the first k + 1 features of the path
            spliced = np.tile(Z[rows[t]], (p, 1))
            for k, j in enumerate(path):
                spliced[k:, j] = x[j]
            out = f(spliced)
            prev = fz[rows[t]]
            for k, j in enumerate(path):
                pair_means[t, j] += (out[k] - prev) / 2
                prev = out[k]
    if n > 1:
        stderr = pair_means.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        stderr = np.zeros(p)
    return Attribution(phi=pair_means.mean(axis=0), base_value=float(np.mean(fz)), stderr=stderr)


def assert_same_attribution(got, want):
    np.testing.assert_array_equal(got.phi, want.phi)
    np.testing.assert_array_equal(got.stderr, want.stderr)
    assert got.base_value == want.base_value


def assert_close_attribution(got, want):
    np.testing.assert_allclose(got.phi, want.phi, rtol=1e-12)
    np.testing.assert_allclose(got.stderr, want.stderr, rtol=1e-12)
    assert got.base_value == want.base_value


def fitted_scaled_nn(seed, n=64, p=5):
    """An nn fitted on standardized columns of very different scales."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, p)) * np.linspace(0.01, 3.0, p) + np.arange(p)
    y = raw[:, 0] - 0.5 * raw[:, 1] * raw[:, 2] + rng.normal(size=n) * 0.1
    block, stats = standardize(toy_block(raw, target=y))
    params = NetParams(epochs=5, batch_size=16, n_layers=2, n_neurons=8,
                       learning_rate=0.01, l1=1e-5)
    model = fit_nn(block.values, y, params, seed=seed, stats=stats)
    return model, raw, y


def leaf(value, n=1):
    """The node rows of a one-leaf tree."""
    return [(-1, 0.0, -1, -1, float(value), n)]


def split(feature, threshold, left, right, value=0.0, n=2):
    """Preorder node rows of a split over two subtrees' rows."""
    def shift(rows, by):
        return [(f, t, l + by if l >= 0 else -1, r + by if r >= 0 else -1, v, k)
                for f, t, l, r, v, k in rows]

    head = (feature, float(threshold), 1, 1 + len(left), float(value), n)
    return [head] + shift(left, 1) + shift(right, 1 + len(left))


def tree(rows):
    return TreeNode(np.array(rows, dtype=NODE_DTYPE))


def single_tree_model(rows, n_features, weight=1.0, base=0.0):
    return TreeEnsembleModel(
        algo="gb",
        n_features=n_features,
        trees=[tree(rows)],
        tree_weights=np.array([weight]),
        base=base,
    )


class TestBruteForce:
    def test_background_width_must_match_x(self):
        # a (4, 1) background broadcasts against 3 features
        with pytest.raises(ValueError, match="background has 1 feature columns.* 3"):
            brute_force_shapley(lambda M: M.sum(axis=1), np.array([1.0, 2.0, 3.0]), np.zeros((4, 1)))

    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(0)
        beta = np.array([1.0, -2.0, 0.5])
        f = lambda M: M @ beta
        Z = rng.normal(size=(40, 3))
        x = rng.normal(size=3)
        attr = brute_force_shapley(f, x, Z)
        np.testing.assert_allclose(attr.phi, beta * (x - Z.mean(axis=0)), atol=1e-10)
        assert attr.total() == pytest.approx(float(f(x[None])[0]), abs=1e-10)

    def test_constant_function(self):
        f = lambda M: np.full(M.shape[0], 3.3)
        attr = brute_force_shapley(f, np.zeros(4), np.ones((5, 4)))
        np.testing.assert_array_equal(attr.phi, 0.0)
        assert attr.base_value == pytest.approx(3.3)

    def test_single_split_hand_case(self):
        root = split(0, 0.0, leaf(0.0), leaf(1.0))
        model = single_tree_model(root, 1)
        f = lambda M: predict(model, M)
        attr = brute_force_shapley(f, np.array([1.0]), np.array([[-1.0]]))
        assert attr.phi[0] == pytest.approx(1.0)
        assert attr.base_value == pytest.approx(0.0)

    def test_feature_cap(self):
        f = lambda M: M.sum(axis=1)
        with pytest.raises(ValueError, match="sampled"):
            brute_force_shapley(f, np.zeros(13), np.zeros((2, 13)))

    def test_symmetry_of_identical_features(self):
        f = lambda M: M[:, 0] + M[:, 1]
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(30, 2))
        Z[:, 1] = Z[:, 0]
        x = np.array([0.8, 0.8])
        attr = brute_force_shapley(f, x, Z)
        assert attr.phi[0] == pytest.approx(attr.phi[1], abs=1e-12)

    def test_dummy_feature_gets_zero(self):
        f = lambda M: M[:, 0] * 2.0
        rng = np.random.default_rng(2)
        attr = brute_force_shapley(f, rng.normal(size=3), rng.normal(size=(20, 3)))
        assert attr.phi[1] == pytest.approx(0.0, abs=1e-12)
        assert attr.phi[2] == pytest.approx(0.0, abs=1e-12)


class TestTreeShap:
    def test_leaf_only_ensemble(self):
        model = single_tree_model(leaf(2.5), 3, weight=1.0, base=0.0)
        attr = tree_shap(model, np.zeros(3), np.random.default_rng(0).normal(size=(6, 3)))
        np.testing.assert_array_equal(attr.phi, 0.0)
        assert attr.base_value == pytest.approx(2.5)

    def test_matches_brute_force_hand_tree(self):
        root = split(0, 0.5, split(1, -0.5, leaf(1.0), leaf(2.0)), leaf(-1.0))
        model = single_tree_model(root, 2)
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(25, 2))
        x = np.array([0.2, 0.4])
        exact = tree_shap(model, x, Z)
        brute = brute_force_shapley(lambda M: predict(model, M), x, Z)
        np.testing.assert_allclose(exact.phi, brute.phi, atol=1e-12)
        assert exact.base_value == pytest.approx(brute.base_value, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_on_fitted_ensembles(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 50, int(rng.integers(2, 7))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) + X[:, 0]
        if seed % 2 == 0:
            model = fit_random_forest(
                X, y, ForestParams(n_estimators=4, max_depth=3, max_samples=0.8), seed=seed
            )
        else:
            model = fit_gradient_boosting(
                X, y, BoostParams(n_estimators=4, max_depth=3, subsample=0.9), seed=seed
            )
        Z = rng.normal(size=(int(rng.integers(3, 15)), p))
        x = rng.normal(size=p)
        exact = tree_shap(model, x, Z)
        brute = brute_force_shapley(lambda M: predict(model, M), x, Z)
        np.testing.assert_allclose(exact.phi, brute.phi, atol=1e-9)
        assert exact.base_value == pytest.approx(brute.base_value, abs=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 4))
        y = X[:, 0] * X[:, 1] + rng.normal(size=80) * 0.1
        model = fit_gradient_boosting(
            X, y, BoostParams(n_estimators=10, max_depth=3, subsample=1.0), seed=1
        )
        Z = X[:30]
        pts = X[:5]
        phi, base = tree_shap_batch(model, pts, Z)
        totals = phi.sum(axis=1) + base
        np.testing.assert_allclose(totals, predict(model, pts), rtol=1e-6, atol=1e-10)

    def test_additive_across_trees(self):
        t1 = split(0, 0.0, leaf(-1.0), leaf(1.0))
        t2 = split(1, 0.0, leaf(2.0), leaf(-2.0))
        both = TreeEnsembleModel(
            algo="gb", n_features=2, trees=[tree(t1), tree(t2)],
            tree_weights=np.array([0.3, 0.7]), base=0.5,
        )
        m1 = single_tree_model(t1, 2, weight=0.3)
        m2 = single_tree_model(t2, 2, weight=0.7)
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(12, 2))
        x = np.array([0.4, -0.3])
        combined = tree_shap(both, x, Z)
        parts = tree_shap(m1, x, Z).phi + tree_shap(m2, x, Z).phi
        np.testing.assert_allclose(combined.phi, parts, atol=1e-12)

    def test_background_width_must_match_the_rows(self):
        model = single_tree_model(split(0, 0.0, leaf(-1.0), leaf(1.0)), n_features=3)
        with pytest.raises(ValueError, match="background has 2 feature columns.* 3"):
            tree_shap_batch(model, np.zeros((5, 3)), np.zeros((4, 2)))

    def test_empty_background_errors(self):
        model = single_tree_model(leaf(1.0), 2)
        with pytest.raises(ValueError):
            tree_shap(model, np.zeros(2), np.zeros((0, 2)))


def chain(features, value=1.0):
    """A tree whose right spine splits once on each feature in turn."""
    node = leaf(value)
    for depth, f in enumerate(reversed(features)):
        node = split(f, 0.1 * depth - 0.3, leaf(-float(depth)), node)
    return node


@st.composite
def fitted_tree_cases(draw):
    seed = draw(st.integers(0, 2**16))
    n, p = draw(st.integers(20, 120)), draw(st.integers(2, 20))
    m, depth = draw(st.integers(3, 80)), draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] * X[:, -1] + rng.normal(size=n)
    trees = draw(st.integers(1, 12))
    if draw(st.booleans()):
        params = ForestParams(n_estimators=trees, max_depth=depth, min_samples_leaf=2)
        model = fit_random_forest(X, y, params, seed=seed)
    else:
        params = BoostParams(n_estimators=trees, max_depth=depth, min_samples_leaf=2)
        model = fit_gradient_boosting(X, y, params, seed=seed)
    return model, X, rng.normal(size=(m, p))


class TestTreeShapKernel:
    """The pass-pattern kernel against the leaf-by-leaf reference."""

    @settings(max_examples=40, deadline=None)
    @given(case=fitted_tree_cases())
    def test_matches_reference_on_fitted_ensembles(self, case):
        assert_matches_reference(*case)

    @settings(max_examples=20, deadline=None)
    @given(case=fitted_tree_cases())
    def test_leaf_table_matches_the_recursive_walk(self, case):
        assert_same_leaf_table(case[0])

    def test_leaf_table_drops_empty_regions_and_keeps_repeated_features(self):
        # the splits under the root re-split feature 0 with one empty side,
        # one of them at the bound itself, an infinite threshold constrains
        # feature 1 without narrowing it, and a lone leaf constrains nothing
        last = split(0, 0.0, leaf(6.0), split(1, np.inf, leaf(4.0), leaf(5.0)))
        inner = split(0, -1.0, leaf(3.0), last)
        root = split(0, 0.0, split(0, 1.0, leaf(1.0), leaf(2.0)), inner)
        model = TreeEnsembleModel(
            algo="gb", n_features=3, trees=[tree(leaf(7.0)), tree(root), tree(chain([2, 0]))],
            tree_weights=np.array([1.0, 0.5, 0.25]),
        )
        assert_same_leaf_table(model)

    def test_mixed_depths_pad_to_the_deepest_path(self):
        stump = split(1, 0.2, leaf(-1.0), leaf(0.5))
        deep = split(0, 0.0, split(2, -0.5, leaf(1.0), leaf(2.0)),
                     split(1, 0.3, leaf(-2.0), split(3, 0.1, leaf(0.7), leaf(-0.4))))
        model = TreeEnsembleModel(
            algo="gb", n_features=4, trees=[tree(stump), tree(deep), tree(leaf(3.0))],
            tree_weights=np.array([0.5, 0.25, 1.0]), base=0.1,
        )
        rng = np.random.default_rng(22)
        X, Z = rng.normal(size=(30, 4)), rng.normal(size=(9, 4))
        phi = assert_matches_reference(model, X, Z)
        brute = brute_force_shapley(lambda M: predict(model, M), X[0], Z)
        np.testing.assert_allclose(phi[0], brute.phi, atol=1e-12)

    @pytest.mark.parametrize("depth", [8, 9])
    def test_paths_at_and_past_the_table_limit(self, depth):
        root = chain(list(range(depth)))
        model = single_tree_model(root, depth)
        rng = np.random.default_rng(depth)
        X = rng.normal(size=(6, depth)) * 0.3
        Z = rng.normal(size=(7, depth)) * 0.3
        phi = assert_matches_reference(model, X, Z)
        brute = brute_force_shapley(lambda M: predict(model, M), X[0], Z)
        np.testing.assert_allclose(phi[0], brute.phi, atol=1e-12)

    @pytest.mark.parametrize("algo", ["rf", "gb"])
    def test_deep_fitted_ensembles_take_the_pairwise_fallback(self, algo):
        # depth-10 trees on 16 features have paths past the table limit; the
        # fallback reads the padded slot table and must equal the reference
        rng = np.random.default_rng(26)
        X = rng.normal(size=(200, 16))
        y = X @ rng.normal(size=16) + X[:, 0] * X[:, 1] + rng.normal(size=200)
        if algo == "rf":
            params = ForestParams(n_estimators=4, max_depth=10, min_samples_leaf=1)
            model = fit_random_forest(X, y, params, seed=1)
        else:
            params = BoostParams(n_estimators=4, max_depth=10, min_samples_leaf=1)
            model = fit_gradient_boosting(X, y, params, seed=1)
        assert shapley._leaf_table(model)[0].shape[1] > shapley._MAX_TABLE_SLOTS
        phi, base = tree_shap_batch(model, X[:30], X[100:140])
        ref, ref_base = reference_tree_shap_batch(model, X[:30], X[100:140])
        np.testing.assert_array_equal(phi, ref)
        assert base == ref_base

    @pytest.mark.parametrize("budget", [shapley._BLOCK_ELEMENTS, 1 << 9])
    def test_batch_rows_equal_single_row_calls(self, budget, monkeypatch):
        monkeypatch.setattr(shapley, "_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(23)
        X = rng.normal(size=(150, 8))
        y = X[:, 0] - X[:, 1] * X[:, 2] + rng.normal(size=150)
        model = fit_random_forest(X, y, ForestParams(n_estimators=30), seed=3)
        phi, base = tree_shap_batch(model, X, X[:60])
        for i in (0, 1, 77, 149):
            single = tree_shap(model, X[i], X[:60])
            np.testing.assert_array_equal(single.phi, phi[i])
            assert single.base_value == base

    def test_one_leaf_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(40, 6))
        y = X[:, 0] * X[:, 1] + rng.normal(size=40)
        model = fit_gradient_boosting(X, y, BoostParams(n_estimators=20), seed=4)
        whole, base = tree_shap_batch(model, X, X[:25])
        monkeypatch.setattr(shapley, "_BLOCK_ELEMENTS", 1)
        blocked, blocked_base = tree_shap_batch(model, X, X[:25])
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12 * np.abs(whole).max())
        assert blocked_base == base

    def test_peak_memory_on_a_default_forest(self):
        # 252 rows x 20 signals is one training window at the paper's size
        rng = np.random.default_rng(25)
        X = rng.normal(size=(252, 20))
        y = X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=252)
        model = fit_random_forest(X, y, ForestParams(), seed=5)
        tracemalloc.start()
        try:
            tree_shap_batch(model, X, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_peak_memory_of_predict_on_many_rows(self):
        # rows are walked in blocks, so the peak does not grow with the rows
        rng = np.random.default_rng(26)
        X = rng.normal(size=(20_000, 20))
        y = X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=20_000)
        model = fit_gradient_boosting(X[:252], y[:252], BoostParams(), seed=6)
        tracemalloc.start()
        try:
            predict(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestSampledShapley:
    def test_background_width_must_match_x(self):
        # a (4, 1) background broadcasts against 3 features
        f = lambda M: M.sum(axis=1)
        with pytest.raises(ValueError, match="background has 1 feature columns.* 3"):
            sampled_shapley(f, np.array([1.0, 2.0, 3.0]), np.zeros((4, 1)), 4, seed=0)

    def test_linear_within_three_stderr(self):
        rng = np.random.default_rng(6)
        beta = np.array([0.7, -1.2, 0.3, 0.0])
        f = lambda M: M @ beta
        Z = rng.normal(size=(30, 4))
        x = rng.normal(size=4)
        attr = sampled_shapley(f, x, Z, n_permutations=300, seed=7)
        expected = beta * (x - Z.mean(axis=0))
        for j in range(4):
            bound = 3 * max(attr.stderr[j], 1e-12)
            assert abs(attr.phi[j] - expected[j]) <= bound

    def test_converges_to_brute_force(self):
        rng = np.random.default_rng(8)
        p = 6
        X = rng.normal(size=(60, p))
        y = X[:, 0] * 0.5 - 0.3 * X[:, 1] + 0.2 * X[:, 2] * X[:, 3]
        model = fit_gradient_boosting(
            X, y, BoostParams(n_estimators=5, max_depth=2, subsample=1.0), seed=2
        )
        f = lambda M: predict(model, M)
        Z = X[:8]
        x = X[0]
        brute = brute_force_shapley(f, x, Z)
        sampled = sampled_shapley(f, x, Z, n_permutations=20_000, seed=9)
        assert np.max(np.abs(sampled.phi - brute.phi)) < 0.01

    def test_constant_function_exact_zero(self):
        f = lambda M: np.full(M.shape[0], -0.4)
        attr = sampled_shapley(f, np.zeros(3), np.ones((4, 3)), n_permutations=10, seed=0)
        np.testing.assert_array_equal(attr.phi, 0.0)

    def test_deterministic_given_seed(self):
        f = lambda M: M.sum(axis=1)
        rng = np.random.default_rng(10)
        Z = rng.normal(size=(10, 3))
        x = rng.normal(size=3)
        a = sampled_shapley(f, x, Z, n_permutations=50, seed=3)
        b = sampled_shapley(f, x, Z, n_permutations=50, seed=3)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_batched_matches_reference_on_linear(self):
        rng = np.random.default_rng(17)
        beta = np.array([0.7, -1.2, 0.3, 0.0, 2.5])
        f = lambda M: M @ beta
        Z = rng.normal(size=(30, 5))
        x = rng.normal(size=5)
        assert_close_attribution(
            sampled_shapley(f, x, Z, n_permutations=40, seed=18),
            reference_sampled_shapley(f, x, Z, n_permutations=40, seed=18),
        )

    def test_batched_matches_reference_on_fitted_nn(self):
        model, raw, _ = fitted_scaled_nn(19)
        f = lambda M: predict(model, M)
        for i in (0, 7):
            assert_close_attribution(
                sampled_shapley(f, raw[i], raw, n_permutations=16, seed=i),
                reference_sampled_shapley(f, raw[i], raw, n_permutations=16, seed=i),
            )

    def test_single_permutation_matches_reference(self):
        model, raw, _ = fitted_scaled_nn(20)
        f = lambda M: predict(model, M)
        got = sampled_shapley(f, raw[3], raw[:20], n_permutations=1, seed=4)
        assert_close_attribution(
            got, reference_sampled_shapley(f, raw[3], raw[:20], n_permutations=1, seed=4)
        )
        np.testing.assert_array_equal(got.stderr, 0.0)

    @pytest.mark.parametrize("n_permutations", [1, 3, 7])
    def test_odd_counts_run_whole_antithetic_pairs(self, n_permutations):
        model, raw, _ = fitted_scaled_nn(22)
        X = model._inputs(raw)
        odd = sampled_shapley(model._predict, X[2], X, n_permutations, 5)
        assert_same_attribution(odd, sampled_shapley(model._predict, X[2], X, n_permutations + 1, 5))
        assert np.all(odd.stderr > 0) == (n_permutations > 1)

    def test_stderr_is_honest_against_brute_force(self):
        # over 200 rows x 6 features of a fitted network, the exact values
        # lie within 2 reported stderr about as often as a t with 31
        # degrees of freedom says (0.946)
        rng = np.random.default_rng(23)
        X = rng.normal(size=(232, 6))
        y = X[:, 0] - X[:, 1] * X[:, 2] + np.maximum(X[:, 3], 0) + 0.1 * rng.normal(size=232)
        params = NetParams(epochs=20, batch_size=32, n_layers=2, n_neurons=8)
        model = fit_nn(X, y, params, seed=24)
        Z = X[:32]
        covered = []
        for i, x in enumerate(X[32:]):
            exact = brute_force_shapley(model._predict, x, Z).phi
            sampled = sampled_shapley(model._predict, x, Z, n_permutations=64, seed=i)
            covered.append(np.abs(sampled.phi - exact) <= 2 * sampled.stderr)
        assert 0.90 <= np.mean(covered) <= 0.99


class TestSampledBlocks:
    """The row-blocked estimator against one call over all of a row's paths
    and against the one-call-per-path loop."""

    @pytest.fixture(scope="class")
    def nn23(self):
        model, raw, _ = fitted_scaled_nn(27, n=300, p=23)
        return model, model._inputs(raw)

    @staticmethod
    def calls(model, x, Z, n_permutations, seed):
        shapes = []
        f = lambda M: shapes.append(M.shape) or model._predict(M)
        return sampled_shapley(f, x, Z, n_permutations, seed), shapes

    def test_one_block_when_the_whole_matrix_fits(self):
        # attrib size, 20 features and 64 background rows: 8 paths of 20 rows
        model, raw, _ = fitted_scaled_nn(28, n=64, p=20)
        X = model._inputs(raw)
        for i in (0, 9):
            got, shapes = self.calls(model, X[i], X, 8, i)
            assert shapes == [(64, 20), (8 * 20, 20)]
            assert_close_attribution(got, reference_sampled_shapley(model._predict, X[i], X, 8, i))

    def test_an_attrib_row_is_two_calls_of_64_paths(self):
        model, raw, _ = fitted_scaled_nn(28, n=64, p=20)
        X = model._inputs(raw)
        _, shapes = self.calls(model, X[9], X, shapley.SAMPLED_PERMUTATIONS, 9)
        assert shapley.SAMPLED_PERMUTATIONS == 128
        assert shapes == [(64, 20), (64 * 20, 20), (64 * 20, 20)]

    @pytest.mark.parametrize("budget", [shapley._SAMPLED_BLOCK_ELEMENTS, 1 << 12, 1])
    @pytest.mark.parametrize("m", [1, 2, 33, 63, 252])
    @pytest.mark.parametrize("n_permutations", [1, 8])
    def test_blocks_match_the_stacked_call(self, nn23, budget, m, n_permutations, monkeypatch):
        model, X = nn23
        Z = X[-m:]
        for i in (0, 5):
            stacked, shapes = self.calls(model, X[i], Z, n_permutations, i)
            assert len(shapes) == 2
            with monkeypatch.context() as patch:
                patch.setattr(shapley, "_SAMPLED_BLOCK_ELEMENTS", budget)
                got = sampled_shapley(model._predict, X[i], Z, n_permutations, i)
            assert_close_attribution(got, stacked)
            assert_close_attribution(
                got, reference_sampled_shapley(model._predict, X[i], Z, n_permutations, i)
            )
            if n_permutations == 1:
                np.testing.assert_array_equal(got.stderr, 0.0)

    def test_peak_memory_at_80_features_and_a_full_background(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(600, 80))
        y = X[:, 0] - X[:, 1] * X[:, 2] + rng.normal(size=600)
        model = fit_nn(X, y, NetParams(epochs=2), seed=3)
        Z = X[: shapley.BACKGROUND_CAP]
        tracemalloc.start()
        try:
            sampled_shapley(model._predict, X[0], Z, shapley.SAMPLED_PERMUTATIONS, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one splice of all 80 x 500 coalition rows alone is 25.6 MB
        assert peak <= 4 * 2**20


def toy_block(values, target=None):
    values = np.asarray(values, dtype=np.float64)
    n, p = values.shape
    return SignalBlock(
        asset="AAA",
        dates=[D(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)],
        columns=[SignalId(f"M{j:02d}", 1) for j in range(p)],
        values=values,
        target=np.zeros(n) if target is None else np.asarray(target, dtype=np.float64),
    )


class TestImportance:
    def test_lasso_importance_absolute_coefficients(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        model = fit_lasso(X, rng.normal(size=40), alpha=0.5)
        object.__setattr__(model, "coef", np.array([0.0, 0.5, -0.1]))
        records = lasso_importance(
            model, [SignalId("A", 1), SignalId("B", 1), SignalId("C", 1)], "AAA", (2020, 1)
        )
        assert [r.value for r in records] == [0.0, 0.5, 0.1]

    def test_all_zero_fit(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        model = fit_lasso(X, rng.normal(size=30) * 0.01, alpha=10.0)
        records = lasso_importance(model, [SignalId("A", 1), SignalId("B", 1)], "AAA", (2020, 1))
        assert all(r.value == 0.0 for r in records)

    def test_target_scaling_homogeneity(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 4))
        X = (X - X.mean(0)) / X.std(0, ddof=1)
        y = X[:, 0] - 0.5 * X[:, 2] + rng.normal(size=60) * 0.2
        base = fit_lasso(X, y, alpha=0.05)
        scaled = fit_lasso(X, 10.0 * y, alpha=0.5)
        np.testing.assert_allclose(scaled.coef, 10.0 * base.coef, atol=1e-6)

    def test_ignored_feature_importance_zero(self):
        root = split(0, 0.0, leaf(-1.0), leaf(1.0))
        model = single_tree_model(root, 2)
        block = toy_block([[1.0, 5.0], [-1.0, -5.0], [0.5, 2.0]])
        records = mean_abs_importance(model, block, "AAA", (2020, 1))
        assert records[1].value == 0.0
        assert records[0].value > 0.0

    def test_single_row_block(self):
        root = split(0, 0.0, leaf(-1.0), leaf(1.0))
        model = single_tree_model(root, 1)
        block = toy_block([[1.0]])
        records = mean_abs_importance(model, block, "AAA", (2020, 1))
        attr = tree_shap(model, block.values[0], block.values)
        assert records[0].value == pytest.approx(abs(attr.phi[0]))

    def test_two_leaf_tree_hand_computed(self):
        # rows: x0 in {1, -1, 1}; tree splits on x0 at 0 with leaves -1/+1.
        # background = block; for each row phi = f(x) - mean f(background)
        root = split(0, 0.0, leaf(-1.0), leaf(1.0))
        model = single_tree_model(root, 1)
        block = toy_block([[1.0], [-1.0], [1.0]])
        base = (1.0 - 1.0 + 1.0) / 3.0
        expected = np.mean([abs(1.0 - base), abs(-1.0 - base), abs(1.0 - base)])
        records = mean_abs_importance(model, block, "AAA", (2020, 1))
        assert records[0].value == pytest.approx(expected, abs=1e-12)

    def test_sampled_method_for_black_box(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(10, 3))
        y = X[:, 1]
        model = fit_nn(X, y, NetParams(epochs=3, batch_size=5, n_neurons=4), seed=0)
        block = toy_block(X, target=y)
        records = mean_abs_importance(model, block, "AAA", (2020, 1), n_permutations=20)
        assert len(records) == 3
        assert all(r.value >= 0 for r in records)

    def test_sampled_importance_matches_reference_on_scaled_nn(self):
        model, raw, y = fitted_scaled_nn(21, n=24)
        block = toy_block(raw, target=y)
        records = mean_abs_importance(
            model, block, "AAA", (2020, 1), n_permutations=8, seed=5
        )
        f = lambda M: predict(model, M)
        phi = np.array(
            [reference_sampled_shapley(f, raw[i], raw, 8, 5 + i).phi for i in range(len(raw))]
        )
        np.testing.assert_allclose([r.value for r in records], np.abs(phi).mean(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("n_permutations", [1, 5, shapley.SAMPLED_PERMUTATIONS])
    def test_sampled_importance_is_the_mean_of_per_row_calls(self, n_permutations):
        model, raw, y = fitted_scaled_nn(21, n=24)
        records = mean_abs_importance(
            model, toy_block(raw, target=y), "AAA", (2020, 1), n_permutations, seed=5
        )
        X = model._inputs(raw)
        phi = np.array(
            [
                sampled_shapley(model._predict, X[i], X, n_permutations, 5 + i).phi
                for i in range(len(raw))
            ]
        )
        assert [r.value for r in records] == [float(v) for v in np.abs(phi).mean(axis=0)]

    def test_importance_records_validate(self):
        with pytest.raises(ValueError):
            ImportanceRecord("AAA", (2020, 1), "gb", SignalId("M", 1), -0.1)

    def test_nonlinear_model_rejected_for_coefficient_importance(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(30, 2))
        model = fit_gradient_boosting(
            X, rng.normal(size=30), BoostParams(n_estimators=2, max_depth=1), seed=0
        )
        with pytest.raises(Exception, match="linear"):
            lasso_importance(model, [SignalId("A", 1), SignalId("B", 1)], "AAA", (2020, 1))

    def test_tree_method_rejects_non_tree_model(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(30, 2))
        model = fit_lasso(X, rng.normal(size=30), alpha=0.1)
        block = toy_block(X)
        with pytest.raises(ModelError, match="tree-ensemble or network"):
            mean_abs_importance(model, block, "AAA", (2020, 1))
