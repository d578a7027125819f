"""CART regression trees, random forests, and gradient boosting.

Split search is an exact scan over midpoints of sorted unique feature
values.  Each node builds one score table with a row per candidate feature
and a column per cut position: all candidate columns are sorted (stably)
at once, the targets are cumulated in each sorted order, and every cut
between distinct values that leaves ``min_samples_leaf`` rows on both
sides is scored; every other cell is -inf.  One argmax over this
feature-major table picks the split, and its first-maximum rule is the tie
rule: lowest feature index, then lowest threshold.  So a fit is a pure
function of (X, y, params, seed).  Row subsampling draws from row indices
of the given order, which makes the whole ensemble deterministic and
reproducible from the seed alone.
"""
from __future__ import annotations

import math

import numpy as np

from .base import TreeEnsembleModel, TreeNode
from .params import BoostParams, ForestParams


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """Exact variance-reduction split over candidate features, or None.

    The caller guarantees n >= 2 * min_samples_leaf rows.
    """
    n = len(y)
    xs = X[:, features].T
    order = np.argsort(xs, axis=1, kind="stable")
    xs = np.take_along_axis(xs, order, axis=1)
    csum = np.cumsum(y[order], axis=1)
    # Column i - 1 is cut i: the first i sorted rows go left.  Maximizing
    # sum_L^2/n_L + sum_R^2/n_R is equivalent to minimizing within-node
    # SSE, without having to carry the squared-y terms.
    cut = np.arange(1, n)
    left_sum = csum[:, :-1]
    right_sum = csum[:, -1:] - left_sum
    score = left_sum**2 / cut + right_sum**2 / (n - cut)
    # only boundaries between distinct values are real thresholds
    real = (xs[:, 1:] > xs[:, :-1]) & (cut >= min_samples_leaf) & (cut <= n - min_samples_leaf)
    score[~real] = -np.inf
    f, i = np.unravel_index(np.argmax(score), score.shape)
    if score[f, i] == -np.inf:
        return None
    return int(features[f]), float((xs[f, i] + xs[f, i + 1]) / 2.0)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    params: ForestParams | BoostParams,
    depth: int = 0,
) -> TreeNode:
    node_value = float(y.mean())
    n, p = X.shape
    if depth >= params.max_depth or n < 2 * params.min_samples_leaf or np.all(y == y[0]):
        return TreeNode(-1, 0.0, None, None, node_value, n)
    k = max(1, math.ceil(params.max_features * p))
    features = np.sort(rng.choice(p, size=k, replace=False)) if k < p else np.arange(p)
    split = _best_split(X, y, features, params.min_samples_leaf)
    if split is None:
        return TreeNode(-1, 0.0, None, None, node_value, n)
    f, threshold = split
    go_left = X[:, f] <= threshold
    left = _grow_tree(X[go_left], y[go_left], rng, params, depth + 1)
    right = _grow_tree(X[~go_left], y[~go_left], rng, params, depth + 1)
    return TreeNode(f, threshold, left, right, node_value, n)


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    seed: int,
) -> TreeEnsembleModel:
    """Bagged CART trees on bootstrap row samples; prediction = tree mean."""
    params.validate()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    rng = np.random.default_rng(seed)
    n_draw = max(1, math.ceil(params.max_samples * n))
    trees = []
    for _ in range(params.n_estimators):
        idx = rng.integers(0, n, size=n_draw)
        trees.append(_grow_tree(X[idx], y[idx], rng, params))
    weights = np.full(len(trees), 1.0 / len(trees))
    return TreeEnsembleModel(
        algo="rf",
        n_features=X.shape[1],
        seed=seed,
        hyper=params,
        trees=trees,
        tree_weights=weights,
        base=0.0,
    )


def fit_gradient_boosting(
    X: np.ndarray,
    y: np.ndarray,
    params: BoostParams,
    seed: int,
) -> TreeEnsembleModel:
    """Stagewise residual-fitting trees added at the learning rate."""
    params.validate()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    rng = np.random.default_rng(seed)
    base = float(y.mean())
    current = np.full(n, base)
    n_draw = max(1, math.ceil(params.subsample * n))
    trees = []
    for _ in range(params.n_estimators):
        if n_draw < n:
            idx = rng.choice(n, size=n_draw, replace=False)
        else:
            idx = np.arange(n)
        resid = y[idx] - current[idx]
        tree = _grow_tree(X[idx], resid, rng, params)
        trees.append(tree)
        current += params.learning_rate * tree.predict(X)
    weights = np.full(len(trees), params.learning_rate)
    return TreeEnsembleModel(
        algo="gb",
        n_features=X.shape[1],
        seed=seed,
        hyper=params,
        trees=trees,
        tree_weights=weights,
        base=base,
    )


def staged_training_mse(model: TreeEnsembleModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """In-sample MSE after each boosting stage (stage 0 = base only)."""
    X = np.asarray(X, dtype=np.float64)
    current = np.full(len(y), model.base)
    out = [float(np.mean((y - current) ** 2))]
    for w, tree in zip(model.tree_weights, model.trees):
        current += w * tree.predict(X)
        out.append(float(np.mean((y - current) ** 2)))
    return np.array(out)
