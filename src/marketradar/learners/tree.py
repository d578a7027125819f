"""CART regression trees, random forests, and gradient boosting.

Split search is an exact scan over midpoints of sorted unique feature
values (the lower value where the midpoint rounds onto the upper one).  Each
node builds one score table with a row per candidate feature and a column
per cut position: all candidate columns are sorted (stably)
at once, the targets are cumulated in each sorted order, and every cut
that leaves ``min_samples_leaf`` rows on both sides is scored, a cut
between equal values as -inf.  One argmax over this
feature-major table picks the split, and its first-maximum rule is the tie
rule: lowest feature index, then lowest threshold.  So a fit is a pure
function of (X, y, params, seed).  Row subsampling draws from row indices
of the given order, which makes the whole ensemble deterministic and
reproducible from the seed alone.

A tree grows on row positions of X: it fits on the leading ones and routes
every one to its leaf as prediction does, so a boosting stage, grown on its
sample and then the rows left out, takes every row's value from its growth.
"""
from __future__ import annotations

import math

import numpy as np

from .base import NODE_DTYPE, TreeEnsembleModel, TreeNode
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
    n, m = len(y), min_samples_leaf
    xs = X[:, features].T
    order = np.argsort(xs, axis=1, kind="stable")
    xs = xs[np.arange(len(features))[:, None], order]
    csum = np.cumsum(y[order], axis=1)
    # Column j is cut m + j: the first m + j sorted rows go left.  Maximizing
    # sum_L^2/n_L + sum_R^2/n_R is equivalent to minimizing within-node
    # SSE, without having to carry the squared-y terms.
    cut = np.arange(m, n - m + 1)
    left_sum = csum[:, m - 1 : n - m]
    right_sum = csum[:, -1:] - left_sum
    score = left_sum**2 / cut + right_sum**2 / (n - cut)
    # only boundaries between distinct values are real thresholds
    score[~(xs[:, m : n - m + 1] > xs[:, m - 1 : n - m])] = -np.inf
    f, j = divmod(int(np.argmax(score)), score.shape[1])
    if score[f, j] == -np.inf:
        return None
    # the midpoint of adjacent floats can round onto the upper value, which
    # would send every row left; the lower value keeps the partition
    a, b = xs[f, m - 1 + j], xs[f, m + j]
    mid = (a + b) / 2.0
    return int(features[f]), float(mid if mid < b else a)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    n_fit: int,
    rng: np.random.Generator,
    params: ForestParams | BoostParams,
) -> tuple[np.ndarray, np.ndarray]:
    """A CART tree fitted on the first ``n_fit`` of the positions ``rows`` of
    (X, y), as a node table, its rows appended in preorder, and each row's
    leaf value (NaN off ``rows``); a split keeps the fitted positions first."""
    nodes: list[tuple] = []
    fitted = np.full(len(X), np.nan)
    p = X.shape[1]

    def grow(at: np.ndarray, n: int, depth: int) -> None:
        row, y_fit, split = len(nodes), y[at[:n]], None
        nodes.append((-1, 0.0, -1, -1, float(y_fit.sum() / n), n))
        if depth < params.max_depth and n >= 2 * params.min_samples_leaf and np.any(y_fit != y_fit[0]):
            k = max(1, math.ceil(params.max_features * p))
            features = np.sort(rng.choice(p, size=k, replace=False)) if k < p else np.arange(p)
            split = _best_split(X.take(at[:n], axis=0), y_fit, features, params.min_samples_leaf)
        if split is None:
            fitted[at] = nodes[row][4]  # a leaf: its value for all its positions
            return
        f, threshold = split
        go_left = X[:, f][at] <= threshold
        n_left = int(np.count_nonzero(go_left[:n]))
        grow(at[go_left], n_left, depth + 1)
        right = len(nodes)
        grow(at[~go_left], n - n_left, depth + 1)
        nodes[row] = (f, threshold, row + 1, right) + nodes[row][4:]

    grow(rows, n_fit, 0)
    return np.array(nodes, dtype=NODE_DTYPE), fitted


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    seed: int,
) -> TreeEnsembleModel:
    """Bagged CART trees on bootstrap row samples; prediction = tree mean."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    rng = np.random.default_rng(seed)
    n_draw = max(1, math.ceil(params.max_samples * n))
    trees = []
    for _ in range(params.n_estimators):
        idx = rng.integers(0, n, size=n_draw)
        trees.append(TreeNode(_grow_tree(X, y, idx, n_draw, rng, params)[0]))
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
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    rng = np.random.default_rng(seed)
    base = float(y.mean())
    current = np.full(n, base)
    n_draw = max(1, math.ceil(params.subsample * n))
    trees = []
    for _ in range(params.n_estimators):
        idx = rng.choice(n, size=n_draw, replace=False) if n_draw < n else np.arange(n)
        rows = np.concatenate([idx, np.flatnonzero(np.bincount(idx, minlength=n) == 0)])
        tree, fitted = _grow_tree(X, y - current, rows, n_draw, rng, params)
        trees.append(TreeNode(tree))
        current += params.learning_rate * fitted
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
    stages = model.stages(np.asarray(X, dtype=np.float64))
    return np.array([np.mean((y - stage) ** 2) for stage in stages.T])
