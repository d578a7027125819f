"""Shapley-value signal attribution and per-signal importance.

All methods share one value function: v(S) is the mean model output over a
background sample with the explained point's values spliced in on the
coalition S.  That makes the subset-enumeration brute force an oracle for
both the exact tree algorithm and the Monte-Carlo sampled estimator.
Per-signal importance takes its method from the fitted model: the tree
algorithm for tree ensembles, the sampled estimator for networks, and
|coefficient| for sparse linear fits, whose inputs are standardized.

The tree method works on all leaves at once.  For an explained point x and
one background row z, a leaf is reached by the spliced point iff every
feature constrained on its path is satisfied by whichever of x/z supplies
it, so the leaf's indicator game is fixed by the two pass patterns (bit k
set iff the row satisfies the path's k-th constraint).  Its exact Shapley
weights depend on the counts a (features only x satisfies) and b (features
only z satisfies): (a-1)! b! / (a+b)! for members of the x-side and
-a! (b-1)! / (a+b)! for the z-side.  Every leaf that constrains a feature is
one row of an L x K slot table, K being the longest path; shorter paths are
padded with (-inf, inf] slots, which every row passes, so a padded slot adds
nothing and changes no other weight.  The background's patterns are counted
per leaf with one bincount, the counts times one 2^K x (2^K * K) table of
weights per (z-pattern, x-pattern, slot) give each leaf's gain per
x-pattern and slot, and each explained row gathers its gains at its own
patterns and scatters them onto its features with one more bincount.  No
explained x background array is formed.  Leaves and rows go in blocks whose
temporaries stay under ``_BLOCK_ELEMENTS`` elements; the leaf blocks depend
on the model alone, so a row gets the same bits in any batch.  The table
grows as 4^K, so an ensemble with paths over ``_MAX_TABLE_SLOTS`` features
is attributed leaf by leaf over all (x, z) row pairs instead.

The sampled estimator draws (order, background row) pairs, as Strumbelj
and Kononenko sample them (KAIS 2014), and runs each pair forwards and with
its order reversed (Mitchell et al., JMLR 2022).  Along a path, x joins one
feature at a time, and a feature's draw is the output after it joins minus
the output before; the output before the first joins is f(z), read from the
one f call over the background that also gives the base value.  A draw
costs p forward rows, against p*m for a coalition averaged over all m
background rows, and the same budget spent on independent pairs gives far
less error.  A pair and its reverse are dependent, so the stderr is taken
over the pair means.  A block of paths goes to the model in one call of at
most ``_SAMPLED_BLOCK_ELEMENTS`` input elements (64 paths of 20 rows at 20
features), where a network's forward pass costs least per row; row k of a
path is one gather from a lower-triangular table at the path's ranks.

Importance scales the explained rows and the background once through the
model's standardization and then calls the fitted map on scaled inputs
directly; standardization acts elementwise per column, so scaling then
splicing equals splicing then scaling.  A task runs in one process, so its
rows meet the same blocks at any worker count.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .learners.base import (
    LinearModel,
    ModelError,
    NeuralNetModel,
    TreeEnsembleModel,
    predict,
    stack_tables,
)
from .panel import SignalBlock, SignalId
from .trading_calendar import Quarter

MAX_BRUTE_FORCE_FEATURES = 12

# Reported importance tables scale attributions of daily decimal returns by
# 1e4 (basis points); stored records stay in raw target units.
IMPORTANCE_REPORT_SCALE = 1e4

# Importance uses at most this many training rows (a seeded subsample) as
# the attribution background.
BACKGROUND_CAP = 500

# Draws per explained row of the sampled estimator, unless the run
# configures another count: each is one order and one background row, in
# antithetic pairs, so an odd count runs one draw more.
SAMPLED_PERMUTATIONS = 128

# The exact tree kernel works on blocks of leaves and rows whose temporaries
# (rows x leaves x path slots, or leaves x patterns x slots) hold at most
# this many elements each.
_BLOCK_ELEMENTS = 1 << 18

# The sampled estimator hands the model its paths' rows in blocks of at most
# this many input elements (rows x features), where a network's forward
# pass costs least per row; a path of more rows goes alone.
_SAMPLED_BLOCK_ELEMENTS = 25_600

# Longest leaf path (in constrained features) served by the pass-pattern
# tables, which hold 4^K * K weights; longer paths use the pairwise kernel.
_MAX_TABLE_SLOTS = 8


@dataclass(frozen=True)
class Attribution:
    """Per-feature contributions plus the background base value."""

    phi: np.ndarray
    base_value: float
    stderr: np.ndarray | None = None

    def total(self) -> float:
        return float(self.phi.sum() + self.base_value)


@dataclass(frozen=True)
class ImportanceRecord:
    asset: str
    quarter: Quarter
    algo: str
    signal: SignalId
    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError("importance must be finite and >= 0")


Predictor = Callable[[np.ndarray], np.ndarray]


def _as_background(background: np.ndarray, n_features: int) -> np.ndarray:
    Z = np.asarray(background, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] == 0:
        raise ValueError("background must be a nonempty 2-D sample")
    if Z.shape[1] != n_features:
        raise ValueError(
            f"background has {Z.shape[1]} feature columns, the explained rows have {n_features}"
        )
    return Z


def brute_force_shapley(
    f: Predictor,
    x: np.ndarray,
    background: np.ndarray,
) -> Attribution:
    """Exact Shapley values by coalition enumeration (p <= 12)."""
    x = np.asarray(x, dtype=np.float64)
    p = len(x)
    Z = _as_background(background, p)
    if p > MAX_BRUTE_FORCE_FEATURES:
        raise ValueError(f"{p} features: use the sampled method beyond {MAX_BRUTE_FORCE_FEATURES}")

    v = np.empty(1 << p)
    for mask in range(1 << p):
        members = np.array([(mask >> j) & 1 for j in range(p)], dtype=bool)
        spliced = np.where(members, x, Z)
        v[mask] = float(np.mean(f(spliced)))

    weight = [
        float(Fraction(math.factorial(s) * math.factorial(p - s - 1), math.factorial(p)))
        for s in range(p)
    ]
    phi = np.zeros(p)
    for mask in range(1 << p):
        s = bin(mask).count("1")
        for j in range(p):
            if not (mask >> j) & 1:
                phi[j] += weight[s] * (v[mask | (1 << j)] - v[mask])
    return Attribution(phi=phi, base_value=float(v[0]))


def _shapley_weight_tables(max_count: int) -> tuple[np.ndarray, np.ndarray]:
    size = max_count + 1
    only_x = np.zeros((size, size))
    only_z = np.zeros((size, size))
    for a in range(size):
        for b in range(size):
            if a + b > max_count:
                continue
            denom = math.factorial(a + b)
            if a >= 1:
                only_x[a, b] = float(
                    Fraction(math.factorial(a - 1) * math.factorial(b), denom)
                )
            if b >= 1:
                only_z[a, b] = -float(
                    Fraction(math.factorial(a) * math.factorial(b - 1), denom)
                )
    return only_x, only_z


def _pairwise_tree_shap(
    X: np.ndarray,
    Z: np.ndarray,
    feature: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    scale: np.ndarray,
) -> np.ndarray:
    """Leaf-by-leaf kernel over all (explained, background) row pairs, on
    the slot table of ``_leaf_table``.  A padded (-inf, inf] slot passes for
    every row, so it changes no count and adds an exact zero."""
    n, p = X.shape
    m = Z.shape[0]
    phi = np.zeros((n, p))
    w_only_x, w_only_z = _shapley_weight_tables(feature.shape[1])
    for feats, lows, highs, leaf_scale in zip(feature, low, high, scale / m):
        px = (X[:, feats] > lows) & (X[:, feats] <= highs)
        pz = (Z[:, feats] > lows) & (Z[:, feats] <= highs)
        fx = px.astype(np.float64)
        fz = pz.astype(np.float64)
        a = np.rint(fx @ (1.0 - fz).T).astype(np.intp)
        b = np.rint((1.0 - fx) @ fz.T).astype(np.intp)
        alive = ((1.0 - fx) @ (1.0 - fz).T) < 0.5
        gain_x = np.where(alive, w_only_x[a, b], 0.0)
        gain_z = np.where(alive, w_only_z[a, b], 0.0)
        for i, f in enumerate(feats):
            contrib = fx[:, i] * (gain_x @ (1.0 - fz[:, i])) + (
                1.0 - fx[:, i]
            ) * (gain_z @ fz[:, i])
            phi[:, f] += leaf_scale * contrib
    return phi


def _leaf_table(
    model: TreeEnsembleModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(feature, low, high) as L x K slot arrays, plus weight x value per leaf.

    A walk down the stacked node tables gives each child its parent's
    bounds with the split feature narrowed to its side, and skips a child
    whose region is empty.  Leaves that constrain a feature are kept in tree
    order, then preorder, features ascending; K is the longest path, and
    shorter ones are padded with (-inf, inf] slots on feature 0.
    """
    nodes, roots, left, right = stack_tables([tree.table for tree in model.trees])
    feature, threshold = nodes["feature"], nodes["threshold"]
    low = np.full((len(nodes), model.n_features), -np.inf)
    high = np.full_like(low, np.inf)
    used = np.zeros(low.shape, dtype=bool)
    level = roots
    while len(level := level[feature[level] >= 0]):
        f, t = feature[level], threshold[level]
        lo, hi = low[level, f], high[level, f]
        entered = []
        for side, keep, child_lo, child_hi in (
            (left, t > lo, lo, np.where(t < hi, t, hi)),  # (lo, min(hi, t)]
            (right, t < hi, np.where(t > lo, t, lo), hi),  # (max(lo, t), hi]
        ):
            parent, child, split = level[keep], side[level[keep]], f[keep]
            low[child], high[child], used[child] = low[parent], high[parent], used[parent]
            low[child, split], high[child, split] = child_lo[keep], child_hi[keep]
            used[child, split] = True
            entered.append(child)
        level = np.concatenate(entered)

    # a node never reached constrains nothing, like a lone root leaf
    leaf = np.flatnonzero((feature < 0) & used.any(axis=1))
    # each leaf's constrained features first, in ascending order, then padding
    slots = np.argsort(~used[leaf], axis=1, kind="stable")
    slots = slots[:, : used[leaf].sum(axis=1).max(initial=0)]
    pad = ~np.take_along_axis(used[leaf], slots, axis=1)
    return (
        np.where(pad, 0, slots),
        np.where(pad, -np.inf, np.take_along_axis(low[leaf], slots, axis=1)),
        np.where(pad, np.inf, np.take_along_axis(high[leaf], slots, axis=1)),
        np.repeat(model.tree_weights, np.diff(roots, append=len(nodes)))[leaf]
        * nodes["value"][leaf],
    )


@functools.lru_cache(maxsize=None)
def _pattern_weights(k: int) -> np.ndarray:
    """Shapley weight of each (z-pattern, x-pattern, slot) for a k-slot leaf.

    Bit j of a pattern is set iff the row passes slot j.  The result is
    shaped (2^k, 2^k * k): background pattern by (explained pattern, slot).
    """
    only_x, only_z = _shapley_weight_tables(k)
    passes = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1 == 1
    x, z = passes[None, :, :], passes[:, None, :]
    x_side, z_side = x & ~z, ~x & z
    a, b = x_side.sum(axis=-1), z_side.sum(axis=-1)
    alive = ~np.any(~x & ~z, axis=-1)
    weights = np.where(x_side, only_x[a, b][..., None], 0.0) + np.where(
        z_side, only_z[a, b][..., None], 0.0
    )
    weights[~alive] = 0.0
    weights = weights.reshape(1 << k, (1 << k) * k)
    weights.flags.writeable = False
    return weights


def _pass_patterns(
    rows: np.ndarray, feature: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """(rows, leaves) pass patterns of a block of at most 8-slot leaves."""
    v = rows[:, feature]
    passes = (v > low) & (v <= high)
    return np.packbits(passes, axis=-1, bitorder="little")[..., 0].astype(np.intp)


def tree_shap_batch(
    model: TreeEnsembleModel,
    X: np.ndarray,
    background: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Exact interventional attributions for every row of X at once."""
    X = np.asarray(X, dtype=np.float64)
    Z = _as_background(background, X.shape[1])
    base = float(np.mean(predict(model, Z)))
    feature, low, high, scale = _leaf_table(model)
    n_leaves, k = feature.shape
    if k > _MAX_TABLE_SLOTS:
        return _pairwise_tree_shap(X, Z, feature, low, high, scale), base

    n, p = X.shape
    phi = np.zeros((n, p))
    if n_leaves == 0:
        return phi, base
    weights = _pattern_weights(k)
    scale = scale / Z.shape[0]
    # the leaf blocks depend on the model only, so each row's sum runs in the
    # same order whatever the batch; rows are blocked to bound the memory
    leaf_step = max(1, _BLOCK_ELEMENTS // (k << k))
    for l0 in range(0, n_leaves, leaf_step):
        blk = slice(l0, l0 + leaf_step)
        f, lo, hi = feature[blk], low[blk], high[blk]
        n_blk = len(f)
        row_step = max(1, _BLOCK_ELEMENTS // (n_blk * k))
        offsets = np.arange(n_blk) << k
        counts = np.zeros(n_blk << k)
        for r0 in range(0, len(Z), row_step):
            cz = _pass_patterns(Z[r0 : r0 + row_step], f, lo, hi) + offsets
            counts += np.bincount(cz.ravel(), minlength=n_blk << k)
        gain = (counts.reshape(n_blk, 1 << k) @ weights).reshape(n_blk, 1 << k, k)
        gain *= scale[blk, None, None]
        for r0 in range(0, n, row_step):
            cx = _pass_patterns(X[r0 : r0 + row_step], f, lo, hi)
            rows = len(cx)
            bins = f + p * np.arange(rows)[:, None, None]
            values = gain[np.arange(n_blk), cx]
            phi[r0 : r0 + rows] += np.bincount(
                bins.ravel(), weights=values.ravel(), minlength=rows * p
            ).reshape(rows, p)
    return phi, base


def tree_shap(
    model: TreeEnsembleModel,
    x: np.ndarray,
    background: np.ndarray,
) -> Attribution:
    if not isinstance(model, TreeEnsembleModel):
        raise ModelError("tree_shap requires a tree-ensemble model")
    phi, base = tree_shap_batch(model, np.asarray(x, dtype=np.float64)[None, :], background)
    return Attribution(phi=phi[0], base_value=base)


def sampled_shapley(
    f: Predictor,
    x: np.ndarray,
    background: np.ndarray,
    n_permutations: int,
    seed: int,
) -> Attribution:
    """Monte-Carlo Shapley values from ``n_permutations`` draws, in
    antithetic (order, background row) pairs, with per-feature stderr."""
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    p = len(x)
    Z = _as_background(background, p)
    n = -(-n_permutations // 2)
    rng = np.random.default_rng(seed)
    # feature j joins order t at step ranks[t, j]; path n + t is its reverse
    ranks = rng.permuted(np.tile(np.arange(p), (n, 1)), axis=1)
    ranks = np.concatenate([ranks, p - 1 - ranks])
    rows = np.tile(rng.integers(len(Z), size=n), 2)

    fz = f(Z)
    base = float(np.mean(fz))
    tri = np.tri(p, dtype=bool)
    draws = np.empty((2 * n, p))
    step = max(1, _SAMPLED_BLOCK_ELEMENTS // (p * p))
    for t in range(0, 2 * n, step):
        r, z = ranks[t : t + step], rows[t : t + step]
        # (k, path) row: x on the features of rank <= k, the path's z elsewhere
        out = f(np.where(tri[:, r], x, Z[z]).reshape(-1, p)).reshape(p, -1)
        gain = np.diff(out, axis=0, prepend=fz[None, z])
        draws[t : t + step] = gain[r, np.arange(len(r))[:, None]]
    pairs = (draws[:n] + draws[n:]) / 2
    if n > 1:
        stderr = pairs.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        stderr = np.zeros(p)
    return Attribution(phi=pairs.mean(axis=0), base_value=base, stderr=stderr)


# ---------------------------------------------------------------------------
# Per-signal importance
# ---------------------------------------------------------------------------

def lasso_importance(
    model: LinearModel,
    signals: Sequence[SignalId],
    asset: str,
    quarter: Quarter,
) -> list[ImportanceRecord]:
    """|coefficient| per signal for linear fits on standardized inputs."""
    if not isinstance(model, LinearModel):
        raise ModelError("coefficient importance requires a linear model")
    if len(signals) != model.n_features:
        raise ModelError("signal list does not match model features")
    return [
        ImportanceRecord(asset, quarter, model.algo, sig, float(abs(c)))
        for sig, c in zip(signals, model.coef)
    ]


def _background_sample(values: np.ndarray, seed: int) -> np.ndarray:
    if len(values) <= BACKGROUND_CAP:
        return values
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(values), size=BACKGROUND_CAP, replace=False))
    return values[idx]


def mean_abs_importance(
    model,
    block: SignalBlock,
    asset: str,
    quarter: Quarter,
    n_permutations: int = SAMPLED_PERMUTATIONS,
    seed: int = 0,
) -> list[ImportanceRecord]:
    """Mean |attribution| per signal over all training rows of a block.

    The fitted model picks the method: exact interventional values for a
    tree ensemble, the sampled estimator (``n_permutations`` draws per row)
    for a network.  The background is the training block itself,
    subsampled (seeded) past ``BACKGROUND_CAP`` rows.
    """
    if block.n_rows == 0:
        raise ValueError("empty training block")
    background = _background_sample(block.values, seed)
    if isinstance(model, TreeEnsembleModel):
        phi, _ = tree_shap_batch(model, block.values, background)
    elif isinstance(model, NeuralNetModel):
        # standardization is elementwise, so scaling once before splicing
        # gives the same bits as predict() scaling every spliced matrix
        X = model._inputs(block.values)
        Z = model._inputs(background)
        phi = np.array(
            [
                sampled_shapley(model._predict, X[i], Z, n_permutations, seed + i).phi
                for i in range(block.n_rows)
            ]
        )
    else:
        raise ModelError("Shapley importance requires a tree-ensemble or network model")
    mean_abs = np.abs(phi).mean(axis=0)
    return [
        ImportanceRecord(asset, quarter, model.algo, sig, float(v))
        for sig, v in zip(block.columns, mean_abs)
    ]
