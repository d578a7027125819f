"""Fitted-model containers, prediction, and exact-round-trip serialization.

All learners produce one of three container types.  Standardization stats
travel with the model when the learner was trained on scaled inputs, so
``predict`` can always be fed raw feature rows.  Tree models keep each tree
as one preorder node table (feature, threshold, children, leaf value, sample
count), the node list of the model JSON, to support exact attribution
downstream.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import MarketRadarError
from ..panel import StandardizationStats
from . import params as hp


class ModelError(MarketRadarError, ValueError):
    pass


# A tree is a node table: a row per node in preorder, with the columns of the
# model JSON's node list; a leaf has feature, left and right -1.
NODE_DTYPE = np.dtype([
    ("feature", np.intp), ("threshold", np.float64), ("left", np.intp),
    ("right", np.intp), ("value", np.float64), ("n", np.int64),
])


def stack_tables(tables: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The node tables as one, the row of each table's root in it, and the
    left and right child rows of each row, a leaf being both of its own."""
    sizes = np.array([len(table) for table in tables])
    roots = np.cumsum(sizes) - sizes
    nodes = np.concatenate(tables)
    offset = roots.repeat(sizes)
    left, right = nodes["left"] + offset, nodes["right"] + offset
    leaf = np.flatnonzero(nodes["feature"] < 0)
    left[leaf] = right[leaf] = leaf
    return nodes, roots, left, right


def leaf_values(tables: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    """(rows, trees): each tree's leaf value for each row of X.  All rows
    descend all trees at once, one level per step, going left where x <=
    threshold; a leaf is its own child, so the walk ends when every row is
    at a leaf of every tree."""
    nodes, roots, left, right = stack_tables(tables)
    leaf = nodes["feature"] < 0
    feature, threshold = np.where(leaf, 0, nodes["feature"]), nodes["threshold"]
    rows, node = np.arange(X.shape[0])[:, None], roots + np.zeros((X.shape[0], 1), dtype=np.intp)
    while not leaf[node].all():
        node = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
    return nodes["value"][node]


@dataclass(frozen=True, eq=False)
class TreeNode:
    """Read-only view of one row of a node table: feature (-1 marks a leaf),
    threshold, value, n_samples, and child views (None below a leaf)."""

    table: np.ndarray
    row: int = 0

    feature = property(lambda node: int(node.table["feature"][node.row]))
    threshold = property(lambda node: float(node.table["threshold"][node.row]))
    value = property(lambda node: float(node.table["value"][node.row]))
    n_samples = property(lambda node: int(node.table["n"][node.row]))
    is_leaf = property(lambda node: node.feature < 0)
    left = property(lambda node: node._child("left"))
    right = property(lambda node: node._child("right"))

    def _child(self, side: str) -> Optional["TreeNode"]:
        return None if self.is_leaf else TreeNode(self.table, int(self.table[side][self.row]))


@dataclass(eq=False)
class TrainedModel:
    algo: str
    n_features: int
    stats: StandardizationStats | None = None
    seed: int | None = None
    hyper: object | None = None

    def _inputs(self, X: np.ndarray) -> np.ndarray:
        """Shape-checked, standardized rows: the input of ``_predict``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(
                f"expected {self.n_features} feature columns, got shape {X.shape}"
            )
        return self.stats.transform(X) if self.stats is not None else X


@dataclass(eq=False)
class LinearModel(TrainedModel):
    intercept: float = 0.0
    coef: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rank_deficient: bool = False

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self.intercept + X @ self.coef


@dataclass(eq=False)
class TreeEnsembleModel(TrainedModel):
    trees: list[TreeNode] = field(default_factory=list)
    tree_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    base: float = 0.0

    def stages(self, X: np.ndarray) -> np.ndarray:
        """(rows, 1 + trees): the base, then the prediction after each tree,
        its weighted value added in tree order."""
        terms = leaf_values([tree.table for tree in self.trees], X) * self.tree_weights
        return np.cumsum(np.column_stack([np.full(X.shape[0], self.base), terms]), axis=1)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self.stages(X)[:, -1]


@dataclass(eq=False)
class NeuralNetModel(TrainedModel):
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)
    activation: str = "relu"

    def _predict(self, X: np.ndarray) -> np.ndarray:
        a = X
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ W
            a += b
            if i < len(self.weights) - 1:
                np.maximum(a, 0.0, out=a)
        return a[:, 0]


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Apply the model's stored standardization (if any), then its fit."""
    if np.asarray(X).ndim == 1:
        raise ModelError("predict expects a 2-D feature matrix")
    return model._predict(model._inputs(X))


# ---------------------------------------------------------------------------
# Serialization: self-describing JSON with shortest-round-trip floats, so a
# dump/load cycle reproduces the fitted state bit for bit.
# ---------------------------------------------------------------------------

def _stats_to_obj(stats: StandardizationStats | None):
    if stats is None:
        return None
    return {"mean": stats.mean.tolist(), "sd": stats.sd.tolist()}


def _stats_from_obj(obj) -> StandardizationStats | None:
    if obj is None:
        return None
    return StandardizationStats(
        mean=np.array(obj["mean"], dtype=np.float64),
        sd=np.array(obj["sd"], dtype=np.float64),
    )


def _hyper_to_obj(hyper) -> dict | None:
    if hyper is None:
        return None
    return {"algo_params": dataclasses.asdict(hyper)}


def model_to_json(model: TrainedModel) -> str:
    doc: dict = {
        "format": "marketradar-model-v1",
        "algo": model.algo,
        "n_features": model.n_features,
        "seed": model.seed,
        "stats": _stats_to_obj(model.stats),
        "hyper": _hyper_to_obj(model.hyper),
    }
    if isinstance(model, LinearModel):
        doc["kind"] = "linear"
        doc["intercept"] = model.intercept
        doc["coef"] = model.coef.tolist()
        doc["rank_deficient"] = model.rank_deficient
    elif isinstance(model, TreeEnsembleModel):
        doc["kind"] = "trees"
        doc["base"] = model.base
        doc["tree_weights"] = model.tree_weights.tolist()
        doc["trees"] = [[dict(zip(NODE_DTYPE.names, r)) for r in t.table.tolist()] for t in model.trees]
    elif isinstance(model, NeuralNetModel):
        doc["kind"] = "nn"
        doc["activation"] = model.activation
        doc["weights"] = [w.tolist() for w in model.weights]
        doc["biases"] = [b.tolist() for b in model.biases]
    else:
        raise ModelError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> TrainedModel:
    doc = json.loads(text)
    if doc.get("format") != "marketradar-model-v1":
        raise ModelError("unrecognized model document")
    hyper = None
    if doc.get("hyper") is not None:
        hyper = hp.params_from_mapping(doc["algo"], doc["hyper"]["algo_params"])
    common = dict(
        algo=doc["algo"],
        n_features=int(doc["n_features"]),
        stats=_stats_from_obj(doc["stats"]),
        seed=doc["seed"],
        hyper=hyper,
    )
    kind = doc["kind"]
    if kind == "linear":
        return LinearModel(
            intercept=float(doc["intercept"]),
            coef=np.array(doc["coef"], dtype=np.float64),
            rank_deficient=bool(doc["rank_deficient"]),
            **common,
        )
    if kind == "trees":
        trees = []
        for nodes in doc["trees"]:
            table = np.array([tuple(n[c] for c in NODE_DTYPE.names) for n in nodes], NODE_DTYPE)
            # every row but the root must be the child of one earlier row
            inner = np.flatnonzero(table["feature"] >= 0)
            children = np.concatenate([table["left"][inner], table["right"][inner]])
            if not len(table) or np.any(children <= np.tile(inner, 2)) or not np.array_equal(
                np.sort(children), np.arange(1, len(table))
            ):
                raise ModelError("tree nodes must have one parent each, in an earlier row")
            trees.append(TreeNode(table))
        return TreeEnsembleModel(
            base=float(doc["base"]),
            tree_weights=np.array(doc["tree_weights"], dtype=np.float64),
            trees=trees,
            **common,
        )
    if kind == "nn":
        return NeuralNetModel(
            activation=doc["activation"],
            weights=[np.array(w, dtype=np.float64) for w in doc["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in doc["biases"]],
            **common,
        )
    raise ModelError(f"unknown model kind {kind!r}")
