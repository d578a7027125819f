"""Fitted-model containers, prediction, and exact-round-trip serialization.

All learners produce one of three container types.  Standardization stats
travel with the model when the learner was trained on scaled inputs, so
``predict`` can always be fed raw feature rows.  Tree models keep their full
node structure (feature, threshold, children, leaf value, sample count) to
support exact attribution downstream.
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


@dataclass(eq=False)
class TreeNode:
    """Binary regression tree node; feature == -1 marks a leaf."""

    feature: int
    threshold: float
    left: Optional["TreeNode"]
    right: Optional["TreeNode"]
    value: float
    n_samples: int

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        self._fill(X, np.arange(X.shape[0]), out)
        return out

    def _fill(self, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
        if self.is_leaf:
            out[idx] = self.value
            return
        go_left = X[idx, self.feature] <= self.threshold
        self.left._fill(X, idx[go_left], out)
        self.right._fill(X, idx[~go_left], out)


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

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[0], self.base)
        for w, tree in zip(self.tree_weights, self.trees):
            out += w * tree.predict(X)
        return out


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


def _tree_to_nodes(root: TreeNode) -> list[dict]:
    nodes: list[dict] = []

    def walk(node: TreeNode) -> int:
        my_id = len(nodes)
        nodes.append({})
        left = walk(node.left) if node.left is not None else -1
        right = walk(node.right) if node.right is not None else -1
        nodes[my_id] = {
            "feature": node.feature,
            "threshold": node.threshold,
            "left": left,
            "right": right,
            "value": node.value,
            "n": node.n_samples,
        }
        return my_id

    walk(root)
    return nodes


def _tree_from_nodes(nodes: list[dict]) -> TreeNode:
    def build(i: int) -> TreeNode:
        rec = nodes[i]
        return TreeNode(
            feature=int(rec["feature"]),
            threshold=float(rec["threshold"]),
            left=build(rec["left"]) if rec["left"] >= 0 else None,
            right=build(rec["right"]) if rec["right"] >= 0 else None,
            value=float(rec["value"]),
            n_samples=int(rec["n"]),
        )

    return build(0)


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
        doc["trees"] = [_tree_to_nodes(t) for t in model.trees]
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
        return TreeEnsembleModel(
            base=float(doc["base"]),
            tree_weights=np.array(doc["tree_weights"], dtype=np.float64),
            trees=[_tree_from_nodes(nodes) for nodes in doc["trees"]],
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
