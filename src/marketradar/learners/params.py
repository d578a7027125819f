"""Hyperparameter sets for each learner family.

Field names follow the common library conventions.  Fractional fields
(`max_samples`, `subsample`, `max_features`) are fractions of rows/features,
all in (0, 1].  Defaults here are package defaults; tuned values are meant
to come from config files produced by the tuning protocol.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import MarketRadarError


class HyperparameterError(MarketRadarError, ValueError):
    pass


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise HyperparameterError(msg)


@dataclass(frozen=True)
class OlsParams:
    def validate(self) -> None:
        pass


@dataclass(frozen=True)
class LassoParams:
    alpha: float = 1e-4

    def validate(self) -> None:
        _check(self.alpha >= 0, "alpha must be >= 0")


@dataclass(frozen=True)
class ElasticNetParams:
    alpha: float = 1e-4
    l1_ratio: float = 0.5

    def validate(self) -> None:
        _check(self.alpha >= 0, "alpha must be >= 0")
        _check(0.0 <= self.l1_ratio <= 1.0, "l1_ratio must be in [0, 1]")


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 100
    max_depth: int = 6
    min_samples_leaf: int = 5
    max_samples: float = 0.5
    max_features: float = 0.34

    def validate(self) -> None:
        _check(self.n_estimators >= 1, "n_estimators must be >= 1")
        _check(self.max_depth >= 1, "max_depth must be >= 1")
        _check(self.min_samples_leaf >= 1, "min_samples_leaf must be >= 1")
        _check(0.0 < self.max_samples <= 1.0, "max_samples must be in (0, 1]")
        _check(0.0 < self.max_features <= 1.0, "max_features must be in (0, 1]")


@dataclass(frozen=True)
class BoostParams:
    n_estimators: int = 100
    max_depth: int = 3
    min_samples_leaf: int = 5
    learning_rate: float = 0.1
    subsample: float = 0.8
    max_features: float = 0.5

    def validate(self) -> None:
        _check(self.n_estimators >= 1, "n_estimators must be >= 1")
        _check(self.max_depth >= 1, "max_depth must be >= 1")
        _check(self.min_samples_leaf >= 1, "min_samples_leaf must be >= 1")
        _check(self.learning_rate >= 0, "learning_rate must be >= 0")
        _check(0.0 < self.subsample <= 1.0, "subsample must be in (0, 1]")
        _check(0.0 < self.max_features <= 1.0, "max_features must be in (0, 1]")


@dataclass(frozen=True)
class NetParams:
    epochs: int = 30
    batch_size: int = 32
    n_layers: int = 2
    n_neurons: int = 16
    learning_rate: float = 1e-3
    l1: float = 1e-5

    def validate(self) -> None:
        _check(self.epochs >= 1, "epochs must be >= 1")
        _check(self.batch_size >= 1, "batch_size must be >= 1")
        _check(self.n_layers >= 1, "n_layers must be >= 1")
        _check(self.n_neurons >= 1, "n_neurons must be >= 1")
        _check(self.learning_rate > 0, "learning_rate must be > 0")
        _check(self.l1 >= 0, "l1 must be >= 0")


PARAM_TYPES: dict[str, type] = {
    "ols": OlsParams,
    "lasso": LassoParams,
    "enet": ElasticNetParams,
    "rf": ForestParams,
    "gb": BoostParams,
    "nn": NetParams,
}

ALGORITHMS = tuple(PARAM_TYPES)


def default_params(algo: str):
    try:
        return PARAM_TYPES[algo]()
    except KeyError:
        raise HyperparameterError(f"unknown algorithm {algo!r}") from None


def params_from_mapping(algo: str, mapping: dict):
    """Build a params value from string/float config entries, coercing ints."""
    cls = PARAM_TYPES.get(algo)
    if cls is None:
        raise HyperparameterError(f"unknown algorithm {algo!r}")
    kwargs = {}
    by_name = {f.name: f for f in dataclasses.fields(cls)}
    for key, value in mapping.items():
        f = by_name.get(key)
        if f is None:
            raise HyperparameterError(f"{algo} has no hyperparameter {key!r}")
        kwargs[key] = int(round(float(value))) if f.type == "int" else float(value)
    params = cls(**kwargs)
    params.validate()
    return params
