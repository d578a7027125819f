"""Minimal feedforward regression network trained with Adam.

Architecture: ``n_layers`` hidden layers of ``n_neurons`` rectified units
and a linear scalar output.  The loss is batch MSE plus an L1 penalty on
the weight matrices (biases unpenalized).  Initialization, shuffling, and
therefore the fitted state are fully determined by the seed.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import MarketRadarError
from ..panel import StandardizationStats
from .base import ModelError, NeuralNetModel
from .params import NetParams

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(MarketRadarError, RuntimeError):
    # ``step`` stays the only argument, so the error survives pickling, as
    # anything crossing a process boundary must.
    def __init__(self, step: int):
        super().__init__(step)
        self.step = step

    def __str__(self) -> str:
        return f"non-finite loss at training step {self.step}"


def init_layers(
    sizes: list[int], rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    l1: float,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Batch loss and exact gradients for every weight matrix and bias."""
    n_layers = len(weights)
    acts = [X]
    a = X
    for i in range(n_layers):
        z = a @ weights[i] + biases[i]
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z
        acts.append(a)
    pred = acts[-1][:, 0]
    err = pred - y
    loss = float(np.mean(err**2)) + l1 * sum(float(np.abs(W).sum()) for W in weights)

    grad_w: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    grad_b: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    delta = (2.0 / len(y)) * err[:, None]
    for i in range(n_layers - 1, -1, -1):
        grad_w[i] = acts[i].T @ delta + l1 * np.sign(weights[i])
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (acts[i] > 0.0)
    return loss, grad_w, grad_b


def fit_nn(
    X: np.ndarray,
    y: np.ndarray,
    params: NetParams,
    seed: int,
    stats: StandardizationStats | None = None,
) -> NeuralNetModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ModelError("X must be (n, p) with matching y")
    n, p = X.shape
    rng = np.random.default_rng(seed)
    sizes = [p] + [params.n_neurons] * params.n_layers + [1]
    weights, biases = init_layers(sizes, rng)

    # Adam moments, one pair per trained array: every weight, then every bias
    trained = weights + biases
    m = [np.zeros_like(a) for a in trained]
    v = [np.zeros_like(a) for a in trained]

    step = 0
    for _ in range(params.epochs):
        order = rng.permutation(n)
        for start in range(0, n, params.batch_size):
            batch = order[start : start + params.batch_size]
            step += 1
            # an overflow here surfaces as the non-finite loss checked below
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grad_w, grad_b = loss_and_grads(
                    weights, biases, X[batch], y[batch], params.l1
                )
            if not math.isfinite(loss):
                raise TrainingDiverged(step)
            corr1 = 1.0 - ADAM_BETA1**step
            corr2 = 1.0 - ADAM_BETA2**step
            for i, g in enumerate(grad_w + grad_b):
                m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g**2
                # in place, so ``weights`` and ``biases`` see the update
                trained[i] -= params.learning_rate * (m[i] / corr1) / (
                    np.sqrt(v[i] / corr2) + ADAM_EPS
                )

    return NeuralNetModel(
        algo="nn",
        n_features=p,
        stats=stats,
        seed=seed,
        hyper=params,
        weights=weights,
        biases=biases,
        activation="relu",
    )
