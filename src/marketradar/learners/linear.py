"""Least squares and coordinate-descent L1/L2 regression.

The lasso/elastic-net solver minimizes

    (1/2n) * ||y - b - X beta||^2 + alpha * (r*||beta||_1 + (1-r)/2*||beta||^2)

with an unpenalized intercept b, by cyclic coordinate descent on centered
data.  Convergence is declared when no coefficient moves by more than
``tol`` in a full sweep; hitting the sweep cap raises instead of returning
a silent partial fit.
"""
from __future__ import annotations

import numpy as np

from ..errors import MarketRadarError
from ..panel import StandardizationStats
from .base import LinearModel, ModelError
from .params import ElasticNetParams, LassoParams

CD_TOL = 1e-7
CD_MAX_SWEEPS = 100_000


class ConvergenceError(MarketRadarError, RuntimeError):
    pass


def _as_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != len(y):
        raise ModelError("X must be (n, p) and y (n,) with matching n")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ModelError("non-finite training inputs")
    return X, y


def fit_ols(
    X: np.ndarray,
    y: np.ndarray,
    stats: StandardizationStats | None = None,
) -> LinearModel:
    """Least squares with intercept; min-norm (flagged) when rank deficient."""
    X, y = _as_xy(X, y)
    n, p = X.shape
    if n < p + 1:
        raise ModelError(f"underdetermined: {n} rows for {p} features")
    design = np.column_stack([np.ones(n), X])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(
        algo="ols",
        n_features=p,
        stats=stats,
        intercept=float(beta[0]),
        coef=beta[1:],
        rank_deficient=bool(rank < p + 1),
    )


def _coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    l1: float,
    l2: float,
    tol: float = CD_TOL,
    max_sweeps: int = CD_MAX_SWEEPS,
) -> tuple[float, np.ndarray]:
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    col_ss = (Xc * Xc).sum(axis=0) / n

    beta = np.zeros(p)
    resid = yc.copy()
    for _ in range(max_sweeps):
        max_step = 0.0
        for j in range(p):
            if col_ss[j] == 0.0:
                continue
            xj = Xc[:, j]
            rho = (xj @ resid) / n + col_ss[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - l1, 0.0) / (col_ss[j] + l2)
            if new != beta[j]:
                resid -= xj * (new - beta[j])
                max_step = max(max_step, abs(new - beta[j]))
                beta[j] = new
        if max_step < tol:
            break
    else:
        raise ConvergenceError(f"coordinate descent did not converge in {max_sweeps} sweeps")
    intercept = y_mean - x_mean @ beta
    return float(intercept), beta


def _fit_penalized(
    X: np.ndarray,
    y: np.ndarray,
    params: LassoParams | ElasticNetParams,
    l1: float,
    l2: float,
    algo: str,
    stats: StandardizationStats | None,
) -> LinearModel:
    """Validate, solve by coordinate descent with penalties ``l1``/``l2``,
    and wrap the fit; lasso is the elastic net with ``l2 = 0``."""
    X, y = _as_xy(X, y)
    params.validate()
    intercept, beta = _coordinate_descent(X, y, l1=l1, l2=l2)
    return LinearModel(
        algo=algo,
        n_features=X.shape[1],
        stats=stats,
        hyper=params,
        intercept=intercept,
        coef=beta,
    )


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    stats: StandardizationStats | None = None,
) -> LinearModel:
    return _fit_penalized(X, y, LassoParams(alpha=alpha), alpha, 0.0, "lasso", stats)


def fit_elastic_net(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    l1_ratio: float,
    stats: StandardizationStats | None = None,
) -> LinearModel:
    params = ElasticNetParams(alpha=alpha, l1_ratio=l1_ratio)
    return _fit_penalized(
        X, y, params, alpha * l1_ratio, alpha * (1.0 - l1_ratio), "enet", stats
    )


def lasso_kkt_gap(model: LinearModel, X: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """Worst stationarity-condition violation of a lasso fit.

    For zero coefficients the subgradient condition is |x_j'r/n| <= alpha;
    for active ones x_j'r/n = alpha * sign(beta_j).  Inputs are centered the
    same way the solver centers them.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    Xc = X - X.mean(axis=0)
    resid = (y - y.mean()) - Xc @ model.coef
    grad = Xc.T @ resid / n
    gap = 0.0
    for j, b in enumerate(model.coef):
        if b == 0.0:
            gap = max(gap, abs(grad[j]) - alpha)
        else:
            gap = max(gap, abs(grad[j] - alpha * np.sign(b)))
    return gap
