"""Least squares and coordinate-descent L1/L2 regression.

The lasso/elastic-net solver minimizes, for each target y,

    (1/2n) * ||y - b - X beta||^2 + alpha * (r*||beta||_1 + (1-r)/2*||beta||^2)

with an unpenalized intercept b, by cyclic coordinate descent on centered
data.  Targets that share a design matrix are solved together as the rows of
one (targets x n) block, each row under its own penalties: each coordinate
step is one array operation over the rows still moving, and every reduction
runs along a row with the dot product a lone target takes, so a target's fit
is bit for bit the same whichever other targets share its block.  A target
freezes once none of its coefficients moves by more than ``CD_TOL`` in a full
sweep.  A target still
moving at the sweep cap fails alone: its slot holds a ConvergenceError and
the other targets keep their fits.  ``fit_lasso`` and ``fit_elastic_net``
are the one-target case and raise that error instead of returning a silent
partial fit.
"""
from __future__ import annotations

from typing import Sequence

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
    """Float arrays; ``y`` is one target (n,) or a block of them (targets, n)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim not in (1, 2) or X.shape[0] != y.shape[-1]:
        raise ModelError("X must be (n, p) and y (n,) or (targets, n) with matching n")
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
    if y.ndim != 1:
        raise ModelError("ols fits one target")
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
    Y: np.ndarray,
    l1: np.ndarray,
    l2: np.ndarray,
    max_sweeps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intercepts (targets,), coefficients (targets, p) and a converged mask
    (targets,) of every row of ``Y`` regressed on ``X`` under its own
    penalties ``l1[t]`` and ``l2[t]``."""
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=1)
    Xc = X - x_mean
    col_ss = (Xc * Xc).sum(axis=0) / n
    # Per nonconstant column: the column itself, whose strides give the dot
    # product a lone target's 1-D ``xj @ resid`` takes, and a contiguous copy
    # for the residual update, whose elementwise products are the same.
    columns = [(j, Xc[:, j], Xc[:, j].copy(), col_ss[j]) for j in np.flatnonzero(col_ss)]

    coef = np.zeros((len(Y), p))
    converged = np.zeros(len(Y), dtype=bool)
    # the rows still moving: their target indices, residuals (rows x n),
    # coefficients (p x rows, so one coordinate of every row is contiguous),
    # l1 thresholds and per-column denominators ss_j + l2 (columns x rows)
    todo = np.arange(len(Y))
    resid = Y - y_mean[:, None]
    beta = np.zeros((p, len(Y)))
    denom = np.array([ss + l2 for *_, ss in columns]).reshape(len(columns), len(Y))
    for _ in range(max_sweeps):
        if not len(todo):
            break
        steps = np.zeros((len(columns), len(todo)))
        for (j, xj, xj_dense, ss), step, ss_l2 in zip(columns, steps, denom):
            bj = beta[j]
            rho = np.vecdot(resid, xj) / n + ss * bj
            # soft threshold: m >= 0 is 0 whenever rho is, so copysign(m, rho)
            # is sign(rho) * m bit for bit, signed zeros included
            new = np.copysign(np.maximum(np.abs(rho) - l1, 0.0), rho) / ss_l2
            np.subtract(new, bj, out=step)
            if step.any():
                resid -= step[:, None] * xj_dense
                np.copyto(bj, new, where=step != 0.0)
        done = np.abs(steps).max(axis=0, initial=0.0) < CD_TOL
        if done.any():
            coef[todo[done]] = beta[:, done].T
            converged[todo[done]] = True
            moving = ~done
            todo, resid, beta = todo[moving], resid[moving], beta[:, moving]
            l1, denom = l1[moving], denom[:, moving]
    intercept = y_mean - np.vecdot(coef, x_mean)
    return intercept, coef, converged


def _penalties(params: LassoParams | ElasticNetParams) -> tuple[str, float, float]:
    """Algorithm name, l1 and l2 weights; lasso is the elastic net with l2 = 0."""
    if isinstance(params, ElasticNetParams):
        return "enet", params.alpha * params.l1_ratio, params.alpha * (1.0 - params.l1_ratio)
    return "lasso", params.alpha, 0.0


def fit_penalized_targets(
    X: np.ndarray,
    Y: np.ndarray,
    params: Sequence[LassoParams | ElasticNetParams],
    stats: StandardizationStats | None = None,
) -> list[LinearModel | ConvergenceError]:
    """One fit per row of ``Y`` on the shared design ``X``, in row order:
    lasso where that row's ``params`` entry is ``LassoParams``, elastic net
    where it is ``ElasticNetParams``.  A row still moving after
    ``CD_MAX_SWEEPS`` sweeps gets a ConvergenceError in its slot."""
    X, Y = _as_xy(X, Y)
    if Y.ndim != 2 or len(params) != len(Y):
        raise ModelError("Y must be (targets, n) with one params entry per target")
    penalties = [_penalties(hyper) for hyper in params]
    l1 = np.array([pen[1] for pen in penalties], dtype=np.float64)
    l2 = np.array([pen[2] for pen in penalties], dtype=np.float64)
    max_sweeps = CD_MAX_SWEEPS
    intercepts, coefs, converged = _coordinate_descent(X, Y, l1, l2, max_sweeps)
    return [
        LinearModel(
            algo=algo,
            n_features=X.shape[1],
            stats=stats,
            hyper=hyper,
            intercept=float(b),
            coef=beta,
        )
        if ok
        else ConvergenceError(f"coordinate descent did not converge in {max_sweeps} sweeps")
        for (algo, _, _), hyper, b, beta, ok in zip(
            penalties, params, intercepts, coefs, converged
        )
    ]


def _fit_one(X, y, params, stats) -> LinearModel:
    if np.ndim(y) != 1:
        raise ModelError("y must be (n,)")
    (fit,) = fit_penalized_targets(X, np.asarray(y)[None, :], [params], stats)
    if isinstance(fit, ConvergenceError):
        raise fit
    return fit


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    stats: StandardizationStats | None = None,
) -> LinearModel:
    return _fit_one(X, y, LassoParams(alpha=alpha), stats)


def fit_elastic_net(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    l1_ratio: float,
    stats: StandardizationStats | None = None,
) -> LinearModel:
    return _fit_one(X, y, ElasticNetParams(alpha=alpha, l1_ratio=l1_ratio), stats)


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
    coef = model.coef
    gaps = np.where(coef == 0.0, np.abs(grad) - alpha, np.abs(grad - alpha * np.sign(coef)))
    return float(gaps.max(initial=0.0))
