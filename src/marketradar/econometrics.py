"""Out-of-sample fit measures, robust/clustered OLS, fixed effects, and
the lag-decay window solver.

Out-of-sample R2 is computed without demeaning: 1 - SS(err)/SS(realized).
Cluster-robust covariances use the CR1 small-sample factor
G/(G-1) * (n-1)/(n-p); heteroskedasticity-robust ones use HC1's n/(n-p).
"""
from __future__ import annotations

import datetime as dt
import math
import sys
from dataclasses import dataclass, replace
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import MarketRadarError
from .trading_calendar import Quarter


class RegressionError(MarketRadarError, ValueError):
    pass


@dataclass(frozen=True)
class RegressionResult:
    names: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray
    t: np.ndarray
    pvalues: np.ndarray
    r2: float
    adj_r2: float
    n: int
    se_type: str

    def __getitem__(self, name: str) -> tuple[float, float]:
        """(coefficient, t-statistic) for a named regressor."""
        i = self.names.index(name)
        return float(self.coef[i]), float(self.t[i])


def r2_oos(realized: np.ndarray, predicted: np.ndarray) -> float:
    """1 - SS(forecast error)/SS(realized), no demeaning."""
    r = np.asarray(realized, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if r.shape != p.shape or r.ndim != 1 or len(r) < 1:
        raise RegressionError("realized/predicted must be equal-length vectors")
    denom = float(np.sum(r * r))
    if denom == 0.0:
        raise RegressionError("undefined denominator: all realized returns are zero")
    return 1.0 - float(np.sum((r - p) ** 2)) / denom


@dataclass(frozen=True)
class R2Record:
    asset: str
    quarter: Quarter
    algo: str
    value: float


@dataclass
class AlgoR2Stats:
    n: int
    fraction_positive: float
    percentiles: dict[int, float]
    mean_positive: float | None


@dataclass
class R2Summary:
    per_algo: dict[str, AlgoR2Stats]
    union_fraction: float
    percentile_levels: tuple[int, ...]


R2_PERCENTILES = (99, 95, 90, 75, 50, 25, 10, 5)


def summarize_r2(records: Sequence[R2Record], algos: Sequence[str]) -> R2Summary:
    """Fraction positive / distribution per algorithm, plus the union share
    of stock-quarters positive under at least one algorithm."""
    per_algo: dict[str, AlgoR2Stats] = {}
    for algo in algos:
        vals = np.array([r.value for r in records if r.algo == algo])
        if len(vals) == 0:
            per_algo[algo] = AlgoR2Stats(0, 0.0, {q: math.nan for q in R2_PERCENTILES}, None)
            continue
        positives = vals[vals > 0]
        per_algo[algo] = AlgoR2Stats(
            n=len(vals),
            fraction_positive=float(len(positives)) / len(vals),
            percentiles={q: float(np.percentile(vals, q)) for q in R2_PERCENTILES},
            mean_positive=float(positives.mean()) if len(positives) else None,
        )
    algo_set = set(algos)
    keys = {(r.asset, r.quarter) for r in records if r.algo in algo_set}
    positive_keys = {
        (r.asset, r.quarter) for r in records if r.algo in algo_set and r.value > 0
    }
    union = len(positive_keys) / len(keys) if keys else 0.0
    return R2Summary(per_algo=per_algo, union_fraction=union, percentile_levels=R2_PERCENTILES)


def positive_r2_keys(records: Sequence[R2Record]) -> set[tuple[str, Quarter, str]]:
    return {(r.asset, r.quarter, r.algo) for r in records if r.value > 0}


def _design(y, X, names, add_intercept):
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        X = X.reshape(len(y), 0)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise RegressionError("X must be (n, p) aligned with y")
    if names is None:
        names = [f"x{j}" for j in range(X.shape[1])]
    if add_intercept:
        X = np.column_stack([np.ones(len(y)), X])
        names = ["const"] + list(names)
    return y, X, tuple(names)


def ols(
    y: np.ndarray,
    X: np.ndarray,
    names: Sequence[str] | None = None,
    se: str = "classic",
    clusters: Sequence[Hashable] | None = None,
    add_intercept: bool = True,
) -> RegressionResult:
    """OLS with classic, HC1-robust, or one-way cluster-robust (CR1) errors."""
    y, D, names = _design(y, X, names, add_intercept)
    n, p = D.shape
    if n <= p:
        raise RegressionError(f"need n > p, got n={n}, p={p}")
    gram = D.T @ D
    if np.linalg.matrix_rank(gram) < p:
        raise RegressionError("singular design matrix")
    bread = np.linalg.inv(gram)
    beta = bread @ (D.T @ y)
    resid = y - D @ beta
    se_vec, tstats, pvals = _inference(D, resid, beta, bread, n - p, se, clusters)

    if add_intercept:
        sst = float(np.sum((y - y.mean()) ** 2))
        df0 = 1
    else:
        sst = float(np.sum(y * y))
        df0 = 0
    r2, adj = _r2(float(resid @ resid), sst, n, df0, n - p)
    return RegressionResult(
        names=names,
        coef=beta,
        se=se_vec,
        t=tstats,
        pvalues=pvals,
        r2=r2,
        adj_r2=adj,
        n=n,
        se_type=se,
    )


def _inference(D, resid, beta, bread, dof, se, clusters):
    """Standard errors, t-statistics and two-sided p-values of ``beta``
    fitted on design ``D``.  ``dof`` is n minus every estimated parameter,
    absorbed fixed effects included; it sets the classic variance, the
    HC1 factor n/dof and the CR1 factor G/(G-1) * (n-1)/dof."""
    # Imported here: only regressions need scipy, so the synth, radar and
    # tune steps start without loading it.
    from scipy.special import stdtr

    n, p = D.shape
    if se == "classic":
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * bread
    elif se == "hc1":
        scored = D * resid[:, None]
        cov = bread @ (scored.T @ scored) @ bread * (n / dof)
    elif se == "cluster":
        if clusters is None or len(clusters) != n:
            raise RegressionError("cluster keys must align with rows")
        groups: dict[Hashable, list[int]] = {}
        for i, key in enumerate(clusters):
            groups.setdefault(key, []).append(i)
        G = len(groups)
        if G < 2:
            raise RegressionError("need at least 2 clusters")
        meat = np.zeros((p, p))
        for idx in groups.values():
            s = D[idx].T @ resid[idx]
            meat += np.outer(s, s)
        factor = (G / (G - 1)) * ((n - 1) / dof)
        cov = bread @ meat @ bread * factor
    else:
        raise RegressionError(f"unknown se type {se!r}")

    se_vec = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = np.where(se_vec > 0, beta / np.where(se_vec > 0, se_vec, 1.0), np.inf * np.sign(beta))
    # 2 * scipy.stats.t.sf(|t|, dof) bit for bit, without importing scipy.stats
    pvals = 2.0 * stdtr(max(dof, 1), -np.abs(tstats))
    return se_vec, tstats, pvals


def _r2(ssr: float, sst: float, n: int, df0: int, dof: int) -> tuple[float, float]:
    """R2 and adjusted R2; ``df0`` is 1 when the model has an intercept."""
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return r2, 1.0 - (1.0 - r2) * (n - df0) / dof


def rf_vector(rf: Mapping[dt.date, float] | float, dates: Sequence[dt.date]) -> np.ndarray:
    """The risk-free rate on each date: a scalar repeated, or looked up."""
    if isinstance(rf, (int, float)):
        return np.full(len(dates), float(rf))
    return np.array([rf[d] for d in dates])


def factor_alpha(
    portfolio_dates: Sequence[dt.date],
    portfolio_returns: np.ndarray,
    rf: Mapping[dt.date, float] | float,
    factors: Mapping[str, Mapping[dt.date, float]],
    se: str = "hc1",
) -> RegressionResult:
    """Excess-return regression on any factor set; intercept is the alpha."""
    dates = list(portfolio_dates)
    missing = []
    for name, series in factors.items():
        missing.extend(f"{name}@{d.isoformat()}" for d in dates if d not in series)
    if not isinstance(rf, (int, float)):
        missing.extend(f"rf@{d.isoformat()}" for d in dates if d not in rf)
    if missing:
        raise RegressionError(f"misaligned dates: missing {', '.join(sorted(missing)[:5])}")
    rf_vec = rf_vector(rf, dates)
    names = list(factors)
    X = np.column_stack([[factors[name][d] for d in dates] for name in names]) if names else np.empty((len(dates), 0))
    y = np.asarray(portfolio_returns, dtype=np.float64) - rf_vec
    result = ols(y, X, names=names, se=se, add_intercept=True)
    return replace(result, names=("alpha",) + result.names[1:])


def fe_regression(
    y: np.ndarray,
    X: np.ndarray,
    fixed_effects: Sequence[Sequence[Hashable]],
    names: Sequence[str] | None = None,
    se: str = "classic",
    clusters: Sequence[Hashable] | None = None,
) -> RegressionResult:
    """OLS with fixed effects: absorbed by within-demeaning for a single
    effect, dummy-expanded otherwise.  Reported coefficients cover only the
    X columns; R2 is that of the full dummy model either way."""
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        X = X.reshape(len(y), 0)
    if not fixed_effects:
        raise RegressionError("need at least one fixed effect")
    for keys in fixed_effects:
        if len(keys) != len(y):
            raise RegressionError("fixed-effect keys must align with rows")
    if names is None:
        names = [f"x{j}" for j in range(X.shape[1])]

    n = len(y)
    if len(fixed_effects) == 1:
        labels = list(fixed_effects[0])
        uniq = sorted(set(labels), key=repr)
        index = {g: i for i, g in enumerate(uniq)}
        gidx = np.array([index[g] for g in labels])
        G = len(uniq)
        counts = np.bincount(gidx, minlength=G).astype(np.float64)
        gy = np.bincount(gidx, weights=y, minlength=G) / counts
        yd = y - gy[gidx]
        sst = float(np.sum((y - y.mean()) ** 2))
        p_eff = X.shape[1] + G
        if n <= p_eff:
            raise RegressionError(f"need n > p, got n={n}, p={p_eff}")
        Xd = np.empty_like(X)
        for j in range(X.shape[1]):
            gx = np.bincount(gidx, weights=X[:, j], minlength=G) / counts
            Xd[:, j] = X[:, j] - gx[gidx]
        gram = Xd.T @ Xd
        if np.linalg.matrix_rank(gram) < Xd.shape[1]:
            raise RegressionError("collinear with fixed effects")
        bread = np.linalg.inv(gram)
        beta = bread @ (Xd.T @ yd)
        resid = yd - Xd @ beta
        se_vec, tstats, pvals = _inference(Xd, resid, beta, bread, n - p_eff, se, clusters)
        r2, adj = _r2(float(resid @ resid), sst, n, 1, n - p_eff)
        return RegressionResult(
            names=tuple(names),
            coef=beta,
            se=se_vec,
            t=tstats,
            pvalues=pvals,
            r2=r2,
            adj_r2=adj,
            n=n,
            se_type=se,
        )

    # Multiple effects: expand dummies, dropping one level per effect.
    blocks = [X]
    dummy_names = list(names)
    for k, keys in enumerate(fixed_effects):
        labels = list(keys)
        uniq = sorted(set(labels), key=repr)
        for level in uniq[1:]:
            blocks.append(np.array([1.0 if g == level else 0.0 for g in labels])[:, None])
            dummy_names.append(f"fe{k}[{level}]")
    D = np.hstack(blocks)
    result = ols(y, D, names=dummy_names, se=se, clusters=clusters, add_intercept=True)
    keep = [result.names.index(nm) for nm in names]
    sel = np.array(keep, dtype=int)
    return RegressionResult(
        names=tuple(names),
        coef=result.coef[sel],
        se=result.se[sel],
        t=result.t[sel],
        pvalues=result.pvalues[sel],
        r2=result.r2,
        adj_r2=result.adj_r2,
        n=result.n,
        se_type=se,
    )


def dissemination_window(intercept: float, slope: float, form: str = "linear") -> int:
    """Largest whole week w >= 1 with intercept + slope*g(w) still positive.

    g is the identity (``linear``) or the natural exponential (``exp``).
    Returns 0 when the fitted value is already non-positive at w = 1; else
    the root of intercept + slope*g, settled to the week by that same test.
    """
    if slope >= 0:
        raise RegressionError("no decay: slope must be negative")
    if form == "linear":
        g = float
    elif form == "exp":
        def g(w: int) -> float:
            try:
                return math.exp(w)
            except OverflowError:
                return math.inf
    else:
        raise RegressionError(f"unknown form {form!r}")
    positive = lambda w: intercept + slope * g(w) > 0
    if not positive(1):
        return 0
    if form == "linear":
        root = -intercept / slope
    else:
        # a difference of logs, so a tiny slope cannot overflow the ratio;
        # past the largest finite exp, g is infinite and no week is positive
        root = min(math.log(intercept) - math.log(-slope), math.log(sys.float_info.max))
    if not math.isfinite(root):
        raise RegressionError(f"no finite window for intercept {intercept}, slope {slope}")
    w = math.floor(root)
    if positive(w + 1):
        w += 1
    elif not positive(w):
        w -= 1
    return w


def sparsity_fraction(coef: np.ndarray) -> float:
    coef = np.asarray(coef)
    return float(np.count_nonzero(coef)) / coef.size


def to_monthly(
    dates: Sequence[dt.date], returns: np.ndarray
) -> tuple[list[dt.date], np.ndarray]:
    """Compound a daily series within calendar months; dates are the last
    observed trading day of each month."""
    if len(dates) != len(returns):
        raise RegressionError("dates/returns length mismatch")
    out_dates: list[dt.date] = []
    out_rets: list[float] = []
    cur_key: tuple[int, int] | None = None
    acc = 1.0
    last: dt.date | None = None
    for d, r in zip(dates, returns):
        key = (d.year, d.month)
        if key != cur_key:
            if cur_key is not None:
                out_dates.append(last)  # type: ignore[arg-type]
                out_rets.append(acc - 1.0)
            cur_key = key
            acc = 1.0
        acc *= 1.0 + r
        last = d
    if cur_key is not None:
        out_dates.append(last)  # type: ignore[arg-type]
        out_rets.append(acc - 1.0)
    return out_dates, np.array(out_rets)


# ---------------------------------------------------------------------------
# Importance-vs-lag regression (lag-decay fit over importance records)
# ---------------------------------------------------------------------------

def importance_lag_regression(
    records: Sequence,
    form: str = "exp",
    positive_keys: set[tuple[str, Quarter, str]] | None = None,
    scale: float = 1.0,
) -> RegressionResult:
    """Regress importance on the lag-week indicator (or its exponential),
    with errors clustered by (asset, quarter, source).

    ``positive_keys`` optionally restricts rows to stock-quarters whose
    out-of-sample fit was positive; pass None to use every record.
    """
    rows = [
        r
        for r in records
        if positive_keys is None or (r.asset, r.quarter, r.algo) in positive_keys
    ]
    if not rows:
        raise RegressionError("no importance records after filtering")
    y = np.array([r.value * scale for r in rows])
    lag = np.array([float(r.signal.lag_week) for r in rows])
    x = np.exp(lag) if form == "exp" else lag
    clusters = [(r.asset, r.quarter, r.signal.source) for r in rows]
    name = "exp_lag_week" if form == "exp" else "lag_week"
    return ols(y, x[:, None], names=[name], se="cluster", clusters=clusters)
