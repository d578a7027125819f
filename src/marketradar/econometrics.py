"""Out-of-sample fit measures, robust/clustered OLS, fixed effects, and
the lag-decay window solver.

Out-of-sample R2 is computed without demeaning: 1 - SS(err)/SS(realized).
``ols`` and ``fe_regression`` solve through one least-squares body.  A
fixed-effects regression absorbs its effect with the most levels by
within-demeaning and dummy-expands the others, which by Frisch-Waugh-Lovell
is the full dummy regression with columns for the smaller effects only.
Cluster-robust covariances use the CR1 small-sample factor
G/(G-1) * (n-1)/(n-p); heteroskedasticity-robust ones use HC1's n/(n-p).
Two-sided p-values are the Student-t tail as a regularized incomplete beta,
evaluated by its continued fraction with ``math`` alone.
Effect levels and clusters are numbered in ``repr`` order of their keys,
so no result depends on string hashing (``PYTHONHASHSEED``).
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


# a value for every date, or values keyed by date
DateSeries = Mapping[dt.date, float] | float


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


def _codes(keys: Sequence[Hashable]) -> tuple[np.ndarray, int]:
    """Each key's index among the distinct keys sorted by ``repr``, and the
    number of distinct keys."""
    keys = list(keys)
    index = {g: i for i, g in enumerate(sorted(set(keys), key=repr))}
    return np.fromiter((index[g] for g in keys), dtype=np.intp, count=len(keys)), len(index)


def _group_sums(codes: np.ndarray, G: int, A: np.ndarray) -> np.ndarray:
    """(G, q) sums of the rows of the (n, q) array ``A`` per group code; each
    sum runs in row order."""
    q = A.shape[1]
    bins = (codes[:, None] * q + np.arange(q)).ravel()
    return np.bincount(bins, weights=A.ravel(), minlength=G * q).reshape(G, q)


def _solve(y: np.ndarray, D: np.ndarray, singular_message: str):
    """Least squares of ``y`` on the columns of ``D``: the coefficients, the
    residuals and (D'D)^-1."""
    gram = D.T @ D
    if np.linalg.matrix_rank(gram) < D.shape[1]:
        raise RegressionError(singular_message)
    bread = np.linalg.inv(gram)
    # (D'D)^-1 D' y in textbook order: a nearly cancelling sandwich
    # amplifies the last bits of the residuals.
    beta = bread @ D.T @ y
    return beta, y - D @ beta, bread


def ols(
    y: np.ndarray,
    X: np.ndarray,
    names: Sequence[str] | None = None,
    se: str = "classic",
    clusters: Sequence[Hashable] | None = None,
) -> RegressionResult:
    """OLS with an intercept and classic, HC1-robust, or one-way
    cluster-robust (CR1) errors."""
    y, D, names = _design(y, X, names, add_intercept=True)
    n, p = D.shape
    if n <= p:
        raise RegressionError(f"need n > p, got n={n}, p={p}")
    beta, resid, bread = _solve(y, D, "singular design matrix")
    se_vec, tstats, pvals = _inference(D, resid, beta, bread, n - p, se, clusters)

    r2, adj = _r2(float(resid @ resid), float(np.sum((y - y.mean()) ** 2)), n, n - p)
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
    n, p = D.shape
    scored = D * resid[:, None]
    if se == "classic":
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * bread
    elif se == "hc1":
        cov = bread @ (scored.T @ scored) @ bread * (n / dof)
    elif se == "cluster":
        if clusters is None or len(clusters) != n:
            raise RegressionError("cluster keys must align with rows")
        codes, G = _codes(clusters)
        if G < 2:
            raise RegressionError("need at least 2 clusters")
        scores = _group_sums(codes, G, scored)
        # the sum of the clusters' outer products, in code order
        meat = (scores[:, :, None] * scores[:, None, :]).sum(axis=0)
        factor = (G / (G - 1)) * ((n - 1) / dof)
        cov = bread @ meat @ bread * factor
    else:
        raise RegressionError(f"unknown se type {se!r}")

    se_vec = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = np.where(se_vec > 0, beta / np.where(se_vec > 0, se_vec, 1.0), np.inf * np.sign(beta))
    pvals = np.array([_t_pvalue(float(t), max(dof, 1)) for t in tstats])
    return se_vec, tstats, pvals


def _t_pvalue(t: float, dof: int) -> float:
    """Two-sided Student-t p-value 2 P(T > |t|) with ``dof`` degrees of
    freedom: the regularized incomplete beta I_x(dof/2, 1/2) at
    x = dof/(dof + t^2) (Numerical Recipes 6.4; DiDonato & Morris, ACM TOMS
    708, 1992).  t = 0 gives 1, an infinite t 0 and NaN NaN.  The relative
    error grows about as dof * 1e-16 (5e-9 at dof 1e8), because x near 1
    carries its rounding through the fraction."""
    if math.isnan(t):
        return math.nan
    s = t * t
    if s == 0.0 or math.isinf(s):
        return 1.0 if s == 0.0 else 0.0
    a, b = dof / 2.0, 0.5
    # 1 - x as t^2/(dof + t^2): the subtraction loses digits near t = 0
    x, y = dof / (dof + s), s / (dof + s)
    log_x, log_y = -math.log1p(s / dof), -math.log1p(dof / s)
    # the fraction converges for x below (a + 1)/(a + b + 2); above it,
    # I_x(a, b) = 1 - I_{1-x}(b, a).  The test reads 1 - x, since x rounds
    # to 1 at large dof.
    swap = y <= (b + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, log_x, log_y = b, a, y, log_y, log_x
    tail = math.exp(a * log_x + b * log_y - _log_beta(a, b)) * _beta_fraction(a, b, x) / a
    return 1.0 - tail if swap else tail


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b).  A difference of lgammas loses about ln Gamma(a + b)
    ulps, so past 100 the larger argument goes through Stirling's series,
    whose leading terms cancel in closed form."""
    small, big = sorted((a, b))
    if big < 100.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    stirling = lambda z: (1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z
    return (
        math.lgamma(small) - (big - 0.5) * math.log1p(small / big) - small * math.log(big + small)
        + small + stirling(big) - stirling(big + small)
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), evaluated by modified Lentz."""
    clamp = lambda v: v if abs(v) > 1e-300 else 1e-300
    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise RegressionError(f"t p-value did not converge at dof {2 * max(a, b):g}")


def _r2(ssr: float, sst: float, n: int, dof: int) -> tuple[float, float]:
    """R2 and adjusted R2 of a model with an intercept."""
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return r2, 1.0 - (1.0 - r2) * (n - 1) / dof


def on_dates(series: DateSeries, dates: Sequence[dt.date], name: str = "series") -> np.ndarray:
    """``series`` on ``dates``, a scalar repeated or a mapping looked up; a date
    it lacks is a RegressionError naming up to five missing ``name@date``."""
    if isinstance(series, (int, float)):
        return np.full(len(dates), float(series))
    try:
        return np.array([series[d] for d in dates])
    except KeyError:
        missing = sorted(d for d in dates if d not in series)[:5]
        cells = ", ".join(f"{name}@{d.isoformat()}" for d in missing)
        raise RegressionError(f"misaligned dates: missing {cells}") from None


def excess_returns(dates: Sequence[dt.date], returns: np.ndarray, rf: DateSeries) -> np.ndarray:
    """``returns`` less the risk-free rate on each of their ``dates``."""
    return np.asarray(returns, dtype=np.float64) - on_dates(rf, dates, "rf")


def factor_alpha(
    portfolio_dates: Sequence[dt.date],
    portfolio_returns: np.ndarray,
    rf: DateSeries,
    factors: Mapping[str, Mapping[dt.date, float]],
) -> RegressionResult:
    """Excess-return regression on any factor set, with HC1 errors;
    intercept is the alpha."""
    dates = list(portfolio_dates)
    names = list(factors)
    X = np.column_stack([on_dates(factors[n], dates, n) for n in names]) if names else np.empty((len(dates), 0))
    result = ols(excess_returns(dates, portfolio_returns, rf), X, names=names, se="hc1")
    return replace(result, names=("alpha",) + result.names[1:])


def fe_regression(
    y: np.ndarray,
    X: np.ndarray,
    fixed_effects: Sequence[Sequence[Hashable]],
    names: Sequence[str] | None = None,
    se: str = "classic",
    clusters: Sequence[Hashable] | None = None,
) -> RegressionResult:
    """OLS with fixed effects, equal to the full dummy regression.

    The effect with the most levels (the first one on a tie) is absorbed by
    within-demeaning; every other effect is dummy-expanded, dropping its
    first level in ``repr`` order, and demeaned with X.  Reported
    coefficients cover only the X columns; the degrees of freedom count the
    absorbed levels, and R2 is that of the full dummy model.
    """
    y, X, names = _design(y, X, names, add_intercept=False)
    if not fixed_effects:
        raise RegressionError("need at least one fixed effect")
    for keys in fixed_effects:
        if len(keys) != len(y):
            raise RegressionError("fixed-effect keys must align with rows")
    coded = [_codes(keys) for keys in fixed_effects]
    absorbed = max(range(len(coded)), key=lambda k: coded[k][1])
    gidx, G = coded[absorbed]
    dummies = [
        codes[:, None] == np.arange(1, levels)
        for k, (codes, levels) in enumerate(coded)
        if k != absorbed
    ]
    D = np.column_stack([X] + dummies)

    n = len(y)
    p_eff = D.shape[1] + G
    if n <= p_eff:
        raise RegressionError(f"need n > p, got n={n}, p={p_eff}")
    counts = np.bincount(gidx, minlength=G).astype(np.float64)
    within = lambda A: A - (_group_sums(gidx, G, A) / counts[:, None])[gidx]
    Dd = within(D)
    beta, resid, bread = _solve(within(y[:, None])[:, 0], Dd, "collinear with fixed effects")
    se_vec, tstats, pvals = _inference(Dd, resid, beta, bread, n - p_eff, se, clusters)
    r2, adj = _r2(float(resid @ resid), float(np.sum((y - y.mean()) ** 2)), n, n - p_eff)
    k = X.shape[1]
    return RegressionResult(
        names=names,
        coef=beta[:k],
        se=se_vec[:k],
        t=tstats[:k],
        pvalues=pvals[:k],
        r2=r2,
        adj_r2=adj,
        n=n,
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


def compound_runs(keys: Sequence[Hashable], returns: Sequence[float]) -> tuple[list[int], np.ndarray]:
    """Compound ``returns`` within each run of equal consecutive ``keys``:
    the position of each run's last element, and the run's compounded
    return."""
    ends: list[int] = []
    growth: list[float] = []
    for i, (key, r) in enumerate(zip(keys, returns)):
        if i and key == keys[i - 1]:
            ends[-1] = i
            growth[-1] *= 1.0 + r
        else:
            ends.append(i)
            growth.append(1.0 + r)
    return ends, np.array(growth) - 1.0


def to_monthly(
    dates: Sequence[dt.date], returns: np.ndarray
) -> tuple[list[dt.date], np.ndarray]:
    """Compound a daily series within calendar months; dates are the last
    observed trading day of each month."""
    if len(dates) != len(returns):
        raise RegressionError("dates/returns length mismatch")
    ends, monthly = compound_runs([(d.year, d.month) for d in dates], returns)
    return [dates[i] for i in ends], monthly


# ---------------------------------------------------------------------------
# Importance-vs-lag regression (lag-decay fit over importance records)
# ---------------------------------------------------------------------------

def importance_lag_regression(
    records: Sequence,
    form: str = "exp",
    scale: float = 1.0,
) -> RegressionResult:
    """Regress importance on the lag-week indicator (or its exponential),
    with errors clustered by (asset, quarter, source)."""
    y = np.array([r.value * scale for r in records])
    lag = np.array([float(r.signal.lag_week) for r in records])
    x = np.exp(lag) if form == "exp" else lag
    clusters = [(r.asset, r.quarter, r.signal.source) for r in records]
    name = "exp_lag_week" if form == "exp" else "lag_week"
    return ols(y, x[:, None], names=[name], se="cluster", clusters=clusters)
