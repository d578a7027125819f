"""Plain-text result tables: portfolio performance, fit summaries,
importance-decay regressions, market timing, and sparsity.

Regression cells are rendered "coef*** (t)" with stars at the 10/5/1%
levels.  Every table is assembled from sorted keys so a rerun over the
same inputs emits identical bytes.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import econometrics as em
from . import portfolio as pf
from .errors import MarketRadarError
from .panel import ReturnPanel
from .radar import ForecastTable
from .shapley import IMPORTANCE_REPORT_SCALE, ImportanceRecord
from .trading_calendar import quarter_of


def stars(pvalue: float) -> str:
    if pvalue < 0.01:
        return "***"
    if pvalue < 0.05:
        return "**"
    if pvalue < 0.10:
        return "*"
    return ""


def cell(coef: float, t: float, pvalue: float, digits: int = 4) -> str:
    return f"{coef:.{digits}f}{stars(pvalue)} ({t:.2f})"


def _mean_tstat(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    t = mean / (sd / math.sqrt(n)) if sd > 0 else math.inf * np.sign(mean)
    return mean, t


@dataclass
class AlgoPortfolios:
    top: pf.PortfolioSeries
    bottom: pf.PortfolioSeries
    spread: pf.PortfolioSeries


def _na(fn: Callable[..., object], *args, reason: bool = True) -> str:
    """``fn(*args)`` as text, or ``n/a (reason)`` when a library error says
    the statistic cannot be computed (plain ``n/a`` for table cells)."""
    try:
        return str(fn(*args))
    except MarketRadarError as exc:
        return f"n/a ({exc})" if reason else "n/a"


def _books(forecasts, algo, split, names, returns, weighting, caps) -> list[pf.PortfolioSeries]:
    """One series per name: ``split`` turns a date's forecasts into its
    member groups, in ``names`` order, or None to leave the date out."""
    members: list[dict] = [{} for _ in names]
    for date, by_asset in forecasts.by_date(algo).items():
        for book, group in zip(members, split(by_asset) or ()):
            book[date] = group
    return [
        pf.build_series(book, returns, weighting, caps, name=name)[0]
        for book, name in zip(members, names)
    ]


def build_algo_portfolios(
    forecasts: ForecastTable,
    returns: ReturnPanel,
    algo: str,
    fraction: float,
    weighting: str = "equal",
    caps: ReturnPanel | None = None,
) -> AlgoPortfolios:
    top, bottom = _books(
        forecasts, algo, lambda by_asset: pf.rank_select(by_asset, fraction),
        (f"{algo}-top", f"{algo}-bottom"), returns, weighting, caps,
    )
    spread = pf.long_short(top, bottom, name=f"{algo}-tb")
    return AlgoPortfolios(top=top, bottom=bottom, spread=spread)


def _alpha_cell(series: pf.PortfolioSeries, rf, factors) -> str:
    reg = em.factor_alpha(series.dates, series.returns, rf, factors)
    return cell(reg.coef[0] * 1e4, reg.t[0], reg.pvalues[0], digits=2)


def _leg_row(series: pf.PortfolioSeries, rf, factors, cost_bps: float) -> str:
    stats = pf.performance_stats(series, rf)
    mean, t = _mean_tstat(np.asarray(series.returns) - em.rf_vector(rf, series.dates))
    mean_txt = f"{mean * 1e4:.2f} ({t:.2f})"
    alpha_txt = _alpha_cell(series, rf, factors) if factors else "-"
    to_txt = net_txt = "-"
    if series.turnover is not None:
        net = pf.apply_costs(series, cost_bps=cost_bps)
        net_txt = f"{np.mean(net.returns) * 1e4:.2f}"
        to_txt = f"{np.mean(series.turnover):.3f}"
    return (
        f"{mean_txt:>18} {alpha_txt:>20} {stats.sharpe:>7.2f} "
        f"{stats.max_quarter_loss:>10.3f} {to_txt:>9} {net_txt:>9}"
    )


def portfolio_table(
    books: Mapping[str, AlgoPortfolios],
    rf: Mapping[dt.date, float] | float,
    factors: Mapping[str, Mapping[dt.date, float]] | None,
    cost_bps: float,
) -> str:
    lines = [
        "== portfolio performance (daily, bps) ==",
        f"{'algo':8} {'leg':7} {'mean':>18} {'alpha':>20} {'sharpe':>7} "
        f"{'max1Qloss':>10} {'turnover':>9} {'net_mean':>9}",
    ]
    for algo in sorted(books):
        b = books[algo]
        for leg, series in (("top", b.top), ("bottom", b.bottom), ("t-b", b.spread)):
            rf_leg = rf if leg != "t-b" else 0.0
            lines.append(f"{algo:8} {leg:7} " + _na(_leg_row, series, rf_leg, factors, cost_bps))
    return "\n".join(lines) + "\n"


def decile_table(
    forecasts: ForecastTable,
    returns: ReturnPanel,
    rf: Mapping[dt.date, float] | float,
    factors: Mapping[str, Mapping[dt.date, float]] | None,
    weighting: str = "equal",
    caps: ReturnPanel | None = None,
) -> str:
    """Per-decile alpha (mean excess when factors are absent), high to low."""
    algos = forecasts.algos()
    columns = []
    for algo in algos:
        deciles = _books(
            forecasts, algo, lambda f: pf.rank_deciles(f) if len(f) >= 10 else None,
            [f"{algo}-d{i+1}" for i in range(10)], returns, weighting, caps,
        )
        high_low = lambda: _decile_cell(
            pf.long_short(deciles[9], deciles[0], name=f"{algo}-hl"), 0.0, factors
        )
        cells = [_na(_decile_cell, s, rf, factors, reason=False) for s in reversed(deciles)]
        columns.append(cells + [_na(high_low, reason=False)])
    labels = ["High (10)", *(str(i) for i in range(9, 1, -1)), "Low (1)", "High - Low"]
    rows = [f"{'decile':10}" + "".join(f" {a:>18}" for a in algos)]
    for i, label in enumerate(labels):
        rows.append(f"{label:10}" + "".join(f" {column[i]:>18}" for column in columns))
    return "== decile portfolios (alpha, bps) ==\n" + "\n".join(rows) + "\n"


def _decile_cell(series, rf, factors) -> str:
    if len(series) < 3:
        return "n/a"
    if factors:
        return _alpha_cell(series, rf, factors)
    mean, t = _mean_tstat(np.asarray(series.returns) - em.rf_vector(rf, series.dates))
    return f"{mean * 1e4:.2f} ({t:.2f})" if not math.isinf(t) else f"{mean * 1e4:.2f}"


def _forecast_cells(
    forecasts: ForecastTable,
    read: Callable[[Sequence[dt.date], Sequence[str]], np.ndarray],
) -> Callable[[dt.date, str], float]:
    """(date, asset) -> Python float cell of a panel's ``rows`` or
    ``rows_before``, read once over every date and asset of the forecasts."""
    dates = sorted({row.date for row in forecasts.rows})
    assets = sorted({row.asset for row in forecasts.rows})
    date_at = {d: i for i, d in enumerate(dates)}
    asset_at = {a: j for j, a in enumerate(assets)}
    table = read(dates, assets).tolist()
    return lambda d, a: table[date_at[d]][asset_at[a]]


def compute_r2_records(
    forecasts: ForecastTable, returns: ReturnPanel
) -> list[em.R2Record]:
    """One out-of-sample R2 per (asset, quarter, algo) over its forecast days."""
    realized_at = _forecast_cells(forecasts, returns.rows)
    grouped: dict[tuple[str, tuple[int, int], str], list[tuple[float, float]]] = {}
    for row in forecasts.rows:
        realized = realized_at(row.date, row.asset)
        if math.isnan(realized):
            continue
        key = (row.asset, quarter_of(row.date), row.algo)
        grouped.setdefault(key, []).append((realized, row.yhat))
    records = []
    for (asset, quarter, algo), pairs in sorted(grouped.items()):
        r = np.array([p[0] for p in pairs])
        p = np.array([p[1] for p in pairs])
        if float(np.sum(r * r)) == 0.0:
            continue
        records.append(em.R2Record(asset, quarter, algo, em.r2_oos(r, p)))
    return records


def r2_table(records: Sequence[em.R2Record], algos: Sequence[str]) -> str:
    summary = em.summarize_r2(records, algos)
    lines = ["== out-of-sample fit =="]
    head = f"{'algo':8} {'frac>0':>7} " + " ".join(
        f"{'p' + str(q):>7}" for q in summary.percentile_levels
    ) + f" {'mean>0':>8}"
    lines.append(head)
    for algo in sorted(summary.per_algo):
        s = summary.per_algo[algo]
        pcts = " ".join(f"{s.percentiles[q]:>7.4f}" for q in summary.percentile_levels)
        mean_pos = f"{s.mean_positive:>8.4f}" if s.mean_positive is not None else f"{'-':>8}"
        lines.append(f"{algo:8} {s.fraction_positive:>7.3f} {pcts} {mean_pos}")
    lines.append(f"union fraction positive (any algo): {summary.union_fraction:.3f}")
    return "\n".join(lines) + "\n"


def importance_table(
    records: Sequence[ImportanceRecord],
    positive_keys: set | None,
) -> str:
    lines = ["== signal importance vs lag (x 1e4; clustered t) =="]
    algos = sorted({r.algo for r in records})
    for algo in algos:
        subset = [r for r in records if r.algo == algo]
        row = [f"{algo:8}"]
        for form in ("linear", "exp"):
            row.append(f"{form}: " + _na(_decay_cell, subset, form, positive_keys, reason=False))
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"


def _decay_cell(records: Sequence[ImportanceRecord], form: str, positive_keys: set | None) -> str:
    reg = em.importance_lag_regression(
        records, form=form, positive_keys=positive_keys, scale=IMPORTANCE_REPORT_SCALE
    )
    const, slope = (cell(reg.coef[i], reg.t[i], reg.pvalues[i]) for i in (0, 1))
    window = _na(em.dissemination_window, float(reg.coef[0]), float(reg.coef[1]), form, reason=False)
    return f"slope {slope} const {const} window {window}w"


def timing_table(
    forecasts: ForecastTable,
    caps: ReturnPanel,
    index_returns: Mapping[dt.date, float],
    rf: Mapping[dt.date, float] | float,
    leverage: int,
) -> str:
    body = _na(_timing_lines, forecasts, caps, index_returns, rf, leverage)
    return f"== market timing ==\n{body}\n"


def _timing_lines(forecasts, caps, index_returns, rf, leverage) -> str:
    prior_cap_at = _forecast_cells(forecasts, caps.rows_before)
    bottom_up: dict[str, dict[dt.date, float]] = {}
    for algo in forecasts.algos():
        series: dict[dt.date, float] = {}
        for date, by_asset in forecasts.by_date(algo).items():
            cap_now = {asset: prior_cap_at(date, asset) for asset in by_asset}
            # a date with any member lacking a prior cap gets no index forecast
            if by_asset and not any(math.isnan(c) for c in cap_now.values()):
                series[date] = pf.bottom_up_index_forecast(by_asset, cap_now)
        bottom_up[algo] = series
    strategy = pf.market_timing(bottom_up, index_returns, upside_leverage=leverage)
    stats = pf.performance_stats(strategy, rf)
    mean, t = _mean_tstat(np.asarray(strategy.returns))
    # market_timing keeps only dates the index has
    idx = pf.PortfolioSeries(
        dates=strategy.dates, returns=np.array([index_returns[d] for d in strategy.dates])
    )
    idx_stats = pf.performance_stats(idx, rf)
    imean, it = _mean_tstat(np.asarray(idx.returns))
    return (
        f"{leverage}x strategy: mean {mean * 1e4:.2f} bps (t {t:.2f}), "
        f"sharpe {stats.sharpe:.2f}, max1Qloss {stats.max_quarter_loss:.3f}, "
        f"turnover {stats.mean_turnover:.3f}\n"
        f"index:        mean {imean * 1e4:.2f} bps (t {it:.2f}), "
        f"sharpe {idx_stats.sharpe:.2f}, max1Qloss {idx_stats.max_quarter_loss:.3f}"
    )


def sparsity_table(sparsity: Mapping[str, float]) -> str:
    lines = ["== signals kept by sparse linear fits =="]
    for algo in sorted(sparsity):
        lines.append(f"{algo:8} fraction nonzero {sparsity[algo]:.4%}")
    return "\n".join(lines) + "\n"
