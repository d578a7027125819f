"""Forecast-sorted portfolios, performance accounting, and market timing.

Selection takes the ceil(f*n) highest/lowest forecasts with ties broken by
ascending asset id, so portfolio membership is deterministic.  A book is
one (assets x dates) weight matrix whose sums over assets add its rows one
at a time in id order.  Turnover follows the drifted-weight definition:
half the L1 distance between today's weights and yesterday's weights grown
by today's returns, which lives in [0, 1] for long-only books.  Costs are
charged per unit of turnover.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .econometrics import DateSeries, compound_runs, excess_returns, on_dates
from .errors import MarketRadarError
from .panel import ReturnPanel, negligible_sd, write_csv_columns
from .trading_calendar import quarter_of


class PortfolioError(MarketRadarError, ValueError):
    pass


DEFAULT_COST_BPS = 6.24
DEFAULT_TOP_FRACTION = 0.05
TRADING_DAYS_PER_YEAR = 252


@dataclass
class PortfolioSeries:
    dates: list[dt.date]
    returns: np.ndarray
    turnover: np.ndarray | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.returns):
            raise PortfolioError("dates/returns length mismatch")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise PortfolioError("dates must be strictly increasing")
        if np.any(np.asarray(self.returns) <= -1.0):
            raise PortfolioError("portfolio return <= -100%")
        if self.turnover is not None and len(self.turnover) != len(self.dates):
            raise PortfolioError("turnover length mismatch")

    def __len__(self) -> int:
        return len(self.dates)


class Selection(NamedTuple):
    top: tuple[str, ...]
    bottom: tuple[str, ...]


def rank_select(forecasts: Mapping[str, float], fraction: float = DEFAULT_TOP_FRACTION) -> Selection:
    """Assets with the highest/lowest ceil(fraction*n) forecasts."""
    if not 0.0 < fraction <= 0.5:
        raise PortfolioError("fraction must be in (0, 0.5]")
    n = len(forecasts)
    need = math.ceil(1.0 / fraction)
    if n < need:
        return Selection((), ())
    k = math.ceil(fraction * n)
    by_high = sorted(forecasts, key=lambda a: (-forecasts[a], a))
    by_low = sorted(forecasts, key=lambda a: (forecasts[a], a))
    return Selection(tuple(by_high[:k]), tuple(by_low[:k]))


def rank_deciles(forecasts: Mapping[str, float]) -> list[tuple[str, ...]]:
    """Ten forecast-sorted buckets; index 9 ("High (10)") holds the highest."""
    n = len(forecasts)
    if n < 10:
        raise PortfolioError(f"deciles need >= 10 forecasts, got {n}")
    ordered = sorted(forecasts, key=lambda a: (forecasts[a], a))
    bounds = [round(i * n / 10) for i in range(11)]
    return [tuple(ordered[bounds[i] : bounds[i + 1]]) for i in range(10)]


_FAULTS = (
    "missing market cap for {a} before {d}",
    "nonpositive total cap on {d}",
    "missing return for {a} on {d}",
    "single-side weights must be nonnegative",
)


def build_series(
    members_by_date: Mapping[dt.date, Sequence[str]],
    returns: ReturnPanel,
    weighting: str = "equal",
    caps: ReturnPanel | None = None,
    name: str = "",
) -> tuple[PortfolioSeries, np.ndarray]:
    """Daily portfolio returns with weights set at the prior close, and the
    (assets x dates) weights, assets in id order.

    Equal weighting gives each member 1/m; value weighting is proportional
    to the latest market cap strictly before the date.  Dates with empty
    membership are dropped.  Turnover is computed from consecutive weight
    columns (0 for the first day, where there is no prior book).  A fault is
    reported for the earliest date that has one.
    """
    if weighting not in ("equal", "value"):
        raise PortfolioError(f"unknown weighting {weighting!r}")
    if weighting == "value" and caps is None:
        raise PortfolioError("value weighting requires a caps panel")

    dates = sorted(d for d, members in members_by_date.items() if members)
    universe = sorted({a for d in dates for a in members_by_date[d]})
    row = {a: i for i, a in enumerate(universe)}
    held = np.zeros((len(universe), len(dates)), dtype=bool)
    for j, d in enumerate(dates):
        held[[row[a] for a in members_by_date[d]], j] = True
    day = returns.rows(dates, universe).T
    prior = 1.0 if weighting == "equal" else caps.rows_before(dates, universe).T  # type: ignore
    raw = np.where(held, prior, 0.0)
    total = _sum_assets(raw)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = raw / total
    nonpositive = np.broadcast_to(total <= 0, held.shape)
    faults = held & np.stack([np.isnan(raw), nonpositive, np.isnan(day), weights < 0])
    by_date = faults.any(axis=1)
    if by_date.any():  # the day loop's first: earliest date, then fault order, then asset id
        j = by_date.any(axis=0).argmax()
        k = by_date[:, j].argmax()
        asset = universe[faults[k, :, j].argmax()]
        raise PortfolioError(_FAULTS[k].format(a=asset, d=dates[j].isoformat()))

    rets = _sum_assets(np.where(held, weights * day, 0.0))
    tos = np.zeros(len(dates))
    drift = np.where(np.isnan(day), 0.0, day)[:, 1:]  # a leaver with no return today stays flat
    tos[1:] = _turnover(weights[:, :-1], drift, weights[:, 1:])
    return PortfolioSeries(dates=dates, returns=rets, turnover=tos, name=name), weights


def _sum_assets(table: np.ndarray) -> np.ndarray:
    """Sums over axis 0 (assets in id order), added one row at a time as a
    plain float loop adds them, never pairwise.  The loop starts from 0, so
    a sum of zeros is 0.0, never -0.0."""
    if not len(table):
        return np.zeros(table.shape[1:])
    return np.add.accumulate(table, axis=0)[-1] + 0.0


def _turnover(w_prev: np.ndarray, r_today: np.ndarray, w_today: np.ndarray) -> np.ndarray:
    """``turnover`` per column of (assets x dates) weights and returns, the
    assets in id order, weight 0 where not held."""
    drifted = w_prev * (1.0 + r_today)
    drifted_sum = _sum_assets(drifted)
    if np.any(drifted_sum <= 0):
        raise PortfolioError("drifted prior weights sum to zero")
    return 0.5 * _sum_assets(np.abs(w_today - drifted / drifted_sum))


def turnover(
    w_prev: Mapping[str, float],
    r_today: Mapping[str, float],
    w_today: Mapping[str, float],
) -> float:
    """Half the L1 gap between target weights and return-drifted prior ones,
    summed over the sorted union of the two books' assets."""
    assets = sorted(set(w_prev) | set(w_today))
    column = lambda m: np.array([m.get(a, 0.0) for a in assets], dtype=np.float64)
    return float(_turnover(column(w_prev), column(r_today), column(w_today)))


def _on_common_dates(members: Sequence[Mapping[dt.date, float]]) -> tuple[list[dt.date], np.ndarray]:
    """The dates every member has, sorted, and the (dates x members) table of
    the members' values on them.  A row of the table is contiguous, so its
    mean carries the bits of ``np.mean`` over that date's values."""
    dates = sorted(set(members[0]).intersection(*members[1:]))
    return dates, np.column_stack([on_dates(m, dates) for m in members])


def _align(series_list: Sequence[PortfolioSeries], column: str = "returns") -> tuple[list[dt.date], np.ndarray]:
    """``_on_common_dates`` of the series' ``column`` (no dates when every
    series is empty)."""
    dates, table = _on_common_dates([dict(zip(s.dates, getattr(s, column))) for s in series_list])
    if not dates and any(s.dates for s in series_list):
        raise PortfolioError("series have no dates in common")
    return dates, table


def long_short(top: PortfolioSeries, bottom: PortfolioSeries, name: str = "") -> PortfolioSeries:
    """Per-date top-minus-bottom return on the common dates."""
    dates, table = _align([top, bottom])
    return PortfolioSeries(
        dates=dates, returns=table[:, 0] - table[:, 1], name=name or f"{top.name}-{bottom.name}"
    )


def combine(series_list: Sequence[PortfolioSeries], name: str = "comb") -> PortfolioSeries:
    """Equal-weighted per-date mean of the member series' returns.

    A member with no dates (a book that never held a member) is left out;
    when every member is empty, so is the result.
    """
    if not series_list:
        raise PortfolioError("nothing to combine")
    series_list = [s for s in series_list if len(s)] or series_list[:1]
    dates, rets = _align(series_list)
    tos = None
    if all(s.turnover is not None for s in series_list):
        tos = _align(series_list, "turnover")[1].mean(axis=1)
    return PortfolioSeries(dates=dates, returns=rets.mean(axis=1), turnover=tos, name=name)


def apply_costs(
    series: PortfolioSeries,
    cost_bps: float = DEFAULT_COST_BPS,
) -> PortfolioSeries:
    """Net returns: gross minus cost_bps * 1e-4 per unit of daily turnover."""
    if cost_bps < 0:
        raise PortfolioError("cost_bps must be >= 0")
    if series.turnover is None:
        raise PortfolioError(f"{series.name}: no turnover series")
    to = np.asarray(series.turnover, dtype=np.float64)
    net = np.asarray(series.returns) - cost_bps * 1e-4 * to
    return PortfolioSeries(
        dates=list(series.dates), returns=net, turnover=to.copy(), name=f"{series.name}(net)"
    )


@dataclass(frozen=True)
class PerformanceStats:
    sharpe: float
    max_quarter_loss: float
    mean_turnover: float | None = None


def performance_stats(
    series: PortfolioSeries,
    rf: DateSeries = 0.0,
) -> PerformanceStats:
    """Annualized Sharpe, worst compounded quarterly return, mean turnover."""
    if len(series) < 2:
        raise PortfolioError("need at least 2 observations")
    excess = excess_returns(series.dates, series.returns, rf)
    sd = float(excess.std(ddof=1))
    if negligible_sd(sd, excess):
        raise PortfolioError("zero volatility")
    sharpe = float(excess.mean()) / sd * math.sqrt(TRADING_DAYS_PER_YEAR)

    _, quarterly = compound_runs([quarter_of(d) for d in series.dates], series.returns)
    mean_to = (
        float(np.mean(series.turnover)) if series.turnover is not None else None
    )
    return PerformanceStats(
        sharpe=sharpe,
        max_quarter_loss=quarterly.min(),
        mean_turnover=mean_to,
    )


def bottom_up_index_forecast(
    forecasts: Mapping[str, float],
    caps: Mapping[str, float],
) -> float:
    """Cap-weighted mean of the available per-asset forecasts."""
    if not forecasts:
        raise PortfolioError("no forecasts to aggregate")
    missing = sorted(a for a in forecasts if a not in caps)
    if missing:
        raise PortfolioError(f"missing caps for {', '.join(missing[:5])}")
    total = sum(caps[a] for a in forecasts)
    if total <= 0:
        raise PortfolioError("nonpositive total cap")
    return sum(caps[a] * f for a, f in forecasts.items()) / total


def market_timing(
    index_forecasts: Mapping[str, Mapping[dt.date, float]],
    index_returns: Mapping[dt.date, float],
    upside_leverage: int = 2,
) -> PortfolioSeries:
    """Leverage-switching index strategy driven by forecast consensus.

    Exposure is ``upside_leverage`` when every algorithm's index forecast is
    positive, -1 when every one is negative, and 1 otherwise (a forecast of
    exactly zero never counts toward either consensus).  Daily turnover is 1
    on exposure changes, else 0.  Financing costs of levered exposure are
    not modeled.
    """
    if upside_leverage not in (2, 3):
        raise PortfolioError("upside_leverage must be 2 or 3")
    if not index_forecasts:
        raise PortfolioError("no index forecasts")
    dates, table = _on_common_dates([*index_forecasts.values(), index_returns])
    if not dates:
        raise PortfolioError("no dates shared by forecasts and index returns")
    exposure = np.array([timing_exposure(row[:-1], upside_leverage) for row in table])
    tos = np.zeros(len(dates))
    tos[1:] = exposure[1:] != exposure[:-1]
    return PortfolioSeries(
        dates=dates,
        returns=exposure * table[:, -1],
        turnover=tos,
        name=f"timing{upside_leverage}x",
    )


def timing_exposure(forecast_values: Sequence[float], upside_leverage: int = 2) -> float:
    """Exposure rule for one day's consensus check (exact-zero is neutral)."""
    if all(v > 0 for v in forecast_values):
        return float(upside_leverage)
    if all(v < 0 for v in forecast_values):
        return -1.0
    return 1.0


def write_portfolio_csv(path: Path | str, series_list: Sequence[PortfolioSeries]) -> None:
    """`date,name,ret,turnover` rows for every series, sorted by name/date;
    a series without turnover leaves its turnover cells empty."""
    ordered = sorted(series_list, key=lambda s: s.name)
    write_csv_columns(path, ["date", "name", "ret", "turnover"], [
        [d for s in ordered for d in s.dates],
        [s.name for s in ordered for _ in s.dates],
        np.concatenate([np.empty(0), *(s.returns for s in ordered)]),
        [text for s in ordered for text in (
            [""] * len(s.dates) if s.turnover is None
            else map(repr, np.asarray(s.turnover, np.float64).tolist())
        )],
    ])
