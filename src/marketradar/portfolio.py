"""Forecast-sorted portfolios, performance accounting, and market timing.

Selection takes the ceil(f*n) highest/lowest forecasts with ties broken by
ascending asset id, so portfolio membership is deterministic.  Turnover
follows the drifted-weight definition: half the L1 distance between today's
weights and yesterday's weights grown by today's returns, which lives in
[0, 1] for long-only books.  Costs are charged per unit of turnover.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .econometrics import rf_vector
from .errors import MarketRadarError
from .panel import ReturnPanel
from .trading_calendar import Quarter, quarter_of


class PortfolioError(MarketRadarError, ValueError):
    pass


DEFAULT_COST_BPS = 6.24
DEFAULT_TOP_FRACTION = 0.05
TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class DailyWeights:
    date: dt.date
    weights: dict[str, float]
    side: str = "long"

    def __post_init__(self) -> None:
        total = sum(self.weights.values())
        if self.side in ("long", "short"):
            if any(w < 0 for w in self.weights.values()):
                raise PortfolioError("single-side weights must be nonnegative")
            if self.weights and abs(total - 1.0) > 1e-10:
                raise PortfolioError(f"weights sum to {total}, expected 1")


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


def build_series(
    members_by_date: Mapping[dt.date, Sequence[str]],
    returns: ReturnPanel,
    weighting: str = "equal",
    caps: ReturnPanel | None = None,
    name: str = "",
) -> tuple[PortfolioSeries, list[DailyWeights]]:
    """Daily portfolio returns with weights set at the prior close.

    Equal weighting gives each member 1/m; value weighting is proportional
    to the latest market cap strictly before the date.  Dates with empty
    membership are dropped.  Turnover is computed from consecutive weight
    vectors (0 for the first day, where there is no prior book).
    """
    if weighting not in ("equal", "value"):
        raise PortfolioError(f"unknown weighting {weighting!r}")
    if weighting == "value" and caps is None:
        raise PortfolioError("value weighting requires a caps panel")

    dates = sorted(d for d, members in members_by_date.items() if members)
    universe = sorted({a for d in dates for a in members_by_date[d]})
    day_returns = returns.rows(dates, universe)
    if weighting == "value":
        prior_caps = caps.rows_before(dates, universe)  # type: ignore[union-attr]
    rets: list[float] = []
    tos: list[float] = []
    weight_rows: list[DailyWeights] = []
    prev_weights: dict[str, float] | None = None
    for i, d in enumerate(dates):
        members = sorted(members_by_date[d])
        # Python floats, so every sum below adds as a plain float loop
        day = dict(zip(universe, day_returns[i].tolist()))
        if weighting == "equal":
            w = {a: 1.0 / len(members) for a in members}
        else:
            cap_now = dict(zip(universe, prior_caps[i].tolist()))
            raw = {a: cap_now[a] for a in members}
            for a in members:
                if math.isnan(raw[a]):
                    raise PortfolioError(f"missing market cap for {a} before {d.isoformat()}")
            total = sum(raw.values())
            if total <= 0:
                raise PortfolioError(f"nonpositive total cap on {d.isoformat()}")
            w = {a: c / total for a, c in raw.items()}
        for a in members:
            if math.isnan(day[a]):
                raise PortfolioError(f"missing return for {a} on {d.isoformat()}")
        rets.append(sum(w[a] * day[a] for a in members))
        if prev_weights is None:
            tos.append(0.0)
        else:
            drift_rets = {a: 0.0 if math.isnan(day[a]) else day[a] for a in prev_weights}
            tos.append(turnover(prev_weights, drift_rets, w))
        weight_rows.append(DailyWeights(date=d, weights=w, side="long"))
        prev_weights = w
    series = PortfolioSeries(
        dates=dates, returns=np.array(rets), turnover=np.array(tos), name=name
    )
    return series, weight_rows


def turnover(
    w_prev: Mapping[str, float],
    r_today: Mapping[str, float],
    w_today: Mapping[str, float],
) -> float:
    """Half the L1 gap between target weights and return-drifted prior ones."""
    drifted_sum = sum(w * (1.0 + r_today.get(a, 0.0)) for a, w in w_prev.items())
    if drifted_sum <= 0:
        raise PortfolioError("drifted prior weights sum to zero")
    total = 0.0
    # sorted, so the float sum does not follow the per-process string hash order
    for a in sorted(set(w_prev) | set(w_today)):
        drifted = w_prev.get(a, 0.0) * (1.0 + r_today.get(a, 0.0)) / drifted_sum
        total += abs(w_today.get(a, 0.0) - drifted)
    return 0.5 * total


def _align(series_list: Sequence[PortfolioSeries]) -> list[dt.date]:
    """Dates common to every series (none when every series is empty)."""
    common = set(series_list[0].dates)
    for s in series_list[1:]:
        common &= set(s.dates)
    if not common and any(s.dates for s in series_list):
        raise PortfolioError("series have no dates in common")
    return sorted(common)


def long_short(top: PortfolioSeries, bottom: PortfolioSeries, name: str = "") -> PortfolioSeries:
    """Per-date top-minus-bottom return on the common dates."""
    dates = _align([top, bottom])
    t = {d: r for d, r in zip(top.dates, top.returns)}
    b = {d: r for d, r in zip(bottom.dates, bottom.returns)}
    return PortfolioSeries(
        dates=dates,
        returns=np.array([t[d] - b[d] for d in dates]),
        name=name or f"{top.name}-{bottom.name}",
    )


def combine(series_list: Sequence[PortfolioSeries], name: str = "comb") -> PortfolioSeries:
    """Equal-weighted per-date mean of the member series' returns."""
    if not series_list:
        raise PortfolioError("nothing to combine")
    dates = _align(series_list)
    maps = [{d: r for d, r in zip(s.dates, s.returns)} for s in series_list]
    rets = np.array([np.mean([m[d] for m in maps]) for d in dates])
    tos = None
    if all(s.turnover is not None for s in series_list):
        tmaps = [{d: t for d, t in zip(s.dates, s.turnover)} for s in series_list]
        tos = np.array([np.mean([m[d] for m in tmaps]) for d in dates])
    return PortfolioSeries(dates=dates, returns=rets, turnover=tos, name=name)


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
    if len(to) != len(series):
        raise PortfolioError("turnover length mismatch")
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
    rf: Mapping[dt.date, float] | float = 0.0,
) -> PerformanceStats:
    """Annualized Sharpe, worst compounded quarterly return, mean turnover."""
    if len(series) < 2:
        raise PortfolioError("need at least 2 observations")
    excess = np.asarray(series.returns) - rf_vector(rf, series.dates)
    sd = float(excess.std(ddof=1))
    if sd == 0.0:
        raise PortfolioError("zero volatility")
    sharpe = float(excess.mean()) / sd * math.sqrt(TRADING_DAYS_PER_YEAR)

    by_quarter: dict[Quarter, float] = {}
    for d, r in zip(series.dates, series.returns):
        q = quarter_of(d)
        by_quarter[q] = by_quarter.get(q, 1.0) * (1.0 + r)
    worst = min(v - 1.0 for v in by_quarter.values())
    mean_to = (
        float(np.mean(series.turnover)) if series.turnover is not None else None
    )
    return PerformanceStats(
        sharpe=sharpe,
        max_quarter_loss=worst,
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
    common: set[dt.date] | None = None
    for series in index_forecasts.values():
        keys = set(series)
        common = keys if common is None else common & keys
    common &= set(index_returns)
    if not common:
        raise PortfolioError("no dates shared by forecasts and index returns")
    dates = sorted(common)
    rets: list[float] = []
    tos: list[float] = []
    prev_exposure: float | None = None
    for d in dates:
        exposure = timing_exposure(
            [series[d] for series in index_forecasts.values()], upside_leverage
        )
        rets.append(exposure * index_returns[d])
        tos.append(0.0 if prev_exposure is None or exposure == prev_exposure else 1.0)
        prev_exposure = exposure
    return PortfolioSeries(
        dates=dates,
        returns=np.array(rets),
        turnover=np.array(tos),
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
    """`date,name,ret,turnover` rows for every series, sorted by name/date."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "name", "ret", "turnover"])
        for series in sorted(series_list, key=lambda s: s.name):
            tos = series.turnover if series.turnover is not None else [""] * len(series)
            for d, r, t in zip(series.dates, series.returns, tos):
                writer.writerow(
                    [d.isoformat(), series.name, repr(float(r)), "" if t == "" else repr(float(t))]
                )
