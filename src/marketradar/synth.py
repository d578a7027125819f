"""Synthetic return panels with planted signal-return relationships.

Exposed assets' daily returns are built from the very same compounded
weekly source windows the pipeline constructs, so a correctly working
forecaster can recover the planted loadings exactly on noise-free data.
Unexposed assets are pure noise (plus an optional index beta), giving the
tests a null to compare against.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import MarketRadarError
from .panel import EntitySeries, ReturnPanel, SignalId, lagged_signals, read_csv_rows, signal_columns
from .panel import finite_float, write_csv_rows, write_panel_csv
from .trading_calendar import Quarter, TradingCalendar, first_day, quarter_of, shift_quarter


class ScenarioError(MarketRadarError, ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    n_assets: int = 20
    n_markets: int = 5
    days_per_quarter: int = 63
    n_quarters: int = 8
    start_year: int = 2016
    exposed_fraction: float = 0.5
    lags: int = 4
    decay: str = "geometric"  # "geometric" | "linear"
    decay_rho: float = 0.5
    markets_per_asset: int = 2
    loading_scale: tuple[float, float] = (0.5, 1.0)
    noise_sd: float = 0.0
    market_sd: float = 0.01
    mkt_beta: tuple[float, float] = (0.0, 0.0)
    interaction: float = 0.0
    regime_breaks: Mapping[Quarter, float] = field(default_factory=dict)
    cap_sd: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.exposed_fraction <= 1.0:
            raise ScenarioError("exposed_fraction must be in [0, 1]")
        if self.noise_sd < 0 or self.market_sd <= 0:
            raise ScenarioError("noise_sd must be >= 0 and market_sd > 0")
        if self.lags < 1 or self.n_assets < 1 or self.n_markets < 1:
            raise ScenarioError("counts must be >= 1")
        if self.n_quarters < 1 or self.days_per_quarter < 1:
            raise ScenarioError("need at least one quarter of at least one day")
        if not 1 <= self.markets_per_asset <= self.n_markets:
            raise ScenarioError("markets_per_asset out of range")
        try:
            _market_start(first_day((self.start_year, 1)), self.lags)
            first_day(shift_quarter((self.start_year, 1), self.n_quarters))
        except (ValueError, OverflowError):
            raise ScenarioError("the scenario's dates must fall in years 1 to 9999") from None
        if self.decay_rho < 0 or self.cap_sd < 0:
            raise ScenarioError("decay_rho and cap_sd must be >= 0")
        decay_profile(self.decay, self.lags, self.decay_rho)  # a known decay kind
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple[float, float]":
                # a finite width implies finite ends, and numpy's uniform draw needs it
                value = value[1] - value[0]
            if f.type in ("float", "tuple[float, float]") and not math.isfinite(value):
                raise ScenarioError(f"{f.name} must be finite")
        if not all(math.isfinite(m) for m in self.regime_breaks.values()):
            raise ScenarioError("regime_breaks multipliers must be finite")


@dataclass
class GroundTruth:
    exposed: dict[str, bool]
    loadings: dict[str, dict[SignalId, float]]
    betas: dict[str, float]
    interactions: dict[str, tuple[SignalId, SignalId, float]]

    def exposed_assets(self) -> list[str]:
        return sorted(a for a, flag in self.exposed.items() if flag)


@dataclass
class Scenario:
    spec: ScenarioSpec
    markets: ReturnPanel
    assets: ReturnPanel
    factors: dict[str, dict[dt.date, float]]
    caps: ReturnPanel
    truth: GroundTruth

    def calendar(self) -> TradingCalendar:
        return self.assets.calendar()


def decay_profile(kind: str, lags: int, rho: float = 0.5) -> np.ndarray:
    """Per-lag loading multipliers; nonnegative, decreasing for rho <= 1."""
    if lags < 1:
        raise ScenarioError("lags must be >= 1")
    if kind == "geometric":
        if rho < 0:
            raise ScenarioError("rho must be >= 0")
        return rho ** np.arange(lags, dtype=np.float64)
    if kind == "linear":
        weights = np.arange(lags, 0, -1, dtype=np.float64)
        return weights / weights.sum()
    raise ScenarioError(f"unknown decay kind {kind!r}")


def _weekdays(start: dt.date, end: dt.date) -> list[dt.date]:
    out = []
    d = start
    while d <= end:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def _asset_dates(spec: ScenarioSpec) -> list[dt.date]:
    dates: list[dt.date] = []
    for k in range(spec.n_quarters):
        q = shift_quarter((spec.start_year, 1), k)
        weekdays = _weekdays(first_day(q), first_day(shift_quarter(q, 1)) - dt.timedelta(days=1))
        dates.extend(weekdays[: spec.days_per_quarter])
    return dates


def _market_start(first_asset_date: dt.date, lags: int) -> dt.date:
    """The first market date: far enough back for every lag's window."""
    return first_asset_date - dt.timedelta(days=7 * lags + 14)


def generate(spec: ScenarioSpec) -> Scenario:
    """Deterministic scenario: markets, assets, factor series, caps, truth."""
    rng = np.random.default_rng(spec.seed)
    asset_dates = _asset_dates(spec)
    market_dates = _weekdays(_market_start(asset_dates[0], spec.lags), asset_dates[-1])

    market_ids = [f"M{i:02d}" for i in range(spec.n_markets)]
    asset_ids = [f"A{i:03d}" for i in range(spec.n_assets)]

    # both date lists are sorted and unique, so each entity's draws are its series
    market_ords, asset_ords = (
        np.array([d.toordinal() for d in dates], dtype=np.int64) for dates in (market_dates, asset_dates)
    )
    markets = ReturnPanel({
        mid: EntitySeries(market_ords, rng.normal(0.0, spec.market_sd, size=len(market_ords)))
        for mid in market_ids
    })

    mkt_path = rng.normal(0.0, spec.market_sd, size=len(asset_dates))
    factors = {
        "MKT": {d: float(r) for d, r in zip(asset_dates, mkt_path)},
        "RF": {d: 0.0 for d in asset_dates},
    }

    n_exposed = int(round(spec.exposed_fraction * spec.n_assets))
    exposed_ids = sorted(
        rng.choice(asset_ids, size=n_exposed, replace=False).tolist()
    )
    exposed = {a: a in set(exposed_ids) for a in asset_ids}

    profile = decay_profile(spec.decay, spec.lags, spec.decay_rho)
    columns = signal_columns(markets, spec.lags)
    col_index = {sig: j for j, sig in enumerate(columns)}
    signal_matrix, _ = lagged_signals(markets, asset_dates, spec.lags)

    loadings: dict[str, dict[SignalId, float]] = {}
    betas: dict[str, float] = {}
    interactions: dict[str, tuple[SignalId, SignalId, float]] = {}
    loading_vectors: dict[str, np.ndarray] = {}
    for a in asset_ids:
        betas[a] = float(rng.uniform(*spec.mkt_beta))
        vec = np.zeros(len(columns))
        per_asset: dict[SignalId, float] = {}
        if exposed[a]:
            chosen = sorted(
                rng.choice(market_ids, size=spec.markets_per_asset, replace=False).tolist()
            )
            for m in chosen:
                scale = float(rng.uniform(*spec.loading_scale))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                for k in range(1, spec.lags + 1):
                    sig = SignalId(m, k)
                    loading = sign * scale * profile[k - 1]
                    per_asset[sig] = loading
                    vec[col_index[sig]] = loading
            if spec.interaction != 0.0:
                first, second = chosen[0], chosen[min(1, len(chosen) - 1)]
                pair = (SignalId(first, 1), SignalId(second, 1))
                interactions[a] = (pair[0], pair[1], spec.interaction)
        loadings[a] = per_asset
        loading_vectors[a] = vec

    break_mult = np.ones(len(asset_dates))
    if spec.regime_breaks:
        for i, d in enumerate(asset_dates):
            mult = spec.regime_breaks.get(quarter_of(d))
            if mult is not None:
                break_mult[i] = mult

    asset_series: dict[str, EntitySeries] = {}
    cap_series: dict[str, EntitySeries] = {}
    for a in asset_ids:
        signal_part = signal_matrix @ loading_vectors[a]
        if a in interactions:
            s1, s2, gamma = interactions[a]
            signal_part = signal_part + gamma * (
                signal_matrix[:, col_index[s1]] * signal_matrix[:, col_index[s2]]
            )
        rets = (
            break_mult * signal_part
            + betas[a] * mkt_path
            + rng.normal(0.0, spec.noise_sd, size=len(asset_dates))
        )
        asset_series[a] = EntitySeries(asset_ords, np.maximum(rets, -0.95))  # simple-return floor

        cap0 = math.exp(rng.uniform(math.log(1e9), math.log(1e11)))
        steps = np.exp(rng.normal(0.0, spec.cap_sd, size=len(asset_dates)).cumsum())
        cap_series[a] = EntitySeries(asset_ords, cap0 * steps)

    assets = ReturnPanel(asset_series)
    caps_panel = ReturnPanel(cap_series, check_returns=False)
    truth = GroundTruth(
        exposed=exposed, loadings=loadings, betas=betas, interactions=interactions
    )
    return Scenario(
        spec=spec,
        markets=markets,
        assets=assets,
        factors=factors,
        caps=caps_panel,
        truth=truth,
    )


# ---------------------------------------------------------------------------
# CSV emission matching the pipeline's input formats.
# ---------------------------------------------------------------------------

def write_scenario(scenario: Scenario, out_dir: Path | str) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "returns": out / "returns.csv",
        "markets": out / "markets.csv",
        "factors": out / "factors.csv",
        "caps": out / "caps.csv",
        "truth": out / "truth.csv",
    }
    write_panel_csv(paths["returns"], scenario.assets, ["date", "entity", "ret"])
    write_panel_csv(paths["markets"], scenario.markets, ["date", "entity", "ret"])
    write_panel_csv(paths["caps"], scenario.caps, ["date", "asset", "cap"])

    names = sorted(scenario.factors)
    write_csv_rows(paths["factors"], ["date"] + names, (
        [d.isoformat()] + [repr(scenario.factors[n][d]) for n in names]
        for d in sorted(scenario.factors[names[0]])
    ))
    write_csv_rows(paths["truth"], ["asset", "source", "lag_week", "loading"], (
        [a, sig.source, sig.lag_week, repr(float(loading))]
        for a in sorted(scenario.truth.loadings)
        for sig, loading in sorted(scenario.truth.loadings[a].items())
    ))
    return paths


def read_factors_csv(path: Path | str) -> dict[str, dict[dt.date, float]]:
    """``{factor: {date: value}}`` of a wide table; a repeated date or
    column name is an error."""
    seen: set[dt.date] = set()

    def parse(row: list[str]) -> tuple[dt.date, list[float]]:
        d = dt.date.fromisoformat(row[0])
        if d in seen:
            raise ValueError(f"duplicate date {d}")
        seen.add(d)
        return d, [finite_float(cell) for cell in row[1:]]

    header = lambda head: head[0] == "date"
    head, rows = read_csv_rows(
        path, parse, ScenarioError, header, "wide factor table with a date column"
    )
    names = head[1:]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ScenarioError(f"{path}:1: duplicate column {repeated[0]}")
    out: dict[str, dict[dt.date, float]] = {n: {} for n in names}
    for d, values in rows:
        for name, value in zip(names, values):
            out[name][d] = value
    return out
