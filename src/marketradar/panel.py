"""Return panels, lagged weekly signal construction, and standardization.

Signal timing convention: the lag-k signal for prediction date d compounds a
source's returns over the calendar-day window [d-7k, d-7(k-1)-1].  Windows
for distinct k are disjoint and together cover the 7L calendar days before
d, so no signal ever touches the prediction date itself (no look-ahead).
Sources with no trading day inside a window contribute a 0.0 signal; the
block records how often that happened instead of dropping rows, which keeps
row alignment across many sources with different holiday calendars.
"""
from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .trading_calendar import Quarter, TradingCalendar, quarter_range


class PanelError(ValueError):
    """Malformed panel data or an operation precondition violation."""


class WindowTooSmall(PanelError):
    """A training window has fewer rows than the configured minimum."""


@dataclass(frozen=True, order=True)
class SignalId:
    """One candidate predictor: a source market/asset at a weekly lag."""

    source: str
    lag_week: int

    def __post_init__(self) -> None:
        if not self.source:
            raise PanelError("SignalId source must be nonempty")
        if self.lag_week < 1:
            raise PanelError("SignalId lag_week must be >= 1")

    def label(self) -> str:
        return f"{self.source}:w{self.lag_week}"


@dataclass(frozen=True)
class EntitySeries:
    """One entity's observations, sorted by date."""

    ordinals: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ordinals)


class ReturnPanel:
    """date x entity table of simple decimal returns (or generic values).

    At most one observation per (date, entity).  With ``check_returns`` the
    values are validated as simple returns (each > -1); caps and other
    generic panels disable the check.
    """

    def __init__(
        self,
        series: Mapping[str, EntitySeries],
        check_returns: bool = True,
    ) -> None:
        self._series = dict(sorted(series.items()))
        self.check_returns = check_returns
        for name, s in self._series.items():
            if len(s.ordinals) != len(s.values):
                raise PanelError(f"length mismatch for entity {name}")
            if np.any(np.diff(s.ordinals) <= 0):
                raise PanelError(f"duplicate or unsorted dates for entity {name}")
            if not np.all(np.isfinite(s.values)):
                raise PanelError(f"non-finite value for entity {name}")
            if check_returns and np.any(s.values <= -1.0):
                raise PanelError(f"return <= -100% for entity {name}")
        self._dates: tuple[dt.date, ...] | None = None

    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple[dt.date, str, float]],
        check_returns: bool = True,
    ) -> "ReturnPanel":
        buckets: dict[str, list[tuple[int, float]]] = {}
        for date, entity, value in records:
            buckets.setdefault(entity, []).append((date.toordinal(), float(value)))
        series = {}
        for entity, rows in buckets.items():
            rows.sort()
            ords = np.array([r[0] for r in rows], dtype=np.int64)
            vals = np.array([r[1] for r in rows], dtype=np.float64)
            if len(np.unique(ords)) != len(ords):
                raise PanelError(f"duplicate (date, entity) observation for {entity}")
            series[entity] = EntitySeries(ords, vals)
        return cls(series, check_returns=check_returns)

    @property
    def entity_ids(self) -> list[str]:
        return list(self._series)

    def series(self, entity: str) -> EntitySeries:
        try:
            return self._series[entity]
        except KeyError:
            raise PanelError(f"unknown entity {entity!r}") from None

    def dates(self) -> tuple[dt.date, ...]:
        if self._dates is None:
            all_ords = np.unique(
                np.concatenate([s.ordinals for s in self._series.values()])
                if self._series
                else np.array([], dtype=np.int64)
            )
            self._dates = tuple(dt.date.fromordinal(int(o)) for o in all_ords)
        return self._dates

    def value(self, date: dt.date, entity: str) -> float | None:
        s = self._series.get(entity)
        if s is None:
            return None
        i = int(np.searchsorted(s.ordinals, date.toordinal()))
        if i < len(s.ordinals) and s.ordinals[i] == date.toordinal():
            return float(s.values[i])
        return None

    def calendar(self) -> TradingCalendar:
        return TradingCalendar.from_dates(self.dates())


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column training mean and sample sd, reused at prediction time."""

    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.sd.shape:
            raise PanelError("mean/sd shape mismatch")
        if np.any(self.sd < 0):
            raise PanelError("negative standard deviation")

    def transform(self, X: np.ndarray) -> np.ndarray:
        inv = np.where(self.sd > 0, 1.0 / np.where(self.sd > 0, self.sd, 1.0), 0.0)
        return (X - self.mean) * inv


@dataclass
class SignalBlock:
    """A (row x signal) design with realized same-day returns as targets."""

    rows: list[tuple[str, dt.date]]
    columns: list[SignalId]
    values: np.ndarray
    target: np.ndarray
    empty_windows: int = 0

    def __post_init__(self) -> None:
        n, p = self.values.shape
        if len(self.rows) != n or len(self.columns) != p or len(self.target) != n:
            raise PanelError("signal block shape mismatch")
        if not np.all(np.isfinite(self.values)) or not np.all(np.isfinite(self.target)):
            raise PanelError("non-finite cell in signal block")

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def _window_compound(series: EntitySeries, lo_ord: int, hi_ord: int) -> tuple[float, int]:
    """Compound a series over calendar ordinals [lo, hi]; (value, n_days)."""
    i0 = int(np.searchsorted(series.ordinals, lo_ord, side="left"))
    i1 = int(np.searchsorted(series.ordinals, hi_ord, side="right"))
    if i1 <= i0:
        return 0.0, 0
    return float(np.prod(1.0 + series.values[i0:i1]) - 1.0), i1 - i0


def lag_window(d: dt.date, k: int) -> tuple[int, int]:
    """Calendar-ordinal bounds [d-7k, d-7(k-1)-1] of the lag-k weekly window."""
    o = d.toordinal()
    return o - 7 * k, o - 7 * (k - 1) - 1


def lagged_weekly_signal(series: EntitySeries, d: dt.date, k: int) -> float:
    """Compounded source return over the lag-k calendar week before d.

    Returns 0.0 when the source had no trading day inside the window.
    """
    if k < 1:
        raise PanelError("lag_week must be >= 1")
    lo, hi = lag_window(d, k)
    value, _ = _window_compound(series, lo, hi)
    return value


class SignalCache:
    """Memoized per-date signal vectors for one (source panel, lag count).

    Signals depend only on the date, so every asset and every training task
    can share one cache.  Entries are pure functions of the date; concurrent
    lookups may recompute an entry but always store the same value.
    """

    def __init__(self, sources: ReturnPanel, lags: int) -> None:
        if lags < 1:
            raise PanelError("lag count must be >= 1")
        source_ids = sources.entity_ids
        if not source_ids:
            raise PanelError("no signals: empty source set")
        self.lags = lags
        self.columns = [SignalId(s, k) for s in source_ids for k in range(1, lags + 1)]
        self._series = [sources.series(s) for s in source_ids]
        self._vectors: dict[dt.date, tuple[np.ndarray, int]] = {}

    def vector(self, d: dt.date) -> tuple[np.ndarray, int]:
        """(signal vector, empty-window count) for prediction date d."""
        hit = self._vectors.get(d)
        if hit is not None:
            return hit
        vec = np.empty(len(self.columns))
        empties = 0
        j = 0
        for series in self._series:
            for k in range(1, self.lags + 1):
                lo, hi = lag_window(d, k)
                value, n_days = _window_compound(series, lo, hi)
                if n_days == 0:
                    empties += 1
                vec[j] = value
                j += 1
        entry = (vec, empties)
        self._vectors[d] = entry
        return entry


def build_signal_block(
    sources: ReturnPanel,
    assets: ReturnPanel,
    dates: Sequence[dt.date],
    lags: int,
    asset_ids: Sequence[str] | None = None,
    cache: SignalCache | None = None,
) -> SignalBlock:
    """One row per (asset, date) with a return; one column per (source, lag)."""
    if cache is None:
        cache = SignalCache(sources, lags)
    elif cache.lags != lags:
        raise PanelError("signal cache lag count mismatch")
    if asset_ids is None:
        asset_ids = assets.entity_ids

    date_list = sorted(set(dates))
    empties = 0
    sig_by_date: dict[dt.date, np.ndarray] = {}
    for d in date_list:
        vec, n_empty = cache.vector(d)
        sig_by_date[d] = vec
        empties += n_empty

    rows: list[tuple[str, dt.date]] = []
    targets: list[float] = []
    mats: list[np.ndarray] = []
    for asset in asset_ids:
        for d in date_list:
            r = assets.value(d, asset)
            if r is None:
                continue
            rows.append((asset, d))
            targets.append(r)
            mats.append(sig_by_date[d])
    values = np.array(mats) if mats else np.empty((0, len(cache.columns)))
    return SignalBlock(
        rows=rows,
        columns=list(cache.columns),
        values=values,
        target=np.array(targets),
        empty_windows=empties,
    )


# Relative spread below which a column counts as constant: the computed mean
# of an all-equal column can be an ulp off, which leaves a sample sd of
# rounding noise (~1e-16 of the values) instead of 0.
CONSTANT_SD_RTOL = 1e-12


def standardize(block: SignalBlock) -> tuple[SignalBlock, StandardizationStats]:
    """Scale each column to sample mean 0, sd 1; constant columns become 0.

    A column is constant when its sample sd is at most ``CONSTANT_SD_RTOL``
    times its largest absolute value; its sd is stored as 0, so it also
    maps to 0 at prediction time.
    """
    if block.n_rows < 2:
        raise PanelError("standardize needs at least 2 rows")
    mean = block.values.mean(axis=0)
    sd = block.values.std(axis=0, ddof=1)
    sd[sd <= CONSTANT_SD_RTOL * np.abs(block.values).max(axis=0)] = 0.0
    stats = StandardizationStats(mean=mean, sd=sd)
    scaled = SignalBlock(
        rows=block.rows,
        columns=block.columns,
        values=stats.transform(block.values),
        target=block.target,
        empty_windows=block.empty_windows,
    )
    return scaled, stats


def assemble_training_window(
    assets: ReturnPanel,
    sources: ReturnPanel,
    calendar: TradingCalendar,
    asset: str,
    last_quarter: Quarter,
    lags: int = 4,
    window_quarters: int = 4,
    min_rows: int = 60,
    cache: SignalCache | None = None,
) -> SignalBlock:
    """Training block over the asset's trading days in the trailing quarters.

    Raises WindowTooSmall when the asset has fewer than ``min_rows``
    observations in the window, so the caller can skip and record the task.
    """
    window = quarter_range(last_quarter, window_quarters)
    dates = [d for d in calendar.days_in_quarters(window) if assets.value(d, asset) is not None]
    if len(dates) < min_rows:
        raise WindowTooSmall(
            f"{asset} {window[0]}..{window[-1]}: {len(dates)} rows < minimum {min_rows}"
        )
    return build_signal_block(sources, assets, dates, lags, asset_ids=[asset], cache=cache)


# ---------------------------------------------------------------------------
# CSV interfaces: returns.csv / markets.csv (date,entity,ret),
# calendar.csv (one ISO date per line), caps.csv (date,asset,cap).
# ---------------------------------------------------------------------------

def read_panel_csv(path: Path | str, check_returns: bool = True) -> ReturnPanel:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != 3:
            raise PanelError(f"{path}: expected header date,entity,value")
        for row in reader:
            if not row:
                continue
            records.append((dt.date.fromisoformat(row[0]), row[1], float(row[2])))
    if not records:
        raise PanelError(f"{path}: empty panel")
    return ReturnPanel.from_records(records, check_returns=check_returns)


def write_panel_csv(path: Path | str, panel: ReturnPanel, header: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for entity in panel.entity_ids:
            s = panel.series(entity)
            for o, v in zip(s.ordinals, s.values):
                writer.writerow([dt.date.fromordinal(int(o)).isoformat(), entity, repr(float(v))])


def read_calendar_csv(path: Path | str) -> TradingCalendar:
    dates = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                dates.append(dt.date.fromisoformat(line))
    return TradingCalendar.from_dates(dates)
