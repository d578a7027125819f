"""Dense return panels, lagged weekly signal construction, and standardization.

A panel is one dense (dates x entities) array, NaN where an entity has no
observation; callers read whole blocks of rows (``rows``, ``rows_before``).

Signal timing convention: the lag-k signal for prediction date d compounds a
source's returns over the calendar-day window [d-7k, d-7(k-1)-1].  Windows
for distinct k are disjoint and together cover the 7L calendar days before
d, so no signal ever touches the prediction date itself (no look-ahead).
``lagged_signals`` computes a block's windows with array operations.
Sources with no trading day inside a window contribute a 0.0 signal; the
block records how often that happened instead of dropping rows, which keeps
row alignment across many sources with different holiday calendars.

A signal block is one asset's, as a model is: one row per date on which the
asset has a return, valued by the ``lagged_signals`` of those dates.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import MarketRadarError
from .trading_calendar import Quarter, TradingCalendar, quarter_range


class PanelError(MarketRadarError, ValueError):
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


@dataclass(frozen=True)
class EntitySeries:
    """One entity's observations, sorted by date."""

    ordinals: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ordinals)


def _ordinals(dates: Sequence[dt.date]) -> np.ndarray:
    return np.array([d.toordinal() for d in dates], dtype=np.int64)


class ReturnPanel:
    """date x entity table of simple decimal returns (or generic values).

    ``ordinals`` is the sorted union of observation dates and ``values`` the
    dense (dates x entities) array, NaN where an entity has no observation;
    ``columns`` maps each entity id, in sorted order, to its column.  At
    most one observation per (date, entity).  With ``check_returns`` the
    values are validated as simple returns (each > -1); caps and other
    generic panels disable the check.
    """

    def __init__(
        self,
        series: Mapping[str, EntitySeries],
        check_returns: bool = True,
    ) -> None:
        series = dict(sorted(series.items()))
        for name, s in series.items():
            if len(s.ordinals) != len(s.values):
                raise PanelError(f"length mismatch for entity {name}")
            if np.any(np.diff(s.ordinals) <= 0):
                raise PanelError(f"duplicate or unsorted dates for entity {name}")
            if not np.all(np.isfinite(s.values)):
                raise PanelError(f"non-finite value for entity {name}")
            if check_returns and np.any(s.values <= -1.0):
                raise PanelError(f"return <= -100% for entity {name}")
        self.columns = {name: j for j, name in enumerate(series)}
        self.ordinals = np.unique(
            np.concatenate([np.empty(0, np.int64), *(s.ordinals for s in series.values())])
        )
        self.values = np.full((len(self.ordinals), len(series)), np.nan)
        for j, s in enumerate(series.values()):
            self.values[np.searchsorted(self.ordinals, s.ordinals), j] = s.values

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
        return list(self.columns)

    def series(self, entity: str) -> EntitySeries:
        try:
            column = self.values[:, self.columns[entity]]
        except KeyError:
            raise PanelError(f"unknown entity {entity!r}") from None
        observed = ~np.isnan(column)
        return EntitySeries(self.ordinals[observed], column[observed])

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(dt.date.fromordinal(int(o)) for o in self.ordinals)

    def calendar(self) -> TradingCalendar:
        return TradingCalendar.from_dates(self.dates())

    def rows(self, dates: Sequence[dt.date], entities: Sequence[str] | None = None) -> np.ndarray:
        """(dates x entities) values on those dates (default: every entity), NaN
        where unobserved, on dates the panel lacks and for unknown entities."""
        ords = _ordinals(dates)
        index = np.where(np.isin(ords, self.ordinals), np.searchsorted(self.ordinals, ords), -1)
        return self._take(self.values, index, entities)

    def rows_before(
        self, dates: Sequence[dt.date], entities: Sequence[str] | None = None
    ) -> np.ndarray:
        """Like ``rows``, but each entity's latest value strictly before
        each date (the prior close); NaN where there is none."""
        row = np.arange(len(self.ordinals))[:, None]
        latest = np.maximum.accumulate(np.where(np.isnan(self.values), -1, row), axis=0)
        filled = np.where(
            latest >= 0, np.take_along_axis(self.values, np.maximum(latest, 0), axis=0), np.nan
        )
        prior = np.searchsorted(self.ordinals, _ordinals(dates)) - 1
        return self._take(filled, prior, entities)

    def _take(self, table: np.ndarray, row_index: np.ndarray, entities) -> np.ndarray:
        """table[row, column of entity]; NaN for row index -1 or an unknown entity."""
        names = self.columns if entities is None else entities
        cols = np.array([self.columns.get(e, -1) for e in names], dtype=np.intp)
        out = np.full((len(row_index), len(cols)), np.nan)
        r, c = row_index >= 0, cols >= 0
        out[np.ix_(r, c)] = table[np.ix_(row_index[r], cols[c])]
        return out


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
    """One asset's (date x signal) design, with its realized same-day
    returns on those dates as targets."""

    asset: str
    dates: list[dt.date]
    columns: list[SignalId]
    values: np.ndarray
    target: np.ndarray
    empty_windows: int = 0

    def __post_init__(self) -> None:
        n, p = self.values.shape
        if len(self.dates) != n or len(self.columns) != p or len(self.target) != n:
            raise PanelError("signal block shape mismatch")
        if not np.all(np.isfinite(self.values)) or not np.all(np.isfinite(self.target)):
            raise PanelError("non-finite cell in signal block")

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def rows(self) -> list[tuple[str, dt.date]]:
        """(asset, date) per row."""
        return [(self.asset, d) for d in self.dates]


def lag_window(d: dt.date | np.ndarray, k: int) -> tuple:
    """Calendar-ordinal bounds [d-7k, d-7(k-1)-1] of the lag-k weekly window;
    ``d`` is a date or an array of date ordinals."""
    o = d.toordinal() if isinstance(d, dt.date) else d
    return o - 7 * k, o - 7 * (k - 1) - 1


def lagged_weekly_signal(series: EntitySeries, d: dt.date, k: int) -> float:
    """Compounded source return over the lag-k calendar week before d.

    Returns 0.0 when the source had no trading day inside the window.
    """
    if k < 1:
        raise PanelError("lag_week must be >= 1")
    lo, hi = lag_window(d, k)
    i0 = int(np.searchsorted(series.ordinals, lo, side="left"))
    i1 = int(np.searchsorted(series.ordinals, hi, side="right"))
    return float(np.prod(1.0 + series.values[i0:i1]) - 1.0)


def signal_columns(sources: ReturnPanel, lags: int) -> list[SignalId]:
    """One column per (source, lag), source-major: the order of ``lagged_signals``."""
    return [SignalId(s, k) for s in sources.entity_ids for k in range(1, lags + 1)]


# A lag window spans 7 calendar days, so it holds at most 7 panel dates.
_WINDOW_DAYS = 7


def lagged_signals(
    sources: ReturnPanel, dates: Sequence[dt.date], lags: int
) -> tuple[np.ndarray, int]:
    """(dates x ``signal_columns``) lagged weekly signals and the number of
    (date, source, lag) windows in which the source had no trading day.

    Each window's panel dates are gathered into a 7-slot stack padded with
    growth 1.0 (also where a source has no observation) and multiplied in
    date order: every cell equals ``lagged_weekly_signal`` bit for bit.
    """
    if lags < 1:
        raise PanelError("lag count must be >= 1")
    n_sources = len(sources.entity_ids)
    if not n_sources:
        raise PanelError("no signals: empty source set")
    ords = _ordinals(dates)
    out = np.empty((len(ords), n_sources, lags))
    empties = 0
    for k in range(1, lags + 1):
        lo, hi = lag_window(ords, k)
        i0 = np.searchsorted(sources.ordinals, lo, side="left")
        i1 = np.searchsorted(sources.ordinals, hi, side="right")
        index = i0[:, None] + np.arange(_WINDOW_DAYS)
        inside = index < i1[:, None]
        growth = np.full((len(ords), _WINDOW_DAYS, n_sources), np.nan)
        growth[inside] = 1.0 + sources.values[index[inside]]
        observed = ~np.isnan(growth)
        out[:, :, k - 1] = np.where(observed, growth, 1.0).prod(axis=1) - 1.0
        empties += int(np.count_nonzero(~observed.any(axis=1)))
    return out.reshape(len(ords), n_sources * lags), empties


def build_signal_block(
    sources: ReturnPanel,
    assets: ReturnPanel,
    dates: Sequence[dt.date],
    lags: int,
    asset: str,
) -> SignalBlock:
    """``asset``'s block: one row per distinct date on which it has a
    return, in date order; one column per (source, lag).  Empty windows are
    counted over the rows."""
    date_list = sorted(set(dates))
    returns = assets.rows(date_list, [asset])[:, 0]
    kept = ~np.isnan(returns)
    row_dates = [d for d, keep in zip(date_list, kept) if keep]
    values, empties = lagged_signals(sources, row_dates, lags)
    return SignalBlock(
        asset, row_dates, signal_columns(sources, lags), values, returns[kept], empties
    )


# Relative spread below which a column counts as constant: the computed mean
# of an all-equal column can be an ulp off, which leaves a sample sd of
# rounding noise (~1e-16 of the values) instead of 0.
CONSTANT_SD_RTOL = 1e-12

# Largest mean, in sds, left in a standardized column (far above rounding noise).
CENTRE_ATOL = 1e-12


def negligible_sd(sd, values: np.ndarray):
    """Whether each sample sd is at most ``CONSTANT_SD_RTOL`` times the
    largest absolute value of its column of ``values`` (axis 0): the sd of a
    series that is constant up to rounding."""
    return sd <= CONSTANT_SD_RTOL * np.abs(values).max(axis=0, initial=0.0)


def standardize(block: SignalBlock) -> tuple[SignalBlock, StandardizationStats]:
    """Scale each column to sample mean 0, sd 1; constant columns become 0.

    A column is constant when ``negligible_sd`` says so; its sd is stored as
    0, so it also maps to 0 at prediction time.

    When the spread is tiny against the level, the float mean's last bit
    can be a visible fraction of an sd; a scaled column whose mean exceeds
    ``CENTRE_ATOL`` is centred and scaled again and its stored sd corrected.
    Prediction rows are centred by the stored mean alone.  A column whose
    mean or sd overflows raises PanelError.
    """
    if block.n_rows < 2:
        raise PanelError("standardize needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = block.values.mean(axis=0)
        sd = block.values.std(axis=0, ddof=1)
    for col, finite in zip(block.columns, np.isfinite(mean) & np.isfinite(sd)):
        if not finite:
            raise PanelError(f"signal {col.source} lag {col.lag_week}: mean or sd is not finite")
    sd[negligible_sd(sd, block.values)] = 0.0
    values = StandardizationStats(mean=mean, sd=sd).transform(block.values)
    off = np.abs(values.mean(axis=0)) > CENTRE_ATOL
    if off.any():
        values[:, off] -= values[:, off].mean(axis=0)
        spread = values[:, off].std(axis=0, ddof=1)
        values[:, off] /= spread
        sd[off] *= spread
    return replace(block, values=values), StandardizationStats(mean=mean, sd=sd)


def window_days(
    calendar: TradingCalendar, last_quarter: Quarter, window_quarters: int
) -> list[dt.date]:
    """The calendar's trading days in the ``window_quarters`` quarters
    ending at ``last_quarter``: the candidate rows of a training window."""
    return calendar.days_in_quarters(quarter_range(last_quarter, window_quarters))


def assemble_training_window(
    assets: ReturnPanel,
    sources: ReturnPanel,
    calendar: TradingCalendar,
    asset: str,
    last_quarter: Quarter,
    lags: int = 4,
    window_quarters: int = 4,
    min_rows: int = 60,
) -> SignalBlock:
    """The asset's training block over its ``window_days``.

    Raises WindowTooSmall when the asset has fewer than ``min_rows``
    observations in the window, so the caller can skip and record the task.
    """
    days = window_days(calendar, last_quarter, window_quarters)
    block = build_signal_block(sources, assets, days, lags, asset)
    if block.n_rows < min_rows:
        window = quarter_range(last_quarter, window_quarters)
        raise WindowTooSmall(
            f"{asset} {window[0]}..{window[-1]}: {block.n_rows} rows < minimum {min_rows}"
        )
    return block


# ---------------------------------------------------------------------------
# CSV interfaces: returns.csv / markets.csv (date,entity,ret),
# calendar.csv (one ISO date per line), caps.csv (date,asset,cap).
# ---------------------------------------------------------------------------

def read_csv_rows(
    path: Path | str, parse: Callable[[list[str]], object], error: type[MarketRadarError],
    header: Callable[[list[str]], bool] | None = None, expected: str = "",
) -> tuple[list[str] | None, list]:
    """The header row, which must satisfy ``header`` if given (else ``error``:
    ``path: expected <expected>``), and ``parse`` of every non-blank later
    row.  A row with fewer or more fields than the header, or one ``parse``
    rejects with ValueError (a bad number, date or quarter), raises
    ``error``: ``path:line: reason``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None) if header else None
        if header and not (head and header(head)):
            raise error(f"{path}: expected {expected}")
        rows = []
        for row in reader:
            if len(row) > 1 or "".join(row).strip():
                if head and len(row) != len(head):
                    reason = f"too {'few' if len(row) < len(head) else 'many'} fields"
                    raise error(f"{path}:{reader.line_num}: {reason}")
                try:
                    rows.append(parse(row))
                except ValueError as exc:
                    raise error(f"{path}:{reader.line_num}: {exc}") from None
    return head, rows


def write_csv_rows(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The ``header`` row, then ``rows``, as ``read_csv_rows`` reads them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def finite_float(cell: str) -> float:
    """The float of a CSV cell; ValueError if it is not a finite number."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def read_panel_csv(path: Path | str, check_returns: bool = True) -> ReturnPanel:
    parse = lambda row: (dt.date.fromisoformat(row[0]), row[1], finite_float(row[2]))
    header = lambda head: len(head) == 3
    _, records = read_csv_rows(path, parse, PanelError, header, "header date,entity,value")
    if not records:
        raise PanelError(f"{path}: empty panel")
    return ReturnPanel.from_records(records, check_returns=check_returns)


def write_panel_csv(path: Path | str, panel: ReturnPanel, header: Sequence[str]) -> None:
    observed = (panel.series(entity) for entity in panel.entity_ids)
    write_csv_rows(path, header, (
        [dt.date.fromordinal(int(o)).isoformat(), entity, repr(float(v))]
        for entity, s in zip(panel.entity_ids, observed)
        for o, v in zip(s.ordinals, s.values)
    ))


def read_calendar_csv(path: Path | str) -> TradingCalendar:
    parse = lambda row: dt.date.fromisoformat(",".join(row).strip())
    _, dates = read_csv_rows(path, parse, PanelError)
    if not dates:
        raise PanelError(f"{path}: empty calendar")
    return TradingCalendar.from_dates(dates)
