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

CSV files move a column at a time, in chunks of ``CSV_CHUNK_ROWS`` rows.
``write_csv_columns`` writes a header row, then comma-separated cells with
``\\r\\n`` line ends: floats as their shortest round-trip ``repr``, and text
quoted only where ``csv.writer`` would quote it.  ``read_csv_columns``
reads ``csv.reader``'s dialect (quoted cells, blank lines skipped) into
typed columns, parsing a date, quarter or signal once per distinct cell,
and names the earliest bad row of a file as ``path:line: reason``.
"""
from __future__ import annotations

import csv
import datetime as dt
import itertools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import MarketRadarError
from .trading_calendar import Quarter, TradingCalendar, format_quarter, quarter_range


class PanelError(MarketRadarError, ValueError):
    """Malformed panel data or an operation precondition violation."""


class WindowTooSmall(PanelError):
    """A task's blocks are too small to run it: its training window has
    fewer rows than the configured minimum, or its forecast quarter none."""


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
        lengths = [len(s) for s in series.values()]
        self._fill(
            np.concatenate([np.empty(0, np.int64), *(s.ordinals for s in series.values())]),
            list(series),
            np.repeat(np.arange(len(series)), lengths),
            np.concatenate([np.empty(0), *(s.values for s in series.values())]),
            check_returns,
        )

    @classmethod
    def from_columns(
        cls,
        ordinals: np.ndarray,
        names: Sequence[str],
        codes: np.ndarray,
        values: np.ndarray,
        check_returns: bool = True,
    ) -> "ReturnPanel":
        """The panel whose row ``i`` is entity ``names[codes[i]]``'s value
        ``values[i]`` on date ordinal ``ordinals[i]``, rows in any order;
        ``names`` are distinct, each a column even without a row.  A repeated
        (date, entity) raises PanelError for the repeated entity that comes
        first in ``names``, on its earliest repeated date; then a value that
        is not finite, or with ``check_returns`` a return <= -100%, for the
        first such entity in sorted order."""
        panel = cls.__new__(cls)
        panel._fill(np.asarray(ordinals, np.int64), list(names), np.asarray(codes),
                    np.asarray(values, np.float64), check_returns)
        return panel

    def _fill(self, ordinals, names, codes, values, check_returns) -> None:
        self.ordinals, row = np.unique(ordinals, return_inverse=True)
        # ordered by name position, then date: the smallest repeated key
        # names the first repeated entity's earliest repeated date
        keys = np.sort(codes * len(self.ordinals) + row)
        repeated = keys[1:][keys[1:] == keys[:-1]]
        if len(repeated):
            code, day = divmod(int(repeated[0]), len(self.ordinals))
            raise PanelError(
                f"duplicate (date, entity) observation for {names[code]} "
                f"on {dt.date.fromordinal(int(self.ordinals[day]))}"
            )
        order = sorted(range(len(names)), key=names.__getitem__)
        column = np.empty(len(names), np.intp)
        column[order] = np.arange(len(names))
        column = column[codes]
        self.columns = {names[i]: j for j, i in enumerate(order)}
        # the first entity, in sorted order, with a bad value: non-finite,
        # or with ``check_returns`` a return <= -100%
        finite = np.isfinite(values)
        bad = ~finite | (check_returns & (values <= -1.0))
        if bad.any():
            j = int(column[bad].min())
            name, mine = names[order[j]], column == j
            if not finite[mine].all():
                raise PanelError(f"non-finite value for entity {name}")
            day = dt.date.fromordinal(int(ordinals[mine & (values <= -1.0)].min()))
            raise PanelError(f"return <= -100% for {name} on {day}")
        self.values = np.full((len(self.ordinals), len(names)), np.nan)
        self.values[row, column] = values

    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple[dt.date, str, float]],
        check_returns: bool = True,
    ) -> "ReturnPanel":
        """``from_columns`` of (date, entity, value) records, entities named
        in order of first appearance."""
        rows = list(records)
        code: dict[str, int] = {}
        codes = np.fromiter((code.setdefault(e, len(code)) for _, e, _ in rows), np.intp, len(rows))
        return cls.from_columns(
            np.fromiter((d.toordinal() for d, _, _ in rows), np.int64, len(rows)),
            list(code),
            codes,
            np.fromiter((float(v) for _, _, v in rows), np.float64, len(rows)),
            check_returns,
        )

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
        if not np.all(np.isfinite(self.target)):
            raise PanelError("non-finite target in signal block")
        bad = np.argwhere(~np.isfinite(self.values))
        if len(bad):
            signal, date = self.columns[bad[0, 1]], self.dates[bad[0, 0]]
            raise PanelError(f"signal {signal.source} lag {signal.lag_week}: not finite on {date}")

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
        with np.errstate(over="ignore"):  # an overflow is left to the block to report
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
        window = [format_quarter(q) for q in quarter_range(last_quarter, window_quarters)]
        raise WindowTooSmall(f"{window[0]}..{window[-1]}: {block.n_rows} rows < minimum {min_rows}")
    return block


# ---------------------------------------------------------------------------
# CSV interfaces: returns.csv / markets.csv (date,entity,ret),
# calendar.csv (one ISO date per line), caps.csv (date,asset,cap).
# Files move a column at a time, in chunks of CSV_CHUNK_ROWS rows.
# ---------------------------------------------------------------------------

# Rows per chunk.  A read chunk's rows, lists of strings, take about 0.3 MB;
# larger chunks read no faster (garbage collection then walks more live rows).
CSV_CHUNK_ROWS = 1024


class BadRow(ValueError):
    """A chunk's row ``index`` is rejected for the reason in the message."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(reason)
        self.index = index


class Distinct:
    """A column whose cells are parsed once per distinct cell: ``labels``
    holds each distinct parsed value in order of first appearance, and a
    call reads a chunk's cells as codes into ``labels``.  A cell is a string,
    or a tuple of a row's strings for a value read from several columns;
    ``parse`` raises ValueError for a bad cell (default: the cell itself)."""

    def __init__(self, parse: Callable[[object], Hashable] | None = None) -> None:
        self.parse = parse
        self.labels: list = []
        self._label_code: dict = {}
        self._cell_code: dict = {}

    def __call__(self, cells: Sequence) -> np.ndarray:
        # new cells in order of first appearance: the first bad one is the earliest
        for cell in dict.fromkeys(cells):
            if cell in self._cell_code:
                continue
            try:
                value = cell if self.parse is None else self.parse(cell)
            except ValueError as exc:
                raise BadRow(cells.index(cell), str(exc)) from None
            code = self._label_code.setdefault(value, len(self.labels))
            if code == len(self.labels):
                self.labels.append(value)
            self._cell_code[cell] = code
        return np.fromiter(map(self._cell_code.__getitem__, cells), np.int64, len(cells))

    def values(self, codes: np.ndarray) -> list:
        """Each code's label."""
        return list(map(self.labels.__getitem__, codes.tolist()))


def float_cells(cells: Sequence[str]) -> np.ndarray:
    """Each cell's ``float``; BadRow at the first cell it rejects."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError as exc:
                raise BadRow(i, str(exc)) from None
        raise


def finite_cells(cells: Sequence[str]) -> np.ndarray:
    """``float_cells``, and BadRow at the first cell whose number is not finite."""
    values = float_cells(cells)
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(bad.argmax())
        raise BadRow(i, f"non-finite value {cells[i]!r}")
    return values


class SeenKeys:
    """The int64 keys of the rows read so far, kept sorted: 8 bytes a row."""

    def __init__(self) -> None:
        self.keys = np.empty(0, np.int64)

    def first_repeat(self, keys: np.ndarray) -> int | None:
        """Index of the first of ``keys`` that an earlier one, or a row read
        before, holds; None when every key is new."""
        order = np.argsort(keys, kind="stable")
        again = np.zeros(len(keys), bool)
        again[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        if len(self.keys):
            again |= self.keys.take(np.searchsorted(self.keys, keys), mode="clip") == keys
        return int(again.argmax()) if again.any() else None

    def add(self, keys: np.ndarray) -> None:
        # a stable sort of two sorted runs merges them in linear time
        self.keys = np.sort(np.concatenate([self.keys, np.sort(keys)]), kind="stable")


def _filled(row: list[str]) -> bool:
    """Whether a row holds a cell: blank lines and lone blank cells are skipped."""
    return len(row) > 1 or bool("".join(row).strip())


def _line(path: Path | str, header: bool, index: int) -> int:
    """The line on which data row ``index`` (blank rows not counted) ends."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if header:
            next(reader)
        lines = (reader.line_num for row in reader if _filled(row))
        return next(itertools.islice(lines, index, None))


def _parse_earliest(parse: Callable[[list[Sequence]], tuple], cells: list[Sequence]) -> tuple:
    """``parse(cells)``, or the BadRow of the earliest rejected row: a row
    rejected by a later check may follow one that an earlier check passed
    and a later one rejects, so the rows before it are parsed again."""
    try:
        return parse(cells)
    except BadRow as bad:
        _parse_earliest(parse, [column[: bad.index] for column in cells])
        raise


def read_csv_columns(
    path: Path | str,
    parse: Callable[[list[Sequence]], tuple],
    error: type[MarketRadarError],
    header: Callable[[list[str]], bool] | None = None,
    expected: str = "",
) -> tuple[list[str] | None, list[np.ndarray]]:
    """The header row, which must satisfy ``header`` if given (else
    ``error``: ``path: expected <expected>``), and the typed columns of the
    later rows: ``parse`` turns each chunk's columns of cells (tuples of
    strings; without a header, one column of each row's cells joined by
    commas) into a tuple of arrays, concatenated over the chunks.  Blank
    rows are skipped.

    A row with fewer or more fields than the header, or one ``parse``
    rejects with BadRow (a bad number, date or quarter, a repeated key),
    raises ``error``: ``path:line: reason`` for the earliest rejected row,
    its first rejected cell in ``parse``'s order.  ``parse`` sees every
    chunk, at least one, in file order, and is called again on a rejected
    chunk's rows before the rejected one."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None) if header else None
        if header and not (head and header(head)):
            raise error(f"{path}: expected {expected}")
        width = len(head) if head else 1
        chunks, done = [], 0
        while (rows := list(itertools.islice(reader, CSV_CHUNK_ROWS))) or not chunks:
            miscount = None  # the first row whose field count is not the header's
            if not head:
                rows = [",".join(row) for row in rows if _filled(row)]
            elif set(map(len, rows)) - {width}:
                rows = [row for row in rows if _filled(row)]
                miscount = next((i for i, row in enumerate(rows) if len(row) != width), None)
                if miscount is not None:
                    few = len(rows[miscount]) < width
                    rows = rows[:miscount]
            cells = [tuple(rows)] if not head else list(zip(*rows)) or [()] * width
            try:
                chunks.append(_parse_earliest(parse, cells))
            except BadRow as bad:
                raise error(f"{path}:{_line(path, bool(head), done + bad.index)}: {bad}") from None
            if miscount is not None:
                reason = f"too {'few' if few else 'many'} fields"
                raise error(f"{path}:{_line(path, True, done + miscount)}: {reason}")
            done += len(rows)
    return head, [np.concatenate(column) for column in zip(*chunks)]


class _Echo:
    """A file whose ``write`` returns the text it is given."""

    def write(self, text: str) -> str:
        return text


def write_csv_columns(path: Path | str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """The ``header`` row, then row ``i`` of every column, written as
    ``csv.writer`` writes the rows: a float array as each value's ``repr``,
    and any other column (strings, dates, integers) as each distinct value
    is encoded once, as ``csv.writer`` writes that cell in a row of
    ``len(header)`` fields.  Lines end in ``\\r\\n``."""
    # csv.writer's writerow returns what the file's write returns: here the row's text
    encode = csv.writer(_Echo()).writerow
    pad = ("",) * (len(header) - 1)
    cell_texts: list[dict] = [{} for _ in columns]
    with open(path, "w", newline="") as fh:
        fh.write(encode(header))
        for start in range(0, len(columns[0]) if columns else 0, CSV_CHUNK_ROWS):
            texts = []
            for column, known in zip(columns, cell_texts):
                part = column[start : start + CSV_CHUNK_ROWS]
                if isinstance(part, np.ndarray) and part.dtype.kind == "f":
                    texts.append(map(repr, part.tolist()))
                    continue
                for value in set(part) - known.keys():
                    known[value] = encode((value, *pad))[: -len(pad) - 2]
                texts.append(map(known.__getitem__, part))
            fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")


def read_panel_csv(path: Path | str, check_returns: bool = True) -> ReturnPanel:
    dates, entities = Distinct(dt.date.fromisoformat), Distinct()
    parse = lambda cells: (dates(cells[0]), entities(cells[1]), finite_cells(cells[2]))
    header = lambda head: len(head) == 3
    _, (day, entity, value) = read_csv_columns(
        path, parse, PanelError, header, "header date,entity,value"
    )
    if not len(value):
        raise PanelError(f"{path}: empty panel")
    ordinals = np.array([d.toordinal() for d in dates.labels], np.int64)[day]
    try:
        return ReturnPanel.from_columns(ordinals, entities.labels, entity, value, check_returns)
    except PanelError as exc:
        raise PanelError(f"{path}: {exc}") from None


def write_panel_csv(path: Path | str, panel: ReturnPanel, header: Sequence[str]) -> None:
    """Every observation, entity by entity in column order, each in date order."""
    entity, day = np.nonzero(~np.isnan(panel.values.T))
    dates, names = panel.dates(), panel.entity_ids
    write_csv_columns(path, header, [
        list(map(dates.__getitem__, day.tolist())),
        list(map(names.__getitem__, entity.tolist())),
        panel.values[day, entity],
    ])


def read_calendar_csv(path: Path | str) -> TradingCalendar:
    dates = Distinct(lambda line: dt.date.fromisoformat(line.strip()))
    read_csv_columns(path, lambda cells: (dates(cells[0]),), PanelError)
    if not dates.labels:
        raise PanelError(f"{path}: empty calendar")
    return TradingCalendar.from_dates(dates.labels)
