"""Trading calendar and quarter arithmetic.

A quarter is a ``(year, 1..4)`` tuple derived from the calendar month, so
every date belongs to exactly one quarter.  The calendar itself is just the
strictly increasing set of trading dates observed in a return panel (or
supplied explicitly); all walk-forward windowing is expressed against it.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Quarter = tuple[int, int]


def quarter_of(d: dt.date) -> Quarter:
    return (d.year, (d.month - 1) // 3 + 1)


def first_day(q: Quarter) -> dt.date:
    return dt.date(q[0], 3 * q[1] - 2, 1)


def shift_quarter(q: Quarter, n: int) -> Quarter:
    year, num = q
    idx = year * 4 + (num - 1) + n
    return (idx // 4, idx % 4 + 1)


def quarter_range(last: Quarter, length: int) -> list[Quarter]:
    """The ``length`` consecutive quarters ending at ``last`` (inclusive)."""
    return [shift_quarter(last, k) for k in range(-(length - 1), 1)]


def format_quarter(q: Quarter) -> str:
    return f"{q[0]}Q{q[1]}"


def parse_quarter(text: str) -> Quarter:
    year, _, num = text.partition("Q")
    q = (int(year), int(num))
    if not 1 <= q[1] <= 4:
        raise ValueError(f"bad quarter {text!r}")
    return q


@dataclass(frozen=True)
class TradingCalendar:
    """Strictly increasing trading dates with quarter lookups."""

    dates: tuple[dt.date, ...]
    ordinals: np.ndarray = field(repr=False)

    @classmethod
    def from_dates(cls, dates: Iterable[dt.date]) -> "TradingCalendar":
        uniq = sorted(set(dates))
        if not uniq:
            raise ValueError("empty calendar")
        ordinals = np.array([d.toordinal() for d in uniq], dtype=np.int64)
        return cls(dates=tuple(uniq), ordinals=ordinals)

    def __len__(self) -> int:
        return len(self.dates)

    def quarters(self) -> list[Quarter]:
        out: list[Quarter] = []
        for d in self.dates:
            q = quarter_of(d)
            if not out or out[-1] != q:
                out.append(q)
        return out

    def days_in_quarter(self, q: Quarter) -> list[dt.date]:
        bounds = [first_day(q).toordinal(), first_day(shift_quarter(q, 1)).toordinal()]
        lo, hi = np.searchsorted(self.ordinals, bounds)
        return list(self.dates[lo:hi])

    def days_in_quarters(self, qs: Sequence[Quarter]) -> list[dt.date]:
        return [d for q in sorted(set(qs)) for d in self.days_in_quarter(q)]
