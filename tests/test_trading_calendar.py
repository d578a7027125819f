import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketradar.trading_calendar import (
    TradingCalendar,
    format_quarter,
    parse_quarter,
    quarter_of,
    quarter_range,
    shift_quarter,
)

D = dt.date


class TestQuarterArithmetic:
    def test_quarter_of_month_boundaries(self):
        assert quarter_of(D(2020, 1, 1)) == (2020, 1)
        assert quarter_of(D(2020, 3, 31)) == (2020, 1)
        assert quarter_of(D(2020, 4, 1)) == (2020, 2)
        assert quarter_of(D(2020, 12, 31)) == (2020, 4)

    def test_shift_wraps_years(self):
        assert shift_quarter((2020, 1), -1) == (2019, 4)
        assert shift_quarter((2020, 4), 1) == (2021, 1)
        assert shift_quarter((2020, 2), 7) == (2022, 1)
        assert shift_quarter((2020, 2), -7) == (2018, 3)

    def test_quarter_range_inclusive(self):
        assert quarter_range((2020, 2), 4) == [(2019, 3), (2019, 4), (2020, 1), (2020, 2)]

    def test_format_parse_round_trip(self):
        assert parse_quarter(format_quarter((2021, 3))) == (2021, 3)
        with pytest.raises(ValueError):
            parse_quarter("2021Q7")


class TestCalendar:
    def test_sorted_unique_and_lookup(self):
        days = [D(2020, 1, 3), D(2020, 1, 2), D(2020, 1, 3), D(2020, 4, 1)]
        cal = TradingCalendar.from_dates(days)
        assert list(cal.dates) == [D(2020, 1, 2), D(2020, 1, 3), D(2020, 4, 1)]

    def test_quarters_and_days(self):
        days = [D(2020, 1, 2), D(2020, 1, 3), D(2020, 4, 1), D(2020, 7, 6)]
        cal = TradingCalendar.from_dates(days)
        assert cal.quarters() == [(2020, 1), (2020, 2), (2020, 3)]
        assert cal.days_in_quarter((2020, 1)) == [D(2020, 1, 2), D(2020, 1, 3)]
        assert cal.days_in_quarters([(2020, 2), (2020, 3)]) == [D(2020, 4, 1), D(2020, 7, 6)]

    def test_empty_calendar_rejected(self):
        with pytest.raises(ValueError):
            TradingCalendar.from_dates([])


# Calendars of up to 40 dates over three years: quarter and year boundaries
# fall inside, and many quarters of the span hold no date at all.
calendar_dates = st.lists(
    st.dates(min_value=D(2019, 11, 1), max_value=D(2022, 2, 28)), min_size=1, max_size=40
)
quarters = st.tuples(st.integers(2018, 2023), st.integers(1, 4))


class TestQuarterLookups:
    """The searchsorted lookups equal a scan of every calendar date."""

    @given(calendar_dates, quarters)
    def test_days_in_quarter_matches_scan(self, dates, q):
        cal = TradingCalendar.from_dates(dates)
        assert cal.days_in_quarter(q) == [d for d in cal.dates if quarter_of(d) == q]

    @given(calendar_dates, st.lists(quarters, max_size=6))
    def test_days_in_quarters_matches_scan(self, dates, qs):
        cal = TradingCalendar.from_dates(dates)
        wanted = set(qs)
        assert cal.days_in_quarters(qs) == [d for d in cal.dates if quarter_of(d) in wanted]
