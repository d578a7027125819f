import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from marketradar.panel import (
    CONSTANT_SD_RTOL,
    EntitySeries,
    PanelError,
    ReturnPanel,
    SignalBlock,
    SignalId,
    WindowTooSmall,
    assemble_training_window,
    build_signal_block,
    lag_window,
    lagged_signals,
    lagged_weekly_signal,
    read_panel_csv,
    standardize,
    write_panel_csv,
)
from marketradar.trading_calendar import TradingCalendar, quarter_of, shift_quarter

D = dt.date


def panel_from(rows):
    return ReturnPanel.from_records(rows)


def daily_series(start: dt.date, rets):
    dates = [start + dt.timedelta(days=i) for i in range(len(rets))]
    return EntitySeries(
        ordinals=np.array([d.toordinal() for d in dates], dtype=np.int64),
        values=np.array(rets, dtype=np.float64),
    )


class TestLaggedWeeklySignal:
    def test_zero_returns_compound_to_zero(self):
        series = daily_series(D(2020, 1, 1), [0.0] * 30)
        assert lagged_weekly_signal(series, D(2020, 1, 31), 1) == 0.0

    def test_two_days_compound(self):
        # only two trading days fall inside the lag-1 window
        d = D(2020, 1, 31)
        series = EntitySeries(
            ordinals=np.array(
                [D(2020, 1, 27).toordinal(), D(2020, 1, 29).toordinal()], dtype=np.int64
            ),
            values=np.array([0.01, 0.01]),
        )
        assert lagged_weekly_signal(series, d, 1) == pytest.approx(0.0201, abs=1e-12)

    def test_window_offsets_match_convention(self):
        d = D(2021, 6, 15)
        o = d.toordinal()
        assert lag_window(d, 1) == (o - 7, o - 1)
        assert lag_window(d, 2) == (o - 14, o - 8)
        assert lag_window(d, 3) == (o - 21, o - 15)
        assert lag_window(d, 4) == (o - 28, o - 22)

    def test_empty_window_returns_zero(self):
        series = daily_series(D(2020, 1, 1), [0.05] * 5)
        assert lagged_weekly_signal(series, D(2021, 1, 1), 1) == 0.0

    def test_lag_must_be_positive(self):
        series = daily_series(D(2020, 1, 1), [0.0])
        with pytest.raises(PanelError):
            lagged_weekly_signal(series, D(2020, 2, 1), 0)

    @given(lags=st.integers(min_value=1, max_value=12))
    def test_windows_partition_preceding_days(self, lags):
        d = D(2020, 6, 1)
        covered = []
        for k in range(1, lags + 1):
            lo, hi = lag_window(d, k)
            covered.extend(range(lo, hi + 1))
        expected = list(range(d.toordinal() - 7 * lags, d.toordinal()))
        assert sorted(covered) == expected
        assert len(set(covered)) == len(covered)


class TestBuildSignalBlock:
    def _markets(self, n_sources, start, n_days, value=0.001):
        rows = []
        for s in range(n_sources):
            for i in range(n_days):
                rows.append((start + dt.timedelta(days=i), f"M{s:02d}", value))
        return panel_from(rows)

    def test_47_sources_4_lags_gives_188_columns(self):
        start = D(2020, 1, 1)
        markets = self._markets(47, start, 40)
        assets = panel_from([(D(2020, 2, 17), "AAA", 0.01)])
        block = build_signal_block(markets, assets, [D(2020, 2, 17)], 4, "AAA")
        assert len(block.columns) == 188
        assert block.values.shape == (1, 188)

    def test_minimal_block(self):
        markets = self._markets(1, D(2020, 1, 1), 20)
        assets = panel_from([(D(2020, 1, 20), "AAA", 0.02)])
        block = build_signal_block(markets, assets, [D(2020, 1, 20)], 1, "AAA")
        assert block.values.shape == (1, 1)
        assert block.target[0] == pytest.approx(0.02)
        assert block.rows == [("AAA", D(2020, 1, 20))]

    def test_no_sources_errors(self):
        assets = panel_from([(D(2020, 1, 20), "AAA", 0.02)])
        empty = ReturnPanel({}, check_returns=True)
        with pytest.raises(PanelError, match="no signals"):
            build_signal_block(empty, assets, [D(2020, 1, 20)], 1, "AAA")

    def test_no_look_ahead(self):
        # perturbing the market on the prediction date must not move signals
        start = D(2020, 1, 1)
        date = D(2020, 2, 10)
        base_rows = [
            (start + dt.timedelta(days=i), "M00", 0.001) for i in range(60)
        ]
        assets = panel_from([(date, "AAA", 0.01)])
        block_a = build_signal_block(panel_from(base_rows), assets, [date], 4, "AAA")
        bumped = [
            (d, e, 0.5 if d >= date else r) for d, e, r in base_rows
        ]
        block_b = build_signal_block(panel_from(bumped), assets, [date], 4, "AAA")
        np.testing.assert_array_equal(block_a.values, block_b.values)

    def test_empty_windows_flagged_not_dropped(self):
        # source went dark before the prediction date: row kept, flag raised
        markets = self._markets(1, D(2020, 1, 1), 5)
        assets = panel_from([(D(2020, 3, 2), "AAA", 0.01)])
        block = build_signal_block(markets, assets, [D(2020, 3, 2)], 2, "AAA")
        assert block.n_rows == 1
        assert block.empty_windows == 2
        np.testing.assert_array_equal(block.values, np.zeros((1, 2)))


# Multi-source panels with gaps and differing holidays: each source trades
# on its own subset of a 50-day span, and some sources never trade at all.
PANEL_START = D(2020, 3, 2)


@st.composite
def source_panels(draw):
    n_sources = draw(st.integers(min_value=1, max_value=4))
    series = {}
    for s in range(n_sources):
        offsets = draw(st.lists(st.integers(0, 49), unique=True, max_size=30))
        rets = draw(
            st.lists(
                st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
                min_size=len(offsets),
                max_size=len(offsets),
            )
        )
        order = np.argsort(offsets)
        series[f"M{s}"] = EntitySeries(
            ordinals=np.array(offsets, dtype=np.int64)[order] + PANEL_START.toordinal(),
            values=np.array(rets, dtype=np.float64)[order],
        )
    return ReturnPanel(series)


prediction_dates = st.lists(
    st.integers(-10, 90).map(lambda i: PANEL_START + dt.timedelta(days=i)),
    min_size=1,
    max_size=8,
)


class TestLaggedSignals:
    @given(panel=source_panels(), dates=prediction_dates, lags=st.integers(1, 5))
    def test_matches_scalar_reference(self, panel, dates, lags):
        values, empties = lagged_signals(panel, dates, lags)
        assert values.shape == (len(dates), len(panel.entity_ids) * lags)
        expected_empties = 0
        for i, d in enumerate(dates):
            j = 0
            for source in panel.entity_ids:
                series = panel.series(source)
                for k in range(1, lags + 1):
                    want = lagged_weekly_signal(series, d, k)
                    assert np.array_equal(values[i, j], want)
                    lo, hi = lag_window(d, k)
                    expected_empties += not np.any((series.ordinals >= lo) & (series.ordinals <= hi))
                    j += 1
        assert empties == expected_empties

    @given(
        panel=source_panels(),
        day=st.integers(0, 60),
        bump=st.floats(min_value=-0.9, max_value=2.0, allow_nan=False),
        lags=st.integers(1, 5),
    )
    def test_no_look_ahead(self, panel, day, bump, lags):
        # perturbing source returns on or after d must leave row d unchanged
        d = PANEL_START + dt.timedelta(days=day)
        later = {}
        for source in panel.entity_ids:
            s = panel.series(source)
            vals = np.where(s.ordinals >= d.toordinal(), bump, s.values)
            later[source] = EntitySeries(s.ordinals, vals)
        before, empties_before = lagged_signals(panel, [d], lags)
        after, empties_after = lagged_signals(ReturnPanel(later), [d], lags)
        np.testing.assert_array_equal(before, after)
        assert empties_before == empties_after

    def test_lag_must_be_positive(self):
        panel = panel_from([(D(2020, 1, 2), "M00", 0.01)])
        with pytest.raises(PanelError):
            lagged_signals(panel, [D(2020, 1, 9)], 0)


class TestDenseAccessors:
    def _panel(self):
        return ReturnPanel(
            {
                "A": EntitySeries(
                    np.array([D(2020, 1, 2).toordinal(), D(2020, 1, 6).toordinal()]),
                    np.array([0.01, 0.03]),
                ),
                "B": EntitySeries(np.array([D(2020, 1, 3).toordinal()]), np.array([0.02])),
                "EMPTY": EntitySeries(np.array([], dtype=np.int64), np.array([])),
            }
        )

    def test_dense_layout(self):
        panel = self._panel()
        assert panel.entity_ids == ["A", "B", "EMPTY"]
        assert panel.dates() == (D(2020, 1, 2), D(2020, 1, 3), D(2020, 1, 6))
        np.testing.assert_array_equal(
            panel.values,
            [[0.01, np.nan, np.nan], [np.nan, 0.02, np.nan], [0.03, np.nan, np.nan]],
        )
        assert len(panel.series("EMPTY")) == 0
        np.testing.assert_array_equal(panel.series("A").values, [0.01, 0.03])
        with pytest.raises(PanelError, match="unknown entity"):
            panel.series("C")

    def test_rows(self):
        panel = self._panel()
        days = [D(2019, 12, 31), D(2020, 1, 3), D(2020, 1, 4), D(2020, 1, 6), D(2020, 2, 1)]
        np.testing.assert_array_equal(
            panel.rows(days),
            [
                [np.nan] * 3,
                [np.nan, 0.02, np.nan],
                [np.nan] * 3,
                [0.03, np.nan, np.nan],
                [np.nan] * 3,
            ],
        )
        np.testing.assert_array_equal(
            panel.rows(days[1:2], ["B", "C", "EMPTY", "A"]), [[0.02, np.nan, np.nan, np.nan]]
        )

    def test_rows_before_is_prior_close(self):
        panel = self._panel()
        days = [D(2020, 1, 2), D(2020, 1, 3), D(2020, 1, 5), D(2020, 1, 6), D(2020, 1, 7)]
        np.testing.assert_array_equal(
            panel.rows_before(days, ["A", "B", "EMPTY", "C"]),
            [
                [np.nan] * 4,
                [0.01, np.nan, np.nan, np.nan],
                [0.01, 0.02, np.nan, np.nan],
                [0.01, 0.02, np.nan, np.nan],
                [0.03, 0.02, np.nan, np.nan],
            ],
        )

    def test_empty_panel(self):
        # the panel test_no_sources_errors builds
        empty = ReturnPanel({}, check_returns=True)
        days = [D(2020, 1, 20), D(2020, 1, 21)]
        assert empty.rows(days).shape == (2, 0)
        assert empty.rows_before(days).shape == (2, 0)
        np.testing.assert_array_equal(empty.rows(days, ["A"]), [[np.nan], [np.nan]])
        np.testing.assert_array_equal(empty.rows_before(days, ["A"]), [[np.nan], [np.nan]])
        assert empty.rows([]).shape == (0, 0)


class TestStandardize:
    def _block(self, matrix, target=None):
        matrix = np.asarray(matrix, dtype=np.float64)
        n = matrix.shape[0]
        return SignalBlock(
            asset="A",
            dates=[D(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)],
            columns=[SignalId(f"M{j}", 1) for j in range(matrix.shape[1])],
            values=matrix,
            target=np.zeros(n) if target is None else np.asarray(target, dtype=np.float64),
        )

    def test_hand_case(self):
        out, stats = standardize(self._block([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.sd[0] == pytest.approx(1.0)

    def test_constant_column_becomes_zero(self):
        out, _ = standardize(self._block([[5.0], [5.0], [5.0]]))
        np.testing.assert_array_equal(out.values, np.zeros((3, 1)))

    def test_single_row_errors(self):
        with pytest.raises(PanelError):
            standardize(self._block([[1.0, 2.0]]))

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=3,
            max_size=24,
        )
    )
    # all-equal columns whose computed mean is an ulp off, and a one-ulp spread
    @example([0.8, 0.8, 0.8])
    @example([0.1, 0.1, 0.1])
    @example([5.0, 5.0, 4.999999999999999])
    @example([5.7e-34] * 7)
    def test_output_moments(self, column):
        values = np.array(column)[:, None]
        sd = np.std(values, ddof=1)
        # spreads so small that their squares are subnormal lose precision
        assume(sd == 0 or sd > 1e-100)
        out, _ = standardize(self._block(values))
        if sd <= CONSTANT_SD_RTOL * np.max(np.abs(values)):
            np.testing.assert_array_equal(out.values, 0.0)
        else:
            assert out.values[:, 0].mean() == pytest.approx(0.0, abs=1e-9)
            assert out.values[:, 0].std(ddof=1) == pytest.approx(1.0, rel=1e-9)

    def test_idempotent_on_nonconstant(self):
        rng = np.random.default_rng(0)
        block = self._block(rng.normal(size=(40, 3)))
        once, _ = standardize(block)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_prediction_time_uses_training_stats(self):
        block = self._block([[1.0], [2.0], [3.0]])
        _, stats = standardize(block)
        fresh = np.array([[4.0]])
        np.testing.assert_allclose(stats.transform(fresh), [[2.0]])


def make_quarter_panel(days_per_quarter=63, quarters=4, assets=("AAA",), start_year=2020):
    rows = []
    q = (start_year, 1)
    dates = []
    for _ in range(quarters):
        year, num = q
        d = dt.date(year, 3 * (num - 1) + 1, 1)
        added = 0
        while added < days_per_quarter:
            if d.weekday() < 5:
                dates.append(d)
                added += 1
            d += dt.timedelta(days=1)
        q = shift_quarter(q, 1)
    for a in assets:
        rows.extend((d, a, 0.001) for d in dates)
    return panel_from(rows), dates


class TestAssembleTrainingWindow:
    def test_full_year_has_252_rows(self):
        assets, dates = make_quarter_panel()
        markets, _ = make_quarter_panel(assets=("M00",))
        cal = TradingCalendar.from_dates(dates)
        block = assemble_training_window(assets, markets, cal, "AAA", (2020, 4))
        assert block.n_rows == 252

    def test_short_history_is_skipped(self):
        assets, dates = make_quarter_panel(days_per_quarter=10)
        markets, _ = make_quarter_panel(days_per_quarter=10, assets=("M00",))
        cal = TradingCalendar.from_dates(dates)
        with pytest.raises(WindowTooSmall):
            assemble_training_window(assets, markets, cal, "AAA", (2020, 4))

    def test_rows_stay_inside_window(self):
        assets, dates = make_quarter_panel(quarters=6)
        markets, _ = make_quarter_panel(quarters=6, assets=("M00",))
        cal = TradingCalendar.from_dates(dates)
        block = assemble_training_window(assets, markets, cal, "AAA", (2020, 4))
        wanted = {(2020, 1), (2020, 2), (2020, 3), (2020, 4)}
        assert {quarter_of(d) for _, d in block.rows} == wanted


class TestPanelValidation:
    def test_duplicate_observation_rejected(self):
        with pytest.raises(PanelError, match="duplicate"):
            panel_from([(D(2020, 1, 1), "AAA", 0.01), (D(2020, 1, 1), "AAA", 0.02)])

    def test_return_below_minus_one_rejected(self):
        with pytest.raises(PanelError):
            panel_from([(D(2020, 1, 1), "AAA", -1.5)])

    def test_csv_round_trip(self, tmp_path):
        panel = panel_from(
            [(D(2020, 1, 1), "AAA", 0.013), (D(2020, 1, 2), "AAA", -0.004), (D(2020, 1, 1), "BBB", 0.0)]
        )
        path = tmp_path / "returns.csv"
        write_panel_csv(path, panel, ["date", "entity", "ret"])
        back = read_panel_csv(path)
        assert back.entity_ids == panel.entity_ids
        for e in panel.entity_ids:
            np.testing.assert_array_equal(back.series(e).values, panel.series(e).values)
            np.testing.assert_array_equal(back.series(e).ordinals, panel.series(e).ordinals)
