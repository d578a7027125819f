import datetime as dt

import numpy as np
import pytest

from marketradar import report as rp
from marketradar.panel import ReturnPanel, SignalId
from marketradar.radar import ForecastRow, ForecastTable
from marketradar.shapley import ImportanceRecord

D = dt.date
DAYS = [D(2020, 1, 6) + dt.timedelta(days=i) for i in range(6)]
ASSETS = [f"A{i}" for i in range(10)]


def forecasts(n_by_day: dict[dt.date, int]) -> ForecastTable:
    """lasso forecasts that rank A0 lowest and A9 highest on every day."""
    return ForecastTable(
        [
            ForecastRow(day, asset, "lasso", float(i))
            for day, n in n_by_day.items()
            for i, asset in enumerate(ASSETS[:n])
        ]
    )


def returns(spike_day: dt.date | None = None) -> ReturnPanel:
    """A_i earns 0.001*i plus a little per day; 0.5 on ``spike_day``."""
    return ReturnPanel.from_records(
        [
            (day, asset, 0.5 if day == spike_day else 0.001 * i + 0.0001 * k)
            for k, day in enumerate(DAYS)
            for i, asset in enumerate(ASSETS)
        ]
    )


class TestBooks:
    def test_top_and_bottom_follow_the_forecast_ranks(self):
        panel = returns()
        books = rp.build_algo_portfolios(forecasts({d: 10 for d in DAYS[:4]}), panel, "lasso", 0.1)
        expected = panel.rows(DAYS[:4], ["A0", "A9"])
        np.testing.assert_array_equal(books.top.returns, expected[:, 1])
        np.testing.assert_array_equal(books.bottom.returns, expected[:, 0])
        assert books.spread.dates == DAYS[:4]

    def test_portfolio_rows_without_members_print_na_with_reason(self):
        # at the default 5% a day needs 20 forecasts, so both books stay empty
        books = {
            "lasso": rp.build_algo_portfolios(
                forecasts({d: 10 for d in DAYS[:4]}), returns(), "lasso", 0.05
            )
        }
        assert len(books["lasso"].spread) == 0
        rows = rp.portfolio_table(books, 0.0, None, 6.24).splitlines()[2:]
        assert rows == [
            f"lasso    {leg:7} n/a (need at least 2 observations)"
            for leg in ("top", "bottom", "t-b")
        ]


class TestDecileTable:
    def test_dates_with_fewer_than_ten_forecasts_are_skipped(self):
        full = {d: 10 for d in DAYS[:4]}
        panel = returns(spike_day=DAYS[4])
        table = rp.decile_table(forecasts(full), panel, 0.0, None)
        assert "n/a" not in table
        with_short_day = rp.decile_table(forecasts({**full, DAYS[4]: 9}), panel, 0.0, None)
        assert with_short_day == table

    def test_high_low_of_a_constant_spread_prints_no_t_statistic(self):
        # 20 assets earning 0.001*i + 0.0001*day over 5 days: High - Low is
        # 0.018 every day up to rounding, whose t-statistic printed as ~1e16
        days, assets = DAYS[:5], [f"B{i:02d}" for i in range(20)]
        panel = ReturnPanel.from_records(
            [
                (d, a, 0.001 * i + 0.0001 * k)
                for k, d in enumerate(days)
                for i, a in enumerate(assets)
            ]
        )
        table = ForecastTable(
            [ForecastRow(d, a, "lasso", float(i)) for d in days for i, a in enumerate(assets)]
        )
        high_low = rp.decile_table(table, panel, 0.0, None).splitlines()[-1]
        assert high_low.split() == ["High", "-", "Low", "180.00"]

    @pytest.mark.parametrize(
        "factors", [None, {"MKT": dict(zip(DAYS, (0.01, -0.02, 0.005, 0.03)))}]
    )
    def test_a_decile_without_spread_prints_no_nan_t_statistic(self, factors):
        # A0, the Low decile, earns exactly 0 every day: its mean (or alpha)
        # and its standard error are 0, and the t-statistic 0/0
        panel = ReturnPanel.from_records(
            [
                (day, asset, (0.001 + 0.0001 * k * k) * i)
                for k, day in enumerate(DAYS[:4])
                for i, asset in enumerate(ASSETS)
            ]
        )
        table = rp.decile_table(forecasts({d: 10 for d in DAYS[:4]}), panel, 0.0, factors)
        assert "nan" not in table
        assert table.splitlines()[-2].split() == ["Low", "(1)", "0.00"]

    def test_high_low_is_na_when_the_deciles_share_no_dates(self):
        table = rp.decile_table(forecasts({d: 9 for d in DAYS[:4]}), returns(), 0.0, None)
        assert table.splitlines()[-1].split() == ["High", "-", "Low", "n/a"]


class TestTimingTable:
    CAPS = ReturnPanel.from_records([(DAYS[0], a, 1.0) for a in ASSETS], check_returns=False)

    def test_one_shared_date_prints_na_with_reason(self):
        index = {DAYS[1]: 0.01, DAYS[2]: 0.02}
        table = rp.timing_table(forecasts({DAYS[1]: 10}), self.CAPS, index, 0.0, 2)
        assert table == "== market timing ==\nn/a (need at least 2 observations)\n"

    def test_no_shared_date_prints_na_with_reason(self):
        table = rp.timing_table(forecasts({DAYS[1]: 10}), self.CAPS, {DAYS[2]: 0.02}, 0.0, 2)
        assert table == (
            "== market timing ==\nn/a (no dates shared by forecasts and index returns)\n"
        )


class TestImportanceTable:
    def test_positive_filter_respected(self):
        # importance falls by 0.1 a lag week, plus noise
        rng = np.random.default_rng(10)
        quarters = [(2020, 1), (2020, 2)]
        records = [
            ImportanceRecord(
                asset, q, "lasso", SignalId(src, k), 0.6 - 0.1 * k + rng.normal(0, 0.01)
            )
            for asset in ("A", "B", "C") for q in quarters for src in ("M1", "M2")
            for k in range(1, 5)
        ]
        every = {(r.asset, r.quarter, r.algo) for r in records}
        keys = {(asset, q, "lasso") for asset in ("A", "B") for q in quarters}
        kept = [r for r in records if (r.asset, r.quarter, r.algo) in keys]
        table = rp.importance_table(records, keys)
        assert "slope" in table
        assert table == rp.importance_table(kept, every)
        assert table != rp.importance_table(records, every)
        empty = rp.importance_table(records, set()).splitlines()
        assert empty[1].split() == ["lasso", "linear:", "n/a", "exp:", "n/a"]

    def test_rising_importance_has_no_window(self):
        # importance grows with the lag: a positive slope implies no
        # dissemination window, in either form
        rng = np.random.default_rng(11)
        records = [
            ImportanceRecord(
                asset, (2020, 1), "lasso", SignalId(src, k), 0.1 * k + rng.normal(0, 0.01)
            )
            for asset in ("A", "B", "C") for src in ("M1", "M2") for k in range(1, 5)
        ]
        table = rp.importance_table(records, {(r.asset, r.quarter, r.algo) for r in records})
        row = table.splitlines()[1]
        assert row.count("window n/a") == 2 and "n/aw" not in row
