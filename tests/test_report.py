import datetime as dt

import numpy as np

from marketradar import report as rp
from marketradar.panel import ReturnPanel
from marketradar.radar import ForecastRow, ForecastTable

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
