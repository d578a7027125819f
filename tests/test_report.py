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


def _weekdays(start: dt.date, n: int) -> list[dt.date]:
    days, day = [], start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


class TestRatePath:
    """Every table on a risk-free rate that varies by date, with two
    factors: 20 assets over 60 weekdays across a quarter end.  The pinned
    text was computed when each table built its own excess returns, and
    one excess-return body must keep it byte for byte."""

    DAYS = _weekdays(D(2020, 2, 3), 60)
    ASSETS = [f"C{i:02d}" for i in range(20)]
    RF = {d: 1e-4 * (1.0 + 0.5 * np.sin(0.2 * k)) for k, d in enumerate(DAYS)}

    @pytest.fixture(scope="class")
    def tables(self):
        days, assets, rf = self.DAYS, self.ASSETS, self.RF
        cells = [(k, d, i, a) for k, d in enumerate(days) for i, a in enumerate(assets)]
        returns = ReturnPanel.from_records([
            (d, a, 0.002 * np.sin(1.3 * k + 0.7 * i) + 0.0005 * np.sin(0.37 * k * i) + 1e-4 * i)
            for k, d, i, a in cells
        ])
        # caps from the Friday before the first day, so every day has a prior cap
        caps = ReturnPanel.from_records(
            [
                (d, a, 1.0 + 0.1 * i + 0.01 * k)
                for k, d in enumerate([days[0] - dt.timedelta(days=3)] + days)
                for i, a in enumerate(assets)
            ],
            check_returns=False,
        )
        table = ForecastTable([
            ForecastRow(d, a, "lasso", float(np.sin(0.9 * k + 1.1 * i) + 0.05 * np.cos(0.3 * k)))
            for k, d, i, a in cells
        ])
        mean = returns.rows(days, assets).mean(axis=1)
        factors = {
            "MKT": {
                d: float(m) - rf[d] + 1e-4 * np.sin(2.1 * k) for k, (d, m) in enumerate(zip(days, mean))
            },
            "SMB": {d: 1e-3 * np.cos(0.5 * k) for k, d in enumerate(days)},
        }
        books = {"lasso": rp.build_algo_portfolios(table, returns, "lasso", 0.1)}
        index = {d: v + rf[d] for d, v in factors["MKT"].items()}
        return (
            rp.portfolio_table(books, rf, factors, 6.24),
            rp.decile_table(table, returns, rf, factors),
            rp.decile_table(table, returns, rf, None),
            rp.timing_table(table, caps, index, rf, 2),
        )

    def test_portfolio_table(self, tables):
        assert tables[0] == (
            "== portfolio performance (daily, bps) ==\n"
            "algo     leg                   mean                alpha  sharpe  max1Qloss  turnover  net_mean\n"
            "lasso    top            9.63 (7.76)          5.11 (0.89)   15.91      0.022     0.983      4.50\n"
            "lasso    bottom         7.81 (5.56)        -3.52 (-0.59)   11.40      0.015     0.983      2.69\n"
            "lasso    t-b            1.81 (0.78)          8.63 (0.91)    1.60      0.004         -         -\n"
        )

    @pytest.mark.parametrize("with_factors", [True, False])
    def test_decile_table(self, tables, with_factors):
        cells = {
            True: [
                "5.11 (0.89)", "-4.65 (-0.56)", "-1.29 (-0.20)", "9.27 (1.47)",
                "-13.47* (-2.00)", "6.26 (1.00)", "8.31 (1.41)", "-7.28 (-1.24)",
                "18.17*** (2.74)", "-3.52 (-0.59)", "8.63 (0.91)",
            ],
            False: [
                "9.63 (7.76)", "7.14 (4.61)", "7.58 (5.88)", "9.89 (7.27)", "9.07 (6.26)",
                "7.47 (4.72)", "7.90 (5.13)", "9.81 (6.52)", "9.76 (6.61)", "7.81 (5.56)",
                "1.81 (0.78)",
            ],
        }[with_factors]
        labels = ["High (10)", *(str(i) for i in range(9, 1, -1)), "Low (1)", "High - Low"]
        expected = "== decile portfolios (alpha, bps) ==\n" + f"{'decile':10} {'lasso':>18}\n"
        expected += "".join(f"{label:10} {c:>18}\n" for label, c in zip(labels, cells))
        assert tables[1 if with_factors else 2] == expected

    def test_timing_table(self, tables):
        assert tables[3] == (
            "== market timing ==\n"
            "2x strategy: mean 4.20 bps (t 2.21), sharpe 3.45, max1Qloss 0.008, turnover 0.283\n"
            "index:        mean 9.61 bps (t 47.63), sharpe 84.69, max1Qloss 0.017\n"
        )
