import concurrent.futures.process
import csv
import datetime as dt
import hashlib
import os
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketradar import radar
from marketradar.learners import (
    BoostParams,
    ElasticNetParams,
    ForestParams,
    LassoParams,
    LinearModel,
    NetParams,
    fit_elastic_net,
    fit_lasso,
    fit_penalized_targets,
    linear,
)
from marketradar.panel import PanelError, ReturnPanel, SignalId, standardize, write_panel_csv
from marketradar.portfolio import PortfolioSeries, write_portfolio_csv
from marketradar.radar import (
    ForecastRow,
    ForecastTable,
    RadarConfig,
    RadarError,
    RunReport,
    SearchDim,
    enumerate_tasks,
    run_radar,
    task_seed,
    train_predict_stock_quarter,
    tune_hyperparameters,
    write_importance_csv,
    read_importance_csv,
    read_run_report_sparsity,
)
from marketradar.shapley import ImportanceRecord
from marketradar.synth import ScenarioSpec, generate
from marketradar.trading_calendar import (
    TradingCalendar,
    format_quarter,
    quarter_of,
    shift_quarter,
)

D = dt.date


@pytest.fixture(scope="module")
def small_scenario():
    spec = ScenarioSpec(
        n_assets=4,
        n_markets=3,
        days_per_quarter=22,
        n_quarters=6,
        exposed_fraction=0.5,
        noise_sd=0.001,
        markets_per_asset=1,
        seed=42,
    )
    return generate(spec)


def recording_pools(monkeypatch) -> list[int]:
    """The worker count of every process pool started from now on; a pool
    never forks more than two workers, even if the worker bound breaks."""
    started = []

    class RecordingPool(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(min(max_workers, 2), *args, **kwargs)

    # the dispatcher imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
    return started


def small_config(**kw):
    defaults = dict(
        algorithms=("lasso",),
        min_train_rows=40,
        importance=True,
        hyperparameters={"lasso": LassoParams(alpha=1e-5)},
    )
    defaults.update(kw)
    return RadarConfig(**defaults)


class TestTaskSeed:
    def test_stable_and_distinct(self):
        a = task_seed(1, "AAA", (2020, 3), "lasso")
        assert a == task_seed(1, "AAA", (2020, 3), "lasso")
        assert a != task_seed(1, "AAA", (2020, 3), "gb")
        assert a != task_seed(2, "AAA", (2020, 3), "lasso")
        assert a != task_seed(1, "AAB", (2020, 3), "lasso")


class TestTrainPredict:
    def test_forecast_dates_inside_next_quarter(self, small_scenario):
        sc = small_scenario
        cal = sc.calendar()
        result = train_predict_stock_quarter(
            sc.assets, sc.markets, cal, "A000", (2016, 4), "lasso", small_config()
        )
        assert not result.skipped
        assert result.forecasts
        target_q = (2017, 1)
        assert all(quarter_of(d) == target_q for d, _ in result.forecasts)

    def test_window_never_touches_forecast_quarter(self, small_scenario):
        # temporal hygiene over every runnable task
        sc = small_scenario
        cal = sc.calendar()
        cfg = small_config()
        checked = 0
        for asset, q, algo in enumerate_tasks(sc.assets, cal, cfg):
            result = train_predict_stock_quarter(
                sc.assets, sc.markets, cal, asset, q, algo, cfg
            )
            if result.skipped:
                continue
            _, window_end = result.window_dates
            next_q_days = cal.days_in_quarter(shift_quarter(q, 1))
            assert window_end < next_q_days[0]
            for d, _ in result.forecasts:
                assert d >= next_q_days[0]
            checked += 1
        assert checked > 0

    def test_no_next_quarter_data_is_a_skip(self, small_scenario):
        # a task with nothing to forecast is skipped before any fit
        sc = small_scenario
        cal = sc.calendar()
        last_q = cal.quarters()[-1]
        result = train_predict_stock_quarter(
            sc.assets, sc.markets, cal, "A000", last_q, "lasso", small_config()
        )
        assert result.skip_reason == "2017Q3: no return to forecast"
        assert result.model is None and result.forecasts == [] and result.importances == []

    def test_small_window_is_recorded_skip(self, small_scenario):
        sc = small_scenario
        cal = sc.calendar()
        result = train_predict_stock_quarter(
            sc.assets, sc.markets, cal, "A000", (2016, 4), "lasso",
            small_config(min_train_rows=10_000),
        )
        assert result.skipped
        assert "minimum" in result.skip_reason

    def test_grouped_prefit_without_fit_fails_the_task(self, small_scenario):
        # a lasso task's fit comes from its row-date set, never from the task
        sc = small_scenario
        cal = sc.calendar()
        window, _, forecast = radar._set_prefits(
            sc.assets, sc.markets, cal, (2016, 4), "lasso", [("A000", small_config())]
        )[0]
        result = train_predict_stock_quarter(
            sc.assets, sc.markets, cal, "A000", (2016, 4), "lasso", small_config(),
            prefit=(window, None, forecast),
        )
        assert result.failed
        assert "fitted jointly by its row-date set" in result.fail_reason

    def test_planted_linear_recovery(self):
        spec = ScenarioSpec(
            n_assets=2, n_markets=2, days_per_quarter=40, n_quarters=5,
            exposed_fraction=1.0, noise_sd=0.0, markets_per_asset=2, seed=7,
        )
        sc = generate(spec)
        cal = sc.calendar()
        cfg = small_config(min_train_rows=60)
        result = train_predict_stock_quarter(
            sc.assets, sc.markets, cal, "A000", (2016, 4), "lasso", cfg
        )
        realized = {d: sc.assets.rows([d], ["A000"])[0, 0] for d, _ in result.forecasts}
        for d, yhat in result.forecasts:
            assert yhat == pytest.approx(realized[d], abs=1e-3)


class TestRunRadar:
    def test_task_count_bound(self, small_scenario):
        sc = small_scenario
        cfg = small_config(algorithms=("lasso", "gb"))
        tasks = enumerate_tasks(sc.assets, sc.calendar(), cfg)
        # 4 assets x (6 - 4 usable - 1 last) quarters x 2 algos
        assert len(tasks) == 4 * 2 * 2

    def test_rerun_same_seed_identical(self, tmp_path, small_scenario):
        sc = small_scenario
        cfg = small_config()
        out = []
        for i in range(2):
            table, imps, _ = run_radar(sc.assets, sc.markets, cfg)
            path = tmp_path / f"f{i}.csv"
            table.to_csv(path)
            ipath = tmp_path / f"i{i}.csv"
            write_importance_csv(ipath, imps)
            out.append((path.read_bytes(), ipath.read_bytes()))
        assert out[0] == out[1]

    def test_parallel_matches_serial(self, tmp_path, small_scenario):
        sc = small_scenario
        files = []
        for threads in (1, 8):
            cfg = small_config(threads=threads)
            table, imps, report = run_radar(sc.assets, sc.markets, cfg)
            fp = tmp_path / f"f{threads}.csv"
            table.to_csv(fp)
            ip = tmp_path / f"i{threads}.csv"
            write_importance_csv(ip, imps)
            files.append((fp.read_bytes(), ip.read_bytes()))
            assert report.threads == threads
        assert files[0] == files[1]

    def test_zero_tasks_errors(self):
        spec = ScenarioSpec(
            n_assets=1, n_markets=1, days_per_quarter=10, n_quarters=2,
            markets_per_asset=1, seed=0,
        )
        sc = generate(spec)
        with pytest.raises(RadarError, match="no runnable"):
            run_radar(sc.assets, sc.markets, small_config())

    def test_all_skipped_errors_and_reported(self, small_scenario):
        sc = small_scenario
        cfg = small_config(min_train_rows=10_000)
        with pytest.raises(RadarError, match="skipped"):
            run_radar(sc.assets, sc.markets, cfg)

    def test_seed_isolation_across_tasks(self, small_scenario):
        sc = small_scenario
        cfg = small_config(algorithms=("gb",), importance=False)
        base, _, _ = run_radar(sc.assets, sc.markets, cfg)

        # perturb one asset's returns in the last forecastable quarter only
        rows = []
        for e in sc.assets.entity_ids:
            s = sc.assets.series(e)
            for o, v in zip(s.ordinals, s.values):
                d = dt.date.fromordinal(int(o))
                bump = 0.01 if (e == "A000" and quarter_of(d) == (2017, 2)) else 0.0
                rows.append((d, e, v + bump))
        bumped_assets = ReturnPanel.from_records(rows)
        bumped, _, _ = run_radar(bumped_assets, sc.markets, cfg)

        changed = {
            (r.asset, quarter_of(r.date))
            for r, s in zip(base.rows, bumped.rows)
            if r.yhat != s.yhat
        }
        # only A000 tasks touching 2017Q2 as training data may move, and
        # 2017Q2 is the last quarter so nothing trains on it: no drift at all
        assert changed == set()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "algo, params",
        [("lasso", LassoParams(alpha=1e-5)), ("gb", BoostParams(n_estimators=5, max_depth=2))],
    )
    def test_forecast_returns_never_reach_their_fit(self, small_scenario, algo, params, threads):
        # every asset return from the first forecast day on moves: the
        # tasks that forecast that quarter (joint sets for lasso, one-task
        # units for gb) keep their bits, and the tasks trained on it move
        sc = small_scenario
        cfg = small_config(algorithms=(algo,), hyperparameters={algo: params}, threads=threads)
        first_quarter = enumerate_tasks(sc.assets, sc.calendar(), cfg)[0][1]
        first_day = sc.calendar().days_in_quarter(shift_quarter(first_quarter, 1))[0]
        rows = []
        for e in sc.assets.entity_ids:
            s = sc.assets.series(e)
            for o, v in zip(s.ordinals, s.values):
                d = dt.date.fromordinal(int(o))
                rows.append((d, e, v + 0.01 if d >= first_day else v))
        bumped_assets = ReturnPanel.from_records(rows)

        def split(panel):
            """The run's (forecast, bits) and (importance, bits) of the first
            forecast quarter, and its later forecasts."""
            table, imps, report = run_radar(panel, sc.markets, cfg)
            assert report.n_completed == 8
            first = shift_quarter(first_quarter, 1)
            forecasts = [(r, r.yhat.hex()) for r in table.rows if quarter_of(r.date) == first]
            importances = [(i, i.value.hex()) for i in imps if i.quarter == first]
            later = [r for r in table.rows if quarter_of(r.date) != first]
            return forecasts, importances, later

        base_f, base_i, base_later = split(sc.assets)
        bumped_f, bumped_i, bumped_later = split(bumped_assets)
        assert base_f and base_i
        assert bumped_f == base_f
        assert bumped_i == base_i
        assert [r.date for r in bumped_later] == [r.date for r in base_later]
        assert bumped_later != base_later

    def test_importance_round_trip(self, tmp_path, small_scenario):
        sc = small_scenario
        _, imps, _ = run_radar(sc.assets, sc.markets, small_config())
        path = tmp_path / "imp.csv"
        write_importance_csv(path, imps)
        back = read_importance_csv(path)
        assert back == imps

    def test_partial_histories_become_skip_records(self, small_scenario):
        sc = small_scenario
        # one extra asset that only exists in the final two quarters
        rows = []
        for e in sc.assets.entity_ids:
            s = sc.assets.series(e)
            rows.extend(
                (dt.date.fromordinal(int(o)), e, float(v))
                for o, v in zip(s.ordinals, s.values)
            )
        late_days = [d for d in sc.assets.dates() if quarter_of(d) >= (2017, 1)]
        rows.extend((d, "LATE", 0.001) for d in late_days)
        assets = ReturnPanel.from_records(rows)
        table, _, report = run_radar(assets, sc.markets, small_config())
        skipped_assets = {s[0] for s in report.skips}
        assert skipped_assets == {"LATE"}
        assert all("minimum" in s[3] for s in report.skips)
        assert report.n_tasks == report.n_completed + len(report.skips)
        assert "skip LATE" in report.to_text()
        assert not any(r.asset == "LATE" for r in table.rows)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_nn_importance_draws_below_one_rejected(self, draws):
        with pytest.raises(RadarError, match="nn_importance_permutations must be >= 1"):
            RadarConfig(nn_importance_permutations=draws)
        assert RadarConfig(nn_importance_permutations=1).nn_importance_permutations == 1

    def test_nn_importance_alone_changed_with_the_estimator(self, small_scenario, tmp_path):
        # sha256 of forecasts.csv and of the gb and of the lasso rows of
        # importance.csv; like any pinned float output they hold for one
        # BLAS build (README, item 3).  The gb rows are as before the sampled
        # estimator drew antithetic pairs.  The lasso rows and forecasts.csv
        # were re-pinned when the joint solve moved to covariance updates,
        # which moved lasso values by at most 6.1e-16 of their column's
        # largest absolute value.
        sc = small_scenario
        written = []
        for threads in (1, 2):
            cfg = small_config(algorithms=("lasso", "gb", "nn"), threads=threads)
            table, imps, report = run_radar(sc.assets, sc.markets, cfg)
            assert report.n_completed == 24
            table.to_csv(tmp_path / "forecasts.csv")
            write_importance_csv(tmp_path / "importance.csv", imps)
            written.append(
                ((tmp_path / "forecasts.csv").read_bytes(), (tmp_path / "importance.csv").read_bytes())
            )
        assert written[0] == written[1]
        forecasts, importance = written[0]
        lines = importance.splitlines(keepends=True)[1:]
        assert {line.split(b",")[2] for line in lines} == {b"lasso", b"gb", b"nn"}
        gb, lasso = (
            b"".join(line for line in lines if line.split(b",")[2] == algo) for algo in (b"gb", b"lasso")
        )
        assert hashlib.sha256(gb).hexdigest() == (
            "d2b123a3712b23a4ad9facc658ec546097f627ee1c551fea00c2e1a5ba60a202"
        )
        assert hashlib.sha256(lasso).hexdigest() == (
            "02522557f77ec3ccbd9f492ab9a47be47c26fe97bf8e9e8d5eba724a766a0e4b"
        )
        assert hashlib.sha256(forecasts).hexdigest() == (
            "7f166f8ce420b1f050997b1cc2a3c721873bc78769fbf4baec59cbc12b53da3c"
        )

    @pytest.mark.parametrize("rows", [0, -1])
    def test_min_train_rows_below_one_rejected(self, rows):
        # an empty window would reach the learners instead of being a skip
        with pytest.raises(RadarError, match="min_train_rows must be >= 1"):
            RadarConfig(min_train_rows=rows)

    @pytest.mark.parametrize(
        "algo, params", [("rf", ForestParams(n_estimators=3)), ("gb", BoostParams(n_estimators=3))]
    )
    def test_empty_window_skip_names_its_quarters(self, algo, params):
        sc = generate(ScenarioSpec(n_assets=4, n_markets=2, days_per_quarter=20, n_quarters=6))
        late = without_records(sc.assets, lambda d, e: e == "A001" and d < D(2017, 4, 1))
        cfg = RadarConfig(algorithms=(algo,), min_train_rows=1, hyperparameters={algo: params})
        _, _, report = run_radar(late, sc.markets, cfg)
        assert report.skips == [
            ("A001", "2017Q1", algo, "2016Q1..2016Q4: 0 rows < minimum 1"),
            ("A001", "2017Q2", algo, "2016Q2..2017Q1: 0 rows < minimum 1"),
        ]
        assert f"skip A001 2017Q1 {algo}: 2016Q1..2016Q4: 0 rows" in report.to_text()
        assert report.n_completed == 6

    def test_one_quarter_window_skip_names_its_quarter(self):
        sc = generate(ScenarioSpec(n_assets=4, n_markets=2, days_per_quarter=20, n_quarters=6))
        late = without_records(sc.assets, lambda d, e: e == "A001" and d < D(2017, 4, 1))
        cfg = RadarConfig(
            algorithms=("gb",), window_quarters=1, min_train_rows=1,
            hyperparameters={"gb": BoostParams(n_estimators=3)},
        )
        _, _, report = run_radar(late, sc.markets, cfg)
        assert ("A001", "2017Q1", "gb", "2016Q4..2016Q4: 0 rows < minimum 1") in report.skips

    # each example is a radar run
    @settings(deadline=None, max_examples=15)
    @given(
        st.one_of(
            st.integers(0, 5).map(lambda k: ("drop", k)),
            # past 2017Q3, the quarter after the panel's last one
            st.dates(D(2017, 10, 1), D(2100, 12, 31)).map(lambda d: ("add", d)),
        )
    )
    def test_tasks_forecast_calendar_quarters(self, small_scenario, change):
        # a calendar with one quarter dropped or a far date added: every
        # task forecasts a quarter that holds a calendar day, and each
        # importance row belongs to a task that forecast
        sc = small_scenario
        dates = sc.calendar().dates
        kind, arg = change
        if kind == "drop":
            dates = [d for d in dates if quarter_of(d) != sc.calendar().quarters()[arg]]
        else:
            dates = [*dates, arg]
        cal = TradingCalendar.from_dates(dates)
        cfg = small_config()
        tasks = enumerate_tasks(sc.assets, cal, cfg)
        assert all(cal.days_in_quarter(shift_quarter(q, 1)) for _, q, _ in tasks)
        if not tasks:
            with pytest.raises(RadarError, match="no runnable tasks"):
                run_radar(sc.assets, sc.markets, cfg, calendar=cal)
            return
        table, imps, report = run_radar(sc.assets, sc.markets, cfg, calendar=cal)
        forecast = {(r.asset, quarter_of(r.date), r.algo) for r in table.rows}
        assert imps and {(r.asset, r.quarter, r.algo) for r in imps} <= forecast
        assert report.n_completed == len(tasks)

    def test_asset_without_forecast_returns_is_a_skip(self, small_scenario):
        # A000 has no return in 2017Q2: its task forecasting that quarter is
        # a skip that writes no importance row, the others still complete
        sc = small_scenario
        assets = without_records(sc.assets, lambda d, e: e == "A000" and quarter_of(d) == (2017, 2))
        table, imps, report = run_radar(assets, sc.markets, small_config())
        assert report.skips == [("A000", "2017Q2", "lasso", "2017Q2: no return to forecast")]
        assert report.n_completed == report.n_tasks - 1 == 7
        assert not [r for r in imps if r.asset == "A000" and r.quarter == (2017, 2)]
        assert not [r for r in table.rows if r.asset == "A000" and quarter_of(r.date) == (2017, 2)]

    def test_ols_keeps_no_sparsity(self, small_scenario):
        # an ols fit is linear, but not sparse: it has no nonzero fraction
        sc = small_scenario
        _, _, report = run_radar(sc.assets, sc.markets, small_config(algorithms=("ols", "lasso")))
        assert report.n_completed == 16
        assert list(report.sparsity) == ["lasso"]
        assert "sparsity.ols" not in report.to_text()

    def test_importances_come_in_key_order(self, small_scenario):
        # with skips and four algorithms, the merged records need no sort
        sc = small_scenario
        late = without_records(sc.assets, lambda d, e: e == "A002" and d < D(2016, 10, 1))
        cfg = small_config(
            algorithms=("lasso", "gb", "nn", "enet"),
            hyperparameters={
                "lasso": LassoParams(alpha=1e-5),
                "gb": BoostParams(n_estimators=3, max_depth=2),
                "nn": NetParams(epochs=2, n_neurons=4),
                "enet": ElasticNetParams(1e-4, 0.5),
            },
            nn_importance_permutations=2,
        )
        _, imps, report = run_radar(late, sc.markets, cfg)
        assert [s[:3] for s in report.skips] == [
            ("A002", "2017Q1", algo) for algo in ("enet", "gb", "lasso", "nn")
        ]
        assert {r.algo for r in imps} == {"lasso", "gb", "nn", "enet"}
        key = lambda r: (r.asset, r.quarter, r.algo, r.signal.source, r.signal.lag_week)
        assert [key(r) for r in imps] == sorted(key(r) for r in imps)


def report_text_without_timing(report) -> str:
    """Run report less the lines that may differ between equal runs."""
    return "".join(
        line
        for line in report.to_text().splitlines(True)
        if not line.startswith(("wall_seconds", "threads"))
    )


class TestWorkerPool:
    def test_failed_tasks_identical_across_worker_counts(self, tmp_path, small_scenario):
        # every nn fit diverges; the lasso tasks around them must still land
        sc = small_scenario
        outputs = []
        for threads in (1, 2, 3):
            cfg = small_config(
                algorithms=("lasso", "nn"),
                hyperparameters={
                    "lasso": LassoParams(alpha=1e-5),
                    "nn": NetParams(learning_rate=1e300),
                },
                threads=threads,
            )
            table, imps, report = run_radar(sc.assets, sc.markets, cfg)
            fp = tmp_path / f"f{threads}.csv"
            table.to_csv(fp)
            ip = tmp_path / f"i{threads}.csv"
            write_importance_csv(ip, imps)
            outputs.append((fp.read_bytes(), ip.read_bytes(), report_text_without_timing(report)))
            assert report.n_completed == 8
            assert len(report.failures) == 8
            assert all(f[2] == "nn" and f[3].startswith("non-finite loss") for f in report.failures)
            assert report.n_tasks == report.n_completed + len(report.skips) + len(report.failures)
            assert table.algos() == ["lasso"]
        assert outputs[0] == outputs[1] == outputs[2]
        assert "tasks.failed = 8\n" in outputs[0][2]
        assert "fail A000 2017Q1 nn: non-finite loss" in outputs[0][2]

    def test_non_finite_forecast_fails_its_task(self, small_scenario):
        # a huge but valid market return in the last forecast quarter
        # overflows the forecasts whose signals read it: those tasks fail,
        # without numpy warnings, and the others still land
        sc = small_scenario
        huge_day = [d for d in sc.markets.dates() if quarter_of(d) == (2017, 2)][5]
        rows = []
        for e in sc.markets.entity_ids:
            s = sc.markets.series(e)
            rows.extend(
                (d, e, 1e307 if (d, e) == (huge_day, "M00") else float(v))
                for d, v in zip(map(dt.date.fromordinal, s.ordinals.tolist()), s.values)
            )
        markets = ReturnPanel.from_records(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table, _, report = run_radar(sc.assets, markets, small_config())
        assert report.failures == [
            (asset, "2017Q2", "lasso", "non-finite forecast") for asset in sc.assets.entity_ids
        ]
        assert report.n_completed == 4
        assert {quarter_of(r.date) for r in table.rows} == {(2017, 1)}

    def test_overflowing_signal_sd_fails_its_tasks(self):
        # one huge but valid market return in 2016Q2: the sd of its signal
        # column overflows in every window that holds it, so the tasks that
        # standardize that window fail without numpy warnings, and gb, which
        # splits raw values, completes
        sc = generate(ScenarioSpec(n_assets=12, n_markets=2, n_quarters=6, seed=1))
        huge_day = [d for d in sc.markets.dates() if quarter_of(d) == (2016, 2)][5]
        rows = []
        for e in sc.markets.entity_ids:
            s = sc.markets.series(e)
            rows.extend(
                (d, e, 1e307 if (d, e) == (huge_day, "M00") else float(v))
                for d, v in zip(map(dt.date.fromordinal, s.ordinals.tolist()), s.values)
            )
        markets = ReturnPanel.from_records(rows)
        cfg = RadarConfig(algorithms=("lasso", "gb", "nn"), min_train_rows=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table, _, report = run_radar(sc.assets, markets, cfg)
        reason = "signal M00 lag 1: mean or sd is not finite"
        assert sorted(report.failures) == sorted(
            (asset, q, algo, reason)
            for asset in sc.assets.entity_ids
            for q in ("2017Q1", "2017Q2")
            for algo in ("lasso", "nn")
        )
        assert report.n_completed == 24
        assert table.algos() == ["gb"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_signal_fails_its_tasks(self, threads):
        # two huge but valid market returns in one lag week overflow the
        # signals of the days after them: every window that holds those
        # days fails its tasks, without numpy warnings, and the run goes on
        sc = generate(ScenarioSpec(n_assets=4, n_markets=2, n_quarters=7, seed=1))
        huge_days = [D(2016, 1, 11), D(2016, 1, 12)]
        assert set(huge_days) <= set(sc.markets.dates())
        rows = []
        for e in sc.markets.entity_ids:
            s = sc.markets.series(e)
            rows.extend(
                (d, e, 1e200 if e == "M00" and d in huge_days else float(v))
                for d, v in zip(map(dt.date.fromordinal, s.ordinals.tolist()), s.values)
            )
        markets = ReturnPanel.from_records(rows)
        cfg = RadarConfig(algorithms=("lasso", "gb"), min_train_rows=10, threads=threads)
        table, _, report = run_radar(sc.assets, markets, cfg)
        reason = "signal M00 lag 1: not finite on 2016-01-13"
        assert sorted(report.failures) == sorted(
            (asset, "2017Q1", algo, reason)
            for asset in sc.assets.entity_ids
            for algo in ("lasso", "gb")
        )
        assert report.n_completed == 16
        # the windows of the later quarters do not hold those days
        clean, _, _ = run_radar(sc.assets, sc.markets, cfg)
        assert table.rows == [r for r in clean.rows if quarter_of(r.date) != (2017, 1)]

    def test_every_task_failed_names_first_reason(self, small_scenario):
        sc = small_scenario
        cfg = small_config(
            algorithms=("nn",), hyperparameters={"nn": NetParams(learning_rate=1e300)}
        )
        with pytest.raises(RadarError, match=r"^non-finite loss .*\(A000 2017Q1 nn\)"):
            run_radar(sc.assets, sc.markets, cfg)

    def test_pool_never_outnumbers_units(self, monkeypatch, small_scenario):
        started = recording_pools(monkeypatch)
        sc = small_scenario
        _, _, report = run_radar(sc.assets, sc.markets, small_config(threads=64))
        # 8 lasso tasks make two units, one per training quarter
        assert report.n_tasks == 8
        assert started == [2]
        # a single unit runs in this process, with no pool at all
        _, _, report = run_radar(
            sc.assets, sc.markets, small_config(threads=64, window_quarters=5)
        )
        assert report.n_tasks == 4
        assert started == [2]

    def test_dead_worker_is_radar_error(self, monkeypatch, small_scenario):
        real = radar.train_predict_stock_quarter
        test_pid = os.getpid()

        def dies_on_one_asset(assets, sources, calendar, asset, quarter, algo, config, **kw):
            if asset == "A003" and os.getpid() != test_pid:
                os._exit(3)
            return real(assets, sources, calendar, asset, quarter, algo, config, **kw)

        # forked workers inherit the patched module attribute
        monkeypatch.setattr(radar, "train_predict_stock_quarter", dies_on_one_asset)
        sc = small_scenario
        with pytest.raises(RadarError, match="worker process died"):
            run_radar(sc.assets, sc.markets, small_config(threads=2))


def forecast_lines(table: ForecastTable, tmp_path, name: str) -> list[str]:
    path = tmp_path / name
    table.to_csv(path)
    return path.read_text().splitlines()


def without_records(panel: ReturnPanel, drop) -> ReturnPanel:
    """``panel`` less the (date, entity) observations for which ``drop`` holds."""
    rows = []
    for e in panel.entity_ids:
        s = panel.series(e)
        rows.extend(
            (dt.date.fromordinal(int(o)), e, float(v))
            for o, v in zip(s.ordinals, s.values)
            if not drop(dt.date.fromordinal(int(o)), e)
        )
    return ReturnPanel.from_records(rows)


class TestQuarterGroups:
    """Lasso and elastic-net tasks of one training quarter are fitted jointly."""

    @pytest.mark.parametrize(
        "algo, params", [("lasso", LassoParams(alpha=1e-5)), ("enet", ElasticNetParams(1e-4, 0.5))]
    )
    def test_group_members_equal_their_lone_tasks(self, small_scenario, algo, params):
        sc = small_scenario
        cfg = small_config(algorithms=(algo,), hyperparameters={algo: params})
        table, imps, report = run_radar(sc.assets, sc.markets, cfg)
        assert report.n_completed == 8
        alone_rows, alone_imps = [], []
        for asset, q, a in enumerate_tasks(sc.assets, sc.calendar(), cfg):
            r = train_predict_stock_quarter(sc.assets, sc.markets, sc.calendar(), asset, q, a, cfg)
            alone_rows.extend(ForecastRow(d, asset, a, v) for d, v in r.forecasts)
            alone_imps.extend(r.importances)
        assert table.rows == ForecastTable(alone_rows).rows
        assert sorted(imps, key=repr) == sorted(alone_imps, key=repr)

    def test_lone_fits_of_a_set_read_their_own_target(self, small_scenario):
        # gb tasks of several assets in one unit share their set's window,
        # yet each fits on its own asset's returns
        sc = small_scenario
        cfg = small_config(algorithms=("gb",), hyperparameters={"gb": BoostParams(n_estimators=3)})
        q = enumerate_tasks(sc.assets, sc.calendar(), cfg)[0][1]
        assets = sc.assets.entity_ids
        unit = (q, "gb", [(asset, cfg) for asset in assets])
        together = radar._run_unit(unit, (sc.assets, sc.markets, sc.calendar()))
        alone = [
            train_predict_stock_quarter(sc.assets, sc.markets, sc.calendar(), a, q, "gb", cfg)
            for a in assets
        ]
        assert all(r.forecasts for r in together)
        assert [r.forecasts for r in together] == [r.forecasts for r in alone]
        assert [r.importances for r in together] == [r.importances for r in alone]

    def test_own_row_dates_leave_the_others_unchanged(self, tmp_path, small_scenario):
        # A001 misses one training day, so it forms a row-date set of its own
        sc = small_scenario
        gap = sc.assets.dates()[100]
        missing_day = without_records(sc.assets, lambda d, e: e == "A001" and d == gap)
        without_a001 = without_records(sc.assets, lambda d, e: e == "A001")
        outputs = []
        for threads in (1, 2):
            table, _, report = run_radar(missing_day, sc.markets, small_config(threads=threads))
            assert report.n_completed == 8
            outputs.append(forecast_lines(table, tmp_path, f"f{threads}.csv"))
        assert outputs[0] == outputs[1]
        others, _, _ = run_radar(without_a001, sc.markets, small_config())
        assert [line for line in outputs[0] if ",A001," not in line] == forecast_lines(
            others, tmp_path, "others.csv"
        )
        assert any(",A001," in line for line in outputs[0])

    def test_one_window_per_row_date_set(self, monkeypatch, small_scenario):
        # A001 misses a day that both training windows hold: each training
        # quarter has two row-date sets, A001 and the other three assets
        sc = small_scenario
        gap = sc.assets.dates()[50]
        missing_day = without_records(sc.assets, lambda d, e: e == "A001" and d == gap)
        real = radar.assemble_training_window
        calls = []

        def counting(*args, **kw):
            calls.append((args[3], args[4]))
            return real(*args, **kw)

        monkeypatch.setattr(radar, "assemble_training_window", counting)
        cfg = small_config()
        _, _, report = run_radar(missing_day, sc.markets, cfg)
        assert report.n_completed == 8
        quarters = sorted({q for _, q, _ in enumerate_tasks(missing_day, sc.calendar(), cfg)})
        # each set's window is its first member's
        assert sorted(calls) == [(a, q) for a in ("A000", "A001") for q in quarters]

    def test_every_member_reads_its_own_block(self, monkeypatch, small_scenario):
        # the four assets trade on the same days: a gb unit over them is one
        # row-date set with one window, and each task's block names its asset
        sc = small_scenario
        cal = sc.calendar()
        real = radar.train_predict_stock_quarter
        blocks = {}

        def recording(*args, prefit=None):
            blocks[args[3]] = prefit[0]
            return real(*args, prefit=prefit)

        monkeypatch.setattr(radar, "train_predict_stock_quarter", recording)
        cfg = small_config(
            algorithms=("gb",), importance=False,
            hyperparameters={"gb": BoostParams(n_estimators=5, max_depth=2)},
        )
        quarter = enumerate_tasks(sc.assets, cal, cfg)[0][1]
        unit = (quarter, "gb", [(asset, cfg) for asset in sc.assets.entity_ids])
        results = radar._run_unit(unit, (sc.assets, sc.markets, cal))
        assert not any(r.skipped or r.failed for r in results)
        assert list(blocks) == sc.assets.entity_ids
        for asset, block in blocks.items():
            own = radar.assemble_training_window(
                sc.assets, sc.markets, cal, asset, quarter, cfg.lags, cfg.window_quarters,
                cfg.min_train_rows,
            )
            assert block.rows == own.rows
            np.testing.assert_array_equal(block.values, own.values)
            np.testing.assert_array_equal(block.target, own.target)

    @staticmethod
    def missing_forecast_day(sc) -> ReturnPanel:
        """A001 misses one day of the last quarter, which only the last
        training quarter forecasts and no window holds."""
        gap = [d for d in sc.assets.dates() if quarter_of(d) == sc.calendar().quarters()[-1]][3]
        return without_records(sc.assets, lambda d, e: e == "A001" and d == gap)

    def test_one_forecast_block_per_row_date_set(self, monkeypatch, small_scenario):
        # A001 forms a set of its own in the last training quarter only
        sc = small_scenario
        missing_day = self.missing_forecast_day(sc)
        calls = []

        def count(name, asset_at):
            real = getattr(radar, name)

            def counting(*args):
                calls.append((name, args[asset_at]))
                return real(*args)

            monkeypatch.setattr(radar, name, counting)

        count("assemble_training_window", 3)
        count("build_signal_block", 4)
        _, _, report = run_radar(missing_day, sc.markets, small_config())
        assert report.n_completed == 8
        # one set in the first training quarter, two in the second
        assert calls == [
            (name, asset)
            for asset in ("A000", "A000", "A001")
            for name in ("assemble_training_window", "build_signal_block")
        ]

    def test_own_forecast_days_leave_the_others_unchanged(self, tmp_path, small_scenario):
        sc = small_scenario
        missing_day = self.missing_forecast_day(sc)
        without_a001 = without_records(sc.assets, lambda d, e: e == "A001")
        cfg = small_config()
        alone = [
            train_predict_stock_quarter(missing_day, sc.markets, sc.calendar(), "A001", q, a, cfg)
            for _, q, a in enumerate_tasks(missing_day, sc.calendar(), cfg)[:2]
        ]
        alone_rows = [ForecastRow(d, "A001", r.algo, v) for r in alone for d, v in r.forecasts]
        others, others_imps, _ = run_radar(without_a001, sc.markets, cfg)
        for threads in (1, 2):
            table, imps, report = run_radar(missing_day, sc.markets, small_config(threads=threads))
            assert report.n_completed == 8
            assert [r for r in table.rows if r.asset == "A001"] == ForecastTable(alone_rows).rows
            assert [r for r in imps if r.asset == "A001"] == [
                i for r in alone for i in r.importances
            ]
            lines = forecast_lines(table, tmp_path, f"f{threads}.csv")
            assert [line for line in lines if ",A001," not in line] == forecast_lines(
                others, tmp_path, "others.csv"
            )
            assert [r for r in imps if r.asset != "A001"] == others_imps

    def test_every_member_reads_its_own_forecast_block(self, monkeypatch, small_scenario):
        # the lasso unit of the last training quarter: two sets, and each
        # member's forecast block is the one its lone task builds
        sc = small_scenario
        cal = sc.calendar()
        missing_day = self.missing_forecast_day(sc)
        real = radar.train_predict_stock_quarter
        blocks = {}

        def recording(*args, prefit=None):
            blocks[args[3]] = prefit[2]
            return real(*args, prefit=prefit)

        monkeypatch.setattr(radar, "train_predict_stock_quarter", recording)
        cfg = small_config()
        quarter = cal.quarters()[-2]
        unit = (quarter, "lasso", [(asset, cfg) for asset in sc.assets.entity_ids])
        results = radar._run_unit(unit, (missing_day, sc.markets, cal))
        assert not any(r.skipped or r.failed for r in results)
        assert sorted(blocks) == sc.assets.entity_ids
        forecast_days = cal.days_in_quarter(shift_quarter(quarter, 1))
        for asset, block in blocks.items():
            own = radar.build_signal_block(sc.markets, missing_day, forecast_days, cfg.lags, asset)
            assert block.asset == asset
            assert block.dates == own.dates
            np.testing.assert_array_equal(block.values, own.values)
            np.testing.assert_array_equal(
                block.target, missing_day.rows(own.dates, [asset])[:, 0]
            )
        assert len(blocks["A001"].dates) == len(blocks["A000"].dates) - 1

    def test_set_below_the_minimum_skips_each_member(self, small_scenario):
        # A001 and A002 keep only their last training quarter: they form one
        # row-date set below min_train_rows in every training window
        sc = small_scenario
        last_train = sc.calendar().quarters()[-2]
        short = without_records(
            sc.assets, lambda d, e: e in ("A001", "A002") and quarter_of(d) < last_train
        )
        cfg = small_config()
        _, _, report = run_radar(short, sc.markets, cfg, calendar=sc.calendar())
        expected = []
        for asset, q, algo in enumerate_tasks(short, sc.calendar(), cfg):
            alone = train_predict_stock_quarter(
                short, sc.markets, sc.calendar(), asset, q, algo, cfg
            )
            if alone.skipped:
                expected.append((asset, format_quarter(shift_quarter(q, 1)), algo, alone.skip_reason))
        assert report.skips == expected
        assert [(asset, reason.split(":")[0]) for asset, _, _, reason in expected] == [
            ("A001", "2016Q1..2016Q4"), ("A001", "2016Q2..2017Q1"),
            ("A002", "2016Q1..2016Q4"), ("A002", "2016Q2..2017Q1"),
        ]
        assert report.n_completed == 4

    def test_failed_set_builds_one_window(self, monkeypatch):
        # A000..A004 list in 2017Q1: in the 2016Q4 window they form one
        # row-date set with no rows, and in the 2017Q1 window one of 20
        sc = generate(
            ScenarioSpec(n_assets=12, n_markets=3, n_quarters=6, days_per_quarter=20, seed=3)
        )
        late = ("A000", "A001", "A002", "A003", "A004")
        assets = without_records(sc.assets, lambda d, e: e in late and d < D(2017, 1, 1))
        cfg = RadarConfig(algorithms=("lasso",), min_train_rows=20, importance=False)
        real = radar.assemble_training_window
        calls = []

        def counting(*args, **kw):
            calls.append((args[3], args[4]))
            return real(*args, **kw)

        monkeypatch.setattr(radar, "assemble_training_window", counting)
        _, _, report = run_radar(assets, sc.markets, cfg)
        # one window per row-date set: two sets in each training quarter
        assert calls == [(a, q) for q in ((2016, 4), (2017, 1)) for a in ("A000", "A005")]
        assert report.skips == [
            (asset, "2017Q1", "lasso", "2016Q1..2016Q4: 0 rows < minimum 20") for asset in late
        ]
        assert report.n_completed == 19
        # each member's reason is the one its lone task records
        cal = assets.calendar()
        alone = [
            train_predict_stock_quarter(assets, sc.markets, cal, asset, q, algo, cfg)
            for asset, q, algo in enumerate_tasks(assets, cal, cfg)
        ]
        assert report.skips == [
            (r.asset, format_quarter(r.forecast_quarter), r.algo, r.skip_reason)
            for r in alone if r.skipped
        ]

    def test_target_at_the_sweep_cap_fails_alone(self, tmp_path, monkeypatch, small_scenario):
        sc = small_scenario
        params = LassoParams(alpha=1e-4)
        cfg = small_config(hyperparameters={"lasso": params})
        cal = sc.assets.calendar()
        # sweeps each task's target needs: the smallest cap it converges under
        needed = {}
        for q in sorted({q for _, q, _ in enumerate_tasks(sc.assets, cal, cfg)}):
            blocks = [
                radar.assemble_training_window(
                    sc.assets, sc.markets, cal, a, q, cfg.lags, cfg.window_quarters,
                    cfg.min_train_rows,
                )
                for a in sc.assets.entity_ids
            ]
            X = standardize(blocks[0])[0].values
            Y = np.stack([b.target for b in blocks])
            cap = 0
            while any((a, q) not in needed for a in sc.assets.entity_ids):
                cap += 1
                with monkeypatch.context() as patch:
                    patch.setattr(linear, "CD_MAX_SWEEPS", cap)
                    fits = fit_penalized_targets(X, Y, [params] * len(Y))
                for asset, fit in zip(sc.assets.entity_ids, fits):
                    if isinstance(fit, LinearModel):
                        needed.setdefault((asset, q), cap)
        second, slowest = sorted(needed.values())[-2:]
        assert second < slowest  # one task alone needs the most sweeps
        (failing,) = [key for key, n in needed.items() if n == slowest]

        full, _, _ = run_radar(sc.assets, sc.markets, cfg)
        monkeypatch.setattr(linear, "CD_MAX_SWEEPS", slowest - 1)
        table, _, report = run_radar(sc.assets, sc.markets, cfg)
        asset, q = failing
        assert report.failures == [
            (asset, format_quarter(shift_quarter(q, 1)), "lasso",
             f"coordinate descent did not converge in {slowest - 1} sweeps"),
        ]
        assert report.to_text().count("\nfail ") == 1
        assert report.n_completed == 7
        kept = [
            r for r in full.rows
            if (r.asset, quarter_of(r.date)) != (asset, shift_quarter(q, 1))
        ]
        assert table.rows == kept

    def test_group_error_fails_its_members_only(self, monkeypatch, small_scenario):
        real = radar.standardize

        def fails_in_2016q4(block):
            if quarter_of(block.rows[-1][1]) == (2016, 4):
                raise PanelError("no spread")
            return real(block)

        monkeypatch.setattr(radar, "standardize", fails_in_2016q4)
        sc = small_scenario
        table, _, report = run_radar(sc.assets, sc.markets, small_config())
        assert [(f[1], f[3]) for f in report.failures] == [("2017Q1", "no spread")] * 4
        assert report.n_completed == 4
        assert {quarter_of(r.date) for r in table.rows} == {(2017, 2)}

    def test_tracemalloc_peak_of_a_wide_quarter(self):
        # 100 assets share one design matrix: the group keeps one values
        # array for all of them, not one per asset (that would add ~16 MB)
        sc = generate(
            ScenarioSpec(n_assets=100, n_markets=20, n_quarters=5, noise_sd=0.005, seed=3)
        )
        cfg = RadarConfig(algorithms=("lasso",))
        tracemalloc.start()
        try:
            _, _, report = run_radar(sc.assets, sc.markets, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_completed == 100
        assert peak <= 10 * 2**20


class TestForecastTable:
    def test_duplicate_key_rejected(self):
        rows = [
            ForecastRow(D(2020, 1, 2), "A", "lasso", 0.01),
            ForecastRow(D(2020, 1, 2), "A", "lasso", 0.02),
        ]
        with pytest.raises(RadarError, match="duplicate"):
            ForecastTable(rows)

    def test_csv_round_trip(self, tmp_path):
        rows = [
            ForecastRow(D(2020, 1, 2), "A", "lasso", 0.013),
            ForecastRow(D(2020, 1, 2), "B", "gb", -0.004),
        ]
        table = ForecastTable(rows)
        path = tmp_path / "f.csv"
        table.to_csv(path)
        back = ForecastTable.from_csv(path)
        assert back.rows == table.rows

    def test_non_finite_forecast_rejected(self):
        with pytest.raises(RadarError, match="finite"):
            ForecastTable([ForecastRow(D(2020, 1, 2), "A", "lasso", float("nan"))])


# Ids that need csv quoting: separators, quotes, line breaks, blanks and
# non-ASCII text, mixed with any other character a UTF-8 file can hold (a
# lone surrogate is not text, so no id read from a file contains one).
hostile_ids = st.text(
    st.one_of(st.sampled_from(list(',"\'\r\n\t ;#\\Qé€')), st.characters(codec="utf-8")),
    max_size=8,
)


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def csv_round_trip(write, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(path)
        return read(path)


def write_rows(path, header, rows) -> None:
    """The row-at-a-time writer that the column writer replaced: the
    reference for the bytes of every CSV the program writes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def same_bytes(write, header, rows) -> bool:
    """Whether ``write(path)`` writes the bytes ``write_rows`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "out.csv", Path(tmp) / "reference.csv"
        write(path)
        write_rows(reference, header, rows)
        return path.read_bytes() == reference.read_bytes()


# ids on which csv quoting turns: the empty id and each character it quotes
edge_ids = st.sampled_from(["", "\r", "\n", '"', ",", 'a,"b"\r\nc'])
written_ids = st.one_of(edge_ids, hostile_ids)
written_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e16])
)


class TestCsvRoundTripProperties:
    """The output CSVs read back every field and every bit of each value,
    and hold the bytes the row-at-a-time writer wrote."""

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(st.dates(), written_ids, written_ids, written_floats),
            max_size=12,
            unique_by=lambda row: row[:3],
        )
    )
    @example([(D(2020, 1, 2), "", "", 0.5), (D(2020, 1, 2), "\r\n", '"', -0.0)])
    def test_forecast_bytes(self, rows):
        table = ForecastTable([ForecastRow(*row) for row in rows])
        assert same_bytes(table.to_csv, ["date", "asset", "algo", "yhat"], [
            [r.date.isoformat(), r.asset, r.algo, repr(r.yhat)] for r in table.rows
        ])

    @settings(deadline=None)
    @given(
        st.lists(
            st.builds(
                ImportanceRecord,
                written_ids,
                st.tuples(st.integers(1, 9999), st.integers(1, 4)),
                written_ids,
                st.builds(SignalId, written_ids.filter(bool), st.integers(1, 10**6)),
                st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.just(5e-324)),
            ),
            max_size=12,
        )
    )
    @example([ImportanceRecord("", (2020, 1), "", SignalId(",", 1), 0.0)])
    def test_importance_bytes(self, records):
        header = ["asset", "quarter", "algo", "source", "lag_week", "importance"]
        assert same_bytes(lambda path: write_importance_csv(path, records), header, [
            [r.asset, format_quarter(r.quarter), r.algo, r.signal.source, r.signal.lag_week,
             repr(r.value)]
            for r in records
        ])

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(st.dates(), written_ids, st.floats(-0.99, 1e6)),
            max_size=12,
            unique_by=lambda row: row[:2],
        ),
        st.sampled_from([["date", "entity", "ret"], ["date", "asset", "cap"]]),
    )
    @example([(D(2020, 1, 2), "", 0.5), (D(2020, 1, 3), "", -0.0)], ["date", "entity", "ret"])
    def test_panel_bytes(self, rows, header):
        panel = ReturnPanel.from_records(rows)
        observed = (panel.series(entity) for entity in panel.entity_ids)
        assert same_bytes(lambda path: write_panel_csv(path, panel, header), header, [
            [dt.date.fromordinal(int(o)).isoformat(), entity, repr(float(v))]
            for entity, s in zip(panel.entity_ids, observed)
            for o, v in zip(s.ordinals, s.values)
        ])

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                written_ids,
                st.lists(st.floats(-0.99, 10.0), min_size=0, max_size=4),
                st.booleans(),
            ),
            max_size=4,
            unique_by=lambda series: series[0],
        )
    )
    @example([("", [0.5], False), ("a,b", [0.1, -0.0], True)])
    def test_portfolio_bytes(self, books):
        series_list = [
            PortfolioSeries(
                [D(2020, 1, 1) + dt.timedelta(days=k) for k in range(len(rets))],
                np.array(rets, dtype=np.float64),
                np.abs(np.array(rets, dtype=np.float64)) if with_turnover else None,
                name,
            )
            for name, rets, with_turnover in books
        ]
        header = ["date", "name", "ret", "turnover"]
        assert same_bytes(lambda path: write_portfolio_csv(path, series_list), header, [
            [d.isoformat(), s.name, repr(float(s.returns[i])),
             "" if s.turnover is None else repr(float(s.turnover[i]))]
            for s in sorted(series_list, key=lambda s: s.name)
            for i, d in enumerate(s.dates)
        ])

    # each example writes and reads a file
    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.dates(),
                hostile_ids,
                hostile_ids,
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, -5e-324]),
                ),
            ),
            max_size=12,
            unique_by=lambda row: row[:3],
        )
    )
    def test_forecast_table(self, rows):
        table = ForecastTable([ForecastRow(*row) for row in rows])
        back = csv_round_trip(table.to_csv, ForecastTable.from_csv)
        assert [(r.date, r.asset, r.algo) for r in back.rows] == [
            (r.date, r.asset, r.algo) for r in table.rows
        ]
        assert [float_bits(r.yhat) for r in back.rows] == [float_bits(r.yhat) for r in table.rows]

    @settings(deadline=None)
    @given(
        st.lists(
            st.builds(
                ImportanceRecord,
                hostile_ids,
                st.tuples(st.integers(1, 9999), st.integers(1, 4)),
                hostile_ids,
                st.builds(SignalId, hostile_ids.filter(bool), st.integers(1, 10**6)),
                st.one_of(
                    st.floats(min_value=0.0, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324]),
                ),
            ),
            max_size=12,
            # a repeated (asset, quarter, algo, signal) key is a read error
            unique_by=lambda r: (r.asset, r.quarter, r.algo, r.signal),
        )
    )
    def test_importance(self, records):
        back = csv_round_trip(
            lambda path: write_importance_csv(path, records), read_importance_csv
        )
        assert [(r.asset, r.quarter, r.algo, r.signal) for r in back] == [
            (r.asset, r.quarter, r.algo, r.signal) for r in records
        ]
        assert [float_bits(r.value) for r in back] == [float_bits(r.value) for r in records]


    @given(st.dictionaries(st.sampled_from(["enet", "lasso", "ols"]), st.floats(0.0, 1.0)))
    def test_run_report_sparsity(self, sparsity):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run_report.txt"
            path.write_text(RunReport(sparsity=sparsity).to_text())
            back = read_run_report_sparsity(path)
        assert {a: float_bits(v) for a, v in back.items()} == {
            a: float_bits(float(f"{v:.6f}")) for a, v in sparsity.items()
        }

class TestTuning:
    def test_single_point_space_echoes(self, small_scenario):
        sc = small_scenario
        space = {"alpha": SearchDim(kind="choice", values=(0.001,))}
        tuned = tune_hyperparameters(
            sc.assets, sc.markets, "lasso", space, n_tasks=2, budget=2, seed=0,
            config=small_config(),
        )
        assert tuned.alpha == pytest.approx(0.001)

    def test_single_task_returns_its_best(self, small_scenario):
        sc = small_scenario
        space = {"alpha": SearchDim(kind="choice", values=(1e-6, 1e-2, 10.0))}
        cfg = small_config()
        tuned = tune_hyperparameters(
            sc.assets, sc.markets, "lasso", space, n_tasks=1, budget=30, seed=3, config=cfg,
        )
        assert tuned.alpha in (1e-6, 1e-2, 10.0)

    def test_planted_alpha_in_bracketing_cell(self):
        # noise-free linear signal: tiny alpha wins every per-task search
        spec = ScenarioSpec(
            n_assets=3, n_markets=2, days_per_quarter=30, n_quarters=6,
            exposed_fraction=1.0, noise_sd=0.0, markets_per_asset=2, seed=11,
        )
        sc = generate(spec)
        grid = (1e-7, 1e-4, 1e-1)
        space = {"alpha": SearchDim(kind="choice", values=grid)}
        cfg = small_config(min_train_rows=60)
        tuned = tune_hyperparameters(
            sc.assets, sc.markets, "lasso", space, n_tasks=4, budget=20, seed=5, config=cfg,
        )
        assert tuned.alpha == pytest.approx(1e-7)

    @pytest.mark.parametrize(
        "algo, space",
        [
            ("lasso", {"alpha": SearchDim(kind="loguniform", lo=1e-6, hi=1e-1)}),
            (
                "enet",
                {
                    "alpha": SearchDim(kind="loguniform", lo=1e-6, hi=1e-1),
                    "l1_ratio": SearchDim(kind="uniform", lo=0.0, hi=1.0),
                },
            ),
        ],
    )
    def test_trials_of_a_stock_quarter_are_fitted_jointly(
        self, monkeypatch, small_scenario, algo, space
    ):
        # every trial still runs as one task, with the fit its own
        # parameters give alone: its own one-target fit on its window
        sc = small_scenario
        real = radar.train_predict_stock_quarter

        def lone_fit(window, params):
            scaled, stats = standardize(window)
            X, y = scaled.values, scaled.target
            if algo == "lasso":
                return fit_lasso(X, y, params.alpha, stats=stats)
            return fit_elastic_net(X, y, params.alpha, params.l1_ratio, stats=stats)

        def trials(grouped):
            seen = []

            # a unit drops each task's model once the task returns
            def recording(*args, prefit):
                window, fit, forecast = prefit
                params = args[6].params_for(algo)
                if not grouped:
                    fit = lone_fit(window, params)
                result = real(*args, prefit=(window, fit, forecast))
                # (the unit gave a fit, the lone arm fitted its own, ...)
                own = fit is not prefit[1]
                seen.append((prefit[1] is not None, own, params, result, result.model))
                return result

            with monkeypatch.context() as patch:
                patch.setattr(radar, "train_predict_stock_quarter", recording)
                tuned = tune_hyperparameters(
                    sc.assets, sc.markets, algo, space, n_tasks=3, budget=5, seed=4,
                    config=small_config(algorithms=(algo,)),
                )
            return tuned, seen

        tuned, joint = trials(grouped=True)
        alone_tuned, alone = trials(grouped=False)
        assert tuned == alone_tuned
        assert len(joint) == len(alone) == 15
        assert all(fitted and not own for fitted, own, _, _, _ in joint)
        assert all(fitted and own for fitted, own, _, _, _ in alone)
        for (_, _, params, a, a_model), (_, _, alone_params, b, b_model) in zip(joint, alone):
            assert params == alone_params
            assert a.forecasts == b.forecasts and a.forecasts
            assert a_model.hyper == params
            assert a_model.intercept == b_model.intercept
            assert np.array_equal(a_model.coef, b_model.coef)

    # lasso tunes through a joint solve per stock-quarter, gb through lone tasks
    SKIP_CASES = [
        ("lasso", {"alpha": SearchDim(kind="loguniform", lo=1e-6, hi=1e-1)}),
        (
            "gb",
            {
                "n_estimators": SearchDim(kind="int", lo=2, hi=4),
                "max_depth": SearchDim(kind="int", lo=1, hi=2),
            },
        ),
    ]

    @pytest.mark.parametrize("algo, space", SKIP_CASES)
    def test_short_history_trials_are_skips(self, monkeypatch, small_scenario, algo, space):
        sc = small_scenario
        last_train = sc.calendar().quarters()[-2]
        # A001 keeps only its last training quarter: every window it gets is
        # below min_train_rows, while the calendar keeps every date
        short = without_records(sc.assets, lambda d, e: e == "A001" and quarter_of(d) < last_train)
        cfg = small_config(algorithms=(algo,), hyperparameters={})
        candidates = enumerate_tasks(short, sc.calendar(), cfg)
        real = radar.train_predict_stock_quarter
        seen = []

        def recording(*args, **kw):
            result = real(*args, **kw)
            seen.append(result)
            return result

        monkeypatch.setattr(radar, "train_predict_stock_quarter", recording)
        tuned = tune_hyperparameters(
            short, sc.markets, algo, space, n_tasks=len(candidates), budget=2, seed=1,
            config=cfg, calendar=sc.calendar(),
        )
        assert {r.asset for r in seen} == set(short.entity_ids)
        assert all(r.skipped for r in seen if r.asset == "A001")
        assert not any(r.skipped or r.failed for r in seen if r.asset != "A001")
        assert len(seen) == 2 * len(candidates)
        assert isinstance(tuned, {"lasso": LassoParams, "gb": BoostParams}[algo])

    @pytest.mark.parametrize("algo, space", SKIP_CASES)
    def test_every_window_too_small_errors(self, small_scenario, algo, space):
        sc = small_scenario
        cfg = small_config(algorithms=(algo,), hyperparameters={}, min_train_rows=10_000)
        with pytest.raises(RadarError, match="no stock-quarter produced forecasts"):
            tune_hyperparameters(
                sc.assets, sc.markets, algo, space, n_tasks=3, budget=2, seed=1, config=cfg,
            )

    @pytest.mark.parametrize("algo, space", SKIP_CASES)
    def test_threads_run_the_serial_trials_in_one_pool(
        self, monkeypatch, small_scenario, algo, space
    ):
        sc = small_scenario
        started = recording_pools(monkeypatch)
        real = radar._run_units
        forecasts = []

        def recording(units, inputs, threads):
            done = real(units, inputs, threads)
            forecasts.append([[r.forecasts for r in results] for results in done])
            return done

        monkeypatch.setattr(radar, "_run_units", recording)
        tuned = [
            tune_hyperparameters(
                sc.assets, sc.markets, algo, space, n_tasks=3, budget=3, seed=2,
                config=small_config(algorithms=(algo,), hyperparameters={}, threads=threads),
            )
            for threads in (1, 2)
        ]
        assert started == [2]
        assert tuned[0] == tuned[1]
        assert forecasts[0] == forecasts[1]
        assert [len(unit) for unit in forecasts[0]] == [3] * 3
        assert all(trial for unit in forecasts[0] for trial in unit)

    def test_one_window_per_sampled_stock_quarter(self, monkeypatch, small_scenario):
        # the trials of a stock-quarter share its window, also for gb, whose
        # trials are fitted one by one
        sc = small_scenario
        real = radar.assemble_training_window
        calls = []

        def counting(*args, **kw):
            calls.append((args[3], args[4]))
            return real(*args, **kw)

        monkeypatch.setattr(radar, "assemble_training_window", counting)
        algo, space = self.SKIP_CASES[1]
        tune_hyperparameters(
            sc.assets, sc.markets, algo, space, n_tasks=3, budget=4, seed=2,
            config=small_config(algorithms=(algo,), hyperparameters={}),
        )
        assert len(calls) == 3

    def test_sample_defaults_to_quarters_before_the_first_forecast(
        self, monkeypatch, small_scenario
    ):
        # the earliest training quarter is the only one before the first
        # forecast quarter; later ones are sampled only when asked for
        sc = small_scenario
        real = radar._run_units
        quarters = []

        def recording(units, inputs, threads):
            quarters.append({format_quarter(unit[0]) for unit in units})
            return real(units, inputs, threads)

        monkeypatch.setattr(radar, "_run_units", recording)
        algo, space = self.SKIP_CASES[0]
        cfg = small_config(algorithms=(algo,), hyperparameters={})
        usable = sorted({q for _, q, _ in enumerate_tasks(sc.assets, sc.calendar(), cfg)})
        for given in (None, usable):
            tune_hyperparameters(
                sc.assets, sc.markets, algo, space, n_tasks=8, budget=2, seed=2,
                config=cfg, quarters=given,
            )
        assert quarters == [{"2016Q4"}, {"2016Q4", "2017Q1"}]

    def test_no_valid_draw_errors(self, monkeypatch, small_scenario):
        # the error names why no trial ran, and none does
        monkeypatch.setattr(radar, "_run_units", lambda *a: pytest.fail("a trial ran"))
        sc = small_scenario
        space = {"alpha": SearchDim(kind="choice", values=(-1.0,))}
        with pytest.raises(RadarError, match="^no valid draw in the search space: alpha must be >= 0$"):
            tune_hyperparameters(
                sc.assets, sc.markets, "lasso", space, n_tasks=2, budget=2, seed=0,
                config=small_config(),
            )

    @pytest.mark.parametrize("algo, space, name", [
        ("lasso", {"max_depth": SearchDim(kind="int", lo=2, hi=3)}, "max_depth"),
        ("gb", {"max_depth": SearchDim(kind="int", lo=2, hi=3),
                "alpha": SearchDim(kind="choice", values=(0.1,))}, "alpha"),
    ], ids=["lasso", "gb"])
    def test_space_name_the_algorithm_lacks_errors_before_drawing(
        self, monkeypatch, small_scenario, algo, space, name
    ):
        monkeypatch.setattr(SearchDim, "sample", lambda *a: pytest.fail("a draw was made"))
        sc = small_scenario
        with pytest.raises(RadarError, match=f"^{algo} has no hyperparameter '{name}'$"):
            tune_hyperparameters(
                sc.assets, sc.markets, algo, space, n_tasks=2, budget=2, seed=0,
                config=small_config(algorithms=(algo,)),
            )

    def test_partly_invalid_space_skips_its_invalid_draws(self, monkeypatch, small_scenario):
        trials = []
        real = radar._run_units

        def counting(units, *args):
            trials.extend(t for _, _, unit in units for t in unit)
            return real(units, *args)

        monkeypatch.setattr(radar, "_run_units", counting)
        sc = small_scenario
        space = {"alpha": SearchDim(kind="choice", values=(-1.0, 1e-3))}
        tuned = tune_hyperparameters(
            sc.assets, sc.markets, "lasso", space, n_tasks=3, budget=4, seed=0,
            config=small_config(),
        )
        assert tuned.alpha == 1e-3
        assert 0 < len(trials) < 12
        assert all(cfg.hyperparameters["lasso"].alpha == 1e-3 for _, cfg in trials)

    def test_median_snaps_to_valid_int(self):
        dim = SearchDim(kind="int", lo=1, hi=9)
        assert dim.snap(4.4) == 4.0
        assert dim.snap(12.0) == 9.0
        choice = SearchDim(kind="choice", values=(1.0, 2.0, 5.0))
        assert choice.snap(3.4) == 2.0

    def test_empty_sample_errors(self, small_scenario):
        sc = small_scenario
        space = {"alpha": SearchDim(kind="choice", values=(0.1,))}
        with pytest.raises(RadarError, match="tuning sample"):
            tune_hyperparameters(
                sc.assets, sc.markets, "lasso", space, n_tasks=1, budget=1, seed=0,
                config=small_config(), quarters=[(1999, 1)],
            )
