import concurrent.futures.process
import datetime as dt
import os

import pytest

from marketradar import radar
from marketradar.learners import LassoParams, NetParams
from marketradar.panel import ReturnPanel
from marketradar.radar import (
    ForecastRow,
    ForecastTable,
    RadarConfig,
    RadarError,
    SearchDim,
    enumerate_tasks,
    run_radar,
    task_seed,
    train_predict_stock_quarter,
    tune_hyperparameters,
    write_importance_csv,
    read_importance_csv,
)
from marketradar.synth import ScenarioSpec, generate
from marketradar.trading_calendar import quarter_of, shift_quarter

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

    def test_no_next_quarter_data_returns_model_only(self, small_scenario):
        sc = small_scenario
        cal = sc.calendar()
        last_q = cal.quarters()[-1]
        result = train_predict_stock_quarter(
            sc.assets, sc.markets, cal, "A000", last_q, "lasso", small_config()
        )
        assert result.model is not None
        assert result.forecasts == []

    def test_small_window_is_recorded_skip(self, small_scenario):
        sc = small_scenario
        cal = sc.calendar()
        result = train_predict_stock_quarter(
            sc.assets, sc.markets, cal, "A000", (2016, 4), "lasso",
            small_config(min_train_rows=10_000),
        )
        assert result.skipped
        assert "minimum" in result.skip_reason

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

    def test_every_task_failed_names_first_reason(self, small_scenario):
        sc = small_scenario
        cfg = small_config(
            algorithms=("nn",), hyperparameters={"nn": NetParams(learning_rate=1e300)}
        )
        with pytest.raises(RadarError, match=r"^non-finite loss .*\(A000 2017Q1 nn\)"):
            run_radar(sc.assets, sc.markets, cfg)

    def test_pool_never_outnumbers_chunks(self, monkeypatch, small_scenario):
        started = []

        class RecordingPool(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                started.append(max_workers)
                # never fork a large pool, even if the worker bound breaks
                super().__init__(min(max_workers, 2), *args, **kwargs)

        # run_radar imports the pool class when it starts one
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
        sc = small_scenario
        cfg = small_config(threads=64)
        _, _, report = run_radar(sc.assets, sc.markets, cfg)
        # 8 lasso tasks make two chunks
        assert report.n_tasks == 8
        assert started == [2]
        # a single chunk runs in this process, with no pool at all
        monkeypatch.setattr(radar, "TASK_CHUNK", 8)
        run_radar(sc.assets, sc.markets, cfg)
        assert started == [2]

    def test_dead_worker_is_radar_error(self, monkeypatch, small_scenario):
        real = radar.train_predict_stock_quarter
        test_pid = os.getpid()

        def dies_on_one_asset(assets, sources, calendar, asset, quarter, algo, config):
            if asset == "A003" and os.getpid() != test_pid:
                os._exit(3)
            return real(assets, sources, calendar, asset, quarter, algo, config)

        # forked workers inherit the patched module attribute
        monkeypatch.setattr(radar, "train_predict_stock_quarter", dies_on_one_asset)
        sc = small_scenario
        with pytest.raises(RadarError, match="worker process died"):
            run_radar(sc.assets, sc.markets, small_config(threads=2))


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
