import datetime as dt
import os
import subprocess
import sys
from pathlib import Path

import pytest

from marketradar.cli import ConfigError, config_from_mapping, main, parse_config_text

SYNTH_CFG = """
# tiny deterministic scenario
seed = 13
synth.n_assets = 6
synth.n_markets = 2
synth.days_per_quarter = 22
synth.n_quarters = 6
synth.exposed_fraction = 0.5
synth.markets_per_asset = 1
synth.noise_sd = 0.002
"""

RADAR_CFG = """
seed = 13
radar.algos = lasso,gb
radar.min_train_rows = 40
radar.importance = true
hp.lasso.alpha = 1e-5
hp.gb.n_estimators = 10
hp.gb.max_depth = 2
portfolio.fraction = 0.2
"""


def write_cfg(tmp_path, text, data_dir=None, name="cfg.txt"):
    if data_dir is not None:
        text += f"\ndata.returns = {data_dir}/returns.csv"
        text += f"\ndata.markets = {data_dir}/markets.csv"
        text += f"\ndata.factors = {data_dir}/factors.csv"
        text += f"\ndata.caps = {data_dir}/caps.csv"
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_import_leaves_scipy_unloaded(tmp_path, synth_dir):
    # no step needs scipy: neither importing the CLI nor a report whose
    # factor alphas and importance slopes run regressions loads it; and a
    # radar run on one worker does without multiprocessing
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [v for v in [env.get("PYTHONPATH")] if v])
    steps = [
        f"marketradar.cli.main([{command!r}, '--config', {cfg!r}, '--out', {str(out)!r}, "
        "'--threads', '1'])"
        for command in ("radar", "report")
    ]
    for step in ("0", *steps):
        code = (
            f"import sys, marketradar.cli; print({step}, "
            "sorted(m for m in sys.modules if m.startswith('scipy')), "
            "'multiprocessing' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 [] False"
    lines = (out / "tables.txt").read_text().splitlines()
    top = next(line for line in lines if line.startswith("lasso    top"))
    assert "*" in top and "n/a" not in top
    assert any(line.startswith("lasso     linear: slope") for line in lines)


class TestConfigParsing:
    def test_dotted_keys_and_comments(self):
        mapping = parse_config_text("a.b = 1 # trailing\n# whole line\n\nc = x\n")
        assert mapping == {"a.b": "1", "c": "x"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"nope": "1"})

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError, match="fraction"):
            config_from_mapping({"portfolio.fraction": "0.9"})

    def test_hyperparameters_parsed(self):
        cfg = config_from_mapping({"hp.lasso.alpha": "0.5", "hp.rf.n_estimators": "7"})
        assert cfg.radar.hyperparameters["lasso"].alpha == 0.5
        assert cfg.radar.hyperparameters["rf"].n_estimators == 7

    def test_space_entries(self):
        cfg = config_from_mapping({"space.alpha": "loguniform 1e-6 1e-1"})
        assert cfg.space["alpha"].kind == "loguniform"


class TestSynthCommand:
    def test_writes_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_CFG)
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        for name in ("returns.csv", "markets.csv", "factors.csv", "caps.csv", "truth.csv"):
            assert (out / name).exists()

    def test_rerun_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SYNTH_CFG)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["synth", "--config", cfg, "--out", str(out1)])
        main(["synth", "--config", cfg, "--out", str(out2)])
        assert (out1 / "returns.csv").read_bytes() == (out2 / "returns.csv").read_bytes()

    def test_config_seed_reaches_synth(self, tmp_path):
        cfg = write_cfg(tmp_path, SYNTH_CFG.replace("seed = 13", "seed = 5"))
        bare = write_cfg(tmp_path, SYNTH_CFG.replace("seed = 13\n", ""), name="bare.txt")
        by_key, by_flag = tmp_path / "key", tmp_path / "flag"
        assert main(["synth", "--config", cfg, "--out", str(by_key)]) == 0
        assert main(["synth", "--config", bare, "--out", str(by_flag), "--seed", "5"]) == 0
        assert (by_key / "returns.csv").read_bytes() == (by_flag / "returns.csv").read_bytes()

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "synth.exposed_fraction = 2.0\n")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flow")
    cfg = write_cfg(tmp, SYNTH_CFG)
    out = tmp / "data"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestRadarCommand:
    def test_missing_input_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RADAR_CFG)
        assert main(["radar", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_calendar_exits_two(self, tmp_path, synth_dir, capsys):
        # a configured calendar that does not exist is an error, not the
        # panel's own calendar
        calendar = tmp_path / "calendar.csv"
        cfg = write_cfg(tmp_path, RADAR_CFG + f"\ndata.calendar = {calendar}", data_dir=synth_dir)
        out = tmp_path / "run"
        assert main(["radar", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: input {calendar} not found\n"
        assert not (out / "forecasts.csv").exists()

    def test_out_of_range_hyperparameter_exits_one(self, tmp_path, synth_dir, capsys):
        cfg = write_cfg(tmp_path, RADAR_CFG + "\nhp.rf.n_estimators = 0", data_dir=synth_dir)
        out = tmp_path / "run"
        assert main(["radar", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_estimators must be >= 1\n"
        assert not (out / "forecasts.csv").exists()

    def test_run_writes_outputs(self, tmp_path, synth_dir, capsys):
        cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        out = tmp_path / "run"
        assert main(["radar", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "forecasts.csv").exists()
        assert (out / "importance.csv").exists()
        report = (out / "run_report.txt").read_text()
        assert "tasks.completed" in report
        assert "sparsity.lasso" in report

    def test_algo_flag_restricts_tasks(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        out = tmp_path / "only"
        assert main(["radar", "--config", cfg, "--out", str(out), "--algos", "lasso"]) == 0
        body = (out / "forecasts.csv").read_text()
        assert ",lasso," in body
        assert ",gb," not in body

    def test_explicit_calendar_restricts_quarters(self, tmp_path, synth_dir):
        # calendar covering only the first five quarters: one fewer task wave
        returns = (synth_dir / "returns.csv").read_text().splitlines()[1:]
        dates = sorted({line.split(",")[0] for line in returns if line})
        kept = [d for d in dates if d < "2017-04-01"]
        cal_path = tmp_path / "calendar.csv"
        cal_path.write_text("\n".join(kept) + "\n")
        cfg = write_cfg(
            tmp_path, RADAR_CFG + f"\ndata.calendar = {cal_path}", data_dir=synth_dir
        )
        out = tmp_path / "restricted"
        assert main(["radar", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "forecasts.csv").read_text()
        assert "2017-01" in body
        assert "2017-04" not in body

    def test_library_error_exits_one_without_traceback(self, tmp_path):
        # nn training diverges within two steps; the CLI must say so in one
        # line instead of dying with a TrainingDiverged traceback
        synth_cfg = write_cfg(
            tmp_path, SYNTH_CFG.replace("n_assets = 6", "n_assets = 2"), name="synth.txt"
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", synth_cfg, "--out", str(data)]) == 0
        text = "seed = 13\nradar.algos = nn\nradar.min_train_rows = 40\n"
        text += "hp.nn.learning_rate = 1e300\n"
        cfg = write_cfg(tmp_path, text, data_dir=data)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src] + [v for v in [env.get("PYTHONPATH")] if v])
        proc = subprocess.run(
            [sys.executable, "-m", "marketradar.cli", "radar", "--config", cfg,
             "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: non-finite loss")
        assert "Traceback" not in proc.stderr


    def test_zero_importance_permutations_exits_one(self, tmp_path, synth_dir, capsys):
        text = RADAR_CFG.replace("lasso,gb", "nn") + "radar.nn_importance_permutations = 0\n"
        cfg = write_cfg(tmp_path, text, data_dir=synth_dir)
        out = tmp_path / "run"
        assert main(["radar", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: nn_importance_permutations must be >= 1\n"
        assert not out.exists()

    def test_nonpositive_threads_exits_one(self, tmp_path, synth_dir, capsys):
        cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        for threads in ("0", "-5"):
            out = tmp_path / f"run{threads}"
            args = ["radar", "--config", cfg, "--out", str(out), "--threads", threads]
            assert main(args) == 1
            assert capsys.readouterr().err == "error: threads must be >= 1\n"
            assert not out.exists()

    @pytest.mark.parametrize("algos", ["lasso,lasso", ","])
    def test_repeated_or_no_algorithm_exits_one(self, tmp_path, synth_dir, capsys, algos):
        cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        out = tmp_path / "run"
        assert main(["radar", "--config", cfg, "--out", str(out), "--algos", algos]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: algorithms must be non-empty and distinct")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_run_without_importance_leaves_no_stale_importance(self, tmp_path, synth_dir):
        # a gb run, then a lasso run without importance, into one directory:
        # the report must not read the gb run's importance
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        assert main(["radar", "--config", cfg, "--out", str(out), "--algos", "gb"]) == 0
        assert ",gb," in (out / "importance.csv").read_text()
        text = RADAR_CFG.replace("radar.importance = true", "radar.importance = false")
        cfg = write_cfg(tmp_path, text, data_dir=synth_dir, name="off.txt")
        assert main(["radar", "--config", cfg, "--out", str(out), "--algos", "lasso"]) == 0
        assert (out / "importance.csv").read_text() == (
            "asset,quarter,algo,source,lag_week,importance\n"
        )
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        assert "importance" not in (out / "tables.txt").read_text()

    def test_underdetermined_ols_is_failed_task(self, tmp_path):
        # 70 markets x 4 lags = 280 features against 252 training rows: every
        # ols fit is underdetermined, and the lasso tasks must still run
        synth_cfg = write_cfg(
            tmp_path,
            "seed = 3\nsynth.n_assets = 3\nsynth.n_markets = 70\nsynth.n_quarters = 5\n",
            name="synth.txt",
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", synth_cfg, "--out", str(data)]) == 0
        cfg = write_cfg(tmp_path, "seed = 3\nradar.algos = ols,lasso\n", data_dir=data)
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"run{threads}"
            args = ["radar", "--config", cfg, "--out", str(out), "--threads", str(threads)]
            assert main(args) == 0
            forecasts = (out / "forecasts.csv").read_bytes()
            assert b",lasso," in forecasts and b",ols," not in forecasts
            report = [
                line
                for line in (out / "run_report.txt").read_text().splitlines()
                if not line.startswith(("wall_seconds", "threads"))
            ]
            fails = [line for line in report if line.startswith("fail ")]
            assert len(fails) == 3
            assert all(" ols: underdetermined" in line for line in fails)
            assert "tasks.completed = 3" in report and "tasks.failed = 3" in report
            outputs.append((forecasts, (out / "importance.csv").read_bytes(), report))
        assert outputs[0] == outputs[1]


class TestReportCommand:
    def test_full_flow(self, tmp_path, synth_dir, capsys):
        cfg_path = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        out = tmp_path / "run"
        assert main(["radar", "--config", cfg_path, "--out", str(out)]) == 0
        cfg2 = write_cfg(
            tmp_path,
            RADAR_CFG
            + f"\ndata.forecasts = {out}/forecasts.csv"
            + f"\ndata.importance = {out}/importance.csv"
            + f"\ndata.run_report = {out}/run_report.txt",
            data_dir=synth_dir,
            name="cfg_report.txt",
        )
        assert main(["report", "--config", cfg2, "--out", str(out)]) == 0
        text = (out / "tables.txt").read_text()
        assert "portfolio performance" in text
        assert "out-of-sample fit" in text
        assert "High (10)" in text
        assert "signals kept by sparse linear fits" in text
        assert "market timing" in text
        portfolio_lines = (out / "portfolio.csv").read_text().splitlines()
        assert portfolio_lines[0] == "date,name,ret,turnover"
        assert any(",lasso-top," in line for line in portfolio_lines[1:])

    def test_report_deterministic(self, tmp_path, synth_dir):
        cfg_path = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        out = tmp_path / "run"
        assert main(["radar", "--config", cfg_path, "--out", str(out)]) == 0
        cfg2 = write_cfg(
            tmp_path,
            RADAR_CFG + f"\ndata.forecasts = {out}/forecasts.csv",
            data_dir=synth_dir,
            name="cfg_report.txt",
        )
        assert main(["report", "--config", cfg2, "--out", str(out)]) == 0
        first = (out / "tables.txt").read_bytes()
        assert main(["report", "--config", cfg2, "--out", str(out)]) == 0
        assert (out / "tables.txt").read_bytes() == first

    def test_small_panel_reports_na_rows(self, tmp_path, capsys):
        # the default fraction 0.05 needs >= 20 forecasts a day; with 10
        # assets every selection is empty, so no portfolio leg has a return
        synth_cfg = write_cfg(
            tmp_path, SYNTH_CFG.replace("n_assets = 6", "n_assets = 10"), name="synth.txt"
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", synth_cfg, "--out", str(data)]) == 0
        out = tmp_path / "run"
        text = "seed = 13\nradar.algos = lasso\nradar.min_train_rows = 40\n"
        text += f"hp.lasso.alpha = 1e-5\ndata.forecasts = {out}/forecasts.csv\n"
        cfg = write_cfg(tmp_path, text, data_dir=data)
        assert main(["radar", "--config", cfg, "--out", str(out)]) == 0
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        tables = (out / "tables.txt").read_text()
        for leg in ("top", "bottom", "t-b"):
            assert f"lasso    {leg:7} n/a (need at least 2 observations)\n" in tables
        for section in ("decile portfolios", "out-of-sample fit", "signal importance", "market timing"):
            assert f"== {section}" in tables

    def test_comb_averages_the_algorithms_that_hold_a_book(self, tmp_path):
        # at fraction 0.05 a day needs 20 forecasts: gb has 20 and lasso 19,
        # so lasso's books stay empty and comb is gb's books alone
        days = [dt.date(2020, 1, 6) + dt.timedelta(days=k) for k in range(5)]
        assets = [f"A{i:02d}" for i in range(20)]
        returns = "".join(
            f"{day},{asset},{0.0001 * (i + 1) * (k + 1)!r}\n"
            for k, day in enumerate(days)
            for i, asset in enumerate(assets)
        )
        (tmp_path / "returns.csv").write_text("date,entity,value\n" + returns)
        forecasts = "".join(
            f"{day},{asset},{algo},{float(i)!r}\n"
            for day in days
            for algo, n in (("gb", 20), ("lasso", 19))
            for i, asset in enumerate(assets[:n])
        )
        (tmp_path / "forecasts.csv").write_text("date,asset,algo,yhat\n" + forecasts)
        text = f"data.returns = {tmp_path}/returns.csv\ndata.forecasts = {tmp_path}/forecasts.csv\n"
        out = tmp_path / "run"
        assert main(["report", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "tables.txt").read_text().splitlines()
        comb = [row for row in rows if row.startswith("comb ")]
        gb = [row for row in rows if row.startswith("gb ")][:3]
        assert len(comb) == 3 and "n/a" not in "".join(comb)
        assert [row[5:] for row in comb] == [row[5:] for row in gb]

    def test_missing_factors_exits_two(self, tmp_path, capsys):
        # a misspelled factors path is an error, not a report without alphas
        factors = tmp_path / "factor.csv"
        text = write_report_inputs(tmp_path) + f"data.factors = {factors}\n"
        out = tmp_path / "run"
        assert main(["report", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: input {factors} not found\n"
        assert not (out / "tables.txt").exists()

    def test_missing_forecasts_exits_two(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "empty")]) == 2


def write_report_inputs(tmp_path):
    """returns.csv and forecasts.csv of 20 assets over 5 days, and a config
    that reads them."""
    days = [dt.date(2020, 1, 6) + dt.timedelta(days=k) for k in range(5)]
    assets = [f"A{i:02d}" for i in range(20)]
    (tmp_path / "returns.csv").write_text("date,entity,value\n" + "".join(
        f"{day},{asset},{0.0001 * (i + 1) * (k + 1)!r}\n"
        for k, day in enumerate(days)
        for i, asset in enumerate(assets)
    ))
    (tmp_path / "forecasts.csv").write_text("date,asset,algo,yhat\n" + "".join(
        f"{day},{asset},gb,{float(i)!r}\n" for day in days for i, asset in enumerate(assets)
    ))
    return f"data.returns = {tmp_path}/returns.csv\ndata.forecasts = {tmp_path}/forecasts.csv\n"


class TestMalformedInput:
    """A bad cell or an empty file is one ``error: path:line: reason`` line
    and exit 1, never a traceback."""

    def run(self, capsys, command, cfg, out):
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        return err

    def radar_with_line_5(self, tmp_path, synth_dir, capsys, edit):
        """``radar``'s error on the synth data with line 5 of returns.csv
        replaced by ``edit`` of it, and the data directory."""
        lines = (synth_dir / "returns.csv").read_text().splitlines(keepends=True)
        lines[4] = edit(lines[4].rstrip("\n")) + "\n"
        data = tmp_path / "data"
        data.mkdir()
        for name in ("markets.csv", "factors.csv", "caps.csv"):
            (data / name).write_bytes((synth_dir / name).read_bytes())
        (data / "returns.csv").write_text("".join(lines))
        cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=data)
        return self.run(capsys, "radar", cfg, tmp_path / "run"), data

    def test_bad_return(self, tmp_path, synth_dir, capsys):
        edit = lambda line: line.rsplit(",", 1)[0] + ",abc"
        err, data = self.radar_with_line_5(tmp_path, synth_dir, capsys, edit)
        assert err == f"error: {data}/returns.csv:5: could not convert string to float: 'abc'\n"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_return(self, tmp_path, synth_dir, capsys, bad):
        edit = lambda line: line.rsplit(",", 1)[0] + f",{bad}"
        err, data = self.radar_with_line_5(tmp_path, synth_dir, capsys, edit)
        assert err == f"error: {data}/returns.csv:5: non-finite value {bad!r}\n"

    def test_empty_calendar(self, tmp_path, synth_dir, capsys):
        calendar = tmp_path / "calendar.csv"
        calendar.write_text("\n  \n")
        cfg = write_cfg(tmp_path, RADAR_CFG + f"\ndata.calendar = {calendar}", data_dir=synth_dir)
        err = self.run(capsys, "radar", cfg, tmp_path / "run")
        assert err == f"error: {calendar}: empty calendar\n"

    def test_short_forecast_row(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, write_report_inputs(tmp_path))
        forecasts = tmp_path / "forecasts.csv"
        lines = forecasts.read_text().splitlines(keepends=True)
        lines[6] = ",".join(lines[6].split(",")[:3]) + "\n"
        forecasts.write_text("".join(lines))
        err = self.run(capsys, "report", cfg, tmp_path / "run")
        assert err == f"error: {forecasts}:7: too few fields\n"

    def test_bad_importance_quarter(self, tmp_path, capsys):
        importance = tmp_path / "importance.csv"
        importance.write_text(
            "asset,quarter,algo,source,lag_week,importance\n"
            "A00,2020Q1,gb,M00,1,0.5\n"
            "\n"
            "A00,2020Q5,gb,M00,2,0.25\n"
        )
        text = write_report_inputs(tmp_path) + f"data.importance = {importance}\n"
        err = self.run(capsys, "report", write_cfg(tmp_path, text), tmp_path / "run")
        assert err == f"error: {importance}:4: bad quarter '2020Q5'\n"


    def test_short_factors_row(self, tmp_path, capsys):
        factors = tmp_path / "factors.csv"
        factors.write_text("date,MKT,RF\n2020-01-06,0.001,0.0001\n2020-01-07,0.002\n")
        text = write_report_inputs(tmp_path) + f"data.factors = {factors}\n"
        err = self.run(capsys, "report", write_cfg(tmp_path, text), tmp_path / "run")
        assert err == f"error: {factors}:3: too few fields\n"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_factor(self, tmp_path, capsys, bad):
        days = [dt.date(2020, 1, 6) + dt.timedelta(days=k) for k in range(5)]
        factors = tmp_path / "factors.csv"
        factors.write_text("date,MKT,RF\n" + "".join(
            f"{day},{bad if k == 3 else 0.001 * k},0.0001\n" for k, day in enumerate(days)
        ))
        text = write_report_inputs(tmp_path) + f"data.factors = {factors}\n"
        err = self.run(capsys, "report", write_cfg(tmp_path, text), tmp_path / "run")
        assert err == f"error: {factors}:5: non-finite value {bad!r}\n"

    def test_extra_return_field(self, tmp_path, synth_dir, capsys):
        edit = lambda line: line + ",0.5"
        err, data = self.radar_with_line_5(tmp_path, synth_dir, capsys, edit)
        assert err == f"error: {data}/returns.csv:5: too many fields\n"

    def test_bad_sparsity_line(self, tmp_path, capsys):
        run_report = tmp_path / "run_report.txt"
        run_report.write_text("run report\ntasks.total = 1\nsparsity.lasso = n/a\n")
        text = write_report_inputs(tmp_path) + f"data.run_report = {run_report}\n"
        err = self.run(capsys, "report", write_cfg(tmp_path, text), tmp_path / "run")
        assert err == f"error: {run_report}:3: could not convert string to float: 'n/a'\n"

class TestTuneCommand:
    def test_tuned_file_is_valid_config(self, tmp_path, synth_dir):
        text = RADAR_CFG + "\ntune.algo = lasso\ntune.n_tasks = 2\ntune.budget = 3\n"
        text += "space.alpha = choice 1e-5 1e-3 1e-1\n"
        cfg = write_cfg(tmp_path, text, data_dir=synth_dir)
        out = tmp_path / "tuned"
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        tuned_text = (out / "tuned.cfg").read_text()
        mapping = parse_config_text(tuned_text)
        cfg2 = config_from_mapping(mapping)
        assert cfg2.radar.hyperparameters["lasso"].alpha in (1e-5, 1e-3, 1e-1)

    def test_seed_determinism(self, tmp_path, synth_dir):
        text = RADAR_CFG + "\ntune.algo = lasso\ntune.n_tasks = 2\ntune.budget = 3\n"
        text += "space.alpha = loguniform 1e-6 1e-1\n"
        cfg = write_cfg(tmp_path, text, data_dir=synth_dir)
        out1, out2 = tmp_path / "u1", tmp_path / "u2"
        assert main(["tune", "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0
        assert main(["tune", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
        assert (out1 / "tuned.cfg").read_bytes() == (out2 / "tuned.cfg").read_bytes()

    def test_requires_space(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path, RADAR_CFG + "\ntune.algo = lasso\n", data_dir=synth_dir)
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
