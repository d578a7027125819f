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


def test_cli_import_leaves_scipy_unloaded():
    # only the report's regressions need scipy; synth, radar and tune do not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [v for v in [env.get("PYTHONPATH")] if v])
    code = "import sys, marketradar.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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

    def test_missing_forecasts_exits_two(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path, RADAR_CFG, data_dir=synth_dir)
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "empty")]) == 2


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
