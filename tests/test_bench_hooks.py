"""The benchmark's traced mode wraps module attributes of the program by
name (perfbench/tracer.py).  Running one traced CLI step checks that every
wrapped name still exists."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY_CFG = """
synth.n_assets = 2
synth.n_markets = 1
synth.days_per_quarter = 4
synth.n_quarters = 2
synth.markets_per_asset = 1
"""


def test_tracer_installs_and_runs_synth(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG)
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [v for v in [env.get("PYTHONPATH")] if v]
    )
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
            "synth", "--config", str(cfg), "--out", str(tmp_path / "data"),
            "--seed", "1", "--threads", "1",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[2] for span in json.loads(spans.read_text())["spans"]}
    assert {"synth.generate", "synth.write"} <= names


RADAR_CFG = TINY_CFG + """
synth.n_quarters = 3
radar.algos = lasso
radar.window_quarters = 2
radar.min_train_rows = 4
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [v for v in [env.get("PYTHONPATH")] if v]
    )
    return env


def test_tracer_records_radar_task_spans(tmp_path):
    # the benchmark's per-layer metrics read these spans; a signature change
    # of a wrapped radar or panel function must fail here
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RADAR_CFG)
    common = ["--config", str(cfg), "--out", str(tmp_path), "--seed", "1", "--threads", "1"]
    synth = subprocess.run(
        [sys.executable, "-m", "marketradar.cli", "synth", *common],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert synth.returncode == 0, synth.stderr
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "radar", *common],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(spans.read_text())["spans"]
    names = {span[2] for span in recorded}
    assert {"panel.window", "panel.pred_block", "radar.task"} <= names
    tasks = [span for span in recorded if span[2] == "radar.task"]
    assert tasks and all(span[5]["algo"] == "lasso" for span in tasks)


def test_tracer_reads_gb_trees(tmp_path):
    # the tree-attribution metrics walk TreeNode.is_leaf/left/right and tag
    # learners.fit spans by algo; leaf size 1 lets the tiny window split
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        RADAR_CFG.replace("radar.algos = lasso", "radar.algos = gb")
        + "radar.importance = true\nhp.gb.min_samples_leaf = 1\nhp.gb.n_estimators = 5\n"
    )
    common = ["--config", str(cfg), "--out", str(tmp_path), "--seed", "1", "--threads", "1"]
    synth = subprocess.run(
        [sys.executable, "-m", "marketradar.cli", "synth", *common],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert synth.returncode == 0, synth.stderr
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "radar", *common],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(spans.read_text())["spans"]
    fits = [span for span in recorded if span[2] == "learners.fit"]
    ops = [span[5]["ops"] for span in recorded if span[2] == "shapley.tree"]
    rows = [span[5]["rows"] for span in recorded if span[2] == "panel.window"]
    assert fits and all(span[5]["algo"] == "gb" for span in fits)
    assert ops and all(o > 0 for o in ops)
    # each task attributes its window rows against themselves, so five
    # stumps would give 5 * rows**2 ops; more means some tree split
    assert sum(ops) > 5 * sum(r * r for r in rows)


def test_tracer_counts_tuning_trials(tmp_path):
    # the tune_gb checks read radar.trial_calls from the radar.task spans
    # under radar.tune; a sampled stock-quarter assembles and standardizes
    # one window and builds one forecast block for all of its lasso trials
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        RADAR_CFG
        + "tune.algo = lasso\ntune.n_tasks = 2\ntune.budget = 3\n"
        + "space.alpha = loguniform 0.0001 0.1\n"
    )
    common = ["--config", str(cfg), "--out", str(tmp_path), "--seed", "1", "--threads", "1"]
    synth = subprocess.run(
        [sys.executable, "-m", "marketradar.cli", "synth", *common],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert synth.returncode == 0, synth.stderr
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "tune", *common],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(spans.read_text())["spans"]
    tasks = [span for span in recorded if span[2] == "radar.task"]
    assert len(tasks) == 6 and all(span[5]["algo"] == "lasso" for span in tasks)
    assert sum(span[2] == "panel.window" for span in recorded) == 2
    assert sum(span[2] == "panel.pred_block" for span in recorded) == 2
    assert sum(span[2] == "panel.standardize" for span in recorded) == 2
