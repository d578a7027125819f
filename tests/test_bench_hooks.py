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
