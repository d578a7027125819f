"""The benchmark's workloads: scenario shape, CLI steps and expected outputs.

Each workload is a config file of the program's own dotted keys plus the
sequence of CLI steps that make one solution.  The workload seed is never
written into the config: it reaches every step as ``--seed`` (a config-file
``seed`` does not reach ``synth``), and ``--threads`` is always explicit.
"""
from __future__ import annotations

from dataclasses import dataclass

# 20 assets is the smallest universe for which the default 5% book selects
# one asset per side; 5 markets x 4 lags gives the 20-feature design.  16
# trading days per quarter (64 training rows per task) keeps the radar step
# near 22 s at threads=2 on 2 cores, with attribution about 75% of task
# time.  Every asset is exposed, so truth_recall averages over all 20
# asset-quarters rather than over however many a seed happens to expose.
ATTRIB_SCENARIO = """\
synth.n_assets = 20
synth.n_markets = 5
synth.lags = 4
synth.days_per_quarter = 16
synth.n_quarters = 5
synth.exposed_fraction = 1.0
synth.noise_sd = 0.005
radar.lags = 4
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    # "radar" runs radar then report; "tune" runs tune, then radar with the
    # tuned hyperparameters appended to the config, then report.  The
    # operations counted by tasks_per_s are the train_predict_stock_quarter
    # calls of the step named here: radar tasks, or tuning trials.
    kind: str
    threads: int
    algos: tuple[str, ...]
    sections: tuple[str, ...]
    tune_trials: int = 0


COMMON_SECTIONS = (
    "== portfolio performance (daily, bps) ==",
    "== decile portfolios (alpha, bps) ==",
    "== out-of-sample fit ==",
    "== signal importance vs lag (x 1e4; clustered t) ==",
    "== market timing ==",
)

# 128 trials keep the tune step near 10 s, long against start-up noise.
TUNE_N_TASKS = 16
TUNE_BUDGET = 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="attrib",
            config=ATTRIB_SCENARIO + "radar.algos = gb,nn\nradar.importance = true\n",
            kind="radar",
            threads=2,
            algos=("gb", "nn"),
            sections=COMMON_SECTIONS,
        ),
        Workload(
            name="wide_lasso",
            config="""\
synth.n_assets = 100
synth.n_markets = 20
synth.lags = 4
synth.n_quarters = 8
synth.exposed_fraction = 0.5
synth.noise_sd = 0.005
radar.lags = 4
radar.algos = lasso
radar.importance = true
portfolio.weighting = value
portfolio.deciles = true
""",
            kind="radar",
            threads=1,
            algos=("lasso",),
            sections=COMMON_SECTIONS + ("== signals kept by sparse linear fits ==",),
        ),
        Workload(
            name="tune_gb",
            # tune.quarters is pinned to the only training quarter before
            # the panel's first forecast quarter (2017Q1), so a change of
            # the unpinned default cannot change the workload's work.
            config=ATTRIB_SCENARIO
            + f"""\
radar.algos = gb
radar.importance = true
tune.algo = gb
tune.n_tasks = {TUNE_N_TASKS}
tune.budget = {TUNE_BUDGET}
tune.quarters = 2016Q4
space.n_estimators = int 40 60
space.max_depth = int 2 3
space.learning_rate = loguniform 0.03 0.3
""",
            kind="tune",
            threads=1,
            algos=("gb",),
            sections=COMMON_SECTIONS,
            tune_trials=TUNE_N_TASKS * TUNE_BUDGET,
        ),
    )
}
