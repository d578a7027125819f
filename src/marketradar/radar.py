"""Walk-forward orchestration: train per (asset, quarter, algorithm) on a
trailing window, forecast the following quarter, and merge results in
deterministic key order regardless of parallelism.

Each task derives its own seed from a stable hash of (base seed, asset,
training quarter, algorithm), so partial re-runs and any worker count
reproduce identical output.  With more than one worker, tasks run in chunks
on forked worker processes (POSIX only), which inherit the panels instead
of receiving them pickled.  Stock-quarters whose window is too small are
recorded as skips, and tasks whose fit, prediction or attribution raises a
library error as failures, never silently dropped: downstream summary
denominators need them, and one degenerate task does not end the run.
Tasks are labeled by the quarter they forecast, which keys forecasts, fit
records, and importances consistently.
"""
from __future__ import annotations

import csv
import datetime as dt
import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import learners
from .econometrics import sparsity_fraction
from .errors import MarketRadarError
from .learners import params as hp
from .panel import (
    ReturnPanel,
    SignalBlock,
    SignalId,
    WindowTooSmall,
    assemble_training_window,
    build_signal_block,
    standardize,
)
from .shapley import ImportanceRecord, lasso_importance, mean_abs_importance
from .trading_calendar import (
    Quarter,
    TradingCalendar,
    format_quarter,
    parse_quarter,
    quarter_range,
    shift_quarter,
)

STANDARDIZED_ALGOS = {"ols", "lasso", "enet", "nn"}
# Tasks a worker process takes at a time: few enough round trips to amortize
# pickling results, small enough chunks to balance slow and fast algorithms.
TASK_CHUNK = 4


class RadarError(MarketRadarError, ValueError):
    pass


@dataclass(frozen=True)
class RadarConfig:
    algorithms: tuple[str, ...] = ("lasso", "rf", "gb", "nn")
    lags: int = 4
    window_quarters: int = 4
    hyperparameters: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0
    min_train_rows: int = 60
    importance: bool = True
    nn_importance_permutations: int = 8
    threads: int = 1  # worker processes; 1 runs every task in this process

    def __post_init__(self) -> None:
        if self.window_quarters < 1 or self.lags < 1:
            raise RadarError("window_quarters and lags must be >= 1")
        for algo in self.algorithms:
            if algo not in hp.PARAM_TYPES:
                raise RadarError(f"unknown algorithm {algo!r}")

    def params_for(self, algo: str):
        given = self.hyperparameters.get(algo)
        if given is None:
            return hp.default_params(algo)
        given.validate()
        return given


@dataclass(frozen=True)
class ForecastRow:
    date: dt.date
    asset: str
    algo: str
    yhat: float


@dataclass
class ForecastTable:
    rows: list[ForecastRow]

    def __post_init__(self) -> None:
        seen = set()
        for r in self.rows:
            key = (r.date, r.asset, r.algo)
            if key in seen:
                raise RadarError(f"duplicate forecast for {key}")
            if not math.isfinite(r.yhat):
                raise RadarError(f"non-finite forecast for {key}")
            seen.add(key)
        self.rows.sort(key=lambda r: (r.date, r.asset, r.algo))

    def algos(self) -> list[str]:
        return sorted({r.algo for r in self.rows})

    def by_date(self, algo: str) -> dict[dt.date, dict[str, float]]:
        out: dict[dt.date, dict[str, float]] = {}
        for r in self.rows:
            if r.algo == algo:
                out.setdefault(r.date, {})[r.asset] = r.yhat
        return out

    def to_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "asset", "algo", "yhat"])
            for r in self.rows:
                writer.writerow([r.date.isoformat(), r.asset, r.algo, repr(r.yhat)])

    @classmethod
    def from_csv(cls, path: Path | str) -> "ForecastTable":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["date", "asset", "algo", "yhat"]:
                raise RadarError(f"{path}: expected forecasts header")
            for rec in reader:
                if rec:
                    rows.append(
                        ForecastRow(dt.date.fromisoformat(rec[0]), rec[1], rec[2], float(rec[3]))
                    )
        return cls(rows)


@dataclass
class TaskResult:
    asset: str
    train_quarter: Quarter
    forecast_quarter: Quarter
    algo: str
    forecasts: list[tuple[dt.date, float]] = field(default_factory=list)
    importances: list[ImportanceRecord] = field(default_factory=list)
    model: object | None = None
    window_dates: tuple[dt.date, dt.date] | None = None
    nonzero_fraction: float | None = None
    skip_reason: str | None = None
    fail_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None

    @property
    def failed(self) -> bool:
        return self.fail_reason is not None


@dataclass
class RunReport:
    n_tasks: int = 0
    n_completed: int = 0
    skips: list[tuple[str, str, str, str]] = field(default_factory=list)
    failures: list[tuple[str, str, str, str]] = field(default_factory=list)
    seconds: float = 0.0
    threads: int = 1
    sparsity: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            "run report",
            f"tasks.total = {self.n_tasks}",
            f"tasks.completed = {self.n_completed}",
            f"tasks.skipped = {len(self.skips)}",
            f"tasks.failed = {len(self.failures)}",
            f"threads = {self.threads}",
            f"wall_seconds = {self.seconds:.2f}",
        ]
        for algo in sorted(self.sparsity):
            lines.append(f"sparsity.{algo} = {self.sparsity[algo]:.6f}")
        for asset, quarter, algo, reason in self.skips:
            lines.append(f"skip {asset} {quarter} {algo}: {reason}")
        for asset, quarter, algo, reason in self.failures:
            lines.append(f"fail {asset} {quarter} {algo}: {reason}")
        return "\n".join(lines) + "\n"


def task_seed(base_seed: int, asset: str, train_quarter: Quarter, algo: str) -> int:
    """Stable 63-bit per-task seed; independent of process hash randomization."""
    text = f"{base_seed}|{asset}|{format_quarter(train_quarter)}|{algo}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _fit_model(algo: str, block: SignalBlock, params, seed: int):
    if algo in STANDARDIZED_ALGOS:
        scaled, stats = standardize(block)
        X, y = scaled.values, scaled.target
    else:
        stats = None
        X, y = block.values, block.target
    if algo == "ols":
        return learners.fit_ols(X, y, stats=stats)
    if algo == "lasso":
        return learners.fit_lasso(X, y, alpha=params.alpha, stats=stats)
    if algo == "enet":
        return learners.fit_elastic_net(
            X, y, alpha=params.alpha, l1_ratio=params.l1_ratio, stats=stats
        )
    if algo == "rf":
        return learners.fit_random_forest(X, y, params, seed)
    if algo == "gb":
        return learners.fit_gradient_boosting(X, y, params, seed)
    if algo == "nn":
        return learners.fit_nn(X, y, params, seed, stats=stats)
    raise RadarError(f"unknown algorithm {algo!r}")


def train_predict_stock_quarter(
    assets: ReturnPanel,
    sources: ReturnPanel,
    calendar: TradingCalendar,
    asset: str,
    train_quarter: Quarter,
    algo: str,
    config: RadarConfig,
) -> TaskResult:
    """Fit on the trailing window ending at ``train_quarter`` and forecast
    every trading day of the asset in the next quarter.

    A window below ``min_train_rows`` comes back as a skip.  A library error
    from the fit, the prediction block, the prediction or the attribution
    comes back as a failure that carries only its reason.
    """
    forecast_quarter = shift_quarter(train_quarter, 1)
    result = TaskResult(asset, train_quarter, forecast_quarter, algo)
    try:
        block = assemble_training_window(
            assets,
            sources,
            calendar,
            asset,
            train_quarter,
            lags=config.lags,
            window_quarters=config.window_quarters,
            min_rows=config.min_train_rows,
        )
    except WindowTooSmall as exc:
        result.skip_reason = str(exc)
        return result

    seed = task_seed(config.seed, asset, train_quarter, algo)
    params = config.params_for(algo)
    try:
        model = _fit_model(algo, block, params, seed)
        result.model = model
        result.window_dates = (block.rows[0][1], block.rows[-1][1])

        pred_block = build_signal_block(
            sources,
            assets,
            calendar.days_in_quarter(forecast_quarter),
            config.lags,
            asset_ids=[asset],
        )
        yhat = learners.predict(model, pred_block.values)
        result.forecasts = [(d, float(v)) for (_, d), v in zip(pred_block.rows, yhat)]

        if isinstance(model, learners.LinearModel):
            result.nonzero_fraction = sparsity_fraction(model.coef)

        if config.importance:
            if algo in ("lasso", "enet"):
                result.importances = lasso_importance(
                    model, block.columns, asset, forecast_quarter
                )
            elif algo in ("rf", "gb"):
                result.importances = mean_abs_importance(
                    model,
                    block,
                    asset,
                    forecast_quarter,
                    method="tree_shap",
                    seed=seed,
                )
            elif algo == "nn":
                result.importances = mean_abs_importance(
                    model,
                    block,
                    asset,
                    forecast_quarter,
                    method="sampled_shapley",
                    n_permutations=config.nn_importance_permutations,
                    seed=seed,
                )
    except MarketRadarError as exc:
        return TaskResult(asset, train_quarter, forecast_quarter, algo, fail_reason=str(exc))
    return result


def enumerate_tasks(
    assets: ReturnPanel,
    calendar: TradingCalendar,
    config: RadarConfig,
) -> list[tuple[str, Quarter, str]]:
    """(asset, training quarter, algo) triples with a full window and a
    forecast quarter inside the calendar."""
    quarters = calendar.quarters()
    if len(quarters) <= config.window_quarters:
        return []
    usable = quarters[config.window_quarters - 1 : -1]
    tasks = []
    for asset in assets.entity_ids:
        for q in usable:
            if quarter_range(q, config.window_quarters)[0] not in quarters:
                continue
            for algo in config.algorithms:
                tasks.append((asset, q, algo))
    return tasks


TaskInputs = tuple[ReturnPanel, ReturnPanel, TradingCalendar, RadarConfig]

# Set only in worker processes, by the pool's initializer: a forked worker
# inherits the inputs every task reads instead of unpickling them.
_worker_inputs: TaskInputs | None = None


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _run_task(task: tuple[str, Quarter, str], inputs: TaskInputs | None = None) -> TaskResult:
    """Run one task on ``inputs``, or in a worker on the inputs its
    initializer set.  The fitted model is dropped: nothing after the merge
    reads it, and a worker would pickle it back."""
    assets, sources, calendar, config = inputs or _worker_inputs
    asset, quarter, algo = task
    result = train_predict_stock_quarter(assets, sources, calendar, asset, quarter, algo, config)
    result.model = None
    return result


def run_radar(
    assets: ReturnPanel,
    sources: ReturnPanel,
    config: RadarConfig,
    calendar: TradingCalendar | None = None,
) -> tuple[ForecastTable, list[ImportanceRecord], RunReport]:
    """Run every stock-quarter task and merge outputs in deterministic order."""
    cal = calendar if calendar is not None else assets.calendar()
    tasks = enumerate_tasks(assets, cal, config)
    if not tasks:
        raise RadarError("no runnable tasks: not enough quarters for the window")

    start = time.perf_counter()
    inputs = (assets, sources, cal, config)
    workers = min(config.threads, math.ceil(len(tasks) / TASK_CHUNK))
    if workers > 1:
        # Imported here: the serial path and the other CLI steps then do
        # without multiprocessing (about 0.4 MB of peak RSS at start-up).
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=inputs,
            ) as pool:
                results = list(pool.map(_run_task, tasks, chunksize=TASK_CHUNK))
        except BrokenProcessPool as exc:
            raise RadarError(f"worker process died: {exc}") from exc
    else:
        results = [_run_task(t, inputs) for t in tasks]

    results.sort(key=lambda r: (r.asset, r.train_quarter, r.algo))
    frows: list[ForecastRow] = []
    importances: list[ImportanceRecord] = []
    report = RunReport(n_tasks=len(tasks), threads=config.threads)
    nnz_by_algo: dict[str, list[float]] = {}
    for r in results:
        key = (r.asset, format_quarter(r.forecast_quarter), r.algo)
        if r.skipped:
            report.skips.append((*key, r.skip_reason))
            continue
        if r.failed:
            report.failures.append((*key, r.fail_reason))
            continue
        report.n_completed += 1
        frows.extend(ForecastRow(d, r.asset, r.algo, v) for d, v in r.forecasts)
        importances.extend(r.importances)
        if r.nonzero_fraction is not None:
            nnz_by_algo.setdefault(r.algo, []).append(r.nonzero_fraction)
    if report.n_completed == 0:
        if report.failures:
            asset, quarter, algo, reason = report.failures[0]
            raise RadarError(
                f"{reason} ({asset} {quarter} {algo}); no task completed: "
                f"{len(report.failures)} failed, {len(report.skips)} skipped"
            )
        raise RadarError("no runnable tasks: every stock-quarter was skipped")
    report.sparsity = {a: float(np.mean(v)) for a, v in nnz_by_algo.items()}
    report.seconds = time.perf_counter() - start

    importances.sort(
        key=lambda r: (r.asset, r.quarter, r.algo, r.signal.source, r.signal.lag_week)
    )
    return ForecastTable(frows), importances, report


def write_importance_csv(path: Path | str, records: Sequence[ImportanceRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asset", "quarter", "algo", "source", "lag_week", "importance"])
        for r in records:
            writer.writerow(
                [
                    r.asset,
                    format_quarter(r.quarter),
                    r.algo,
                    r.signal.source,
                    r.signal.lag_week,
                    repr(r.value),
                ]
            )


def read_importance_csv(path: Path | str) -> list[ImportanceRecord]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["asset", "quarter", "algo", "source", "lag_week", "importance"]:
            raise RadarError(f"{path}: expected importance header")
        for rec in reader:
            if rec:
                out.append(
                    ImportanceRecord(
                        rec[0],
                        parse_quarter(rec[1]),
                        rec[2],
                        SignalId(rec[3], int(rec[4])),
                        float(rec[5]),
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Hyperparameter tuning: independent random searches over sampled
# stock-quarters, aggregated by per-dimension medians.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchDim:
    """One searchable hyperparameter dimension."""

    kind: str  # "choice" | "uniform" | "loguniform" | "int"
    values: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "choice":
            if not self.values:
                raise RadarError("choice dimension needs values")
        elif self.kind in ("uniform", "loguniform", "int"):
            if not self.lo <= self.hi:
                raise RadarError("dimension needs lo <= hi")
            if self.kind == "loguniform" and self.lo <= 0:
                raise RadarError("loguniform needs lo > 0")
        else:
            raise RadarError(f"unknown dimension kind {self.kind!r}")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "choice":
            return float(self.values[int(rng.integers(0, len(self.values)))])
        if self.kind == "uniform":
            return float(rng.uniform(self.lo, self.hi))
        if self.kind == "loguniform":
            return float(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))
        return float(rng.integers(int(self.lo), int(self.hi) + 1))

    def snap(self, value: float) -> float:
        """Round a median back to the nearest valid value of the dimension."""
        if self.kind == "choice":
            return min(self.values, key=lambda v: (abs(v - value), v))
        if self.kind == "int":
            return float(min(max(int(round(value)), int(self.lo)), int(self.hi)))
        return float(min(max(value, self.lo), self.hi))


def tune_hyperparameters(
    assets: ReturnPanel,
    sources: ReturnPanel,
    algo: str,
    space: Mapping[str, SearchDim],
    n_tasks: int,
    budget: int,
    seed: int,
    config: RadarConfig | None = None,
    calendar: TradingCalendar | None = None,
    quarters: Sequence[Quarter] | None = None,
):
    """Per-dimension median of the best configuration found by independent
    random searches on sampled stock-quarters.

    Each sampled (asset, quarter) gets ``budget`` random configurations;
    the one with the lowest next-quarter squared forecast error wins.  The
    tuning sample must predate the evaluation period; restrict it with
    ``quarters`` when tuning and evaluation share a panel.
    """
    if n_tasks < 1 or budget < 1:
        raise RadarError("n_tasks and budget must be >= 1")
    if not space:
        raise RadarError("empty search space")
    base = config if config is not None else RadarConfig(algorithms=(algo,))
    cal = calendar if calendar is not None else assets.calendar()

    candidates = []
    for asset, q, a in enumerate_tasks(assets, cal, replace(base, algorithms=(algo,))):
        if quarters is None or q in quarters:
            candidates.append((asset, q))
    if not candidates:
        raise RadarError("empty tuning sample")

    pick_rng = np.random.default_rng(seed)
    chosen_idx = pick_rng.choice(
        len(candidates), size=n_tasks, replace=n_tasks > len(candidates)
    )
    dims = sorted(space)
    winners: dict[str, list[float]] = {d: [] for d in dims}

    for task_no, ci in enumerate(chosen_idx):
        asset, q = candidates[int(ci)]
        rng = np.random.default_rng(task_seed(seed, asset, q, f"tune-{algo}-{task_no}"))
        best_err = math.inf
        best_cfg: dict[str, float] | None = None
        for _ in range(budget):
            cfg = {d: space[d].sample(rng) for d in dims}
            try:
                params = hp.params_from_mapping(algo, cfg)
            except hp.HyperparameterError:
                continue
            task_cfg = replace(
                base, algorithms=(algo,), hyperparameters={algo: params}, importance=False
            )
            result = train_predict_stock_quarter(assets, sources, cal, asset, q, algo, task_cfg)
            if result.skipped or not result.forecasts:
                continue
            realized = assets.rows([d for d, _ in result.forecasts], [asset])[:, 0]
            predicted = np.array([v for _, v in result.forecasts])
            err = float(np.sum((realized - predicted) ** 2))
            if err < best_err:
                best_err = err
                best_cfg = cfg
        if best_cfg is not None:
            for d in dims:
                winners[d].append(best_cfg[d])

    if not winners[dims[0]]:
        raise RadarError("empty tuning sample: no stock-quarter produced forecasts")
    tuned = {d: space[d].snap(float(np.median(winners[d]))) for d in dims}
    return hp.params_from_mapping(algo, tuned)
